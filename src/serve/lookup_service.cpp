#include "serve/lookup_service.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "common/check.h"
#include "hash/mix64.h"
#include "metrics/summary.h"
#include "sim/pacing.h"

namespace anufs::serve {
namespace {

/// Order-stable fold of one served answer into a digest chain.
[[nodiscard]] constexpr std::uint64_t fold_result(
    std::uint64_t digest, std::uint64_t fp, const core::LocateResult& r) {
  std::uint64_t x = digest ^ fp;
  x = hash::mix64(x ^ (static_cast<std::uint64_t>(r.server.value) |
                       (static_cast<std::uint64_t>(r.probes) << 32) |
                       (r.fallback ? std::uint64_t{1} << 63 : 0)));
  return hash::mix64(x ^ r.position);
}

[[nodiscard]] bool results_equal(const core::LocateResult& a,
                                 const core::LocateResult& b) noexcept {
  return a.server == b.server && a.probes == b.probes &&
         a.fallback == b.fallback && a.position == b.position;
}

}  // namespace

LookupService::LookupService(ServeConfig config)
    : config_(std::move(config)),
      store_(config_.threads),
      writer_rng_(sim::derive_seed(config_.seed, "serve/writer")) {
  ANUFS_EXPECTS(config_.threads >= 1);
  ANUFS_EXPECTS(config_.n_servers >= 2);
  ANUFS_EXPECTS(config_.batch_size >= 1);
  ANUFS_EXPECTS(config_.file_sets >= 1);
  // Without a wall-clock window the run must terminate by op count.
  ANUFS_EXPECTS(config_.seconds > 0.0 || config_.writer_ops > 0);
  config_.min_alive = std::max<std::uint32_t>(
      1, std::min(config_.min_alive, config_.n_servers));

  // The shared working set: fingerprints are hash outputs in the real
  // system, so a derived-stream draw models them faithfully.
  fingerprints_.reserve(config_.file_sets);
  sim::Xoshiro256 fps = sim::make_stream(config_.seed, "serve/filesets");
  for (std::uint32_t i = 0; i < config_.file_sets; ++i) {
    fingerprints_.push_back(fps());
  }

  initial_ids_.reserve(config_.n_servers);
  for (std::uint32_t i = 0; i < config_.n_servers; ++i) {
    initial_ids_.push_back(ServerId{i});
  }
  system_ = std::make_unique<core::AnuSystem>(config_.anu, initial_ids_);

  fault::validate_or_die(config_.faults, config_.n_servers);
  // Fold the fault plan's membership events into the churn schedule in
  // time order (reversed storage; the writer pops from the back). Limp
  // and SAN windows shape latency in the simulator, not addressing, so
  // serving mode ignores them.
  struct TimedEvent {
    double time;
    bool is_fail;
    ServerId server;
  };
  std::vector<TimedEvent> timed;
  for (const auto& e : config_.faults.crashes) {
    timed.push_back({e.time, true, ServerId{e.server}});
  }
  for (const auto& e : config_.faults.recoveries) {
    timed.push_back({e.time, false, ServerId{e.server}});
  }
  for (const auto& e : config_.faults.additions) {
    timed.push_back({e.time, false, ServerId{e.server}});
  }
  std::stable_sort(timed.begin(), timed.end(),
                   [](const TimedEvent& a, const TimedEvent& b) {
                     return a.time > b.time;  // reversed for pop_back()
                   });
  plan_events_.reserve(timed.size());
  for (const TimedEvent& e : timed) {
    plan_events_.emplace_back(e.is_fail, e.server);
  }
  // A valid plan's additions take exactly the ids after the initial ones.
  next_fresh_server_ =
      config_.n_servers +
      static_cast<std::uint32_t>(config_.faults.additions.size());

  // Per-reader state, heap-pinned: the atomics (and the epoch slots they
  // pair with) must never move.
  readers_.reserve(config_.threads);
  const std::size_t cache_capacity =
      config_.reader_cache_capacity != 0
          ? config_.reader_cache_capacity
          : std::max<std::size_t>(16384, std::size_t{16} * config_.file_sets);
  for (std::uint32_t i = 0; i < config_.threads; ++i) {
    readers_.push_back(std::make_unique<ReaderState>(
        sim::derive_seed(config_.seed, "serve/reader", i), cache_capacity,
        config_.batch_size));
  }

  // The publication hook: every RegionMap mutation (statically complete
  // by rule G1) marks the live map dirty; the writer publishes at the
  // next op boundary and asserts hook and generation agree.
  system_->placement().regions().set_mutation_hook(
      [this] { map_dirty_ = true; });
}

LookupService::~LookupService() { stop(); }

void LookupService::start() {
  ANUFS_EXPECTS(!started_);
  started_ = true;
  // Readers must never observe a null snapshot: publish the initial
  // configuration before any reader launches.
  store_.publish(system_->placement());
  serve_begin_ns_ = sim::monotonic_ns();
  pool_ = std::make_unique<sim::ThreadPool>(config_.threads);
  for (std::uint32_t i = 0; i < config_.threads; ++i) {
    pool_->submit([this, i] { reader_loop(i); });
  }
  writer_ = std::thread([this] { writer_loop(); });
}

void LookupService::stop() {
  if (!started_ || joined_) return;
  stop_.store(true, std::memory_order_seq_cst);
  writer_.join();
  pool_->wait_idle();
  pool_.reset();
  const std::uint64_t end_ns = sim::monotonic_ns();
  joined_ = true;

  // Summarize. Everything below is join-ordered with the readers, so
  // the non-atomic per-reader state is safe to read now.
  ServeResult& r = result_;
  r.threads = config_.threads;
  r.seconds = sim::ns_to_seconds(serve_begin_ns_, end_ns);
  std::vector<double> all_batch_ns;
  for (const auto& reader : readers_) {
    r.lookups += reader->lookups.load(std::memory_order_relaxed);
    const auto stats = reader->cache.stats();
    r.cache.hits += stats.hits;
    r.cache.misses += stats.misses;
    r.cache.invalidations += stats.invalidations;
    r.cache.revalidated += stats.revalidated;
    r.digest ^= reader->digest;
    r.samples += reader->samples.size();
    r.latency_ns.merge(reader->latency_ns);
    all_batch_ns.insert(all_batch_ns.end(), reader->batch_ns.begin(),
                        reader->batch_ns.end());
  }
  r.lookups_per_second =
      r.seconds > 0.0 ? static_cast<double>(r.lookups) / r.seconds : 0.0;
  r.mean_ns = r.latency_ns.mean();
  r.p50_ns = metrics::percentile(all_batch_ns, 0.50);
  r.p99_ns = metrics::percentile(std::move(all_batch_ns), 0.99);
  r.ops_applied = ops_.size();
  r.snapshots_published = store_.published();
  r.snapshots_freed = store_.freed();
  r.snapshots_pending = store_.retired_pending();
  r.final_generation = store_.last_generation();
}

ServeResult LookupService::run() {
  start();
  if (config_.seconds > 0.0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(config_.seconds));
    std::this_thread::sleep_until(deadline);
  } else {
    // Deterministic-shape mode: wind down once the writer has applied
    // its whole op budget and every reader has served min_batches.
    while (!writer_done_.load(std::memory_order_relaxed) ||
           !readers_warmed()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  stop();
  return result_;
}

bool LookupService::readers_warmed() const {
  for (const auto& reader : readers_) {
    if (reader->batches.load(std::memory_order_relaxed) <
        config_.min_batches) {
      return false;
    }
  }
  return true;
}

LiveStats LookupService::live_stats() const {
  LiveStats out;
  for (const auto& reader : readers_) {
    out.lookups += reader->lookups.load(std::memory_order_relaxed);
    out.batches += reader->batches.load(std::memory_order_relaxed);
    const auto stats = reader->cache.stats();
    out.cache.hits += stats.hits;
    out.cache.misses += stats.misses;
    out.cache.invalidations += stats.invalidations;
    out.cache.revalidated += stats.revalidated;
  }
  return out;
}

const std::vector<WriterOp>& LookupService::ops() const {
  ANUFS_EXPECTS(joined_);
  return ops_;
}

std::vector<Sample> LookupService::all_samples() const {
  ANUFS_EXPECTS(joined_);
  std::vector<Sample> out;
  for (const auto& reader : readers_) {
    out.insert(out.end(), reader->samples.begin(), reader->samples.end());
  }
  return out;
}

const ServeResult& LookupService::result() const {
  ANUFS_EXPECTS(joined_);
  return result_;
}

// ---- writer ----------------------------------------------------------------

void LookupService::writer_loop() {
  sim::Pacer pacer(config_.writer_ops_per_second);
  while (!stop_.load(std::memory_order_relaxed)) {
    if (writer_done_.load(std::memory_order_relaxed)) {
      // Op budget exhausted (seconds-mode keeps serving): keep draining
      // the retired list so a long tail of reader batches cannot pile
      // snapshots up, then idle briefly.
      store_.reclaim();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    if (!apply_next_op()) {
      writer_done_.store(true, std::memory_order_relaxed);
      continue;
    }
    pacer.pace();
  }
  writer_done_.store(true, std::memory_order_relaxed);
}

bool LookupService::apply_next_op() {
  if (config_.writer_ops != 0 && ops_.size() >= config_.writer_ops) {
    return false;
  }

  WriterOp op;
  const std::uint32_t alive = system_->regions().server_count();
  const std::uint32_t server_cap = 2 * config_.n_servers;

  // One fault-plan membership event every 4th op until the plan drains;
  // otherwise a seeded draw (retune-heavy, the realistic mix).
  bool from_plan = false;
  if (!plan_events_.empty() && ops_.size() % 4 == 3) {
    const auto [is_fail, server] = plan_events_.back();
    plan_events_.pop_back();
    const bool present = system_->regions().has_server(server);
    if (is_fail && present && alive > config_.min_alive) {
      op.kind = WriterOp::Kind::kFail;
      op.server = server;
      from_plan = true;
    } else if (!is_fail && !present) {
      op.kind = WriterOp::Kind::kAdd;
      op.server = server;
      from_plan = true;
    }
    // An inapplicable plan event (the generated churn already failed or
    // revived that server) falls through to a generated op.
  }

  if (!from_plan) {
    switch (writer_rng_.next_below(8)) {
      case 5: {  // fail a random survivor
        if (alive <= config_.min_alive) break;
        const auto& ids = system_->regions().server_ids_view();
        op.server = ids[writer_rng_.next_below(ids.size())];
        op.kind = WriterOp::Kind::kFail;
        break;
      }
      case 6: {  // recover a previously-failed server
        if (failed_pool_.empty()) break;
        const std::size_t pick = writer_rng_.next_below(failed_pool_.size());
        op.server = failed_pool_[pick];
        op.kind = WriterOp::Kind::kAdd;
        break;
      }
      case 7: {  // commission a fresh server
        if (alive >= server_cap) break;
        op.server = ServerId{next_fresh_server_};
        op.kind = WriterOp::Kind::kAdd;
        break;
      }
      default:
        break;  // kRetune
    }
  }

  if (op.kind == WriterOp::Kind::kRetune) {
    // Synthetic interval reports, recorded verbatim so replay feeds the
    // tuner bit-identical inputs.
    const std::vector<ServerId> ids = system_->alive();
    op.reports.reserve(ids.size());
    for (const ServerId id : ids) {
      core::ServerReport report;
      report.id = id;
      report.mean_latency = 0.0005 + 0.0045 * writer_rng_.next_double();
      report.requests = 50 + writer_rng_.next_below(200);
      op.reports.push_back(report);
    }
  }

  // Bookkeeping the generated ops need for their preconditions.
  if (op.kind == WriterOp::Kind::kFail) {
    failed_pool_.push_back(op.server);
  } else if (op.kind == WriterOp::Kind::kAdd) {
    const auto it =
        std::find(failed_pool_.begin(), failed_pool_.end(), op.server);
    if (it != failed_pool_.end()) {
      failed_pool_.erase(it);
    } else if (op.server.value >= next_fresh_server_) {
      next_fresh_server_ = op.server.value + 1;
    }
  }

  apply_op(*system_, op);
  op.generation_after = system_->regions().generation();
  ops_.push_back(std::move(op));

  // Publish-on-dirty, and assert the hook and the generation agree: a
  // mutator that forgot its stamp (impossible under rule G1) or a hook
  // firing without a generation bump would trip here immediately.
  const bool published = store_.publish_if_changed(system_->placement());
  ANUFS_ENSURES(published == map_dirty_);
  map_dirty_ = false;
  return true;
}

void LookupService::apply_op(core::AnuSystem& system,
                             const WriterOp& op) const {
  switch (op.kind) {
    case WriterOp::Kind::kRetune:
      (void)system.reconfigure(op.reports);
      break;
    case WriterOp::Kind::kFail:
      system.fail_server(op.server);
      break;
    case WriterOp::Kind::kAdd:
      system.add_server(op.server);
      break;
  }
}

// ---- readers ---------------------------------------------------------------

void LookupService::reader_loop(std::size_t idx) {
  ReaderState& r = *readers_[idx];
  const std::uint32_t batch = config_.batch_size;
  const std::uint64_t sample_mask =
      (std::uint64_t{1} << config_.sample_every_batches_log2) - 1;
  // Cap the raw per-batch timing sample (the histogram keeps counting
  // past it); 1M batches of timing resolve p99 far beyond what the
  // log-bucketed histogram could.
  constexpr std::size_t kMaxTimedBatches = std::size_t{1} << 20;
  r.batch_ns.reserve(std::min<std::size_t>(kMaxTimedBatches, 1u << 14));

  while (!stop_.load(std::memory_order_relaxed)) {
    const std::uint64_t t0 = sim::monotonic_ns();
    const Snapshot* snap = store_.acquire(idx);
    run_batch(r, snap->map, batch);
    if ((r.batch_count & sample_mask) == 0 &&
        r.samples.size() < config_.max_samples_per_reader) {
      record_sample(r, *snap);
    }
    store_.release(idx);
    const std::uint64_t t1 = sim::monotonic_ns();

    const double per_lookup_ns =
        static_cast<double>(t1 - t0) / static_cast<double>(batch);
    r.latency_ns.record(per_lookup_ns);
    if (r.batch_ns.size() < kMaxTimedBatches) {
      r.batch_ns.push_back(per_lookup_ns);
    }
    ++r.batch_count;
    // Single-writer relaxed publication for live_stats().
    r.lookups.store(r.lookups.load(std::memory_order_relaxed) + batch,
                    std::memory_order_relaxed);
    r.batches.store(r.batch_count, std::memory_order_relaxed);
  }
}

void LookupService::run_batch(ReaderState& r, const core::PlacementMap& map,
                              std::uint32_t n) {
  // Draw the whole batch first (locate never touches the rng, so the
  // draw sequence is exactly what the per-lookup loop produced), resolve
  // it with one batched sweep, then fold in draw order. Staging is
  // preallocated at batch_size in the ReaderState constructor.
  const std::uint64_t set_size = fingerprints_.size();
  std::uint64_t* fps = r.batch_fps.data();
  core::LocateResult* results = r.batch_results.data();
  for (std::uint32_t i = 0; i < n; ++i) {
    fps[i] = fingerprints_[r.rng.next_below(set_size)];
  }
  r.cache.locate_many(map, std::span<const std::uint64_t>(fps, n),
                      std::span<core::LocateResult>(results, n));
  std::uint64_t digest = r.digest;
  for (std::uint32_t i = 0; i < n; ++i) {
    digest = fold_result(digest, fps[i], results[i]);
  }
  r.digest = digest;
}

void LookupService::record_sample(ReaderState& r, const Snapshot& snap) {
  // A torn or re-published snapshot would disagree with its own stamp.
  ANUFS_ENSURES(snap.map.regions().generation() == snap.generation);
  Sample s;
  s.fingerprint = fingerprints_[r.rng.next_below(fingerprints_.size())];
  s.generation = snap.generation;
  s.result = r.cache.locate(snap.map, s.fingerprint);
  if (config_.validate_inline) {
    // The cached answer must equal THIS snapshot's uncached derivation —
    // the inline half of the correctness battery (the replay half is
    // check_equivalence()).
    const core::LocateResult ref = snap.map.locate(s.fingerprint);
    ANUFS_ENSURES(results_equal(s.result, ref));
  }
  r.samples.push_back(s);
}

// ---- equivalence -----------------------------------------------------------

EquivalenceReport LookupService::check_equivalence() const {
  ANUFS_EXPECTS(joined_);
  EquivalenceReport report;

  // Group samples by the generation they were served from; order within
  // a generation by fingerprint so the digest is schedule-independent.
  std::map<std::uint64_t, std::vector<const Sample*>> by_gen;
  for (const auto& reader : readers_) {
    for (const Sample& s : reader->samples) {
      by_gen[s.generation].push_back(&s);
    }
  }
  for (auto& entry : by_gen) {
    std::vector<const Sample*>& bucket = entry.second;
    std::sort(bucket.begin(), bucket.end(),
              [](const Sample* a, const Sample* b) {
                return a->fingerprint < b->fingerprint;
              });
  }

  // Sequential replay: a fresh system, the recorded ops in order. Every
  // published generation appears at exactly one op boundary (or the
  // initial state), and the samples served from it must match the
  // sequential derivation (no cache) bit-for-bit.
  core::AnuSystem replay(config_.anu, initial_ids_);
  std::vector<std::uint64_t> bucket_fps;
  std::vector<core::LocateResult> bucket_refs;
  const auto validate_at = [&](std::uint64_t generation) {
    const auto it = by_gen.find(generation);
    if (it == by_gen.end()) return;
    // One batched sweep re-derives the whole generation bucket.
    bucket_fps.resize(it->second.size());
    bucket_refs.resize(it->second.size());
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      bucket_fps[i] = it->second[i]->fingerprint;
    }
    replay.locate_many(bucket_fps, bucket_refs);
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      const Sample* s = it->second[i];
      ++report.samples_checked;
      if (!results_equal(s->result, bucket_refs[i])) ++report.mismatches;
      report.digest = fold_result(report.digest ^ generation,
                                  s->fingerprint, s->result);
    }
    by_gen.erase(it);
  };

  validate_at(replay.regions().generation());
  for (const WriterOp& op : ops_) {
    apply_op(replay, op);
    // Replay must walk the exact generation sequence the writer saw.
    ANUFS_ENSURES(replay.regions().generation() == op.generation_after);
    validate_at(op.generation_after);
  }
  for (const auto& entry : by_gen) {
    report.unmatched_generation += entry.second.size();
  }
  return report;
}

// ---- harvest ---------------------------------------------------------------

void LookupService::harvest(const ServeResult& result,
                            obs::Registry& registry) {
  registry.counter("serve_lookups").set(result.lookups);
  registry.counter("serve_threads").set(result.threads);
  registry.counter("serve_ops_applied").set(result.ops_applied);
  registry.counter("serve_snapshots_published")
      .set(result.snapshots_published);
  registry.counter("serve_snapshots_freed").set(result.snapshots_freed);
  registry.counter("serve_snapshots_pending")
      .set(static_cast<std::uint64_t>(result.snapshots_pending));
  registry.counter("serve_final_generation").set(result.final_generation);
  registry.counter("serve_samples")
      .set(static_cast<std::uint64_t>(result.samples));
  registry.counter("serve_cache_hits").set(result.cache.hits);
  registry.counter("serve_cache_misses").set(result.cache.misses);
  registry.counter("serve_cache_invalidations")
      .set(result.cache.invalidations);
  registry.counter("serve_cache_revalidated").set(result.cache.revalidated);
  registry.gauge("serve_seconds").set(result.seconds);
  registry.gauge("serve_lookups_per_second").set(result.lookups_per_second);
  registry.gauge("serve_cache_hit_rate").set(result.cache.hit_rate());
  registry.gauge("serve_lookup_mean_ns").set(result.mean_ns);
  registry.gauge("serve_lookup_p50_ns").set(result.p50_ns);
  registry.gauge("serve_lookup_p99_ns").set(result.p99_ns);
  registry
      .histogram("serve_lookup_latency_ns", result.latency_ns.base(),
                 result.latency_ns.buckets().size())
      .merge(result.latency_ns);
}

}  // namespace anufs::serve
