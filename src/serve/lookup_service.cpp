#include "serve/lookup_service.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <string>
#include <utility>

#include "common/check.h"
#include "hash/mix64.h"
#include "metrics/summary.h"
#include "sim/pacing.h"

namespace anufs::serve {
namespace {

/// An answer's server, probe count and fallback flag in one word.
[[nodiscard]] constexpr std::uint64_t answer_meta(
    const core::LocateResult& r) {
  return static_cast<std::uint64_t>(r.server.value) |
         (static_cast<std::uint64_t>(r.probes) << 32) |
         (r.fallback ? std::uint64_t{1} << 63 : 0);
}

/// Order-stable fold of one checked answer into the equivalence digest.
[[nodiscard]] constexpr std::uint64_t fold_result(
    std::uint64_t digest, std::uint64_t fp, const core::LocateResult& r) {
  const std::uint64_t x = hash::mix64(digest ^ fp ^ answer_meta(r));
  return hash::mix64(x ^ r.position);
}

[[nodiscard]] bool results_equal(const core::LocateResult& a,
                                 const core::LocateResult& b) noexcept {
  return a.server == b.server && a.probes == b.probes &&
         a.fallback == b.fallback && a.position == b.position;
}

}  // namespace

std::uint64_t serve_batch(const core::PlacementMap& map,
                          std::span<const std::uint64_t> keys,
                          sim::Xoshiro256& rng, std::span<std::uint64_t> fps,
                          std::span<core::LocateResult> results,
                          std::uint64_t digest, std::uint64_t* stamps) {
  const std::size_t n = fps.size();
  // Draw, pass 1: the serial RNG chain. It runs on a local copy of the
  // generator, so its four state words stay in registers (the stores
  // into fps may alias the reader's generator, which would send them
  // through memory on every draw), and is written back after the loop.
  // Each index is staged in fps and its key's line prefetched, so no
  // load waits on the chain.
  const std::uint64_t set_size = keys.size();
  sim::Xoshiro256 chain = rng;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t index = chain.next_below(set_size);
    fps[i] = index;
    __builtin_prefetch(keys.data() + index);
  }
  rng = chain;
  // Draw, pass 2: independent loads, so their misses overlap. The keys
  // and their order are those of a one-pass draw.
  for (std::size_t i = 0; i < n; ++i) fps[i] = keys[fps[i]];
  if (stamps != nullptr) stamps[0] = sim::monotonic_ns();
  map.locate_many(fps, results);
  if (stamps != nullptr) stamps[1] = sim::monotonic_ns();
  // The batch's answers enter the reader's chain as two word sums, and
  // the chain takes one step over both. A sum is order-free, so in-batch
  // order cannot move the digest, and the loop is plain adds. Every
  // field of every answer still enters it; per-answer mixing would only
  // buy avalanche, which a printed checksum does not need (answers are
  // proven by the inline sample check and check_equivalence()).
  std::uint64_t fp_sum = 0;
  std::uint64_t meta_sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const core::LocateResult& r = results[i];
    fp_sum += fps[i] ^ r.position;
    meta_sum += answer_meta(r);
  }
  digest = hash::mix64(hash::mix64(digest ^ fp_sum) ^ meta_sum);
  if (stamps != nullptr) stamps[2] = sim::monotonic_ns();
  return digest;
}

LookupService::LookupService(ServeConfig config)
    : config_(std::move(config)),
      store_(config_.threads),
      writer_rng_(sim::derive_seed(config_.seed, "serve/writer")) {
  ANUFS_EXPECTS(config_.threads >= 1);
  ANUFS_EXPECTS(config_.n_servers >= 2);
  ANUFS_EXPECTS(config_.batch_size >= 1);
  ANUFS_EXPECTS(config_.file_sets >= 1);
  // A finite window whose deadline the clock can represent (the
  // comparisons are false for NaN and the infinities too).
  ANUFS_EXPECTS(config_.seconds >= 0.0 &&
                config_.seconds <= ServeConfig::kMaxSeconds);
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
  for (std::uint32_t i = 0; i < config_.threads; ++i) {
    readers_.push_back(std::make_unique<ReaderState>(
        sim::derive_seed(config_.seed, "serve/reader", i),
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
  // Merge the readers' timing samples at their largest stride, so a
  // faster reader's batches weigh no more than a slower one's; both
  // percentiles select in place.
  std::uint64_t stride = 1;
  std::size_t kept = 0;
  for (const auto& reader : readers_) {
    stride = std::max(stride, reader->batch_ns->stride());
    kept += reader->batch_ns->kept().size();
  }
  std::vector<double> all_batch_ns;
  all_batch_ns.reserve(kept);
  for (const auto& reader : readers_) {
    r.lookups += reader->lookups.load(std::memory_order_relaxed);
    r.digest ^= reader->digest;
    r.samples += reader->samples.size();
    r.latency_ns.merge(reader->latency_ns);
    reader->batch_ns->append_at_stride(stride, all_batch_ns);
    r.phases.batches += reader->phases.batches;
    r.phases.ns += reader->phases.ns;
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      r.phases.phase_ns[p] += reader->phases.phase_ns[p];
    }
  }
  r.lookups_per_second =
      r.seconds > 0.0 ? static_cast<double>(r.lookups) / r.seconds : 0.0;
  r.mean_ns = r.latency_ns.mean();
  r.p50_ns = metrics::percentile_in_place(all_batch_ns, 0.50);
  r.p99_ns = metrics::percentile_in_place(all_batch_ns, 0.99);
  const double timed_lookups =
      static_cast<double>(r.phases.batches) * config_.batch_size;
  for (std::size_t p = 0; p < kPhaseCount && timed_lookups > 0.0; ++p) {
    r.phase_ns[p] = static_cast<double>(r.phases.phase_ns[p]) / timed_lookups;
  }
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
  // 2^16 batch timings resolve p99 with hundreds of batches beyond it;
  // past that the reservoir thins its sample (the histogram still
  // counts every batch), so faster readers need no more memory.
  constexpr std::size_t kTimedBatches = std::size_t{1} << 16;
  r.batch_ns.emplace(kTimedBatches);
  // Clock reads of a phase-timed batch: t0, then after the pin, the
  // draw, the locate and the fold, then t1. Consecutive differences are
  // the phases, so they tile [t0, t1].
  std::array<std::uint64_t, kPhaseCount + 1> stamps{};

  while (!stop_.load(std::memory_order_relaxed)) {
    // The last batch of every 2^k records a sample and is timed phase by
    // phase. The reservoir keeps batches at multiples of its stride, so
    // once that reaches 2^k, p50/p99 carry none of these extra clock
    // reads and sample checks.
    const bool phased = (r.batch_count & sample_mask) == sample_mask;
    const std::uint64_t t0 = sim::monotonic_ns();
    const Snapshot* snap = store_.acquire(idx);
    if (phased) stamps[1] = sim::monotonic_ns();
    run_batch(r, snap->map, batch, phased ? &stamps[2] : nullptr);
    if (phased && r.samples.size() < config_.max_samples_per_reader) {
      record_sample(r, *snap);
    }
    store_.release(idx);
    const std::uint64_t t1 = sim::monotonic_ns();

    if (phased) {
      stamps[0] = t0;
      stamps[kPhaseCount] = t1;
      for (std::size_t p = 0; p < kPhaseCount; ++p) {
        r.phases.phase_ns[p] += stamps[p + 1] - stamps[p];
      }
      r.phases.ns += t1 - t0;
      ++r.phases.batches;
    }
    const double per_lookup_ns =
        static_cast<double>(t1 - t0) / static_cast<double>(batch);
    r.latency_ns.record(per_lookup_ns);
    r.batch_ns->push(per_lookup_ns);
    ++r.batch_count;
    // Single-writer relaxed publication for live_stats().
    r.lookups.store(r.lookups.load(std::memory_order_relaxed) + batch,
                    std::memory_order_relaxed);
    r.batches.store(r.batch_count, std::memory_order_relaxed);
  }
}

void LookupService::run_batch(ReaderState& r, const core::PlacementMap& map,
                              std::uint32_t n, std::uint64_t* stamps) {
  // Staging is preallocated at batch_size in the ReaderState constructor.
  r.digest = serve_batch(
      map, fingerprints_, r.rng, std::span(r.batch_fps.data(), n),
      std::span(r.batch_results.data(), n), r.digest, stamps);
}

void LookupService::record_sample(ReaderState& r, const Snapshot& snap) {
  // A torn or re-published snapshot would disagree with its own stamp.
  ANUFS_ENSURES(snap.map.regions().generation() == snap.generation);
  Sample s;
  // run_batch always fills the whole staging, so back() is the answer
  // the batch served last.
  s.fingerprint = r.batch_fps.back();
  s.generation = snap.generation;
  s.result = r.batch_results.back();
  if (config_.validate_inline) {
    // The batch kernel's answer must equal THIS snapshot's scalar
    // derivation — the inline half of the correctness battery (the
    // replay half is check_equivalence()).
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
  // sequential derivation bit-for-bit.
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
  registry.gauge("serve_seconds").set(result.seconds);
  registry.gauge("serve_lookups_per_second").set(result.lookups_per_second);
  registry.gauge("serve_lookup_mean_ns").set(result.mean_ns);
  registry.gauge("serve_lookup_p50_ns").set(result.p50_ns);
  registry.gauge("serve_lookup_p99_ns").set(result.p99_ns);
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    registry.gauge("serve_phase_" + std::string(kPhaseNames[p]) + "_ns")
        .set(result.phase_ns[p]);
  }
  registry
      .histogram("serve_lookup_latency_ns", result.latency_ns.base(),
                 result.latency_ns.buckets().size())
      .merge(result.latency_ns);
}

}  // namespace anufs::serve
