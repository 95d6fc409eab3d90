#include "layer_replay.h"

#include <algorithm>
#include <span>

#include "bench.h"
#include "core/placement_cache.h"
#include "serve/snapshot.h"
#include "sim/random.h"

namespace anufs::bench {
namespace {

void apply(core::AnuSystem& system, const serve::WriterOp& op) {
  switch (op.kind) {
    case serve::WriterOp::Kind::kRetune:
      (void)system.reconfigure(op.reports);
      break;
    case serve::WriterOp::Kind::kFail:
      system.fail_server(op.server);
      break;
    case serve::WriterOp::Kind::kAdd:
      system.add_server(op.server);
      break;
  }
}

bool same(const core::LocateResult& a, const core::LocateResult& b) {
  return a.server == b.server && a.probes == b.probes &&
         a.fallback == b.fallback && a.position == b.position;
}

}  // namespace

LayerCosts replay_layers(const core::AnuConfig& config,
                         const std::vector<ServerId>& initial,
                         const std::vector<serve::WriterOp>& ops,
                         const std::vector<std::uint64_t>& working_set,
                         std::uint64_t seed, std::size_t max_ops) {
  constexpr std::size_t kLookups =
      std::size_t{kReplayBatch} * kReplayBatchesPerOp;
  core::AnuSystem system(config, initial);
  serve::SnapshotStore store(1);
  store.publish(system.placement());
  core::PlacementCache cache(kReplayCacheSlots);
  sim::Xoshiro256 rng(sim::derive_seed(seed, "bench/replay"));
  std::vector<std::uint64_t> keys(kLookups);
  std::vector<core::LocateResult> cached(kLookups);
  std::vector<core::LocateResult> uncached(kLookups);

  LayerCosts costs;
  const std::size_t n_ops = std::min(ops.size(), max_ops);
  std::uint64_t control_ns = 0;
  std::uint64_t publish_ns = 0;
  std::uint64_t pin_ns = 0;
  std::uint64_t cache_ns = 0;
  std::uint64_t locate_ns = 0;
  // With no ops, still measure the lookup layers once on the initial map.
  const std::size_t rounds = std::max<std::size_t>(n_ops, 1);
  for (std::size_t i = 0; i < rounds; ++i) {
    if (i < n_ops) {
      const serve::WriterOp& op = ops[i];
      std::uint64_t t = now_ns();
      apply(system, op);
      control_ns += now_ns() - t;
      if (system.regions().generation() != op.generation_after) {
        ++costs.generation_mismatches;
      }
      t = now_ns();
      (void)store.publish_if_changed(system.placement());
      store.reclaim();
      publish_ns += now_ns() - t;
    }

    for (std::uint64_t& key : keys) {
      key = working_set[rng.next_below(working_set.size())];
    }
    std::uint64_t t = now_ns();
    for (std::uint32_t b = 0; b < kReplayBatchesPerOp; ++b) {
      (void)store.acquire(0);
      store.release(0);
    }
    pin_ns += now_ns() - t;

    const serve::Snapshot* snap = store.acquire(0);
    const auto cache_pass = [&] {
      const std::uint64_t start = now_ns();
      for (std::size_t b = 0; b < kLookups; b += kReplayBatch) {
        cache.locate_many(
            snap->map, std::span<const std::uint64_t>(&keys[b], kReplayBatch),
            std::span<core::LocateResult>(&cached[b], kReplayBatch));
      }
      cache_ns += now_ns() - start;
    };
    const auto locate_pass = [&] {
      const std::uint64_t start = now_ns();
      for (std::size_t b = 0; b < kLookups; b += kReplayBatch) {
        snap->map.locate_many(
            std::span<const std::uint64_t>(&keys[b], kReplayBatch),
            std::span<core::LocateResult>(&uncached[b], kReplayBatch));
      }
      locate_ns += now_ns() - start;
    };
    // Alternate which pass runs first so neither always finds the owner
    // table already in the CPU cache.
    if (i % 2 == 0) {
      cache_pass();
      locate_pass();
    } else {
      locate_pass();
      cache_pass();
    }
    store.release(0);
    for (std::size_t k = 0; k < kLookups; ++k) {
      if (!same(cached[k], uncached[k])) ++costs.answer_mismatches;
    }
  }

  const auto per = [](std::uint64_t total_ns, std::size_t count) {
    return count > 0 ? static_cast<double>(total_ns) /
                           static_cast<double>(count)
                     : 0.0;
  };
  costs.control_us_per_op = per(control_ns, n_ops) * 1e-3;
  costs.publish_us_per_op = per(publish_ns, n_ops) * 1e-3;
  costs.pin_ns_per_batch = per(pin_ns, rounds * kReplayBatchesPerOp);
  costs.cache_ns_per_lookup = per(cache_ns, rounds * kLookups);
  costs.locate_ns_per_lookup = per(locate_ns, rounds * kLookups);
  costs.cache_hit_rate = cache.stats().hit_rate();
  return costs;
}

}  // namespace anufs::bench
