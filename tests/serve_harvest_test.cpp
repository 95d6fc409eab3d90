// Mid-serve metrics harvest is not a data race.
//
// PlacementCache's hit/miss counters and each serving reader's progress
// counters are single-writer relaxed atomics, so ANY thread may snapshot
// them while the owning thread is mid-locate. These tests drive exactly
// that overlap — a harvester hammering stats()/live_stats() concurrently
// with the owner's lookup loop — and are part of the tsan preset, where
// ThreadSanitizer would flag the old plain-field counters immediately.
// The accounting checks prove the relaxed scheme loses nothing: once
// the owner quiesces, the counters are exact, not approximate.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "core/anu_system.h"
#include "core/placement_cache.h"
#include "obs/metrics_registry.h"
#include "serve/lookup_service.h"

namespace anufs::serve {
namespace {

TEST(ServeHarvestTest, CacheStatsReadableFromNonOwningThread) {
  core::PlacementMap map =
      core::PlacementMap::for_servers(core::PlacementConfig{}, 8);
  for (std::uint32_t i = 0; i < 8; ++i) map.regions().add_server(ServerId{i});
  core::PlacementCache cache(1024);

  std::atomic<bool> stop{false};
  std::uint64_t harvests = 0;
  std::uint64_t last_total = 0;
  std::thread harvester([&] {
    // The non-owning thread: snapshot stats() as fast as possible while
    // the owner runs its lookup loop. Each per-field read is atomic and
    // the hits+misses total must never go backwards (single-writer
    // monotone counters).
    while (!stop.load(std::memory_order_relaxed)) {
      const core::PlacementCache::Stats s = cache.stats();
      const std::uint64_t total = s.hits + s.misses;
      EXPECT_GE(total, last_total);
      last_total = total;
      ++harvests;
    }
  });

  constexpr std::uint64_t kLookups = 200000;
  for (std::uint64_t i = 0; i < kLookups; ++i) {
    (void)cache.locate(map, 0x9E3779B97F4A7C15ULL * (i % 4096 + 1));
  }
  stop.store(true, std::memory_order_relaxed);
  harvester.join();
  EXPECT_GT(harvests, 0u);

  // Owner quiesced: the counters are exact.
  const core::PlacementCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, kLookups);
}

TEST(ServeHarvestTest, LiveStatsMidServeIsRaceFreeAndMonotone) {
  ServeConfig config;
  config.threads = 3;
  config.seconds = 5.0;  // stopped manually well before this
  config.writer_ops = 0;
  config.writer_ops_per_second = 0.0;  // maximum churn under the harvest
  config.seed = 21;
  config.n_servers = 8;
  config.file_sets = 512;
  config.batch_size = 64;
  LookupService service(std::move(config));
  service.start();

  // Harvest from this (non-reader, non-writer) thread while serving is
  // in full flight; under the tsan preset this is the regression test
  // that run_metrics-style mid-serve harvesting is not a data race.
  std::uint64_t last_lookups = 0;
  std::uint64_t last_batches = 0;
  for (int i = 0; i < 50; ++i) {
    const LiveStats live = service.live_stats();
    EXPECT_GE(live.lookups, last_lookups);
    EXPECT_GE(live.batches, last_batches);
    last_lookups = live.lookups;
    last_batches = live.batches;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(last_lookups, 0u);

  service.stop();
  // Post-join the live view and the final result agree (the readers
  // published their last batch before exiting).
  const LiveStats final_live = service.live_stats();
  EXPECT_EQ(final_live.lookups, service.result().lookups);
}

TEST(ServeHarvestTest, HarvestFillsRegistryDeterministically) {
  ServeConfig config;
  config.threads = 2;
  config.seconds = 0.0;
  config.writer_ops = 40;
  config.writer_ops_per_second = 0.0;
  config.seed = 5;
  config.n_servers = 6;
  config.file_sets = 256;
  config.batch_size = 64;
  config.min_batches = 8;
  LookupService service(std::move(config));
  const ServeResult result = service.run();

  obs::Registry registry;
  LookupService::harvest(result, registry);
  EXPECT_EQ(registry.counter("serve_lookups").value(), result.lookups);
  EXPECT_EQ(registry.counter("serve_ops_applied").value(), 40u);
  EXPECT_EQ(registry.counter("serve_samples").value(), result.samples);
  const obs::Histogram& h =
      registry.histograms().at("serve_lookup_latency_ns");
  EXPECT_EQ(h.count(), result.latency_ns.count());
  EXPECT_EQ(h.sum(), result.latency_ns.sum());
}

// The phases tile each phase-timed batch, so their integer totals add up
// to the timed batches' total exactly, and harvest publishes each
// phase's per-lookup mean.
TEST(ServeHarvestTest, PhaseTimingsAddUpExactlyAndAreHarvested) {
  ServeConfig config;
  config.threads = 2;
  config.seconds = 0.0;
  config.writer_ops = 40;
  config.writer_ops_per_second = 0.0;
  config.seed = 8;
  config.n_servers = 6;
  config.file_sets = 4096;
  config.batch_size = 64;
  config.min_batches = 64;
  config.sample_every_batches_log2 = 1;
  config.max_samples_per_reader = 4;  // phase timing outlives sampling
  LookupService service(config);
  const ServeResult result = service.run();

  const PhaseTotals& phases = result.phases;
  const LiveStats live = service.live_stats();
  // Every other batch of each reader, counting from its second.
  EXPECT_GE(phases.batches, config.threads * config.min_batches / 2);
  EXPECT_LE(phases.batches, live.batches / 2);
  std::uint64_t sum = 0;
  for (std::size_t p = 0; p < kPhaseCount; ++p) sum += phases.phase_ns[p];
  EXPECT_EQ(sum, phases.ns);
  for (std::size_t p = 0; p + 1 < kPhaseCount; ++p) {
    EXPECT_GT(phases.phase_ns[p], 0u) << kPhaseNames[p];
    EXPECT_GT(result.phase_ns[p], 0.0) << kPhaseNames[p];
  }
  double mean_sum = 0.0;
  for (const double ns : result.phase_ns) mean_sum += ns;
  EXPECT_NEAR(mean_sum,
              static_cast<double>(phases.ns) /
                  static_cast<double>(phases.batches * config.batch_size),
              1e-9 * mean_sum);
  // Phase timing adds no lookup.
  EXPECT_EQ(result.lookups, live.batches * config.batch_size);

  obs::Registry registry;
  LookupService::harvest(result, registry);
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const std::string name =
        "serve_phase_" + std::string(kPhaseNames[p]) + "_ns";
    ASSERT_EQ(registry.gauges().count(name), 1u) << name;
    EXPECT_EQ(registry.gauges().at(name).value(), result.phase_ns[p]);
  }
}

TEST(ServeHarvestTest, HistogramMergePreservesEveryBucket) {
  obs::Histogram a(1.0, 16);
  obs::Histogram b(1.0, 16);
  for (double v : {0.5, 3.0, 17.0, 900.0}) a.record(v);
  for (double v : {2.0, 3.5, 1e6}) b.record(v);
  obs::Histogram merged(1.0, 16);
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.count(), a.count() + b.count());
  EXPECT_EQ(merged.sum(), a.sum() + b.sum());
  EXPECT_EQ(merged.min(), 0.5);
  EXPECT_EQ(merged.max(), 1e6);
  for (std::size_t i = 0; i < merged.buckets().size(); ++i) {
    EXPECT_EQ(merged.buckets()[i], a.buckets()[i] + b.buckets()[i]);
  }
  // Merging an empty histogram is the identity.
  obs::Histogram empty(1.0, 16);
  merged.merge(empty);
  EXPECT_EQ(merged.count(), 7u);
}

}  // namespace
}  // namespace anufs::serve
