// Serving-mode stress battery: readers hammering locate() while the
// writer churns the control plane under a seeded fault plan.
//
// This is the dynamic half of the epoch/snapshot proof (the static half
// is the ordering argument in src/serve/epoch.h): run it under the tsan
// preset and ThreadSanitizer checks every interleaving it can provoke —
// no torn snapshot, no use-after-free on a retired map, no data race on
// the harvest counters. The test itself asserts the semantic half:
// every sampled result validates against the generation it was served
// from (validate_inline re-derives against the pinned snapshot at serve
// time; check_equivalence replays the whole op log sequentially), and
// shutdown is clean even when requested with readers mid-epoch.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "fault/fault_plan.h"
#include "support/random_fault_plan.h"
#include "serve/epoch.h"
#include "serve/lookup_service.h"
#include "serve/snapshot.h"

namespace anufs::serve {
namespace {

ServeConfig stress_config(std::uint64_t seed) {
  ServeConfig config;
  config.threads = 8;
  config.seconds = 0.0;  // deterministic shape: run by op/batch budget
  config.writer_ops = 200;
  config.writer_ops_per_second = 0.0;  // as fast as the machine allows
  config.seed = seed;
  config.n_servers = 12;
  config.file_sets = 512;
  config.batch_size = 64;
  config.min_batches = 16;
  config.sample_every_batches_log2 = 1;
  config.validate_inline = true;

  fault::RandomPlanConfig plan;
  plan.n_servers = config.n_servers;
  plan.max_crashes = 4;
  plan.max_additions = 2;
  plan.min_alive = 3;
  config.min_alive = plan.min_alive;
  config.faults = fault::make_random_plan(plan, seed);
  return config;
}

TEST(ServeStressTest, EightReadersTwoHundredChurnOpsNoTornSnapshot) {
  LookupService service(stress_config(/*seed=*/1));
  const ServeResult result = service.run();

  // The writer applied its whole budget and every reader made progress.
  EXPECT_EQ(result.ops_applied, 200u);
  EXPECT_GE(result.lookups, 8u * 16u * 64u);
  EXPECT_GT(result.snapshots_published, 1u);
  EXPECT_GT(result.samples, 0u);

  // Conservation: every publish except the live current one was
  // retired, and every retiree is either freed or still pending its
  // grace period at the instant of shutdown.
  EXPECT_EQ(result.snapshots_freed + result.snapshots_pending,
            result.snapshots_published - 1);

  // Every sample validated inline at serve time (validate_inline would
  // have aborted otherwise); now the replay half.
  const EquivalenceReport eq = service.check_equivalence();
  EXPECT_TRUE(eq.ok()) << eq.mismatches << " mismatches, "
                       << eq.unmatched_generation << " unmatched";
  EXPECT_EQ(eq.samples_checked, result.samples);
}

TEST(ServeStressTest, SeedsProduceDistinctSchedulesAllClean) {
  for (std::uint64_t seed : {2ull, 3ull}) {
    LookupService service(stress_config(seed));
    const ServeResult result = service.run();
    EXPECT_EQ(result.ops_applied, 200u) << "seed " << seed;
    const EquivalenceReport eq = service.check_equivalence();
    EXPECT_TRUE(eq.ok()) << "seed " << seed;
  }
}

TEST(ServeStressTest, StopWithReadersMidEpochIsClean) {
  ServeConfig config = stress_config(/*seed=*/4);
  config.seconds = 5.0;      // wall-clock mode...
  config.writer_ops = 0;     // ...unlimited churn...
  config.writer_ops_per_second = 0.0;
  LookupService service(std::move(config));
  service.start();
  // Let the storm develop, then yank shutdown while every reader is
  // somewhere inside an acquire/release window.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_TRUE(service.running());
  service.stop();
  EXPECT_FALSE(service.running());

  const ServeResult& result = service.result();
  EXPECT_GT(result.lookups, 0u);
  // The store survived shutdown with its books balanced; destruction
  // (no readers left) reclaims the rest without touching freed memory.
  EXPECT_TRUE(service.check_equivalence().ok());
}

TEST(ServeStressTest, EpochDomainMinActiveTracksPins) {
  EpochDomain domain(3);
  EXPECT_EQ(domain.min_active(), ~std::uint64_t{0});  // all quiescent
  const std::uint64_t e0 = domain.pin(0);
  EXPECT_EQ(e0, domain.current());
  EXPECT_EQ(domain.min_active(), e0);
  EXPECT_GT(domain.advance(), e0);
  const std::uint64_t e1 = domain.pin(1);
  EXPECT_GT(e1, e0);
  EXPECT_EQ(domain.min_active(), e0);  // oldest pin rules
  domain.unpin(0);
  EXPECT_EQ(domain.min_active(), e1);
  domain.unpin(1);
  EXPECT_EQ(domain.min_active(), ~std::uint64_t{0});
}

TEST(ServeStressTest, SnapshotStoreRetiresOnlyPastGrace) {
  core::PlacementMap map =
      core::PlacementMap::for_servers(core::PlacementConfig{}, 4);
  for (std::uint32_t i = 0; i < 4; ++i) map.regions().add_server(ServerId{i});

  SnapshotStore store(/*max_readers=*/1);
  store.publish(map);
  const Snapshot* pinned = store.acquire(0);
  ASSERT_NE(pinned, nullptr);

  // Two more publishes while slot 0 stays pinned: the pinned snapshot's
  // epoch predates both retirement stamps, so nothing may be freed.
  map.regions().resize(ServerId{0}, map.regions().share(ServerId{1}) / 2);
  store.publish(map);
  map.regions().resize(ServerId{2}, map.regions().share(ServerId{3}) / 2);
  store.publish(map);
  EXPECT_EQ(store.published(), 3u);
  EXPECT_EQ(store.freed(), 0u);
  EXPECT_EQ(store.retired_pending(), 2u);
  // The pinned pointer still reads coherently.
  EXPECT_EQ(pinned->map.regions().generation(), pinned->generation);

  // Release and re-pin: the reader's epoch advances past both stamps,
  // so the writer's next reclaim frees both retirees.
  store.release(0);
  const Snapshot* fresh = store.acquire(0);
  EXPECT_NE(fresh, pinned);
  store.reclaim();
  EXPECT_EQ(store.freed(), 2u);
  EXPECT_EQ(store.retired_pending(), 0u);
  store.release(0);
}

}  // namespace
}  // namespace anufs::serve
