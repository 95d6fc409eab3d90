// Serving-mode equivalence property: concurrency never changes an
// answer.
//
// Every (fingerprint, generation) pair served concurrently — recorded
// by the readers while the writer churned retunes, failures, and
// commissions under them — is replayed sequentially on a fresh
// AnuSystem driven through the identical op log, and the LocateResult
// must be bit-identical in all four fields (server, probes, fallback,
// position). This is the serving analogue of the placement-cache
// property test: the epoch/snapshot machinery and the per-reader caches
// may change WHEN a lookup computes, never WHAT it computes.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/anu_system.h"
#include "fault/fault_plan.h"
#include "serve/lookup_service.h"

namespace anufs::serve {
namespace {

ServeConfig property_config(std::uint64_t seed) {
  ServeConfig config;
  config.threads = 4;
  config.seconds = 0.0;
  config.writer_ops = 120;
  config.writer_ops_per_second = 0.0;
  config.seed = seed;
  config.n_servers = 8;
  config.file_sets = 1024;
  config.batch_size = 128;
  config.min_batches = 24;
  config.sample_every_batches_log2 = 0;  // sample every batch
  config.validate_inline = true;
  return config;
}

TEST(ServeEquivalenceTest, ConcurrentSamplesBitIdenticalToSequentialReplay) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    LookupService service(property_config(seed));
    const ServeResult result = service.run();
    ASSERT_GT(result.samples, 0u) << "seed " << seed;

    const EquivalenceReport eq = service.check_equivalence();
    EXPECT_EQ(eq.mismatches, 0u) << "seed " << seed;
    EXPECT_EQ(eq.unmatched_generation, 0u) << "seed " << seed;
    EXPECT_EQ(eq.samples_checked, result.samples) << "seed " << seed;
    EXPECT_NE(eq.digest, 0u) << "seed " << seed;
  }
}

TEST(ServeEquivalenceTest, OpLogReplayWalksIdenticalGenerations) {
  LookupService service(property_config(/*seed=*/7));
  (void)service.run();

  // Replay by hand and check the recorded generation trail; a single
  // divergence would mean the op log under-determines the system and
  // the equivalence check above was vacuous.
  const std::vector<WriterOp>& ops = service.ops();
  ASSERT_EQ(ops.size(), 120u);
  std::vector<ServerId> initial;
  for (std::uint32_t i = 0; i < 8; ++i) initial.push_back(ServerId{i});
  core::AnuSystem replay(core::AnuConfig{}, initial);
  for (const WriterOp& op : ops) {
    switch (op.kind) {
      case WriterOp::Kind::kRetune:
        (void)replay.reconfigure(op.reports);
        break;
      case WriterOp::Kind::kFail:
        replay.fail_server(op.server);
        break;
      case WriterOp::Kind::kAdd:
        replay.add_server(op.server);
        break;
    }
    EXPECT_EQ(replay.regions().generation(), op.generation_after);
  }
  // Generations only move forward (a reader can order any two snapshots
  // by stamp alone — what the scoped cache revalidation relies on).
  std::uint64_t prev = 0;
  for (const WriterOp& op : ops) {
    EXPECT_GE(op.generation_after, prev);
    prev = op.generation_after;
  }
}

TEST(ServeEquivalenceTest, CacheAccountingIsExact) {
  LookupService service(property_config(/*seed=*/9));
  const ServeResult result = service.run();
  // Every lookup went through a reader's PlacementCache: batch lookups
  // plus one extra per recorded sample, nothing else. Exactness here is
  // the single-writer counter claim — no increment was lost despite
  // concurrent live_stats() harvesting being legal throughout.
  EXPECT_EQ(result.cache.hits + result.cache.misses,
            result.lookups + result.samples);
  EXPECT_GT(result.cache.hits, 0u);
  // Churn happened, so at least one epoch change was observed, and
  // scoped revalidation did some of its cheap saves.
  EXPECT_GT(result.cache.invalidations, 0u);
}

TEST(ServeEquivalenceTest, FaultPlanMembershipEventsEnterTheOpLog) {
  ServeConfig config = property_config(/*seed=*/11);
  config.faults = fault::parse_fault_plan_text(
      "crash 10 2\n"
      "recover 60 2\n"
      "add 90 8 1.5\n");
  config.min_alive = 2;
  LookupService service(std::move(config));
  (void)service.run();

  bool saw_fail_2 = false;
  bool saw_add_8 = false;
  for (const WriterOp& op : service.ops()) {
    if (op.kind == WriterOp::Kind::kFail && op.server == ServerId{2}) {
      saw_fail_2 = true;
    }
    if (op.kind == WriterOp::Kind::kAdd && op.server == ServerId{8}) {
      saw_add_8 = true;
    }
  }
  EXPECT_TRUE(saw_fail_2);
  EXPECT_TRUE(saw_add_8);
  EXPECT_TRUE(service.check_equivalence().ok());
}

TEST(ServeEquivalenceDeathTest, PlanAddingAnIdPastTheDenseRangeIsRejected) {
  ServeConfig config = property_config(/*seed=*/1);
  config.threads = 1;
  config.writer_ops = 8;
  config.n_servers = 4;
  config.file_sets = 64;
  config.faults = fault::parse_fault_plan_text("add 10 4294967295 1.0\n");
  EXPECT_DEATH(
      {
        LookupService service(std::move(config));
        (void)service.run();
      },
      "addition of server id 4294967295");
}

}  // namespace
}  // namespace anufs::serve
