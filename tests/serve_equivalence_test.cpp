// Serving-mode equivalence property: concurrency never changes an
// answer.
//
// Every (fingerprint, generation) pair served concurrently — recorded
// by the readers while the writer churned retunes, failures, and
// commissions under them — is replayed sequentially on a fresh
// AnuSystem driven through the identical op log, and the LocateResult
// must be bit-identical in all four fields (server, probes, fallback,
// position). The epoch/snapshot machinery may change WHEN a lookup
// computes, never WHAT it computes.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/anu_system.h"
#include "core/placement.h"
#include "fault/fault_plan.h"
#include "serve/lookup_service.h"
#include "sim/random.h"

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

TEST(ServeEquivalenceTest, LookupAccountingIsExact) {
  const ServeConfig config = property_config(/*seed=*/9);
  LookupService service(config);
  const ServeResult result = service.run();
  // Every lookup is one slot of a served batch, nothing else: samples
  // are answers the batches served, not extra lookups. Exactness here
  // is the single-writer counter claim — no increment was lost despite
  // concurrent live_stats() harvesting being legal throughout.
  const LiveStats live = service.live_stats();
  EXPECT_EQ(result.lookups, live.batches * config.batch_size);
  EXPECT_EQ(live.lookups, result.lookups);
  EXPECT_GT(result.samples, 0u);
}

// On an AVX-512 host the batch sweep normally runs the vector kernel;
// forcing the portable multi-lane loop makes the inline check compare
// that loop against the scalar path, and the replay (dispatched again)
// compares it against the vector kernel.
TEST(ServeEquivalenceTest, PortableKernelServesIdenticalAnswers) {
  core::testing::force_portable_locate(true);
  LookupService service(property_config(/*seed=*/13));
  (void)service.run();
  core::testing::force_portable_locate(false);
  const EquivalenceReport eq = service.check_equivalence();
  EXPECT_TRUE(eq.ok());
  EXPECT_GT(eq.samples_checked, 0u);
}

// The two-pass draw must serve the keys, in the order, that one pass of
// fingerprints_[rng.next_below(n)] would: with every batch sampled, the
// sample of batch b is draw 256·b + 255 of the reader's own stream.
TEST(ServeEquivalenceTest, ServedKeysFollowTheReaderStream) {
  ServeConfig config = property_config(/*seed=*/17);
  config.threads = 1;
  config.writer_ops = 16;
  config.batch_size = 256;
  config.max_samples_per_reader = 512;
  LookupService service(config);
  (void)service.run();

  std::vector<std::uint64_t> working_set;
  sim::Xoshiro256 fps = sim::make_stream(config.seed, "serve/filesets");
  for (std::uint32_t i = 0; i < config.file_sets; ++i) {
    working_set.push_back(fps());
  }
  sim::Xoshiro256 draws(sim::derive_seed(config.seed, "serve/reader", 0));
  const std::vector<Sample> samples = service.all_samples();
  ASSERT_GE(samples.size(), config.min_batches);
  for (std::size_t b = 0; b < samples.size(); ++b) {
    std::uint64_t key = 0;
    for (std::uint32_t i = 0; i < config.batch_size; ++i) {
      key = working_set[draws.next_below(working_set.size())];
    }
    ASSERT_EQ(samples[b].fingerprint, key) << "batch " << b;
  }
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

// A window past the clock's range would overflow the deadline: the
// service must refuse it, not serve for a moment and report success.
TEST(ServeEquivalenceDeathTest, WindowPastTheClockRangeIsRejected) {
  for (const double seconds : {1e10, 1e300}) {
    ServeConfig config = property_config(/*seed=*/1);
    config.seconds = seconds;
    EXPECT_DEATH({ LookupService service(std::move(config)); },
                 "kMaxSeconds")
        << seconds;
  }
}

}  // namespace
}  // namespace anufs::serve
