// Tests for the executing-server mode: the cluster simulator driving a
// real metadata implementation (fsmeta + WAL + shared-disk images).
#include "cluster/fsmeta_backing.h"

#include <gtest/gtest.h>

#include "cluster/cluster_sim.h"
#include "policies/anu_policy.h"
#include "policies/round_robin.h"
#include "workload/op_workload.h"

namespace anufs::cluster {
namespace {

workload::OpWorkloadConfig small_ops() {
  workload::OpWorkloadConfig config;
  config.file_sets = 20;
  config.total_ops = 6000;
  config.duration = 1200.0;
  config.seed = 5;
  return config;
}

ClusterConfig paper_cluster() {
  ClusterConfig cc;
  cc.server_speeds = {1, 3, 5, 7, 9};
  return cc;
}

TEST(FsmetaBacking, ExecutesEveryServedRequest) {
  const workload::OpWorkloadResult generated =
      workload::make_op_workload(small_ops());
  FsmetaBacking backing(generated);
  policy::RoundRobinPolicy policy;
  ClusterSim sim(paper_cluster(), generated.workload, policy);
  sim.attach_backing(backing);
  const RunResult r = sim.run();
  EXPECT_EQ(backing.executed(), r.completed);
  EXPECT_GT(r.completed, generated.workload.request_count() * 9 / 10);
  backing.check_consistency();
}

TEST(FsmetaBacking, LiveExecutionMatchesGenerationWithoutChurn) {
  // With a static policy and no crashes, live execution replays the
  // generation-time execution exactly: same per-op outcomes.
  const workload::OpWorkloadResult generated =
      workload::make_op_workload(small_ops());
  FsmetaBacking backing(generated);
  policy::RoundRobinPolicy policy;
  ClusterConfig cc = paper_cluster();
  cc.movement.enabled = false;
  ClusterSim sim(cc, generated.workload, policy);
  sim.attach_backing(backing);
  const RunResult r = sim.run();
  // Same failure count as the generator observed (executions replay
  // per-file-set in the same order).
  if (r.completed == generated.workload.request_count()) {
    EXPECT_EQ(backing.op_failures(), generated.failed);
  } else {
    EXPECT_LE(backing.op_failures(), generated.failed);
  }
}

TEST(FsmetaBacking, AdaptivePolicyPaysRealFlushCosts) {
  const workload::OpWorkloadResult generated =
      workload::make_op_workload(small_ops());
  FsmetaBacking backing(generated);
  policy::AnuPolicy policy{core::AnuConfig{}};
  ClusterSim sim(paper_cluster(), generated.workload, policy);
  sim.attach_backing(backing);
  const RunResult r = sim.run();
  if (r.moves > 0) {
    EXPECT_GT(backing.flushes(), 0u);
  }
  backing.check_consistency();
}

TEST(FsmetaBacking, CrashLosesVolatileUpdatesAndRecovers) {
  const workload::OpWorkloadResult generated =
      workload::make_op_workload(small_ops());
  FsmetaBacking backing(generated);
  policy::AnuPolicy policy{core::AnuConfig{}};
  ClusterSim sim(paper_cluster(), generated.workload, policy);
  sim.attach_backing(backing);
  sim.schedule_failure(600.0, ServerId{4});
  const RunResult r = sim.run();
  // The victim's file sets were recovered by their new owners.
  EXPECT_GT(backing.recoveries(), 0u);
  backing.check_consistency();
  // Nothing is left in the crashed state.
  for (const workload::FileSetSpec& fs : generated.workload.file_sets) {
    EXPECT_FALSE(backing.file_set(fs.id).crashed()) << fs.name;
  }
  (void)r;
}

TEST(FsmetaBacking, CostFreeMovesStillFlushAndRecover) {
  // With movement off, moves cost nothing in simulated time but still
  // drive the backing's state transitions: live shedders flush, every
  // acquirer initializes or recovers, and the crash loses the victim's
  // unflushed tail. The counts are pinned exactly.
  const workload::OpWorkloadResult generated =
      workload::make_op_workload(small_ops());
  FsmetaBacking backing(generated);
  policy::AnuPolicy policy{core::AnuConfig{}};
  ClusterConfig cc = paper_cluster();
  cc.movement.enabled = false;
  ClusterSim sim(cc, generated.workload, policy);
  sim.attach_backing(backing);
  sim.schedule_failure(600.0, ServerId{4});
  const RunResult r = sim.run();
  EXPECT_EQ(backing.executed(), r.completed);
  EXPECT_EQ(backing.flushes(), 13u);
  EXPECT_EQ(backing.recoveries(), 9u);
  EXPECT_EQ(backing.executed(), 6055u);
  EXPECT_EQ(backing.lost_updates(), 38u);
  backing.check_consistency();
  for (const workload::FileSetSpec& fs : generated.workload.file_sets) {
    EXPECT_FALSE(backing.file_set(fs.id).crashed()) << fs.name;
  }
}

TEST(FsmetaBacking, CheckpointsBoundJournals) {
  workload::OpWorkloadConfig config = small_ops();
  config.total_ops = 30000;  // enough mutations to trip compaction
  config.duration = 3000.0;
  const workload::OpWorkloadResult generated =
      workload::make_op_workload(config);
  FsmetaBackingConfig bc;
  bc.checkpoint_threshold = 64;
  FsmetaBacking backing(generated, bc);
  policy::RoundRobinPolicy policy;
  ClusterSim sim(paper_cluster(), generated.workload, policy);
  sim.attach_backing(backing);
  (void)sim.run();
  EXPECT_GT(backing.checkpoints(), 0u);
  for (const workload::FileSetSpec& fs : generated.workload.file_sets) {
    EXPECT_LE(backing.file_set(fs.id).journal().durable().size() +
                  backing.file_set(fs.id).journal().dirty_count(),
              bc.checkpoint_threshold + 1);
  }
}

TEST(FsmetaBacking, DeterministicAcrossRuns) {
  const workload::OpWorkloadResult generated =
      workload::make_op_workload(small_ops());
  const auto run_once = [&] {
    FsmetaBacking backing(generated);
    policy::AnuPolicy policy{core::AnuConfig{}};
    ClusterSim sim(paper_cluster(), generated.workload, policy);
    sim.attach_backing(backing);
    const RunResult r = sim.run();
    return std::tuple{r.completed, r.moves, r.mean_latency,
                      backing.op_failures()};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(FsmetaBacking, ParametricModelAgreesWithExecution) {
  // The headline validation: the parametric (precomputed-demand) run
  // and the executing-server run of the SAME workload land in the same
  // latency regime (within 2x) under a static policy.
  const workload::OpWorkloadResult generated =
      workload::make_op_workload(small_ops());
  policy::RoundRobinPolicy p1;
  ClusterSim parametric(paper_cluster(), generated.workload, p1);
  const RunResult a = parametric.run();

  FsmetaBacking backing(generated);
  policy::RoundRobinPolicy p2;
  ClusterSim executing(paper_cluster(), generated.workload, p2);
  executing.attach_backing(backing);
  const RunResult b = executing.run();

  EXPECT_LT(b.mean_latency, 2.0 * a.mean_latency + 0.005);
  EXPECT_LT(a.mean_latency, 2.0 * b.mean_latency + 0.005);
}

}  // namespace
}  // namespace anufs::cluster
