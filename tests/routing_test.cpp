// Tests for the stale-map routing / forwarding model.
#include <gtest/gtest.h>

#include "cluster/cluster_sim.h"
#include "policies/anu_policy.h"
#include "policies/round_robin.h"
#include "workload/synthetic.h"

namespace anufs::cluster {
namespace {

workload::Workload small_workload() {
  workload::SyntheticConfig config;
  config.file_sets = 60;
  config.total_requests = 12000;
  config.duration = 1200.0;
  config.seed = 4;
  return workload::make_synthetic(config);
}

ClusterConfig routed_cluster(double delay) {
  ClusterConfig cc;
  cc.server_speeds = {1, 3, 5, 7, 9};
  cc.routing.distribution_delay = delay;
  return cc;
}

TEST(Routing, StaticPolicyNeverForwards) {
  const workload::Workload work = small_workload();
  policy::RoundRobinPolicy policy;
  ClusterSim sim(routed_cluster(30.0), work, policy);
  const RunResult r = sim.run();
  EXPECT_EQ(r.forwarded, 0u);  // no moves -> no stale mappings
}

TEST(Routing, AdaptivePolicyForwardsDuringStaleness) {
  const workload::Workload work = small_workload();
  policy::AnuPolicy policy{core::AnuConfig{}};
  ClusterSim sim(routed_cluster(30.0), work, policy);
  const RunResult r = sim.run();
  EXPECT_GT(r.moves, 0u);
  EXPECT_GT(r.forwarded, 0u);
  // Forwarded requests still complete (they take the extra hop).
  EXPECT_GT(r.completed, r.total_requests * 9 / 10);
}

TEST(Routing, LongerStalenessForwardsMore) {
  const workload::Workload work = small_workload();
  const auto run_with = [&](double delay) {
    policy::AnuPolicy policy{core::AnuConfig{}};
    ClusterSim sim(routed_cluster(delay), work, policy);
    return sim.run();
  };
  const RunResult fast = run_with(0.5);
  const RunResult slow = run_with(60.0);
  EXPECT_GT(slow.forwarded, fast.forwarded);
}

TEST(Routing, DisabledModelForwardsNothing) {
  const workload::Workload work = small_workload();
  policy::AnuPolicy policy{core::AnuConfig{}};
  ClusterConfig cc;
  cc.server_speeds = {1, 3, 5, 7, 9};
  ClusterSim sim(cc, work, policy);
  const RunResult r = sim.run();
  EXPECT_EQ(r.forwarded, 0u);
}

TEST(Routing, ForwardingPreservesDeterminism) {
  const workload::Workload work = small_workload();
  const auto run_once = [&] {
    policy::AnuPolicy policy{core::AnuConfig{}};
    ClusterSim sim(routed_cluster(10.0), work, policy);
    return sim.run();
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_EQ(a.forwarded, b.forwarded);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
}

TEST(Routing, ForwardingAddsModestLatency) {
  const workload::Workload work = small_workload();
  const auto run_with = [&](double delay) {
    policy::AnuPolicy policy{core::AnuConfig{}};
    ClusterSim sim(routed_cluster(delay), work, policy);
    return sim.run();
  };
  const RunResult without = run_with(0.0);
  const RunResult with = run_with(10.0);
  // Forwarding costs something but does not wreck the system: within
  // 2x of the staleness-free mean.
  EXPECT_LT(with.mean_latency, 2.0 * without.mean_latency + 0.01);
}

}  // namespace
}  // namespace anufs::cluster
