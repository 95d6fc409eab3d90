// Cross-cutting edge cases that no single module suite owns: extreme
// membership, degenerate workloads, death-test contracts.
#include <gtest/gtest.h>

#include <sstream>

#include "cluster/cluster_sim.h"
#include "core/anu_system.h"
#include "hash/unit_interval.h"
#include "metrics/emit.h"
#include "policies/anu_policy.h"
#include "policies/round_robin.h"
#include "workload/synthetic.h"

namespace anufs {
namespace {

using hash::kHalfInterval;

TEST(EdgeCases, SingleServerClusterWorks) {
  core::AnuSystem system{core::AnuConfig{}, {ServerId{0}}};
  EXPECT_EQ(system.regions().share(ServerId{0}), kHalfInterval);
  EXPECT_EQ(system.locate(12345), ServerId{0});
  // Tuning a single server is a no-op but must not blow up.
  const core::TuneDecision d =
      system.reconfigure({{ServerId{0}, 0.5, 100}});
  EXPECT_EQ(system.regions().share(ServerId{0}), kHalfInterval);
  (void)d;
}

TEST(EdgeCasesDeathTest, FailingLastServerAborts) {
  core::AnuSystem system{core::AnuConfig{}, {ServerId{0}}};
  EXPECT_DEATH(system.fail_server(ServerId{0}), "precondition");
}

TEST(EdgeCases, ShrinkToOneThenRegrowToMany) {
  std::vector<ServerId> ids;
  for (std::uint32_t i = 0; i < 6; ++i) ids.push_back(ServerId{i});
  core::AnuSystem system{core::AnuConfig{}, ids};
  for (std::uint32_t i = 1; i < 6; ++i) system.fail_server(ServerId{i});
  EXPECT_EQ(system.alive().size(), 1u);
  for (std::uint32_t i = 1; i < 12; ++i) system.add_server(ServerId{i + 10});
  EXPECT_EQ(system.alive().size(), 12u);
  system.check_invariants();
  EXPECT_EQ(system.regions().total_share(), kHalfInterval);
}

TEST(EdgeCases, EmptyWorkloadRunCompletes) {
  workload::Workload w;
  w.name = "empty";
  w.duration = 600.0;
  w.file_sets.push_back(workload::FileSetSpec::make(0, "only", 1.0));
  policy::RoundRobinPolicy policy;
  cluster::ClusterConfig cc;
  cc.server_speeds = {1, 2};
  cluster::ClusterSim sim(cc, w, policy);
  const cluster::RunResult r = sim.run();
  EXPECT_EQ(r.total_requests, 0u);
  EXPECT_EQ(r.completed, 0u);
  // Intervals were still sampled (all zero).
  EXPECT_EQ(r.latency_ms.at("server0").size(), 5u);
}

TEST(EdgeCases, SingleFileSetClusterBalancesTrivially) {
  workload::SyntheticConfig wc;
  wc.file_sets = 1;
  wc.total_requests = 2000;
  wc.duration = 600.0;
  const workload::Workload w = workload::make_synthetic(wc);
  policy::AnuPolicy policy{core::AnuConfig{}};
  cluster::ClusterConfig cc;
  cc.server_speeds = {1, 9};
  cluster::ClusterSim sim(cc, w, policy);
  const cluster::RunResult r = sim.run();
  // One indivisible file set: it lives somewhere; nothing explodes.
  EXPECT_GT(r.completed, 1500u);
  policy.system().check_invariants();
}

TEST(EdgeCases, ZeroLatencyReportsEverywhere) {
  // All idle for many rounds: no action, no drift.
  core::AnuSystem system{core::AnuConfig{},
                         {ServerId{0}, ServerId{1}, ServerId{2}}};
  const hash::Measure s0 = system.regions().share(ServerId{0});
  for (int i = 0; i < 10; ++i) {
    const core::TuneDecision d = system.reconfigure(
        {{ServerId{0}, 0.0, 0}, {ServerId{1}, 0.0, 0},
         {ServerId{2}, 0.0, 0}});
    EXPECT_FALSE(d.acted);
  }
  EXPECT_EQ(system.regions().share(ServerId{0}), s0);
}

TEST(EdgeCasesDeathTest, EmitBundleRejectsRaggedSeries) {
  metrics::SeriesBundle bundle;
  bundle.at("a").append(0, 1);
  bundle.at("a").append(60, 1);
  bundle.at("b").append(0, 1);  // one sample short
  std::ostringstream os;
  EXPECT_DEATH(metrics::emit_bundle(os, "ragged", bundle), "precondition");
}

TEST(EdgeCasesDeathTest, SchedulerRejectsPastEvents) {
  sim::Scheduler sched;
  sched.schedule_at(5.0, [] {});
  sched.run();
  EXPECT_DEATH(sched.schedule_at(1.0, [] {}), "precondition");
}

TEST(EdgeCasesDeathTest, FifoRejectsNonPositiveDemand) {
  sim::Scheduler sched;
  sim::FifoServer server(sched, 1.0);
  EXPECT_DEATH(server.submit(0.0, 0), "precondition");
  EXPECT_DEATH(server.submit(-1.0, 0), "precondition");
}

TEST(EdgeCases, HugeClusterInitializes) {
  std::vector<ServerId> ids;
  for (std::uint32_t i = 0; i < 500; ++i) ids.push_back(ServerId{i});
  core::AnuSystem system{core::AnuConfig{}, ids};
  system.check_invariants();
  EXPECT_GE(system.regions().space().count(), 2 * (500 + 1));
  // Locate still resolves quickly and correctly.
  for (std::uint64_t fp = 0; fp < 1000; ++fp) {
    EXPECT_LT(system.locate(fp).value, 500u);
  }
}

TEST(EdgeCases, MinShareFloorsSurviveLongSkew) {
  // One server hammered for 200 rounds: shares never collapse to zero
  // and the total stays exact.
  core::AnuSystem system{core::AnuConfig{},
                         {ServerId{0}, ServerId{1}}};
  for (int i = 0; i < 200; ++i) {
    (void)system.reconfigure(
        {{ServerId{0}, 1.0, 100}, {ServerId{1}, 0.001, 100}});
  }
  EXPECT_GT(system.regions().share(ServerId{0}), 0u);
  EXPECT_EQ(system.regions().total_share(), kHalfInterval);
}

}  // namespace
}  // namespace anufs
