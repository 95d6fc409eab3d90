// End-to-end tests for the cluster simulator: request routing, interval
// sampling, movement costs, failure/recovery/commission injection, and
// determinism.
#include "cluster/cluster_sim.h"

#include <gtest/gtest.h>

#include "policies/anu_policy.h"
#include "policies/round_robin.h"
#include "policies/simple_random.h"
#include "workload/synthetic.h"

namespace anufs::cluster {
namespace {

workload::Workload small_workload(std::uint64_t seed = 1) {
  workload::SyntheticConfig config;
  config.file_sets = 40;
  config.total_requests = 4000;
  config.duration = 1200.0;  // 10 reconfiguration periods
  config.seed = seed;
  return workload::make_synthetic(config);
}

ClusterConfig small_cluster() {
  ClusterConfig cc;
  cc.server_speeds = {1, 3, 5, 7, 9};
  cc.reconfig_period = 120.0;
  return cc;
}

TEST(ClusterSim, AllRequestsCompleteUnderLightLoad) {
  const workload::Workload work = small_workload();
  policy::RoundRobinPolicy policy;
  ClusterSim sim(small_cluster(), work, policy);
  const RunResult result = sim.run();
  EXPECT_EQ(result.total_requests, work.request_count());
  // Light load: nearly everything finishes inside the horizon.
  EXPECT_GT(result.completed, result.total_requests * 95 / 100);
  EXPECT_EQ(result.lost, 0u);
}

TEST(ClusterSim, StaticPolicyNeverMoves) {
  const workload::Workload work = small_workload();
  policy::RoundRobinPolicy policy;
  ClusterSim sim(small_cluster(), work, policy);
  EXPECT_EQ(sim.run().moves, 0u);
}

TEST(ClusterSim, SeriesSampledOncePerPeriodPerServer) {
  const workload::Workload work = small_workload();
  policy::RoundRobinPolicy policy;
  ClusterSim sim(small_cluster(), work, policy);
  const RunResult result = sim.run();
  EXPECT_EQ(result.latency_ms.size(), 5u);
  for (const std::string& label : result.latency_ms.labels()) {
    EXPECT_EQ(result.latency_ms.at(label).size(), 10u);  // 1200 / 120
  }
}

TEST(ClusterSim, LatencySeriesNonNegative) {
  const workload::Workload work = small_workload();
  policy::SimpleRandomPolicy policy{2};
  ClusterSim sim(small_cluster(), work, policy);
  const RunResult result = sim.run();
  for (const std::string& label : result.latency_ms.labels()) {
    for (const auto& [t, v] : result.latency_ms.at(label).points()) {
      EXPECT_GE(v, 0.0);
    }
  }
}

TEST(ClusterSim, DeterministicAcrossRuns) {
  const workload::Workload work = small_workload();
  const auto run_once = [&] {
    policy::AnuPolicy policy{core::AnuConfig{}};
    ClusterSim sim(small_cluster(), work, policy);
    return sim.run();
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  for (const std::string& label : a.latency_ms.labels()) {
    const auto& pa = a.latency_ms.at(label).points();
    const auto& pb = b.latency_ms.at(label).points();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].second, pb[i].second) << label << " sample " << i;
    }
  }
}

TEST(ClusterSim, PerServerAccountingAddsUp) {
  const workload::Workload work = small_workload();
  policy::RoundRobinPolicy policy;
  ClusterSim sim(small_cluster(), work, policy);
  const RunResult result = sim.run();
  std::uint64_t total = 0;
  for (const auto& [id, c] : result.server_completed) total += c;
  EXPECT_EQ(total, result.completed);
  for (const auto& [id, busy] : result.server_busy) {
    EXPECT_GE(busy, 0.0);
    EXPECT_LE(busy, work.duration * 1.01);
  }
}

TEST(ClusterSim, FasterServersCompleteRequestsFaster) {
  // Under round-robin (equal request share), faster servers must show
  // lower busy time for roughly equal completions.
  const workload::Workload work = small_workload();
  policy::RoundRobinPolicy policy;
  ClusterSim sim(small_cluster(), work, policy);
  const RunResult result = sim.run();
  EXPECT_GT(result.server_busy.at(0), result.server_busy.at(4));
}

TEST(ClusterSim, MovementCostsHoldRequests) {
  // With movement enabled, ANU's early reshaping produces file-set
  // transit periods; total moves > 0 and everything still completes.
  const workload::Workload work = small_workload();
  policy::AnuPolicy policy{core::AnuConfig{}};
  ClusterSim sim(small_cluster(), work, policy);
  const RunResult result = sim.run();
  EXPECT_GT(result.moves, 0u);
  EXPECT_GT(result.completed, result.total_requests * 9 / 10);
}

TEST(ClusterSim, MovementCostsCanBeDisabled) {
  const workload::Workload work = small_workload();
  ClusterConfig cc = small_cluster();
  cc.movement.enabled = false;
  policy::AnuPolicy policy{core::AnuConfig{}};
  ClusterSim sim(cc, work, policy);
  const RunResult result = sim.run();
  EXPECT_GT(result.completed, result.total_requests * 98 / 100);
}

TEST(ClusterSim, FailureLosesQueuedWorkAndRehomes) {
  const workload::Workload work = small_workload();
  policy::AnuPolicy policy{core::AnuConfig{}};
  ClusterSim sim(small_cluster(), work, policy);
  sim.schedule_failure(400.0, ServerId{0});
  const RunResult result = sim.run();
  // After the crash nothing routes to server 0: its completions stop.
  EXPECT_EQ(policy.servers().size(), 4u);
  // The run survives and the books still balance.
  std::uint64_t total = 0;
  for (const auto& [id, c] : result.server_completed) total += c;
  EXPECT_EQ(total, result.completed);
  EXPECT_LE(result.completed + result.lost, result.total_requests);
}

TEST(ClusterSim, FailedServerSeriesReportsZero) {
  const workload::Workload work = small_workload();
  policy::AnuPolicy policy{core::AnuConfig{}};
  ClusterSim sim(small_cluster(), work, policy);
  sim.schedule_failure(130.0, ServerId{2});
  const RunResult result = sim.run();
  const auto& points = result.latency_ms.at("server2").points();
  // All samples after the crash read 0 (dead server).
  for (const auto& [t, v] : points) {
    if (t > 240.0) {
      EXPECT_EQ(v, 0.0) << "at t=" << t;
    }
  }
}

TEST(ClusterSim, RecoveryRestoresService) {
  const workload::Workload work = small_workload();
  policy::AnuPolicy policy{core::AnuConfig{}};
  ClusterSim sim(small_cluster(), work, policy);
  sim.schedule_failure(240.0, ServerId{1});
  sim.schedule_recovery(600.0, ServerId{1});
  const RunResult result = sim.run();
  EXPECT_EQ(policy.servers().size(), 5u);
  EXPECT_GT(result.completed, result.total_requests / 2);
  policy.system().check_invariants();
}

TEST(ClusterSim, CommissionNewServerJoinsCluster) {
  const workload::Workload work = small_workload();
  policy::AnuPolicy policy{core::AnuConfig{}};
  ClusterConfig cc = small_cluster();
  ClusterSim sim(cc, work, policy);
  sim.schedule_addition(360.0, ServerId{5}, /*speed=*/9.0);
  const RunResult result = sim.run();
  EXPECT_EQ(policy.servers().size(), 6u);
  // The newcomer appears in the results map.
  EXPECT_TRUE(result.server_completed.contains(5));
  policy.system().check_invariants();
}

TEST(ClusterSim, MovesTimelineMatchesTotal) {
  const workload::Workload work = small_workload();
  policy::AnuPolicy policy{core::AnuConfig{}};
  ClusterSim sim(small_cluster(), work, policy);
  const RunResult result = sim.run();
  std::uint64_t from_timeline = 0;
  for (const auto& [t, n] : result.moves_timeline) from_timeline += n;
  EXPECT_EQ(from_timeline, result.moves);
}

TEST(ClusterSim, LatencySampleRecordingOptIn) {
  const workload::Workload work = small_workload();
  policy::RoundRobinPolicy p1;
  ClusterSim off(small_cluster(), work, p1);
  const RunResult without = off.run();
  EXPECT_TRUE(without.latency_samples.empty());

  ClusterConfig cc = small_cluster();
  cc.record_latency_samples = true;
  policy::RoundRobinPolicy p2;
  ClusterSim on(cc, work, p2);
  const RunResult with = on.run();
  std::size_t total = 0;
  for (const auto& [id, samples] : with.latency_samples) {
    total += samples.size();
    for (const double lat : samples) EXPECT_GE(lat, 0.0);
  }
  EXPECT_EQ(total, with.completed);
}

// Scripted policy for the superseded-move path: file set 0 starts on
// server 0, the first rebalance moves it to server 1, and a commissioned
// server takes it over. Nothing else ever moves.
class TwoMovePolicy final : public policy::PlacementPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "two-move"; }
  void initialize(const std::vector<workload::FileSetSpec>& file_sets,
                  const std::vector<ServerId>& servers) override {
    owners_.assign(file_sets.size(), ServerId{0});
    servers_ = servers;
  }
  [[nodiscard]] ServerId owner(FileSetId fs) const override {
    return owners_.at(fs.value);
  }
  std::vector<policy::Move> rebalance(
      sim::SimTime, const std::vector<core::ServerReport>&) override {
    if (rebalanced_) return {};
    rebalanced_ = true;
    return move_set_zero(ServerId{1});
  }
  std::vector<policy::Move> on_server_failed(ServerId) override {
    return {};
  }
  std::vector<policy::Move> on_server_added(ServerId id) override {
    servers_.push_back(id);
    return move_set_zero(id);
  }
  [[nodiscard]] std::vector<ServerId> servers() const override {
    return servers_;
  }

 private:
  std::vector<policy::Move> move_set_zero(ServerId to) {
    const policy::Move m{FileSetId{0}, owners_[0], to};
    owners_[0] = to;
    return {m};
  }

  std::vector<ServerId> owners_;
  std::vector<ServerId> servers_;
  bool rebalanced_ = false;
};

// File set 0 moves at t=10 (ready at 15: flush 3 + init 2), then again
// at t=12 when server 3 joins (ready at 17). Requests at t=11 and t=16
// arrive while it is in transit; t=16 lies after the first ready time,
// which the second move superseded.
RunResult run_superseded_move(sim::SimTime duration) {
  workload::Workload work;
  work.file_sets.push_back(workload::FileSetSpec::make(0, "/fs0", 1.0));
  for (const double t : {1.0, 11.0, 16.0}) {
    work.requests.push_back(workload::RequestEvent{t, FileSetId{0}, 0.5});
  }
  work.duration = duration;
  ClusterConfig cc;
  cc.server_speeds = {1, 1, 1};
  cc.reconfig_period = 10.0;
  cc.movement.flush_min = cc.movement.flush_max = 3.0;
  cc.movement.init_min = cc.movement.init_max = 2.0;
  cc.movement.cold_factor = 1.0;  // no warm-up: latencies are exact
  cc.record_latency_samples = true;
  TwoMovePolicy policy;
  ClusterSim sim(cc, work, policy);
  sim.schedule_addition(12.0, ServerId{3}, /*speed=*/1.0);
  return sim.run();
}

void expect_ledger_balances(const RunResult& r) {
  EXPECT_EQ(r.total_requests, r.completed + r.lost + r.queued_at_end +
                                  r.held_at_end + r.in_transit_at_end);
}

TEST(ClusterSim, SupersededMoveHoldsRequestsUntilTheLaterReadyTime) {
  const RunResult result = run_superseded_move(/*duration=*/30.0);
  EXPECT_EQ(result.moves, 2u);
  EXPECT_EQ(result.completed, 3u);
  EXPECT_EQ(result.held_at_end, 0u);
  expect_ledger_balances(result);
  // Both held requests are served by the second owner, in arrival
  // order, starting at t=17 — not at the superseded ready time 15.
  EXPECT_EQ(result.server_completed.at(1), 0u);
  ASSERT_EQ(result.server_completed.at(3), 2u);
  const std::vector<double>& lat = result.latency_samples.at(3);
  ASSERT_EQ(lat.size(), 2u);
  EXPECT_NEAR(lat[0], 17.5 - 11.0, 1e-9);  // waited 6 s, served 0.5 s
  EXPECT_NEAR(lat[1], 18.0 - 16.0, 1e-9);  // queued behind the first
  EXPECT_GE(11.0 + lat[0] - 0.5, 17.0);    // service began after t=17
}

TEST(ClusterSim, SupersededMoveLedgerBalancesMidTransit) {
  // The horizon falls between the two ready times: both requests are
  // still held at the end, and the ledger accounts for them.
  const RunResult result = run_superseded_move(/*duration=*/16.5);
  EXPECT_EQ(result.moves, 2u);
  EXPECT_EQ(result.completed, 1u);
  EXPECT_EQ(result.held_at_end, 2u);
  expect_ledger_balances(result);
}

TEST(ClusterSimDeathTest, RunTwiceAborts) {
  const workload::Workload work = small_workload();
  policy::RoundRobinPolicy policy;
  ClusterSim sim(small_cluster(), work, policy);
  (void)sim.run();
  EXPECT_DEATH((void)sim.run(), "precondition");
}

}  // namespace
}  // namespace anufs::cluster
