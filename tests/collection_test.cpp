// Tests for lossy report collection: the K-consecutive-miss expulsion
// rule and its integration with the cluster simulator.
#include "core/collection.h"

#include <gtest/gtest.h>

#include "cluster/cluster_sim.h"
#include "policies/anu_policy.h"
#include "workload/synthetic.h"

namespace anufs::core {
namespace {

std::vector<ServerId> members3() {
  return {ServerId{0}, ServerId{1}, ServerId{2}};
}

ServerReport report(std::uint32_t id, double lat = 0.02) {
  return ServerReport{ServerId{id}, lat, 100};
}

TEST(ReportCollector, AllArrivedNothingSuspected) {
  ReportCollector collector{CollectionConfig{}};
  const auto outcome = collector.close_round(
      members3(), {report(0), report(1), report(2)});
  EXPECT_EQ(outcome.reports.size(), 3u);
  EXPECT_TRUE(outcome.suspects.empty());
}

TEST(ReportCollector, SingleMissIsTolerated) {
  ReportCollector collector{CollectionConfig{}};
  const auto outcome =
      collector.close_round(members3(), {report(0), report(2)});
  EXPECT_EQ(outcome.reports.size(), 2u);
  EXPECT_TRUE(outcome.suspects.empty());
  EXPECT_EQ(collector.misses(ServerId{1}), 1u);
}

TEST(ReportCollector, ArrivalClearsMissCounter) {
  ReportCollector collector{CollectionConfig{}};
  (void)collector.close_round(members3(), {report(0), report(2)});
  (void)collector.close_round(members3(), {report(0), report(1), report(2)});
  EXPECT_EQ(collector.misses(ServerId{1}), 0u);
  // Two more misses still below the threshold of 3.
  (void)collector.close_round(members3(), {report(0), report(2)});
  const auto outcome =
      collector.close_round(members3(), {report(0), report(2)});
  EXPECT_TRUE(outcome.suspects.empty());
}

TEST(ReportCollector, ThresholdConsecutiveMissesSuspect) {
  CollectionConfig config;
  config.miss_threshold = 3;
  ReportCollector collector{config};
  (void)collector.close_round(members3(), {report(0), report(2)});
  (void)collector.close_round(members3(), {report(0), report(2)});
  const auto outcome =
      collector.close_round(members3(), {report(0), report(2)});
  ASSERT_EQ(outcome.suspects.size(), 1u);
  EXPECT_EQ(outcome.suspects[0], ServerId{1});
  // Counter was consumed with the suspicion.
  EXPECT_EQ(collector.misses(ServerId{1}), 0u);
}

TEST(ReportCollector, ThresholdOneSuspectsImmediately) {
  CollectionConfig config;
  config.miss_threshold = 1;
  ReportCollector collector{config};
  const auto outcome =
      collector.close_round(members3(), {report(0), report(2)});
  EXPECT_EQ(outcome.suspects.size(), 1u);
}

TEST(ReportCollector, StaleReportFromNonMemberIgnored) {
  ReportCollector collector{CollectionConfig{}};
  const auto outcome = collector.close_round(
      {ServerId{0}, ServerId{1}},
      {report(0), report(1), report(7)});  // 7 is not a member
  EXPECT_EQ(outcome.reports.size(), 2u);
}

TEST(ReportCollector, ForgetClearsState) {
  ReportCollector collector{CollectionConfig{}};
  (void)collector.close_round(members3(), {report(0), report(2)});
  collector.forget(ServerId{1});
  EXPECT_EQ(collector.misses(ServerId{1}), 0u);
}

// ---- cluster integration -----------------------------------------------

TEST(LossyReports, ModestLossDoesNotDestabilize) {
  workload::SyntheticConfig wc;
  wc.file_sets = 60;
  wc.total_requests = 12000;
  wc.duration = 2400.0;
  wc.seed = 6;
  const workload::Workload work = workload::make_synthetic(wc);
  cluster::ClusterConfig cc;
  cc.server_speeds = {1, 3, 5, 7, 9};
  cc.net.report_loss = 0.10;  // 10% of reports vanish
  policy::AnuPolicy policy{core::AnuConfig{}};
  cluster::ClusterSim sim(cc, work, policy);
  const cluster::RunResult r = sim.run();
  EXPECT_GT(r.reports_lost, 0u);
  // With threshold 3 and 10% loss, P(3 consecutive) = 1e-3 per server
  // per window; ~20 rounds x 5 servers -> expulsion is unlikely (and
  // deterministic for this seed: none).
  EXPECT_EQ(r.fenced, 0u);
  EXPECT_EQ(policy.servers().size(), 5u);
  EXPECT_GT(r.completed, r.total_requests * 9 / 10);
}

TEST(LossyReports, ExtremeLossFencesMembers) {
  workload::SyntheticConfig wc;
  wc.file_sets = 40;
  wc.total_requests = 8000;
  wc.duration = 3600.0;
  wc.seed = 7;
  const workload::Workload work = workload::make_synthetic(wc);
  cluster::ClusterConfig cc;
  cc.server_speeds = {1, 3, 5, 7, 9};
  cc.net.report_loss = 0.7;  // pathological network
  cc.net.collection.miss_threshold = 2;
  policy::AnuPolicy policy{core::AnuConfig{}};
  cluster::ClusterSim sim(cc, work, policy);
  const cluster::RunResult r = sim.run();
  // Survivors keep serving even after false-positive expulsions.
  EXPECT_GT(r.fenced, 0u);
  EXPECT_GE(policy.servers().size(), 1u);
  EXPECT_GT(r.completed + r.lost, r.total_requests * 7 / 10);
  policy.system().check_invariants();
}

TEST(LossyReports, FencingUnblocksSanClients) {
  // Fencing a live server drops its queue: every dropped request must
  // also unblock its client in the SAN model, or the end-of-run ledger
  // check (blocked clients == queued + held + in transit) aborts.
  workload::SyntheticConfig wc;
  wc.file_sets = 40;
  wc.total_requests = 50000;
  wc.duration = 3600.0;
  wc.seed = 2;
  const workload::Workload work = workload::make_synthetic(wc);
  cluster::ClusterConfig cc;
  cc.server_speeds = {1, 3, 5, 7, 9};
  cc.seed = 2;
  cc.san.enabled = true;
  cc.net.report_loss = 0.7;
  policy::AnuPolicy policy{core::AnuConfig{}};
  cluster::ClusterSim sim(cc, work, policy);
  const cluster::RunResult r = sim.run();
  EXPECT_GT(r.fenced, 0u);
  EXPECT_GT(r.lost, 0u);
  EXPECT_EQ(r.total_requests, r.completed + r.lost + r.queued_at_end +
                                  r.held_at_end + r.in_transit_at_end);
}

TEST(LossyReports, LosslessPathUnchanged) {
  // report_loss == 0 must take the exact legacy path (bit-identical to
  // a run without the NetConfig member ever existing).
  workload::SyntheticConfig wc;
  wc.file_sets = 40;
  wc.total_requests = 6000;
  wc.duration = 1200.0;
  const workload::Workload work = workload::make_synthetic(wc);
  cluster::ClusterConfig cc;
  cc.server_speeds = {1, 3, 5, 7, 9};
  const auto run_once = [&] {
    policy::AnuPolicy policy{core::AnuConfig{}};
    cluster::ClusterSim sim(cc, work, policy);
    return sim.run();
  };
  const cluster::RunResult a = run_once();
  EXPECT_EQ(a.reports_lost, 0u);
  EXPECT_EQ(a.fenced, 0u);
}

}  // namespace
}  // namespace anufs::core
