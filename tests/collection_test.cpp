// Tests for lossy report collection: the K-consecutive-miss expulsion
// rule and its integration with the cluster simulator.
#include "core/collection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "cluster/cluster_sim.h"
#include "policies/anu_policy.h"
#include "policies/round_robin.h"
#include "workload/synthetic.h"

namespace anufs::core {
namespace {

std::vector<ServerId> members3() {
  return {ServerId{0}, ServerId{1}, ServerId{2}};
}

ServerReport report(std::uint32_t id, double lat = 0.02) {
  return ServerReport{ServerId{id}, lat, 100};
}

void expect_reports_eq(const std::vector<ServerReport>& got,
                       const std::vector<ServerReport>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].mean_latency, want[i].mean_latency);
    EXPECT_EQ(got[i].requests, want[i].requests);
  }
}

const ServerReport kNoData1{ServerId{1}, 0.0, 0};

// Closes `rounds` rounds in which server 1 stays silent; returns the
// suspects of the last one.
std::vector<ServerId> silence_server1(ReportCollector& collector,
                                      int rounds) {
  std::vector<ServerId> suspects;
  for (int i = 0; i < rounds; ++i) {
    suspects = collector.close_round(members3(), {report(0), report(2)});
  }
  return suspects;
}

const std::vector<ServerId> kServer1{ServerId{1}};

TEST(ReportCollector, AllArrivedNothingSuspected) {
  ReportCollector collector{CollectionConfig{}};
  const std::vector<ServerReport> arrived{report(0, 0.01), report(1, 0.02),
                                          report(2, 0.03)};
  EXPECT_TRUE(collector.close_round(members3(), arrived).empty());
  // Nothing lost: the tuner sees exactly the arrived reports.
  expect_reports_eq(collector.padded(members3()), arrived);
}

TEST(ReportCollector, SingleMissIsTolerated) {
  ReportCollector collector{CollectionConfig{}};
  EXPECT_TRUE(silence_server1(collector, 1).empty());
  // The silent member is passed as "no data".
  expect_reports_eq(collector.padded(members3()),
                    {report(0), kNoData1, report(2)});
  // The miss was counted: two more make three.
  EXPECT_TRUE(silence_server1(collector, 1).empty());
  EXPECT_EQ(silence_server1(collector, 1), kServer1);
}

TEST(ReportCollector, ArrivalClearsMissCounter) {
  ReportCollector collector{CollectionConfig{}};
  (void)silence_server1(collector, 2);
  (void)collector.close_round(members3(), {report(0), report(1), report(2)});
  // Two more misses still below the threshold of 3; a third reaches it.
  EXPECT_TRUE(silence_server1(collector, 2).empty());
  EXPECT_EQ(silence_server1(collector, 1), kServer1);
}

TEST(ReportCollector, ThresholdConsecutiveMissesSuspect) {
  CollectionConfig config;
  config.miss_threshold = 3;
  ReportCollector collector{config};
  EXPECT_TRUE(silence_server1(collector, 2).empty());
  EXPECT_EQ(silence_server1(collector, 1), kServer1);
  // Counter was consumed with the suspicion: three more rounds again.
  EXPECT_TRUE(silence_server1(collector, 2).empty());
  EXPECT_EQ(silence_server1(collector, 1), kServer1);
}

TEST(ReportCollector, ThresholdOneSuspectsImmediately) {
  CollectionConfig config;
  config.miss_threshold = 1;
  ReportCollector collector{config};
  EXPECT_EQ(silence_server1(collector, 1), kServer1);
}

TEST(ReportCollector, StaleReportFromNonMemberIgnored) {
  CollectionConfig config;
  config.miss_threshold = 2;
  ReportCollector collector{config};
  // Server 7 misses a round as a member, then leaves; its report from
  // before it left arrives late.
  (void)collector.close_round({ServerId{0}, ServerId{1}, ServerId{7}},
                              {report(0), report(1)});
  EXPECT_TRUE(collector
                  .close_round({ServerId{0}, ServerId{1}},
                               {report(0), report(1), report(7)})
                  .empty());  // 7 is not a member
  expect_reports_eq(collector.padded({ServerId{0}, ServerId{1}}),
                    {report(0), report(1)});
  // The stale report did not clear 7's miss: back as a member (without
  // a rejoin), one more silent round reaches the threshold of 2.
  EXPECT_EQ(collector.close_round({ServerId{0}, ServerId{1}, ServerId{7}},
                                  {report(0), report(1)}),
            std::vector<ServerId>{ServerId{7}});
}

TEST(ReportCollector, PaddedReflectsOnlyTheRoundJustClosed) {
  ReportCollector collector{CollectionConfig{}};
  (void)collector.close_round(members3(),
                              {report(0), report(1, 0.5), report(2)});
  (void)silence_server1(collector, 1);
  // Server 1's report from the previous round is not reused.
  expect_reports_eq(collector.padded(members3()),
                    {report(0), kNoData1, report(2)});
}

TEST(ReportCollector, ForgetClearsState) {
  ReportCollector collector{CollectionConfig{}};
  (void)silence_server1(collector, 2);
  collector.forget(ServerId{1});
  // Counting restarts: three fresh misses, not one, reach the threshold.
  EXPECT_TRUE(silence_server1(collector, 2).empty());
  EXPECT_EQ(silence_server1(collector, 1), kServer1);
  collector.forget(ServerId{9});  // never seen: nothing to clear
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

// Forwards every call to a real policy and records what the cluster
// hands it: each round's reports beside the membership they were
// collected for, and each declared failure, in call order.
class RecordingPolicy final : public policy::PlacementPolicy {
 public:
  struct Round {
    double now = 0.0;
    std::vector<ServerId> members;
    std::vector<ServerReport> reports;
    std::size_t failed_before = 0;  // failures declared before the call
  };

  explicit RecordingPolicy(policy::PlacementPolicy& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void initialize(const std::vector<workload::FileSetSpec>& file_sets,
                  const std::vector<ServerId>& servers) override {
    inner_.initialize(file_sets, servers);
  }
  [[nodiscard]] ServerId owner(FileSetId fs) const override {
    return inner_.owner(fs);
  }
  std::vector<policy::Move> rebalance(
      sim::SimTime now, const std::vector<ServerReport>& reports) override {
    rounds.push_back(Round{now, inner_.servers(), reports, failed.size()});
    return inner_.rebalance(now, reports);
  }
  std::vector<policy::Move> on_server_failed(ServerId id) override {
    failed.push_back(id);
    return inner_.on_server_failed(id);
  }
  std::vector<policy::Move> on_server_added(ServerId id) override {
    return inner_.on_server_added(id);
  }
  [[nodiscard]] std::vector<ServerId> servers() const override {
    return inner_.servers();
  }

  std::vector<Round> rounds;
  std::vector<ServerId> failed;

 private:
  policy::PlacementPolicy& inner_;
};

std::vector<ServerId> ids_of(const std::vector<ServerReport>& reports) {
  std::vector<ServerId> ids;
  for (const ServerReport& r : reports) ids.push_back(r.id);
  return ids;
}

// The mean latency the cluster harvested from `id` in the round at
// `now`, as its per-server series recorded it (milliseconds).
double harvested_ms(const cluster::RunResult& r, ServerId id, double now) {
  for (const auto& [t, ms] :
       r.latency_ms.at("server" + std::to_string(id.value)).points()) {
    if (t == now) return ms;
  }
  ADD_FAILURE() << "no point at t=" << now << " for server " << id.value;
  return -1.0;
}

TEST(LossyReports, LosslessPathUnchanged) {
  // report_loss == 0: every round hands the tuner exactly the harvested
  // reports, one per member in ascending id, and nobody is fenced.
  workload::SyntheticConfig wc;
  wc.file_sets = 40;
  wc.total_requests = 6000;
  wc.duration = 1200.0;
  const workload::Workload work = workload::make_synthetic(wc);
  cluster::ClusterConfig cc;
  cc.server_speeds = {1, 3, 5, 7, 9};
  policy::AnuPolicy anu{core::AnuConfig{}};
  RecordingPolicy policy{anu};
  cluster::ClusterSim sim(cc, work, policy);
  const cluster::RunResult r = sim.run();
  EXPECT_EQ(r.reports_lost, 0u);
  EXPECT_EQ(r.fenced, 0u);
  EXPECT_TRUE(policy.failed.empty());
  ASSERT_EQ(policy.rounds.size(), 10u);  // t = 120, 240, ..., 1200
  const std::vector<ServerId> all{ServerId{0}, ServerId{1}, ServerId{2},
                                  ServerId{3}, ServerId{4}};
  std::map<std::uint32_t, std::uint64_t> requests;
  for (const RecordingPolicy::Round& round : policy.rounds) {
    EXPECT_EQ(ids_of(round.reports), all);
    for (const ServerReport& rep : round.reports) {
      EXPECT_EQ(rep.mean_latency * 1e3, harvested_ms(r, rep.id, round.now));
      requests[rep.id.value] += rep.requests;
    }
  }
  // Every completion was harvested into exactly one round's report.
  EXPECT_EQ(requests, r.server_completed);
}

TEST(LossyReports, LostReportsArePaddedAndFencedMembersAbsent) {
  workload::SyntheticConfig wc;
  wc.file_sets = 40;
  wc.total_requests = 20000;
  wc.duration = 3600.0;
  wc.seed = 7;
  const workload::Workload work = workload::make_synthetic(wc);
  cluster::ClusterConfig cc;
  cc.server_speeds = {1, 3, 5, 7, 9};
  cc.net.report_loss = 0.4;
  cc.net.collection.miss_threshold = 2;
  policy::RoundRobinPolicy round_robin;
  RecordingPolicy policy{round_robin};
  cluster::ClusterSim sim(cc, work, policy);
  const cluster::RunResult r = sim.run();
  ASSERT_GT(r.fenced, 0u);
  EXPECT_EQ(policy.failed.size(), r.fenced);
  std::uint64_t padded = 0;
  for (const RecordingPolicy::Round& round : policy.rounds) {
    // One report per remaining member, in ascending id.
    EXPECT_EQ(ids_of(round.reports), round.members);
    EXPECT_TRUE(std::is_sorted(round.members.begin(), round.members.end()));
    const auto fenced_end = policy.failed.begin() +
                            static_cast<std::ptrdiff_t>(round.failed_before);
    for (const ServerReport& rep : round.reports) {
      // A fenced member never reports again (no server rejoins here).
      EXPECT_EQ(std::count(policy.failed.begin(), fenced_end, rep.id), 0);
      if (rep.requests == 0) {
        // Lost: passed as "no data" whatever the server measured.
        EXPECT_EQ(rep.mean_latency, 0.0);
        ++padded;
      } else {
        EXPECT_EQ(rep.mean_latency * 1e3,
                  harvested_ms(r, rep.id, round.now));
      }
    }
  }
  // Every lost report is padded except those of the members fenced in
  // the round their report was lost.
  EXPECT_EQ(padded, r.reports_lost - r.fenced);
}

TEST(LossyReports, RejoinedServerStartsWithNoMisses) {
  // Every report is lost. Server 3 leaves at t=250 with two misses
  // (rounds 120 and 240) and rejoins at t=270. At t=360 the others reach
  // the threshold of 3; server 3, with one miss as a new member, must
  // not: it is the member left standing.
  workload::SyntheticConfig wc;
  wc.file_sets = 20;
  wc.total_requests = 2000;
  wc.duration = 600.0;
  const workload::Workload work = workload::make_synthetic(wc);
  cluster::ClusterConfig cc;
  cc.server_speeds = {1, 1, 1, 1, 1};
  cc.net.report_loss = 1.0;
  policy::RoundRobinPolicy round_robin;
  RecordingPolicy policy{round_robin};
  cluster::ClusterSim sim(cc, work, policy);
  sim.schedule_failure(250.0, ServerId{3});
  sim.schedule_recovery(270.0, ServerId{3});
  const cluster::RunResult r = sim.run();
  EXPECT_EQ(policy.failed,
            (std::vector<ServerId>{ServerId{3}, ServerId{0}, ServerId{1},
                                   ServerId{2}, ServerId{4}}));
  EXPECT_EQ(r.fenced, 4u);
  EXPECT_EQ(policy.servers(), std::vector<ServerId>{ServerId{3}});
}

TEST(LossyReports, ScheduledCrashOfFencedServerIsANoOp) {
  // Lost reports fence server 4 at t=1080, before its scheduled crash at
  // t=1200. The crash finds it down and does nothing; the scheduled
  // recovery at t=2400 brings it back.
  workload::SyntheticConfig wc;
  wc.file_sets = 100;
  wc.total_requests = 30000;
  wc.duration = 6000.0;
  wc.seed = 10;
  const workload::Workload work = workload::make_synthetic(wc);
  cluster::ClusterConfig cc;
  cc.server_speeds = {1, 3, 5, 7, 9};
  cc.seed = 10;
  cc.net.report_loss = 0.2;
  policy::AnuPolicy anu{core::AnuConfig{}};
  RecordingPolicy policy{anu};
  cluster::ClusterSim sim(cc, work, policy);
  sim.schedule_failure(1200.0, ServerId{4});
  sim.schedule_recovery(2400.0, ServerId{4});
  sim.schedule_addition(3600.0, ServerId{5}, 9.0);
  const cluster::RunResult r = sim.run();
  ASSERT_FALSE(policy.failed.empty());
  EXPECT_EQ(policy.failed[0], ServerId{4});
  EXPECT_EQ(r.total_requests, r.completed + r.lost + r.queued_at_end +
                                  r.held_at_end + r.in_transit_at_end);
  std::size_t rounds_after_recovery = 0;
  for (const RecordingPolicy::Round& round : policy.rounds) {
    if (round.now <= 2400.0) continue;
    ++rounds_after_recovery;
    EXPECT_EQ(std::count(round.members.begin(), round.members.end(),
                         ServerId{4}),
              1)
        << "t=" << round.now;
  }
  EXPECT_GT(rounds_after_recovery, 0u);
}

}  // namespace
}  // namespace anufs::core
