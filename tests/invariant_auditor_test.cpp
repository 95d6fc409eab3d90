// Tests for the independent invariant auditor: it must (a) pass clean on
// every state the shipped machinery can legally produce, including whole
// policy scenarios replayed with auditing forced on, and (b) detect every
// seeded violation of the paper's placement rules — half-occupancy, the
// at-most-one-partial-partition rule, region disjointness/coverage, and
// the P >= 2(n+1) bound.
#include "core/invariant_auditor.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/anu_system.h"
#include "driver/parallel_runner.h"
#include "driver/scenario.h"
#include "hash/unit_interval.h"

namespace anufs::core {
namespace {

using hash::kHalfInterval;

using Records = std::vector<RegionMap::PartitionRecord>;

std::vector<ServerId> ids(std::uint32_t n) {
  std::vector<ServerId> out;
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(ServerId{i});
  return out;
}

/// A legal 3-server state over 16 partitions at exact half-occupancy:
/// 16 partitions of measure 2^60 each; half = 8 partitions' worth.
/// Server 0: 3 full; server 1: 2 full + 1 half-partial; server 2:
/// 2 full + 1 half-partial. Total = 3 + 2.5 + 2.5 = 8 partitions.
Records legal_records() {
  const Measure ps = Measure{1} << 60;
  return {
      {0, ServerId{0}, ps},      {1, ServerId{0}, ps},
      {2, ServerId{0}, ps},      {3, ServerId{1}, ps},
      {4, ServerId{1}, ps},      {5, ServerId{1}, ps / 2},
      {6, ServerId{2}, ps},      {7, ServerId{2}, ps},
      {8, ServerId{2}, ps / 2},
  };
}

bool mentions(const InvariantAuditor::Report& report,
              const std::string& needle) {
  for (const std::string& v : report.violations) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(AuditRecords, LegalStatePassesEveryCheck) {
  const auto report =
      InvariantAuditor::audit_records(16, ids(3), legal_records());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.to_string(), "ok");
}

TEST(AuditRecords, DetectsHalfOccupancyViolation) {
  Records records = legal_records();
  records.back().fill -= 1;  // one ulp short of 1/2
  const auto report = InvariantAuditor::audit_records(16, ids(3), records);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "half-occupancy")) << report.to_string();

  // ...and one ulp over fails too: the invariant is exact, not a bound.
  records.back().fill += 2;
  const auto over = InvariantAuditor::audit_records(16, ids(3), records);
  EXPECT_TRUE(mentions(over, "half-occupancy")) << over.to_string();
}

TEST(AuditRecords, DetectsSecondPartialPartition) {
  const Measure ps = Measure{1} << 60;
  Records records = legal_records();
  // Split server 0's last full partition into two quarter-partials:
  // total measure is preserved (half-occupancy still holds), so only
  // the one-partial rule can catch this.
  records[2].fill = ps / 2;
  records.push_back({9, ServerId{0}, ps / 4});
  records.push_back({10, ServerId{0}, ps / 4});
  const auto report = InvariantAuditor::audit_records(16, ids(3), records);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "partial partitions")) << report.to_string();
}

TEST(AuditRecords, DetectsOverlappingRegions) {
  Records records = legal_records();
  // Servers 0 and 1 both claim partition 3 — mapped regions overlap.
  records.push_back({3, ServerId{0}, records[3].fill});
  const auto report = InvariantAuditor::audit_records(16, ids(3), records);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "overlap")) << report.to_string();
}

TEST(AuditRecords, DetectsFillOutOfRange) {
  Records records = legal_records();
  records[0].fill = (Measure{1} << 60) + 1;  // spills past its partition
  const auto report = InvariantAuditor::audit_records(16, ids(3), records);
  EXPECT_TRUE(mentions(report, "fill out of")) << report.to_string();

  Records zero = legal_records();
  zero[0].fill = 0;  // a record for an unowned partition is malformed
  const auto zreport = InvariantAuditor::audit_records(16, ids(3), zero);
  EXPECT_TRUE(mentions(zreport, "fill out of")) << zreport.to_string();
}

TEST(AuditRecords, DetectsUnregisteredOwnerAndBadIndex) {
  Records records = legal_records();
  records[4].owner = ServerId{7};  // not in the server list
  records[5].index = 16;           // beyond the partition count
  const auto report = InvariantAuditor::audit_records(16, ids(3), records);
  EXPECT_TRUE(mentions(report, "unregistered")) << report.to_string();
  EXPECT_TRUE(mentions(report, "partitions exist")) << report.to_string();
}

TEST(AuditRecords, OwnersOutsideTheRegisteredIdsAreUnregistered) {
  Records records = legal_records();
  records[4].owner = kInvalidServer;  // the largest id value there is
  records[5].owner = ServerId{4000};  // above every registered id
  const auto report = InvariantAuditor::audit_records(16, ids(3), records);
  EXPECT_TRUE(mentions(report, "partition 4 owned by unregistered server " +
                                   std::to_string(kInvalidServer.value)))
      << report.to_string();
  EXPECT_TRUE(
      mentions(report, "partition 5 owned by unregistered server 4000"))
      << report.to_string();
  EXPECT_EQ(report.violations.size(), 2u) << report.to_string();
}

TEST(AuditRecords, DetectsDuplicateServerIds) {
  const std::vector<ServerId> servers = {ServerId{0}, ServerId{1},
                                         ServerId{1}, ServerId{2}};
  const auto report =
      InvariantAuditor::audit_records(16, servers, legal_records());
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  EXPECT_EQ(report.violations[0],
            "server list contains duplicates (4 ids, 3 distinct)");
}

TEST(AuditRecords, DetectsPartitionBoundViolation) {
  // 16 partitions support at most n with 2(n+1) <= 16, i.e. n <= 7.
  const auto report =
      InvariantAuditor::audit_records(16, ids(8), Records{},
                                      {.half_occupancy = false});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "2(n+1)")) << report.to_string();

  const auto fine =
      InvariantAuditor::audit_records(16, ids(7), Records{},
                                      {.half_occupancy = false});
  EXPECT_TRUE(fine.ok()) << fine.to_string();
}

TEST(AuditRecords, DetectsMalformedPartitionCount) {
  const auto report =
      InvariantAuditor::audit_records(12, ids(2), Records{});
  EXPECT_TRUE(mentions(report, "power of two")) << report.to_string();
}

TEST(AuditLive, CleanOnFreshAnuSystem) {
  const AnuSystem system{AnuConfig{}, ids(5)};
  const auto report = InvariantAuditor::audit(system);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(AuditLive, CleanAcrossMembershipChurnAtHalfOccupancy) {
  // Every step of fail/add churn holds the system at exactly 1/2; the
  // auditor must agree at each boundary.
  AnuSystem system{AnuConfig{}, ids(5)};
  for (std::uint32_t round = 0; round < 3; ++round) {
    system.fail_server(ServerId{round});
    EXPECT_TRUE(InvariantAuditor::audit(system).ok());
    EXPECT_EQ(system.regions().total_share(), kHalfInterval);
    system.add_server(ServerId{10 + round});
    EXPECT_TRUE(InvariantAuditor::audit(system).ok());
    EXPECT_EQ(system.regions().total_share(), kHalfInterval);
  }
  // Growth past the partition bound forces re-partitioning; audit after.
  for (std::uint32_t i = 20; i < 40; ++i) {
    system.add_server(ServerId{i});
  }
  const auto report = InvariantAuditor::audit(system);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(AuditLive, EnforceIsSilentOnLegalSystem) {
  // enforce() on a legal map, and on the system that owns it, is a no-op.
  // The public mutators cannot corrupt a map, so the abort side is seeded
  // through records instead (AuditRecords.DetectsSecondPartialPartition).
  AnuSystem system{AnuConfig{}, ids(3)};
  InvariantAuditor::enforce(system.regions());
  InvariantAuditor::enforce(system);
}

TEST(AuditCounter, CountsEveryPass) {
  const std::uint64_t before = InvariantAuditor::audits_performed();
  (void)InvariantAuditor::audit_records(16, ids(3), legal_records());
  EXPECT_GT(InvariantAuditor::audits_performed(), before);
}

TEST(AuditGate, EnvOverridesBuildDefault) {
  setenv("ANUFS_AUDIT", "1", 1);
  InvariantAuditor::refresh_enabled();
  EXPECT_TRUE(InvariantAuditor::enabled());
  setenv("ANUFS_AUDIT", "0", 1);
  InvariantAuditor::refresh_enabled();
  EXPECT_FALSE(InvariantAuditor::enabled());
  unsetenv("ANUFS_AUDIT");
  InvariantAuditor::refresh_enabled();
}

// Every shipped policy scenario, replayed with post-mutation auditing
// forced on. Policies without ANU machinery simply perform no audits;
// for the ANU modes the replay is a machine-checked proof that every
// placement decision (tuning rounds, failures, recoveries, additions,
// re-partitioning) respected the invariants.
class AuditScenarios : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    setenv("ANUFS_AUDIT", "1", 1);
    InvariantAuditor::refresh_enabled();
  }
  void TearDown() override {
    unsetenv("ANUFS_AUDIT");
    InvariantAuditor::refresh_enabled();
  }
};

TEST_P(AuditScenarios, ReplayIsAuditClean) {
  const std::string config_text = std::string("workload synthetic\n") +
                                  "policy " + GetParam() + "\n" +
                                  "servers 1,3,5,7,9\n" +
                                  "duration 2000\n" +
                                  "requests 4000\n" +
                                  "seed 7\n" +
                                  "fail 600 4\n" +
                                  "recover 1200 4\n" +
                                  "add 1500 5 4.0\n";
  const driver::ScenarioConfig config =
      driver::parse_scenario_text(config_text);
  const std::uint64_t before = InvariantAuditor::audits_performed();
  const cluster::RunResult result = driver::run_scenario_quiet(config);
  EXPECT_GT(result.completed, 0u);
  if (std::string(GetParam()).rfind("anu", 0) == 0) {
    // The ANU modes must actually have been audited (the hooks fired).
    EXPECT_GT(InvariantAuditor::audits_performed(), before);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, AuditScenarios,
                         ::testing::Values("anu", "anu-pairwise",
                                           "prescient", "round-robin",
                                           "simple-random", "weighted-hash",
                                           "consistent-hash"),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// The parallel-sweep path with auditing on: audits fire concurrently
// from worker threads (the counter is atomic; under TSan this also
// proves the auditor itself is race-free).
TEST(AuditScenarios, ParallelSweepIsAuditClean) {
  setenv("ANUFS_AUDIT", "1", 1);
  InvariantAuditor::refresh_enabled();
  driver::ScenarioConfig config = driver::parse_scenario_text(
      "workload synthetic\npolicy anu\nservers 1,3,5\n"
      "duration 800\nrequests 1500\nsweep seed=1..4\n");
  config.jobs = 4;
  const std::uint64_t before = InvariantAuditor::audits_performed();
  const auto results =
      driver::run_parallel(driver::expand_sweep(config), config.jobs);
  EXPECT_EQ(results.size(), 4u);
  EXPECT_GT(InvariantAuditor::audits_performed(), before);
  unsetenv("ANUFS_AUDIT");
  InvariantAuditor::refresh_enabled();
}

}  // namespace
}  // namespace anufs::core
