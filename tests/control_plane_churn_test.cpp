// Property suite for the control plane under churn: random plans of
// server failures, additions and tuning rounds at 64/512/4096 servers,
// with the invariant auditor forced on for every mutation, and
// reproducibly across --jobs counts.
//
// Every tuning round is checked against the tuner's contract: one
// target per reported server in report order, each at or above the
// region floor, summing to exactly half the unit interval; `acted` says
// whether any target differs from the share it replaces; and after the
// round the region map holds exactly the targets. Everything observable
// (decisions, the partition dump after every mutation, a spray of
// locate() probes) is folded into a digest for the --jobs test.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "core/anu_system.h"
#include "core/invariant_auditor.h"
#include "hash/mix64.h"
#include "hash/unit_interval.h"
#include "sim/random.h"
#include "sim/thread_pool.h"

namespace anufs {
namespace {

void set_auditing(bool on) {
  setenv("ANUFS_AUDIT", on ? "1" : "0", /*overwrite=*/1);
  core::InvariantAuditor::refresh_enabled();
}

void force_auditing() { set_auditing(true); }

std::uint64_t fold(std::uint64_t d, std::uint64_t v) {
  return hash::mix64(d ^ v);
}

std::uint64_t fold_decision(std::uint64_t d, const core::TuneDecision& t) {
  d = fold(d, std::bit_cast<std::uint64_t>(t.system_average));
  d = fold(d, t.acted ? 1 : 2);
  for (const ServerId id : t.explicitly_scaled) d = fold(d, id.value);
  for (const auto& [id, share] : t.targets) {
    d = fold(d, id.value);
    d = fold(d, share);
  }
  return d;
}

std::uint64_t fold_regions(std::uint64_t d, const core::RegionMap& map) {
  for (const core::RegionMap::PartitionRecord& rec : map.dump()) {
    d = fold(d, rec.index);
    d = fold(d, rec.owner.value);
    d = fold(d, rec.fill);
  }
  d = fold(d, map.free_partition_count());
  d = fold(d, map.total_share());
  return d;
}

// The tuner's contract for one round: `before` holds each reported
// server's share going in, `system` the map after the round applied.
void expect_round_contract(const core::AnuSystem& system,
                           const std::vector<core::ServerReport>& reports,
                           const std::vector<hash::Measure>& before,
                           const core::TuneDecision& decision) {
  ASSERT_EQ(decision.targets.size(), reports.size());
  const hash::Measure floor = core::TunerConfig{}.min_share;
  hash::Measure sum = 0;
  bool moved = false;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& [id, target] = decision.targets[i];
    ASSERT_EQ(id, reports[i].id);
    EXPECT_GE(target, floor);
    EXPECT_EQ(system.regions().share(id), target);
    sum += target;
    moved = moved || target != before[i];
  }
  EXPECT_EQ(sum, hash::kHalfInterval);
  EXPECT_EQ(decision.acted, moved);
}

// One churn plan: `ops` mutations/rounds driven by `seed`, applied to
// an existing `system` whose servers are numbered below `next_id`. The
// random draws are independent of the tune decisions, so a plan is the
// same op sequence whatever the tuner decides.
std::uint64_t churn_plan(core::AnuSystem& system, std::uint32_t& next_id,
                         std::uint64_t seed, std::uint32_t n_servers,
                         int ops) {
  sim::Xoshiro256 rng{sim::make_stream(seed, "retune-equiv", n_servers)};
  std::vector<core::ServerReport> reports;  // empty => must regenerate
  std::uint64_t digest = 0;

  for (int step = 0; step < ops; ++step) {
    const std::uint64_t op = rng() % 100;
    if (op < 10 && system.regions().server_count() > 2) {
      const std::vector<ServerId> alive = system.alive();
      system.fail_server(alive[rng() % alive.size()]);
      reports.clear();  // membership changed: the report set is stale
    } else if (op < 18) {
      system.add_server(ServerId{next_id++});
      reports.clear();
    } else {
      // A tuning round. With probability ~1/2 REUSE the previous
      // report set verbatim: every latency then equals its remembered
      // one, the edge where divergent gating counts a server as still
      // diverging.
      const bool reuse = !reports.empty() && (op % 2 == 0);
      if (!reuse) {
        reports.clear();
        for (const ServerId id : system.alive()) {
          const bool idle = rng() % 8 == 0;
          reports.push_back(core::ServerReport{
              id, idle ? 0.0 : 0.005 + 0.05 * rng.next_double(),
              idle ? 0 : 50 + rng() % 100});
        }
      }
      std::vector<hash::Measure> before;
      before.reserve(reports.size());
      for (const core::ServerReport& r : reports) {
        before.push_back(system.regions().share(r.id));
      }
      const core::TuneDecision decision = system.reconfigure(reports);
      expect_round_contract(system, reports, before, decision);
      digest = fold_decision(digest, decision);
    }
    digest = fold_regions(digest, system.regions());
    for (int probe = 0; probe < 8; ++probe) {
      const core::LocateResult r = system.locate_detailed(rng());
      digest = fold(digest, r.server.value);
      digest = fold(digest, r.probes);
      digest = fold(digest, r.fallback ? 3 : 4);
      digest = fold(digest, r.position);
    }
  }
  return digest;
}

// Fresh system per plan — used where plans must be independent work
// items (the --jobs determinism test). The serial churn suites use one
// long-lived system instead: constructing under the auditor is O(n)
// audited mutations of O(P) each, and paying that per plan would dwarf
// the churn actually under test.
std::uint64_t run_plan(std::uint64_t seed, std::uint32_t n_servers,
                       int ops) {
  std::vector<ServerId> initial;
  for (std::uint32_t i = 0; i < n_servers; ++i) {
    initial.push_back(ServerId{i});
  }
  core::AnuSystem system{core::AnuConfig{}, initial};
  std::uint32_t next_id = n_servers;
  return churn_plan(system, next_id, seed, n_servers, ops);
}

// All `plans` op streams against one long-lived system, stopping at the
// first plan that breaks a round's contract so the failure names its
// seed. Construction runs with auditing off (it is not what this suite
// proves); every mutation inside the plans is audited.
void churn_audited(std::uint32_t n_servers, std::uint64_t plans, int ops) {
  set_auditing(false);
  std::vector<ServerId> initial;
  for (std::uint32_t i = 0; i < n_servers; ++i) {
    initial.push_back(ServerId{i});
  }
  core::AnuSystem system{core::AnuConfig{}, initial};
  set_auditing(true);
  const std::uint64_t audits = core::InvariantAuditor::audits_performed();
  std::uint32_t next_id = n_servers;
  for (std::uint64_t seed = 1; seed <= plans; ++seed) {
    (void)churn_plan(system, next_id, seed, n_servers, ops);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "contract broken at n=" << n_servers << " seed=" << seed;
  }
  EXPECT_GT(core::InvariantAuditor::audits_performed(), audits);
}

TEST(ControlPlaneChurn, AuditedChurnAt64) {
  force_auditing();
  churn_audited(64, 200, 24);
}

TEST(ControlPlaneChurn, AuditedChurnAt512) {
  force_auditing();
  churn_audited(512, 200, 12);
}

TEST(ControlPlaneChurn, AuditedChurnAt4096) {
  force_auditing();
  churn_audited(4096, 200, 4);
}

TEST(ControlPlaneChurn, BitIdenticalAcrossJobsCounts) {
  force_auditing();
  constexpr std::uint64_t kPlans = 16;
  const auto digests_at = [](std::size_t jobs) {
    std::vector<std::uint64_t> digests(2 * kPlans);
    sim::parallel_for(2 * kPlans, jobs, [&digests](std::size_t i) {
      // Sizes stay small: every item constructs its own system under
      // the auditor (the scale runs live in the serial suites above).
      const bool big = i >= kPlans;
      const std::uint64_t seed = (i % kPlans) + 1;
      digests[i] = run_plan(seed, big ? 128 : 64, big ? 8 : 16);
    });
    return digests;
  };
  const std::vector<std::uint64_t> serial = digests_at(1);
  EXPECT_EQ(serial, digests_at(4));
}

}  // namespace
}  // namespace anufs
