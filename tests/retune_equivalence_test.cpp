// Property suite for the O(changed) control plane: the incremental
// retune path (unchanged-round memo in LatencyTuner + touched-only
// RegionMap::rebalance_to) must be BIT-IDENTICAL to the full-walk
// reference path — same region-map dump, same decisions, same placement
// answers — across random churn plans at 64/512/4096 servers, with the
// invariant auditor forced on, and reproducibly across --jobs counts.
//
// Each plan replays one op sequence twice, with the memo enabled and
// disabled, folding everything observable into a digest: every tune
// decision (average, acted, scaled set, full target list), the complete
// partition dump after every mutation, and a spray of uncached locate()
// probes. Plans deliberately repeat identical report sets back-to-back
// so the memo fast path actually serves rounds (a plan of all-fresh
// reports would never exercise it).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "core/anu_system.h"
#include "core/invariant_auditor.h"
#include "hash/mix64.h"
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

// One churn plan: `ops` mutations/rounds driven by `seed`, applied to
// an existing `system` whose servers are numbered below `next_id`. All
// random draws are independent of the tune decisions, so both variants
// replay the identical op sequence.
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
      // report set verbatim — after a round that acted the map moved
      // (memo rejects on generation), after one that did not this is
      // exactly the unchanged round the memo serves.
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
      const core::TuneDecision decision = system.reconfigure(reports);
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
// items (the --jobs determinism test). The serial equivalence suites
// use one long-lived system instead: constructing under the auditor is
// O(n) audited mutations of O(P) each, and paying that per plan would
// dwarf the churn actually under test.
std::uint64_t run_plan(std::uint64_t seed, std::uint32_t n_servers, int ops,
                       bool incremental) {
  std::vector<ServerId> initial;
  for (std::uint32_t i = 0; i < n_servers; ++i) {
    initial.push_back(ServerId{i});
  }
  core::AnuSystem system{core::AnuConfig{}, initial};
  system.delegate().tuner().set_incremental(incremental);
  std::uint32_t next_id = n_servers;
  return churn_plan(system, next_id, seed, n_servers, ops);
}

// All `plans` op streams against two long-lived systems churned in
// lockstep — one with the memo, one full-walk — asserting digest
// equality after every plan, so a divergence names its seed.
// Construction runs with auditing off (it is not what this suite
// proves); every mutation inside the plans is audited.
void expect_equivalent(std::uint32_t n_servers, std::uint64_t plans,
                       int ops) {
  set_auditing(false);
  std::vector<ServerId> initial;
  for (std::uint32_t i = 0; i < n_servers; ++i) {
    initial.push_back(ServerId{i});
  }
  core::AnuSystem inc{core::AnuConfig{}, initial};
  core::AnuSystem full{core::AnuConfig{}, initial};
  set_auditing(true);
  inc.delegate().tuner().set_incremental(true);
  full.delegate().tuner().set_incremental(false);
  std::uint32_t inc_next = n_servers;
  std::uint32_t full_next = n_servers;
  for (std::uint64_t seed = 1; seed <= plans; ++seed) {
    const std::uint64_t a = churn_plan(inc, inc_next, seed, n_servers, ops);
    const std::uint64_t b =
        churn_plan(full, full_next, seed, n_servers, ops);
    ASSERT_EQ(a, b) << "divergence at n=" << n_servers
                    << " seed=" << seed;
    ASSERT_EQ(inc_next, full_next);
  }
}

TEST(RetuneEquivalence, IncrementalMatchesFullWalkAt64) {
  force_auditing();
  const std::uint64_t before = core::InvariantAuditor::audits_performed();
  expect_equivalent(64, 200, 24);
  EXPECT_GT(core::InvariantAuditor::audits_performed(), before);
}

TEST(RetuneEquivalence, IncrementalMatchesFullWalkAt512) {
  force_auditing();
  expect_equivalent(512, 200, 12);
}

TEST(RetuneEquivalence, IncrementalMatchesFullWalkAt4096) {
  force_auditing();
  expect_equivalent(4096, 200, 4);
}

TEST(RetuneEquivalence, BitIdenticalAcrossJobsCounts) {
  force_auditing();
  constexpr std::uint64_t kPlans = 16;
  const auto digests_at = [](std::size_t jobs) {
    std::vector<std::uint64_t> digests(2 * kPlans);
    sim::parallel_for(2 * kPlans, jobs, [&digests](std::size_t i) {
      // Sizes stay small: every item constructs its own system under
      // the auditor (the scale runs live in the serial suites above).
      const bool big = i >= kPlans;
      const std::uint64_t seed = (i % kPlans) + 1;
      digests[i] = run_plan(seed, big ? 128 : 64, big ? 8 : 16,
                            /*incremental=*/true);
    });
    return digests;
  };
  const std::vector<std::uint64_t> serial = digests_at(1);
  EXPECT_EQ(serial, digests_at(4));
}

}  // namespace
}  // namespace anufs
