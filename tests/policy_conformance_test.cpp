// Policy-conformance property suite: every policy in the registry
// (src/policies/registry.h) honors the PlacementPolicy contract,
// enumerated from the registry itself so a newly-registered policy is
// under contract automatically.
//
// The contract, per policy:
//  * after initialize(), owner() is defined (a live server) for every
//    file set;
//  * on_server_failed(v) re-homes v's sets IMMEDIATELY — the very next
//    owner() call must answer with a live survivor, never abort on
//    kInvalidServer (the "unassigned owner" regression class), and for
//    exact_rehoming policies the returned moves are exactly v's sets
//    (ripple policies — ANU's half-occupancy cascade, weighted-hash
//    re-proportioning — may move more, but must still clear v);
//  * servers() stays sorted and tracks membership through fail/add;
//  * every returned move record is exactly the owner() diff the call
//    caused, in ascending FileSetId order;
//  * initialize() rejects a non-dense file-set population;
//  * a full scenario run is bit-identical at --jobs 1 vs 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "driver/parallel_runner.h"
#include "driver/scenario.h"
#include "policies/join_idle_queue.h"
#include "policies/pow_d.h"
#include "policies/registry.h"
#include "workload/synthetic.h"

namespace anufs::policy {
namespace {

workload::Workload small_workload() {
  workload::SyntheticConfig wc;
  wc.duration = 400;
  wc.total_requests = 2000;
  wc.file_sets = 40;
  wc.seed = 9;
  return workload::make_synthetic(wc);
}

/// Params rich enough for every registered factory: capacities cover
/// the initial servers 0..4 (speeds 1,3,5,7,9) plus the id-5 server
/// some tests commission later.
PolicyParams full_params(const workload::Workload& work) {
  PolicyParams p;
  p.seed = 9;
  p.reconfig_period = 60.0;
  p.workload = &work;
  const double speeds[] = {1, 3, 5, 7, 9, 4};
  for (std::uint32_t i = 0; i < 6; ++i) {
    p.capacities[ServerId{i}] = speeds[i];
  }
  return p;
}

std::vector<ServerId> initial_servers() {
  return {ServerId{0}, ServerId{1}, ServerId{2}, ServerId{3}, ServerId{4}};
}

void expect_owners_defined(const PlacementPolicy& pol,
                           const std::vector<workload::FileSetSpec>& sets) {
  const std::vector<ServerId> alive = pol.servers();
  for (const workload::FileSetSpec& fs : sets) {
    const ServerId o = pol.owner(fs.id);  // aborts if unassigned
    EXPECT_TRUE(std::binary_search(alive.begin(), alive.end(), o))
        << "file set " << fs.id.value << " owned by dead/unknown server "
        << o.value;
  }
}

TEST(PolicyConformance, OwnerDefinedForAllSetsAfterInitialize) {
  const workload::Workload work = small_workload();
  for (const PolicyInfo& info : registered_policies()) {
    SCOPED_TRACE(info.name);
    const auto pol = info.make(full_params(work));
    EXPECT_EQ(pol->name(), info.name);
    pol->initialize(work.file_sets, initial_servers());
    expect_owners_defined(*pol, work.file_sets);
  }
}

TEST(PolicyConformance, ServersStaySortedThroughChurn) {
  const workload::Workload work = small_workload();
  for (const PolicyInfo& info : registered_policies()) {
    SCOPED_TRACE(info.name);
    const auto pol = info.make(full_params(work));
    pol->initialize(work.file_sets, initial_servers());
    const auto expect_sorted = [&](std::vector<ServerId> expected) {
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(pol->servers(), expected);
    };
    expect_sorted(initial_servers());
    (void)pol->on_server_failed(ServerId{2});
    expect_sorted({ServerId{0}, ServerId{1}, ServerId{3}, ServerId{4}});
    (void)pol->on_server_added(ServerId{5});
    expect_sorted({ServerId{0}, ServerId{1}, ServerId{3}, ServerId{4},
                   ServerId{5}});
    (void)pol->on_server_added(ServerId{2});
    expect_sorted({ServerId{0}, ServerId{1}, ServerId{2}, ServerId{3},
                   ServerId{4}, ServerId{5}});
    expect_owners_defined(*pol, work.file_sets);
  }
}

// The "unassigned owner" regression (this PR's bugfix satellite): crash
// a server and IMMEDIATELY look up every file set it owned — exactly
// what the simulator does when a request routes in the same event-queue
// instant as an undetected crash's declaration. owner() must answer
// with a live survivor, never trip ANUFS_EXPECTS(id != kInvalidServer).
TEST(PolicyConformance, FailureRehomesVictimBeforeReturning) {
  const workload::Workload work = small_workload();
  for (const PolicyInfo& info : registered_policies()) {
    SCOPED_TRACE(info.name);
    const auto pol = info.make(full_params(work));
    pol->initialize(work.file_sets, initial_servers());
    // Crash the server owning the most sets — the worst re-homing case.
    std::map<ServerId, std::vector<FileSetId>> by_owner;
    for (const workload::FileSetSpec& fs : work.file_sets) {
      by_owner[pol->owner(fs.id)].push_back(fs.id);
    }
    ServerId victim = by_owner.begin()->first;
    for (const auto& [id, sets] : by_owner) {
      if (sets.size() > by_owner[victim].size()) victim = id;
    }
    const std::vector<FileSetId> orphaned = by_owner[victim];
    ASSERT_FALSE(orphaned.empty());

    const std::vector<Move> moves = pol->on_server_failed(victim);

    for (const FileSetId fs : orphaned) {
      const ServerId o = pol->owner(fs);  // the regression: must not abort
      EXPECT_NE(o, victim) << "file set " << fs.value << " still on victim";
    }
    expect_owners_defined(*pol, work.file_sets);
    // Every victim set must appear in the move record (conservation),
    // and for exact_rehoming policies NOTHING else may move.
    std::set<std::uint32_t> moved_from_victim;
    for (const Move& m : moves) {
      EXPECT_NE(m.to, victim);
      if (m.from == victim) {
        moved_from_victim.insert(m.file_set.value);
      } else {
        EXPECT_FALSE(info.exact_rehoming)
            << info.name << " moved non-victim set " << m.file_set.value;
      }
    }
    EXPECT_EQ(moved_from_victim.size(), orphaned.size());
    for (const FileSetId fs : orphaned) {
      EXPECT_TRUE(moved_from_victim.count(fs.value) == 1)
          << "victim set " << fs.value << " missing from move record";
    }
  }
}

std::vector<ServerId> owner_snapshot(
    const PlacementPolicy& pol,
    const std::vector<workload::FileSetSpec>& sets) {
  std::vector<ServerId> owners;
  for (const workload::FileSetSpec& fs : sets) owners.push_back(pol.owner(fs.id));
  return owners;
}

/// A call's move record must be exactly the before/after owner() diff,
/// in strictly ascending FileSetId order: one Move per changed set, none
/// for unchanged ones, each from the prior owner to the new one.
void expect_moves_are_owner_diff(const std::vector<Move>& moves,
                                 const std::vector<ServerId>& before,
                                 const std::vector<ServerId>& after) {
  std::vector<Move> diff;
  for (std::uint32_t i = 0; i < before.size(); ++i) {
    if (before[i] != after[i]) diff.push_back({FileSetId{i}, before[i], after[i]});
  }
  ASSERT_EQ(moves.size(), diff.size());
  for (std::size_t k = 0; k < moves.size(); ++k) {
    SCOPED_TRACE("move " + std::to_string(k));
    EXPECT_EQ(moves[k].file_set, diff[k].file_set);
    EXPECT_EQ(moves[k].from, diff[k].from);
    EXPECT_EQ(moves[k].to, diff[k].to);
    EXPECT_NE(moves[k].from, moves[k].to);
    if (k > 0) {
      EXPECT_LT(moves[k - 1].file_set.value, moves[k].file_set.value);
    }
  }
}

TEST(PolicyConformance, MovesAreTheOwnerDiffInIdOrder) {
  const workload::Workload work = small_workload();
  for (const PolicyInfo& info : registered_policies()) {
    SCOPED_TRACE(info.name);
    const auto pol = info.make(full_params(work));
    pol->initialize(work.file_sets, initial_servers());
    std::vector<ServerId> before = owner_snapshot(*pol, work.file_sets);
    std::size_t total_moves = 0;
    const auto check = [&](const std::vector<Move>& moves) {
      const std::vector<ServerId> after = owner_snapshot(*pol, work.file_sets);
      expect_moves_are_owner_diff(moves, before, after);
      total_moves += moves.size();
      before = after;
    };
    // Alternating skew: even servers hot on even rounds, odd on odd, so
    // every adaptive policy has an overloaded server to relieve.
    for (std::uint32_t round = 0; round < 5; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      std::vector<core::ServerReport> reports;
      for (const ServerId id : pol->servers()) {
        const bool hot = id.value % 2 == round % 2;
        reports.push_back({id, hot ? 0.030 : 0.002, 100});
      }
      check(pol->rebalance(60.0 * (round + 1), reports));
    }
    check(pol->on_server_failed(ServerId{2}));
    check(pol->on_server_added(ServerId{5}));
    EXPECT_GT(total_moves, 0u);  // the failure alone re-homes something
  }
}

// The owner table is indexed by FileSetId, so every policy requires the
// dense population every workload source produces (file_sets[i].id == i)
// and aborts at initialize() rather than routing through a hole later.
TEST(PolicyConformanceDeathTest, InitializeRejectsNonDenseIds) {
  const workload::Workload work = small_workload();
  std::vector<workload::FileSetSpec> gap = work.file_sets;
  gap.back().id = FileSetId{static_cast<std::uint32_t>(gap.size())};
  std::vector<workload::FileSetSpec> swapped = work.file_sets;
  std::swap(swapped[0].id, swapped[1].id);
  for (const PolicyInfo& info : registered_policies()) {
    SCOPED_TRACE(info.name);
    const auto pol = info.make(full_params(work));
    EXPECT_DEATH(pol->initialize(gap, initial_servers()), "id.value == i");
    EXPECT_DEATH(pol->initialize(swapped, initial_servers()), "id.value == i");
  }
}

TEST(PolicyConformance, RunsBitIdenticalAtJobsOneVsFour) {
  // Whole-scenario determinism: the same faulted config replayed
  // serially and on four workers must produce identical results for
  // every registered policy (policies draw only from seeded sim/random
  // streams — rule D1 — so thread scheduling cannot leak in).
  std::vector<driver::ScenarioConfig> runs;
  for (const std::string& name : registered_policy_names()) {
    driver::ScenarioConfig config = driver::parse_scenario_text(
        "workload synthetic\n"
        "servers 1,3,5,7,9\n"
        "period 60\n"
        "duration 400\n"
        "requests 3000\n"
        "file_sets 50\n"
        "seed 11\n"
        "movement on\n"
        "fault crash 120 4\n"
        "fault recover 240 4\n");
    config.policy = name;
    runs.push_back(std::move(config));
  }
  const std::vector<cluster::RunResult> serial = driver::run_parallel(runs, 1);
  const std::vector<cluster::RunResult> parallel =
      driver::run_parallel(runs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(runs[i].policy);
    EXPECT_EQ(serial[i].completed, parallel[i].completed);
    EXPECT_EQ(serial[i].lost, parallel[i].lost);
    EXPECT_EQ(serial[i].moves, parallel[i].moves);
    EXPECT_EQ(serial[i].crash_moves, parallel[i].crash_moves);
    EXPECT_EQ(serial[i].mean_latency, parallel[i].mean_latency);
    EXPECT_EQ(serial[i].server_completed, parallel[i].server_completed);
  }
}

// ---- degenerate pow-d widths (bugfix satellite) ---------------------------
// Property: for n in {1, 2} and d in {1, 2, 5, 64}, pow-d and jiq never
// index outside the sampled set — initialize, overload shedding, and
// failure re-homing all clamp d to the alive count.

template <typename Policy, typename Config>
void exercise_degenerate(std::uint32_t n, std::uint32_t d) {
  Config config;
  config.d = d;
  config.seed = 3;
  Policy pol{config};
  workload::SyntheticConfig wc;
  wc.duration = 100;
  wc.total_requests = 200;
  wc.file_sets = 12;
  const workload::Workload work = workload::make_synthetic(wc);
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < n; ++i) servers.push_back(ServerId{i});
  pol.initialize(work.file_sets, servers);
  for (const workload::FileSetSpec& fs : work.file_sets) {
    (void)pol.owner(fs.id);
  }
  // An overload round: server 0 hot, the rest idle-ish.
  std::vector<core::ServerReport> reports;
  for (std::uint32_t i = 0; i < n; ++i) {
    reports.push_back({ServerId{i}, i == 0 ? 0.050 : 0.001, 100});
  }
  (void)pol.rebalance(60.0, reports);
  for (const workload::FileSetSpec& fs : work.file_sets) {
    (void)pol.owner(fs.id);
  }
  if (n > 1) {
    // Fail down to a single server: every set must land on it.
    (void)pol.on_server_failed(ServerId{0});
    for (const workload::FileSetSpec& fs : work.file_sets) {
      EXPECT_NE(pol.owner(fs.id), ServerId{0});
    }
  }
}

TEST(PolicyConformance, DegeneratePowDWidthsNeverIndexOut) {
  for (const std::uint32_t n : {1u, 2u}) {
    for (const std::uint32_t d : {1u, 2u, 5u, 64u}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " d=" + std::to_string(d));
      exercise_degenerate<PowerOfDChoicesPolicy, PowDConfig>(n, d);
      exercise_degenerate<JoinIdleQueuePolicy, JiqConfig>(n, d);
    }
  }
}

TEST(PolicyConformance, SingleServerClusterAssignsEverything) {
  workload::SyntheticConfig wc;
  wc.file_sets = 8;
  const workload::Workload work = workload::make_synthetic(wc);
  for (const char* name : {"pow-d", "jiq"}) {
    SCOPED_TRACE(name);
    PolicyParams p;
    p.seed = 1;
    p.pow_d = 64;  // far beyond the one server: pure clamp territory
    p.workload = &work;
    p.capacities[ServerId{0}] = 1.0;
    const auto pol = make_registered_policy(name, p);
    pol->initialize(work.file_sets, {ServerId{0}});
    for (const workload::FileSetSpec& fs : work.file_sets) {
      EXPECT_EQ(pol->owner(fs.id), ServerId{0});
    }
  }
}

// JIQ-specific: the idle list is preferred over probing, fastest-first,
// one placement per announcement.
TEST(PolicyConformance, JiqPrefersFastestIdleServer) {
  JiqConfig config;
  config.seed = 5;
  JoinIdleQueuePolicy pol{config};
  workload::SyntheticConfig wc;
  wc.file_sets = 10;
  const workload::Workload work = workload::make_synthetic(wc);
  pol.initialize(work.file_sets, initial_servers());
  // Round: servers 1 and 3 announce idle (zero requests); the rest are
  // busy enough that nobody crosses the overload bar, so the idle list
  // survives the round intact.
  const std::vector<core::ServerReport> reports = {
      {ServerId{0}, 0.020, 100}, {ServerId{1}, 0.0, 0},
      {ServerId{2}, 0.030, 100}, {ServerId{3}, 0.0, 0},
      {ServerId{4}, 0.010, 100}};
  (void)pol.rebalance(60.0, reports);
  EXPECT_EQ(pol.idle_servers(),
            (std::vector<ServerId>{ServerId{1}, ServerId{3}}));
  // Both announced-idle servers have never reported latency, so both
  // sit at the optimistic floor; the tie breaks to the lower id.
  const std::vector<Move> moves = pol.on_server_failed(ServerId{0});
  ASSERT_FALSE(moves.empty());
  EXPECT_EQ(moves.front().to, ServerId{1});
}

}  // namespace
}  // namespace anufs::policy
