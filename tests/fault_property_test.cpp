// Property tests for fault injection: hundreds of random-but-valid
// fault plans replayed end to end, asserting the invariants the fault
// subsystem promises regardless of the schedule drawn:
//
//  * the placement auditor stays green through every crash/recover
//    transition (violations abort, so completing IS the assertion);
//  * no request is silently dropped — every arrival is completed, lost
//    to a crash, or accounted queued/held/in-transit at the horizon;
//  * every crash-displaced file set is re-owned within the movement
//    model's worst-case transit budget;
//  * the same plan replays bit-identically at any --jobs count.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/invariant_auditor.h"
#include "driver/parallel_runner.h"
#include "driver/scenario.h"
#include "fault/fault_plan.h"
#include "support/random_fault_plan.h"
#include "policies/registry.h"
#include "sim/thread_pool.h"

namespace anufs::driver {
namespace {

void force_auditing() {
  setenv("ANUFS_AUDIT", "1", /*overwrite=*/1);
  core::InvariantAuditor::refresh_enabled();
}

// Small-but-nontrivial scenario (mirrors parallel_runner_test) with
// movement, SAN, and — for odd seeds — the heartbeat failure detector
// enabled, so every fault kind in a random plan has a live target.
ScenarioConfig fault_scenario(const std::string& policy,
                              std::uint64_t seed) {
  ScenarioConfig config = parse_scenario_text(
      "workload synthetic\n"
      "servers 1,3,5,7,9\n"
      "period 60\n"
      "duration 400\n"
      "requests 3000\n"
      "file_sets 50\n"
      "movement on\n"
      "san on\n");
  config.policy = policy;
  config.seed = seed;
  config.cluster.seed = seed;
  config.cluster.detector.enabled = seed % 2 == 1;
  return config;
}

// The "no request is silently dropped" ledger. Holds at the horizon for
// every plan: arrivals either completed, died with a crash, or are
// visibly parked somewhere.
void expect_conserved(const cluster::RunResult& r) {
  EXPECT_EQ(r.total_requests, r.completed + r.lost + r.queued_at_end +
                                  r.held_at_end + r.in_transit_at_end);
  EXPECT_GT(r.completed, 0u);
}

// Worst-case seconds for one crash-induced re-homing episode: every
// move pays at most init_max per attempt, with at most max_retries
// failed attempts, each adding `backoff` before the retry. (Crash moves
// skip the flush — there is no one left to flush.)
double recovery_deadline(const fault::FaultPlan& plan,
                         const cluster::MovementConfig& movement) {
  double worst_retries = 0.0;
  double worst_backoff = 0.0;
  for (const fault::MoveFlakyWindow& w : plan.flaky_moves) {
    worst_retries = std::max(worst_retries, double(w.max_retries));
    worst_backoff = std::max(worst_backoff, w.backoff);
  }
  return movement.init_max * (1.0 + worst_retries) +
         worst_retries * worst_backoff;
}

void expect_recoveries_within(const cluster::RunResult& r,
                              double deadline) {
  for (const cluster::RecoveryEpisode& e : r.recoveries) {
    EXPECT_GT(e.moves, 0u);
    EXPECT_GE(e.completed_at, e.declared_at);
    EXPECT_LE(e.span(), deadline + 1e-9)
        << "re-homing episode at t=" << e.declared_at << " took "
        << e.span() << " s for " << e.moves << " sets";
  }
}

void expect_identical(const cluster::RunResult& a,
                      const cluster::RunResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.crash_moves, b.crash_moves);
  EXPECT_EQ(a.move_failures, b.move_failures);
  EXPECT_EQ(a.queued_at_end, b.queued_at_end);
  EXPECT_EQ(a.held_at_end, b.held_at_end);
  EXPECT_EQ(a.in_transit_at_end, b.in_transit_at_end);
  EXPECT_EQ(a.engine.fired, b.engine.fired);
  // Exact equality: identical event order must give identical floats.
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  ASSERT_EQ(a.recoveries.size(), b.recoveries.size());
  for (std::size_t i = 0; i < a.recoveries.size(); ++i) {
    EXPECT_EQ(a.recoveries[i].declared_at, b.recoveries[i].declared_at);
    EXPECT_EQ(a.recoveries[i].completed_at, b.recoveries[i].completed_at);
    EXPECT_EQ(a.recoveries[i].moves, b.recoveries[i].moves);
  }
  EXPECT_EQ(a.server_completed, b.server_completed);
}

constexpr std::uint64_t kPlanSeeds = 210;  // ISSUE floor: 200+

TEST(FaultProperty, RandomPlansKeepEveryInvariant) {
  force_auditing();
  const std::uint64_t audits_before =
      core::InvariantAuditor::audits_performed();

  fault::RandomPlanConfig plan_config;  // duration 400 matches scenario
  std::vector<ScenarioConfig> runs;
  std::vector<fault::FaultPlan> plans;
  for (std::uint64_t seed = 1; seed <= kPlanSeeds; ++seed) {
    fault::FaultPlan plan = make_random_plan(plan_config, seed);
    ScenarioConfig config = fault_scenario("anu", seed);
    config.faults = plan;
    runs.push_back(std::move(config));
    plans.push_back(std::move(plan));
  }
  const std::vector<cluster::RunResult> results =
      run_parallel(runs, sim::ThreadPool::hardware_jobs());

  ASSERT_EQ(results.size(), runs.size());
  std::uint64_t episodes = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE("plan seed " + std::to_string(i + 1) + ":\n" +
                 fault::to_text(plans[i]));
    expect_conserved(results[i]);
    expect_recoveries_within(
        results[i],
        recovery_deadline(plans[i], runs[i].cluster.movement));
    episodes += results[i].recoveries.size();
  }
  // The seed range genuinely exercised crash recovery, and the auditor
  // genuinely watched it (it aborts on any violation).
  EXPECT_GT(episodes, kPlanSeeds / 4);
  EXPECT_GT(core::InvariantAuditor::audits_performed(), audits_before);
}

TEST(FaultProperty, AllPoliciesReplayCrashRecoverAuditClean) {
  force_auditing();
  const std::uint64_t audits_before =
      core::InvariantAuditor::audits_performed();
  const fault::FaultPlan plan = fault::parse_fault_plan_text(
      "crash 120 4\n"
      "recover 240 4\n"
      "limp 60 180 1 0.5\n");

  // Every registered policy rides through the same crash/recover/limp
  // plan — a policy added to the registry is in this replay for free.
  const std::vector<std::string> policies = policy::registered_policy_names();
  std::vector<ScenarioConfig> runs;
  for (const std::string& policy : policies) {
    ScenarioConfig config = fault_scenario(policy, 42);
    config.faults = plan;
    runs.push_back(std::move(config));
  }
  const std::vector<cluster::RunResult> results =
      run_parallel(runs, sim::ThreadPool::hardware_jobs());

  for (std::size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE(policies[i]);
    expect_conserved(results[i]);
    // Every policy must re-place the dead server's file sets...
    EXPECT_GT(results[i].crash_moves, 0u);
    // ...within the movement deadline.
    expect_recoveries_within(
        results[i], recovery_deadline(plan, runs[i].cluster.movement));
  }
  EXPECT_GT(core::InvariantAuditor::audits_performed(), audits_before);
}

TEST(FaultProperty, ZooPoliciesRandomPlansKeepLedger) {
  // The randomized-zoo policies (pow-d, jiq) under the full 200+ random
  // fault plans: their d-choice / idle-list re-homing must keep the
  // request ledger conserved and finish every crash episode within the
  // movement budget, exactly like ANU in RandomPlansKeepEveryInvariant.
  // (They drive no RegionMap, so the auditor has nothing to check here;
  // conservation and the recovery deadline are the contract.)
  fault::RandomPlanConfig plan_config;
  std::vector<ScenarioConfig> runs;
  std::vector<fault::FaultPlan> plans;
  for (const char* policy : {"pow-d", "jiq"}) {
    for (std::uint64_t seed = 1; seed <= kPlanSeeds; ++seed) {
      fault::FaultPlan plan = make_random_plan(plan_config, seed);
      ScenarioConfig config = fault_scenario(policy, seed);
      config.faults = plan;
      runs.push_back(std::move(config));
      plans.push_back(std::move(plan));
    }
  }
  const std::vector<cluster::RunResult> results =
      run_parallel(runs, sim::ThreadPool::hardware_jobs());

  ASSERT_EQ(results.size(), runs.size());
  std::uint64_t episodes = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE(runs[i].policy + " plan seed " +
                 std::to_string(i % kPlanSeeds + 1) + ":\n" +
                 fault::to_text(plans[i]));
    expect_conserved(results[i]);
    expect_recoveries_within(
        results[i],
        recovery_deadline(plans[i], runs[i].cluster.movement));
    episodes += results[i].recoveries.size();
  }
  EXPECT_GT(episodes, kPlanSeeds / 2);  // both policies saw real crashes
}

TEST(FaultProperty, SamePlanBitIdenticalAcrossJobsCounts) {
  // The tentpole's determinism contract: a faulted sweep at --jobs 8
  // equals the serial replay exactly, per seed (mirrors
  // parallel_runner_test for the fault path).
  fault::RandomPlanConfig plan_config;
  std::vector<ScenarioConfig> runs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ScenarioConfig config = fault_scenario("anu", seed);
    config.faults = make_random_plan(plan_config, seed);
    runs.push_back(std::move(config));
  }
  const std::vector<cluster::RunResult> serial = run_parallel(runs, 1);
  const std::vector<cluster::RunResult> parallel = run_parallel(runs, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("plan seed " + std::to_string(runs[i].seed));
    expect_identical(serial[i], parallel[i]);
  }
}

TEST(FaultProperty, RepeatedFaultedRunsAreIdentical) {
  ScenarioConfig config = fault_scenario("anu", 3);
  config.faults = fault::parse_fault_plan_text(
      "crash 100 2\n"
      "recover 200 2\n"
      "move_flaky 50 350 0.5 3 1.0\n");
  const cluster::RunResult first = run_scenario_quiet(config);
  const cluster::RunResult second = run_scenario_quiet(config);
  expect_identical(first, second);
  EXPECT_GT(first.move_failures, 0u);  // the flaky window really fired
}

}  // namespace
}  // namespace anufs::driver
