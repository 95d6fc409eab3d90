// The parallel experiment runner's contract: a concurrent sweep is
// bit-identical to the serial path, because every run owns its own
// scheduler, RNG streams, workload, and policy.
#include "driver/parallel_runner.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace anufs::driver {
namespace {

// Small-but-nontrivial scenario so the full suite stays fast.
ScenarioConfig small_scenario(const std::string& policy,
                              std::uint64_t seed) {
  ScenarioConfig config = parse_scenario_text(
      "workload synthetic\n"
      "servers 1,3,5,7,9\n"
      "period 60\n"
      "duration 600\n"
      "requests 4000\n"
      "file_sets 60\n");
  config.policy = policy;
  config.seed = seed;
  config.cluster.seed = seed;
  return config;
}

void expect_identical(const cluster::RunResult& a,
                      const cluster::RunResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.forwarded, b.forwarded);
  EXPECT_EQ(a.engine.fired, b.engine.fired);
  // Exact floating-point equality, not near: identical event order must
  // produce identical arithmetic.
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  ASSERT_EQ(a.latency_ms.labels(), b.latency_ms.labels());
  for (const std::string& label : a.latency_ms.labels()) {
    EXPECT_EQ(a.latency_ms.at(label).tail_mean(0.5),
              b.latency_ms.at(label).tail_mean(0.5))
        << label;
  }
  EXPECT_EQ(a.server_completed, b.server_completed);
  EXPECT_EQ(a.server_busy, b.server_busy);
}

TEST(ParallelRunner, ExpandSweepProducesOneRunPerSeed) {
  ScenarioConfig config = small_scenario("anu", 1);
  config.sweep_begin = 3;
  config.sweep_end = 7;
  config.jobs = 4;
  const std::vector<ScenarioConfig> runs = expand_sweep(config);
  ASSERT_EQ(runs.size(), 5u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].seed, 3 + i);
    EXPECT_EQ(runs[i].cluster.seed, 3 + i);
    EXPECT_FALSE(runs[i].is_sweep());
    EXPECT_EQ(runs[i].jobs, 1u);
  }
}

TEST(ParallelRunner, NonSweepExpandsToItself) {
  const std::vector<ScenarioConfig> runs =
      expand_sweep(small_scenario("anu", 9));
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].seed, 9u);
}

TEST(ParallelRunner, ParallelSweepIdenticalToSerial) {
  ScenarioConfig config = small_scenario("anu", 1);
  config.sweep_begin = 1;
  config.sweep_end = 4;
  const std::vector<ScenarioConfig> runs = expand_sweep(config);
  const std::vector<cluster::RunResult> serial = run_parallel(runs, 1);
  const std::vector<cluster::RunResult> parallel = run_parallel(runs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(runs[i].seed));
    expect_identical(serial[i], parallel[i]);
  }
}

TEST(ParallelRunner, PolicySeedGridIdenticalToSerial) {
  // The stat_multiseed shape: a (policy, seed) grid. Every cell of the
  // parallel run must match the plain serial loop exactly.
  std::vector<ScenarioConfig> grid;
  for (const char* policy : {"round-robin", "prescient", "anu"}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      grid.push_back(small_scenario(policy, seed));
    }
  }
  std::vector<cluster::RunResult> serial;
  for (const ScenarioConfig& c : grid) {
    serial.push_back(run_scenario_quiet(c));
  }
  const std::vector<cluster::RunResult> parallel = run_parallel(grid, 4);
  ASSERT_EQ(parallel.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(grid[i].policy + " seed " + std::to_string(grid[i].seed));
    expect_identical(serial[i], parallel[i]);
  }
}

TEST(ParallelRunner, RepeatedParallelRunsAreIdentical) {
  ScenarioConfig config = small_scenario("anu", 2);
  config.sweep_begin = 1;
  config.sweep_end = 3;
  const std::vector<ScenarioConfig> runs = expand_sweep(config);
  const std::vector<cluster::RunResult> first = run_parallel(runs, 3);
  const std::vector<cluster::RunResult> second = run_parallel(runs, 3);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    expect_identical(first[i], second[i]);
  }
}

TEST(ParallelRunner, RunSweepEmitsPerSeedRowsAndAggregates) {
  ScenarioConfig config = small_scenario("round-robin", 1);
  config.sweep_begin = 1;
  config.sweep_end = 3;
  config.jobs = 2;
  std::ostringstream os;
  const std::vector<cluster::RunResult> results = run_sweep(config, os);
  EXPECT_EQ(results.size(), 3u);
  const std::string out = os.str();
  EXPECT_NE(out.find("seeds=[1..3] jobs=2"), std::string::npos) << out;
  EXPECT_NE(out.find("run_mean_ms"), std::string::npos);
  EXPECT_NE(out.find("+/-"), std::string::npos);
  EXPECT_NE(out.find("events"), std::string::npos);
}

TEST(ParallelRunner, SweepConfigParses) {
  const ScenarioConfig config = parse_scenario_text(
      "workload synthetic\n"
      "policy anu\n"
      "jobs 8\n"
      "sweep seed=2..11\n");
  EXPECT_EQ(config.jobs, 8u);
  EXPECT_TRUE(config.is_sweep());
  EXPECT_EQ(config.sweep_begin, 2u);
  EXPECT_EQ(config.sweep_end, 11u);
}

}  // namespace
}  // namespace anufs::driver
