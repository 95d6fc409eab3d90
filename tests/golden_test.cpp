// Golden-trace regression tests: run small faulted scenarios and diff
// the driver's full printed output against a checked-in reference.
// Anything that perturbs event order, RNG draws, placement decisions,
// or report formatting shows up as a diff here.
//
// Regenerate after an INTENDED behavior change with
//   ANUFS_UPDATE_GOLDEN=1 ctest -L golden
// then review the diff like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "driver/scenario.h"
#include "fault/fault_plan.h"

#ifndef ANUFS_GOLDEN_DIR
#error "build must define ANUFS_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

namespace anufs::driver {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(ANUFS_GOLDEN_DIR) + "/" + name + ".txt";
}

void compare_with_golden(const std::string& name,
                         const std::string& actual) {
  const std::string path = golden_path(name);
  if (std::getenv("ANUFS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — regenerate with ANUFS_UPDATE_GOLDEN=1 ctest -L golden";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "output drifted from " << path
      << " — if the change is intended, regenerate with "
         "ANUFS_UPDATE_GOLDEN=1 ctest -L golden";
}

std::string run_and_capture(const std::string& scenario,
                            const std::string& plan) {
  ScenarioConfig config = parse_scenario_text(scenario);
  config.faults = fault::parse_fault_plan_text(plan);
  std::ostringstream os;
  (void)run_scenario(config, os);
  return os.str();
}

constexpr const char* kBaseScenario =
    "workload synthetic\n"
    "servers 1,3,5,7,9\n"
    "period 60\n"
    "duration 400\n"
    "requests 3000\n"
    "file_sets 50\n"
    "seed 7\n"
    "movement on\n";

TEST(GoldenTrace, AnuCrashRecoverLimp) {
  compare_with_golden(
      "anu_crash_recover",
      run_and_capture(std::string(kBaseScenario) + "policy anu\n",
                      "crash 120 4\n"
                      "recover 240 4\n"
                      "limp 60 180 1 0.5\n"));
}

TEST(GoldenTrace, RoundRobinFlakyMoves) {
  compare_with_golden(
      "round_robin_flaky",
      run_and_capture(std::string(kBaseScenario) + "policy round-robin\n",
                      "crash 100 3\n"
                      "recover 200 3\n"
                      "move_flaky 50 350 0.6 3 1.0\n"));
}

// Cost-free moves, silent crashes and stale client maps: server 4's
// crash is declared by the detector's sweep, server 3's by the next
// reconfiguration (it is still silent at 180 s), and every re-homed set
// is forwarded for 10 s by its previous owner.
TEST(GoldenTrace, AnuMovementOffDetectorForwarding) {
  compare_with_golden(
      "anu_movement_off_detector",
      run_and_capture(std::string(kBaseScenario) +
                          "policy anu\n"
                          "movement off\n"
                          "detector on\n"
                          "routing_delay 10\n",
                      "crash 130 4\n"
                      "crash 175 3\n"
                      "recover 240 4\n"
                      "recover 300 3\n"));
}

TEST(GoldenTrace, WeightedHashSanSlowdown) {
  compare_with_golden(
      "weighted_hash_san_slow",
      run_and_capture(std::string(kBaseScenario) +
                          "policy weighted-hash\n"
                          "san on\n",
                      "crash 150 2\n"
                      "recover 300 2\n"
                      "san_slow 100 250 3.0\n"));
}

}  // namespace
}  // namespace anufs::driver
