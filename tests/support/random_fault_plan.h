// Test support for fault plans: a canonical text form and a seeded
// generator of valid random plans, for the fault property tests and the
// serving stress test. Nothing in a shipped binary needs either.
#pragma once

#include <cstdint>
#include <string>

#include "fault/fault_plan.h"

namespace anufs::fault {

/// Serialize back to the grammar in fault/fault_plan.h.
/// parse(to_text(p)) == p up to event ordering (events are emitted
/// sorted by time).
[[nodiscard]] std::string to_text(const FaultPlan& plan);

/// Knobs for random plan generation (property tests, fuzzing).
struct RandomPlanConfig {
  double duration = 400.0;        ///< events land in [0.05, 0.95]*duration
  std::uint32_t n_servers = 5;    ///< initial cluster size (ids 0..n-1)
  std::uint32_t max_crashes = 3;  ///< crash/recover pairs to attempt
  std::uint32_t max_limps = 2;
  std::uint32_t max_san_slowdowns = 1;
  std::uint32_t max_flaky_windows = 1;
  std::uint32_t max_additions = 1;
  std::uint32_t min_alive = 2;    ///< never crash below this
  /// Minimum crash -> recover gap. Must exceed the failure detector's
  /// timeout + sweep interval when the detector is enabled, or the
  /// recovery could land before the failure is even declared (which
  /// ClusterSim rejects by contract).
  double min_recover_gap = 30.0;
};

/// Generate a valid random plan, deterministic in `seed`. The result
/// always passes validate(plan, config.n_servers, config.min_alive).
[[nodiscard]] FaultPlan make_random_plan(const RandomPlanConfig& config,
                                         std::uint64_t seed);

}  // namespace anufs::fault
