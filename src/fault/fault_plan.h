// Deterministic fault-injection plans.
//
// A FaultPlan is a declarative schedule of failures that a simulation
// replays through its event scheduler: server crashes and recoveries,
// commissioning of fresh servers, "limping" episodes (a server running
// at a fraction of its commissioned speed), SAN latency-degradation
// windows, and flaky file-set movement (transfers that fail and retry
// with backoff). Because every injected fault flows through the same
// (time, insertion-sequence)-ordered scheduler queue as regular events,
// a plan replays bit-identically for a given seed regardless of the
// --jobs count — the same reproducibility contract as sweeps.
//
// Plan grammar (line-oriented; '#' starts a comment):
//
//   crash <time> <server>                 # server crashes at <time>
//   recover <time> <server>               # crashed server rejoins
//   add <time> <server> <speed>           # commission a NEW server id
//   limp <begin> <end> <server> <factor>  # speed *= factor in [begin,end)
//   san_slow <begin> <end> <factor>       # SAN transfers *= factor
//   move_flaky <begin> <end> <prob> <max_retries> <backoff>
//                                         # moves fail w.p. <prob>; each
//                                         # failed attempt costs backoff
//                                         # + a fresh transfer attempt
//
// Validation enforces the schedule's well-formedness (a server crashes
// only while alive, recovers only while crashed, windows are ordered
// and non-overlapping per subject) so a malformed plan is rejected up
// front instead of tripping a simulator contract mid-run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/ids.h"

namespace anufs::fault {

struct CrashEvent {
  double time = 0.0;
  std::uint32_t server = 0;
};

struct RecoverEvent {
  double time = 0.0;
  std::uint32_t server = 0;
};

struct AddEvent {
  double time = 0.0;
  std::uint32_t server = 0;
  double speed = 1.0;
};

/// Slow-server episode: the server's effective speed is its
/// commissioned speed times `factor` for the window. factor > 1 models
/// a burst upgrade; factor in (0, 1) models the "limping but not dead"
/// server every heterogeneous-cluster paper warns about.
struct LimpWindow {
  double begin = 0.0;
  double end = 0.0;
  std::uint32_t server = 0;
  double factor = 0.5;
};

/// SAN degradation: every data transfer started in the window takes
/// `factor` times as long (congestion, a degraded RAID rebuild...).
struct SanSlowWindow {
  double begin = 0.0;
  double end = 0.0;
  double factor = 2.0;
};

/// Flaky file-set movement: each move attempted in the window fails
/// with `probability` per attempt (up to `max_retries` failures), and
/// each failed attempt costs `backoff` seconds plus a fresh transfer
/// attempt before the set is available again.
struct MoveFlakyWindow {
  double begin = 0.0;
  double end = 0.0;
  double probability = 0.0;
  std::uint32_t max_retries = 3;
  double backoff = 2.0;
};

struct FaultPlan {
  std::vector<CrashEvent> crashes;
  std::vector<RecoverEvent> recoveries;
  std::vector<AddEvent> additions;
  std::vector<LimpWindow> limps;
  std::vector<SanSlowWindow> san_slowdowns;
  std::vector<MoveFlakyWindow> flaky_moves;

  [[nodiscard]] bool empty() const noexcept {
    return crashes.empty() && recoveries.empty() && additions.empty() &&
           limps.empty() && san_slowdowns.empty() && flaky_moves.empty();
  }

  [[nodiscard]] std::size_t event_count() const noexcept {
    return crashes.size() + recoveries.size() + additions.size() +
           limps.size() + san_slowdowns.size() + flaky_moves.size();
  }
};

/// Parse a plan; aborts with a line diagnostic on malformed input
/// (mirrors driver::parse_scenario's contract).
[[nodiscard]] FaultPlan parse_fault_plan(std::istream& is);

/// Parse from a string (tests, inline configs).
[[nodiscard]] FaultPlan parse_fault_plan_text(const std::string& text);

/// Parse a single directive line ("crash 300 2"); aborts on error.
/// Used for inline `fault <directive>` scenario keys.
void parse_fault_directive(const std::string& line, FaultPlan& plan);

/// Load a plan from a file; aborts if the file cannot be opened.
[[nodiscard]] FaultPlan load_fault_plan(const std::string& path);

/// Check a plan against a cluster of `n_initial_servers` (ids
/// 0..n-1): every referenced server exists (or is introduced by `add`),
/// crash/recover alternate correctly per server, at least `min_alive`
/// servers remain alive at every instant, windows are well-formed and
/// non-overlapping per subject, probabilities/factors are in range.
/// Returns human-readable problems; empty == valid.
[[nodiscard]] std::vector<std::string> validate(
    const FaultPlan& plan, std::uint32_t n_initial_servers,
    std::uint32_t min_alive = 1);

/// validate() and abort with the full problem list on failure.
void validate_or_die(const FaultPlan& plan, std::uint32_t n_initial_servers,
                     std::uint32_t min_alive = 1);

}  // namespace anufs::fault
