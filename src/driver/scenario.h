// Scenario driver: run any experiment from a declarative text config,
// no C++ required. This is the operator-facing surface of the
// simulator; `tools/anufs_sim` is the CLI wrapper.
//
// Config format (the token grammar of common/line_reader.h: '#'
// comments, whole-token finite numbers, digit-first integers, no
// trailing tokens):
//
//   workload synthetic | dfstrace | opmix | trace <path>
//   policy <name>              # any registered policy
//                              # (src/policies/registry.h): anu,
//                              #   anu-pairwise, prescient, round-robin,
//                              #   simple-random, weighted-hash,
//                              #   consistent-hash, pow-d, jiq; an
//                              #   unknown name fails at parse time
//                              #   listing the registered ones
//   pow_d 2                    # pow-d/jiq probe width d (>= 1; values
//                              #   above the cluster size clamp with a
//                              #   warning)
//   servers 1,3,5,7,9          # speeds; ids are 0..n-1
//   period 120                 # reconfiguration seconds (> 0)
//   duration 10000             # overrides workload default (> 0)
//   requests 100000            # expected request count
//   file_sets 500
//   seed 42
//   san on|off
//   detector on|off
//   routing_delay 10           # seconds (>= 0); 0 = off
//   report_loss 0.1            # per-round report loss probability,
//                              #   in [0, 1]
//   movement on|off
//   threshold 0.5|auto         # ANU tuner knobs (threshold >= 0,
//   max_scale 2.0              #   max_scale > 1)
//   average mean|median
//   fail <time> <server>       # membership script
//   recover <time> <server>
//   add <time> <server> <speed>
//   faults <path>              # load a fault plan file (src/fault)
//   fault <directive...>       # one inline fault-plan directive, e.g.
//                              #   fault limp 400 600 3 0.25
//   emit series|summary        # output form (default summary)
//   trace <path>               # structured trace -> <path> (JSONL),
//                              #   <path>.chrome.json (chrome://tracing)
//                              #   and <path>.metrics.json (registry
//                              #   snapshot); see src/obs
//   trace_categories a,b       # subset of delegate,tuner,move,cache,
//                              #   fault,sched (default all)
//   jobs 4                     # worker threads for sweeps (default 1)
//   sweep seed=1..10           # run once per seed in 1..10 (inclusive)
//   serve_threads 8            # 0 = off; else append a real-time
//                              #   serving phase (src/serve) after the
//                              #   simulated run: N reader threads of
//                              #   concurrent calculated lookups under
//                              #   epoch-snapshot control-plane churn,
//                              #   equivalence-checked against a
//                              #   sequential replay
//   serve_seconds 2            # serving window (wall-clock seconds,
//                              #   > 0)
//
// A malformed line, or a value outside its stated range, aborts at
// parse time with "anufs-scenario: <source>:<line>: <what>" naming the
// token; an inline `fault` line is reported the same way.
//
// The `fail`/`recover`/`add` membership script and the fault plan both
// inject membership churn; they compose. A crash of a server that is
// already down (fenced for lost reports, or crashed by the other
// script) does nothing; recovering a live server aborts the run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cluster/cluster_sim.h"
#include "fault/fault_plan.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace anufs::driver {

struct MembershipEvent {
  enum class Kind { kFail, kRecover, kAdd } kind = Kind::kFail;
  double time = 0.0;
  std::uint32_t server = 0;
  double speed = 1.0;  // kAdd only
};

struct ScenarioConfig {
  std::string workload = "synthetic";
  std::string trace_path_workload;  // workload == "trace": replay input
  std::string policy = "anu";
  cluster::ClusterConfig cluster;
  // Workload shape overrides (0 = keep the workload's default).
  double duration = 0.0;
  std::uint64_t requests = 0;
  std::uint32_t file_sets = 0;
  std::uint64_t seed = 0;
  /// pow-d / jiq probe width (scenario key `pow_d`); 0 keeps the policy
  /// default. Validated >= 1 and clamped to the cluster size at parse
  /// time; clamped to the alive count at every decision.
  std::uint32_t pow_d = 0;
  // ANU knobs.
  double threshold = -1.0;   // <0 = default
  bool auto_threshold = false;
  double max_scale = -1.0;
  bool median_average = false;
  std::vector<MembershipEvent> events;
  /// Deterministic fault-injection schedule (crashes, limping servers,
  /// SAN degradation, flaky moves); replayed through the scheduler by
  /// fault::install_fault_plan before the run starts.
  fault::FaultPlan faults;
  bool emit_series = false;
  /// Observability surface (src/obs). Empty trace_path = tracing off:
  /// every ANUFS_TRACE site reduces to a thread-local null check and
  /// the run is bit-identical to an untraced one (enforced by
  /// tests/trace_property_test.cpp). Non-empty: a per-run TraceSink is
  /// installed for the run's thread and exported afterwards to
  /// trace_path (JSONL), trace_path + ".chrome.json" (Chrome
  /// trace_event), and trace_path + ".metrics.json" (metrics registry
  /// snapshot). Sweeps expand to one trace file set per seed
  /// (trace_path + ".seed<N>").
  std::string trace_path;
  std::uint32_t trace_categories = obs::kAllCategories;
  // Parallel sweep surface (see driver/parallel_runner.h). jobs is the
  // worker-thread count; a sweep runs the scenario once per seed in
  // [sweep_begin, sweep_end]. sweep_end == 0 means "no sweep".
  std::size_t jobs = 1;
  std::uint64_t sweep_begin = 0;
  std::uint64_t sweep_end = 0;
  [[nodiscard]] bool is_sweep() const noexcept { return sweep_end != 0; }
  /// Serving phase (src/serve): serve_threads > 0 appends a REAL-TIME
  /// concurrent serving run after the simulated one — serve_threads
  /// reader threads calculate locates against the placement
  /// snapshots a writer publishes as it churns the control plane. The
  /// scenario's seed, file_sets, fault plan, and ANU knobs shape it;
  /// its serve_* metrics join the exported registry, and the phase
  /// aborts the scenario if the sequential-replay equivalence check
  /// finds a divergent answer.
  std::uint32_t serve_threads = 0;
  double serve_seconds = 1.0;
};

/// Parse a scenario; aborts with a <source>:<line>: <what> diagnostic
/// naming the bad token on malformed input.
/// `source_name` names the input in diagnostics (the file path, or
/// "<stdin>"/"<inline>").
[[nodiscard]] ScenarioConfig parse_scenario(
    std::istream& is, const std::string& source_name = "<scenario>");

/// Parse from a string (tests, inline configs).
[[nodiscard]] ScenarioConfig parse_scenario_text(const std::string& text);

/// Parse the scenario file at `path` ("-" reads standard input); aborts
/// if it cannot be opened.
[[nodiscard]] ScenarioConfig load_scenario(const std::string& path);

/// Build everything and run; prints results to `os`. Returns the run
/// result for programmatic use.
cluster::RunResult run_scenario(const ScenarioConfig& config,
                                std::ostream& os);

/// Build everything and run without printing. This is the thread-safe
/// entry point the parallel runner uses: every call constructs its own
/// workload, policy, scheduler, and ClusterSim, so concurrent calls on
/// distinct configs never share state.
[[nodiscard]] cluster::RunResult run_scenario_quiet(
    const ScenarioConfig& config);

/// Where one run's wall/CPU time went, phase by phase (reported by the
/// sweep summary; see driver/parallel_runner.h).
struct RunProfile {
  obs::PhaseCost setup;  ///< workload + policy + simulator construction
  obs::PhaseCost run;    ///< the event loop itself
};

/// run_scenario_quiet with per-phase profiling into `profile`.
[[nodiscard]] cluster::RunResult run_scenario_profiled(
    const ScenarioConfig& config, RunProfile& profile);

}  // namespace anufs::driver
