// Bridges one run's ad-hoc counters — Scheduler::Stats, RunResult,
// ANU's ControlPlaneStats, the trace sink's own bookkeeping — into a
// single obs::Registry snapshot, so every exported metrics file has one
// uniform shape regardless of which subsystems were active.
#pragma once

#include "driver/scenario.h"
#include "obs/metrics_registry.h"

namespace anufs::driver {

/// Build the registry for a finished run. `policy` may be any placement
/// policy (ANU control-plane stats are included when it is one); `sink`
/// may be null (trace_* counters are omitted).
[[nodiscard]] obs::Registry collect_run_metrics(
    const ScenarioConfig& config, const cluster::RunResult& result,
    const policy::PlacementPolicy* policy, const obs::TraceSink* sink);

}  // namespace anufs::driver
