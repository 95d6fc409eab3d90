// Shared harness for the figure benches: constructs the paper's cluster,
// instantiates a policy by name, runs the simulation, and emits series.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "cluster/cluster_sim.h"
#include "policies/policy.h"
#include "sim/thread_pool.h"
#include "workload/spec.h"

namespace anufs::bench {

/// The paper's five-server cluster: relative powers 1, 3, 5, 7, 9,
/// two-minute reconfiguration period.
[[nodiscard]] cluster::ClusterConfig paper_cluster();

/// Policy factory: any registered policy name (src/policies/registry.h).
/// Capacity-aware policies receive perfect knowledge of `cluster`
/// speeds; prescient additionally of `work`, with `stationary_prescient`
/// selecting its whole-trace mode (used for the stationary synthetic
/// workload, where the paper's prescient "retains the same
/// configuration for the duration").
[[nodiscard]] std::unique_ptr<policy::PlacementPolicy> make_policy(
    const std::string& name, const cluster::ClusterConfig& cluster,
    const workload::Workload& work, bool stationary_prescient);

/// Run one policy over the workload and return its results.
[[nodiscard]] cluster::RunResult run_policy(
    const std::string& name, const cluster::ClusterConfig& cluster,
    const workload::Workload& work, bool stationary_prescient = false);

/// ANU variants for the over-tuning study (Figures 10-11).
[[nodiscard]] cluster::RunResult run_anu_variant(
    const cluster::ClusterConfig& cluster, const workload::Workload& work,
    bool thresholding, bool top_off, bool divergent);

/// Worker-thread count for bench sweeps: the ANUFS_JOBS environment
/// variable if set, else the hardware concurrency; 0 also means the
/// hardware. A value that is not a non-negative integer is a usage error
/// (exit 2). The sweeps' RESULTS never depend on this — only their
/// wall-clock time does.
[[nodiscard]] std::size_t bench_jobs();

/// Parse `--jobs N` (as ANUFS_JOBS) from a bench binary's argv; any
/// other argument is ignored. Falls back to bench_jobs().
[[nodiscard]] std::size_t bench_jobs_from_args(int argc, char** argv);

/// Run fn(0..count-1) on `jobs` threads and return the results in index
/// order. fn must be safe to call concurrently for distinct indices —
/// in practice: build the whole simulation (workload, policy,
/// ClusterSim) inside fn so each run owns its own state.
template <typename Fn>
[[nodiscard]] auto collect_parallel(std::size_t count, std::size_t jobs,
                                    Fn&& fn) {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<R> out(count);
  sim::parallel_for(count, jobs,
                    [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace anufs::bench
