// Table K (extension): crash-recovery cost per placement policy.
//
// A deterministic fault plan crashes the fastest server (id 4, speed 9)
// mid-run and re-commissions it 1000 s later. Every policy must re-home
// the dead server's file sets; what differs is how many sets move, how
// long the cluster takes to finish re-homing them, and how much the
// crash disturbs request latency. Each policy also runs the identical
// scenario WITHOUT the fault plan, so the last column isolates the
// crash's contribution to mean latency.
//
// Recovery re-homing resolves survivors through the batched
// PlacementMap::locate_many sweep (via AnuPolicy::rederive);
// the table is byte-identical to the scalar-era recording, which is
// itself part of the batch path's equivalence evidence.
#include <iostream>
#include <string>
#include <vector>

#include "bench_support.h"
#include "driver/scenario.h"
#include "fault/fault_plan.h"
#include "metrics/emit.h"
#include "policies/registry.h"

namespace {

anufs::driver::ScenarioConfig scenario_for(const std::string& policy,
                                           bool faulted) {
  anufs::driver::ScenarioConfig config = anufs::driver::parse_scenario_text(
      "workload synthetic\n"
      "policy " + policy + "\n"
      "servers 1,3,5,7,9\n"
      "period 120\n"
      "seed 42\n"
      "movement on\n");
  if (faulted) {
    config.faults = anufs::fault::parse_fault_plan_text(
        "crash 1000 4\n"
        "recover 2000 4\n");
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace anufs;
  const std::vector<std::string> policies = policy::registered_policy_names();
  metrics::TableEmitter table(std::cout,
                              {"policy", "recovery_s", "sets_moved", "lost",
                               "latency_ms", "baseline_ms", "disturb_x"});
  table.header(
      "Table K: crash-recovery cost per policy (server 4 crashes at "
      "t=1000 s, recovers at t=2000 s; synthetic workload)");

  // Even indices run the faulted scenario, odd its no-fault baseline.
  const std::vector<cluster::RunResult> results = bench::collect_parallel(
      policies.size() * 2, bench::bench_jobs_from_args(argc, argv),
      [&](std::size_t i) {
        return driver::run_scenario_quiet(
            scenario_for(policies[i / 2], /*faulted=*/i % 2 == 0));
      });

  for (std::size_t p = 0; p < policies.size(); ++p) {
    const cluster::RunResult& faulted = results[2 * p];
    const cluster::RunResult& baseline = results[2 * p + 1];
    double recovery = 0.0;
    std::uint64_t moved = 0;
    for (const cluster::RecoveryEpisode& e : faulted.recoveries) {
      if (e.span() > recovery) recovery = e.span();
      moved += e.moves;
    }
    const double faulted_ms = faulted.mean_latency * 1e3;
    const double baseline_ms = baseline.mean_latency * 1e3;
    table.row({policies[p], metrics::TableEmitter::num(recovery, 2),
               std::to_string(moved), std::to_string(faulted.lost),
               metrics::TableEmitter::num(faulted_ms, 2),
               metrics::TableEmitter::num(baseline_ms, 2),
               metrics::TableEmitter::num(
                   baseline_ms > 0.0 ? faulted_ms / baseline_ms : 0.0, 2)});
  }
  std::cout << "# expected: every policy re-homes the dead server's sets\n"
               "# (sets_moved > 0) and completes recovery within the\n"
               "# movement model's transit budget. The hash-based statics\n"
               "# pay the largest disturbance: they re-home by hash, not by\n"
               "# load, so the fastest server's sets land on arbitrary\n"
               "# survivors and stay misplaced until the recovery. The\n"
               "# adaptive policies rebalance at the next period and keep\n"
               "# the disturbance bounded.\n";
  return 0;
}
