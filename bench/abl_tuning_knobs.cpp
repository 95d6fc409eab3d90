// Ablation: the design knobs DESIGN.md calls out, swept one at a time
// on the synthetic workload with everything else at paper defaults.
//
//   threshold t      - width of the tolerated latency band;
//   max_scale        - per-round clamp on region scale factors;
//   reconfig period  - "two minutes strikes a balance between
//                      over-tuning and responsiveness" (paper §7);
//   movement cost    - flush/init multiplier (0 = free moves).
//
// Each row: whole-run mean latency, file-set moves, and the converged
// worst-server latency (tail mean over the final half).
#include <iostream>

#include "bench_support.h"
#include "metrics/emit.h"
#include "policies/anu_policy.h"
#include "workload/synthetic.h"

namespace {

using namespace anufs;

struct Outcome {
  double run_mean_ms;
  std::uint64_t moves;
  double worst_tail_ms;
};

Outcome run(const cluster::ClusterConfig& cc, const core::AnuConfig& ac,
            const workload::Workload& work) {
  policy::AnuPolicy anu{ac};
  cluster::ClusterSim sim(cc, work, anu);
  const cluster::RunResult r = sim.run();
  double worst = 0.0;
  for (const std::string& l : r.latency_ms.labels()) {
    worst = std::max(worst, r.latency_ms.at(l).tail_mean(0.5));
  }
  return Outcome{r.mean_latency * 1e3, r.moves, worst};
}

void emit(metrics::TableEmitter& table, const std::string& knob,
          const std::string& value, const Outcome& o) {
  table.row({knob, value, metrics::TableEmitter::num(o.run_mean_ms, 2),
             std::to_string(o.moves),
             metrics::TableEmitter::num(o.worst_tail_ms, 2)});
}

}  // namespace

int main() {
  const workload::Workload work =
      workload::make_synthetic(workload::SyntheticConfig{});
  metrics::TableEmitter table(
      std::cout, {"knob", "value", "run_mean_ms", "moves", "worst_tail_ms"});
  table.header("Ablation: ANU tuning knobs (synthetic workload)");

  for (const double t : {0.25, 0.5, 0.75, 1.0, 1.5}) {
    core::AnuConfig ac;
    ac.tuner.threshold = t;
    emit(table, "threshold", metrics::TableEmitter::num(t, 2),
         run(bench::paper_cluster(), ac, work));
  }
  for (const double s : {1.25, 1.5, 2.0, 3.0, 4.0}) {
    core::AnuConfig ac;
    ac.tuner.max_scale = s;
    emit(table, "max_scale", metrics::TableEmitter::num(s, 2),
         run(bench::paper_cluster(), ac, work));
  }
  for (const double period : {30.0, 60.0, 120.0, 240.0, 480.0}) {
    cluster::ClusterConfig cc = bench::paper_cluster();
    cc.reconfig_period = period;
    emit(table, "period_s", metrics::TableEmitter::num(period, 0),
         run(cc, core::AnuConfig{}, work));
  }
  for (const double cost : {0.0, 0.5, 1.0, 2.0, 4.0}) {
    cluster::ClusterConfig cc = bench::paper_cluster();
    cc.movement.enabled = cost > 0.0;
    cc.movement.flush_min *= cost;
    cc.movement.flush_max *= cost;
    cc.movement.init_min *= cost;
    cc.movement.init_max *= cost;
    cc.movement.shed_cpu_stall *= cost;
    cc.movement.acquire_cpu_stall *= cost;
    emit(table, "move_cost_x", metrics::TableEmitter::num(cost, 1),
         run(cc, core::AnuConfig{}, work));
  }
  for (const double delay : {0.0, 1.0, 10.0, 60.0}) {
    cluster::ClusterConfig cc = bench::paper_cluster();
    cc.routing.distribution_delay = delay;
    emit(table, "map_delay_s", metrics::TableEmitter::num(delay, 0),
         run(cc, core::AnuConfig{}, work));
  }
  std::cout << "# expected: very small thresholds / very short periods\n"
               "# over-tune (more moves for little latency gain); large\n"
               "# ones respond too slowly; movement cost scales the\n"
               "# penalty of every move.\n";
  return 0;
}
