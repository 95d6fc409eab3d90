#include "driver/run_metrics.h"

#include "policies/anu_policy.h"

namespace anufs::driver {

obs::Registry collect_run_metrics(const ScenarioConfig& config,
                                  const cluster::RunResult& result,
                                  const policy::PlacementPolicy* policy,
                                  const obs::TraceSink* sink) {
  obs::Registry reg;

  // Request-path outcomes (the conservation ledger).
  reg.counter("requests.total").set(result.total_requests);
  reg.counter("requests.completed").set(result.completed);
  reg.counter("requests.lost").set(result.lost);
  reg.counter("requests.forwarded").set(result.forwarded);
  reg.counter("requests.queued_at_end").set(result.queued_at_end);
  reg.counter("requests.held_at_end").set(result.held_at_end);
  reg.counter("requests.in_transit_at_end").set(result.in_transit_at_end);

  // File-set movement and membership.
  reg.counter("moves.total").set(result.moves);
  reg.counter("moves.crash_induced").set(result.crash_moves);
  reg.counter("moves.failed_attempts").set(result.move_failures);
  reg.counter("membership.fenced").set(result.fenced);
  reg.counter("membership.recovery_episodes").set(result.recoveries.size());
  reg.counter("net.reports_lost").set(result.reports_lost);

  // Event-engine throughput counters.
  reg.counter("engine.fired").set(result.engine.fired);
  reg.counter("engine.peak_pending").set(result.engine.peak_pending);
  reg.counter("engine.pool_allocated").set(result.engine.pool_allocated);
  reg.counter("engine.pool_recycled").set(result.engine.pool_recycled);

  reg.gauge("latency.run_mean_ms").set(result.mean_latency * 1e3);
  if (config.cluster.san.enabled) {
    reg.gauge("san.busy_s").set(result.san_busy);
    reg.gauge("san.wasted_idle_s").set(result.san_wasted_idle);
    reg.gauge("san.mean_end_to_end_ms").set(result.san_mean_end_to_end * 1e3);
  }

  // Per-interval per-server latency samples, pooled into one log-scale
  // histogram (milliseconds; base bucket 1 ms).
  obs::Histogram& lat = reg.histogram("latency.interval_ms", 1.0, 24);
  for (const std::string& label : result.latency_ms.labels()) {
    for (const auto& [time, value] : result.latency_ms.at(label).points()) {
      (void)time;
      lat.record(value);
    }
  }

  if (const auto* anu = dynamic_cast<const policy::AnuPolicy*>(policy)) {
    // Control-plane cost: how many servers each reconfiguration or
    // membership event actually reshaped (the O(changed) ledger).
    const core::ControlPlaneStats& cp =
        anu->system().control_plane_stats();
    reg.counter("control.rounds").set(cp.rounds);
    reg.counter("control.rounds_acted").set(cp.rounds_acted);
    reg.counter("control.membership_events").set(cp.membership_events);
    reg.counter("control.touched_total").set(cp.touched_total);
    reg.counter("control.max_touched").set(cp.max_touched);
    // Re-expand the log2 buckets into a mergeable registry histogram
    // (base bucket: 1 server). Bucket i's events touched counts in
    // [2^(i-1), 2^i); the lower bound is an exact representative.
    obs::Histogram& touched = reg.histogram("control.touched_servers", 1.0, 20);
    for (std::size_t i = 0; i < cp.touched_log2.size(); ++i) {
      const double rep =
          i == 0 ? 0.0 : static_cast<double>(std::uint64_t{1} << (i - 1));
      for (std::uint64_t k = 0; k < cp.touched_log2[i]; ++k) {
        touched.record(rep);
      }
    }
  }

  // The trace's own health: how much the ring kept vs overwrote. The
  // caller must harvest AFTER its final events() snapshot so these
  // counts agree with what was actually exported (driver/scenario.cpp
  // drains first; tests/run_metrics_test.cpp pins the ordering with a
  // 1-slot ring).
  if (sink != nullptr) {
    reg.counter("trace.recorded").set(sink->recorded());
    reg.counter("trace.retained").set(sink->recorded() - sink->dropped());
    reg.counter("trace.dropped").set(sink->dropped());
  }
  return reg;
}

}  // namespace anufs::driver
