#include "driver/scenario.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <istream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>

#include "common/check.h"
#include "common/line_reader.h"
#include "driver/run_metrics.h"
#include "fault/fault_injector.h"
#include "metrics/emit.h"
#include "obs/export.h"
#include "policies/registry.h"
#include "serve/lookup_service.h"
#include "workload/dfstrace_like.h"
#include "workload/op_workload.h"
#include "workload/synthetic.h"
#include "workload/trace_io.h"

namespace anufs::driver {

namespace {

std::vector<double> parse_speeds(LineReader& in) {
  std::vector<double> speeds;
  for (const std::string& token : split(in.word("speeds"), ',')) {
    if (token.empty()) in.fail("empty speed entry");
    speeds.push_back(in.number(token, "speed"));
  }
  return speeds;
}

bool parse_on_off(LineReader& in) {
  const std::string v = in.word("on|off");
  if (v == "on") return true;
  if (v == "off") return false;
  in.fail("expected on|off, got '" + v + "'");
}

// "seed=A..B" (inclusive, A <= B, A >= 1).
void parse_sweep(LineReader& in, ScenarioConfig& config) {
  const std::string spec = in.word("seed=A..B");
  const auto eq = spec.find('=');
  const auto dots = spec.find("..");
  if (eq == std::string::npos || dots == std::string::npos || dots < eq ||
      spec.substr(0, eq) != "seed") {
    in.fail("expected sweep seed=A..B, got '" + spec + "'");
  }
  const std::string lo = spec.substr(eq + 1, dots - eq - 1);
  const std::string hi = spec.substr(dots + 2);
  if (lo.empty() || hi.empty()) {
    in.fail("expected sweep seed=A..B, got '" + spec + "'");
  }
  config.sweep_begin = in.u64(lo, "sweep begin");
  config.sweep_end = in.u64(hi, "sweep end");
  if (config.sweep_begin == 0 || config.sweep_end < config.sweep_begin) {
    in.fail("sweep range must satisfy 1 <= A <= B");
  }
}

workload::Workload build_workload(const ScenarioConfig& c) {
  if (c.workload == "synthetic") {
    workload::SyntheticConfig wc;
    if (c.duration > 0) wc.duration = c.duration;
    if (c.requests > 0) wc.total_requests = c.requests;
    if (c.file_sets > 0) wc.file_sets = c.file_sets;
    if (c.seed > 0) wc.seed = c.seed;
    return workload::make_synthetic(wc);
  }
  if (c.workload == "dfstrace") {
    workload::DfsTraceLikeConfig wc;
    if (c.duration > 0) wc.duration = c.duration;
    if (c.requests > 0) wc.total_requests = c.requests;
    if (c.file_sets > 0) wc.file_sets = c.file_sets;
    if (c.seed > 0) wc.seed = c.seed;
    return workload::make_dfstrace_like(wc);
  }
  if (c.workload == "opmix") {
    workload::OpWorkloadConfig wc;
    if (c.duration > 0) wc.duration = c.duration;
    if (c.requests > 0) wc.total_ops = c.requests;
    if (c.file_sets > 0) wc.file_sets = c.file_sets;
    if (c.seed > 0) wc.seed = c.seed;
    return workload::make_op_workload(wc).workload;
  }
  if (c.workload == "trace") {
    return workload::load_trace(c.trace_path_workload);
  }
  std::fprintf(stderr, "anufs-scenario: unknown workload '%s'\n",
               c.workload.c_str());
  std::abort();
}

/// The scenario's ANU knobs as one config; shared by the simulated run
/// (build_policy) and the serving phase so both tune identically.
core::AnuConfig make_anu_config(const ScenarioConfig& c) {
  core::AnuConfig anu_config;
  if (c.auto_threshold) anu_config.tuner.auto_threshold = true;
  if (c.threshold >= 0) anu_config.tuner.threshold = c.threshold;
  if (c.max_scale > 0) anu_config.tuner.max_scale = c.max_scale;
  if (c.median_average) {
    anu_config.tuner.average = core::AverageKind::kMedian;
  }
  if (c.policy == "anu-pairwise") {
    anu_config.mode = core::TunerMode::kDecentralizedPairwise;
  }
  return anu_config;
}

std::unique_ptr<policy::PlacementPolicy> build_policy(
    const ScenarioConfig& c, const workload::Workload& work) {
  const policy::PolicyInfo* info = policy::find_policy(c.policy);
  if (info == nullptr) {
    // Scenario files reach parse-time validation first; this guards the
    // programmatic ScenarioConfig path.
    std::fprintf(stderr, "anufs-scenario: unknown policy '%s' (registered: %s)\n",
                 c.policy.c_str(), policy::registered_policy_list().c_str());
    std::abort();
  }
  policy::PolicyParams params;
  params.seed = c.seed > 0 ? c.seed : 1;
  params.anu = make_anu_config(c);
  params.reconfig_period = c.cluster.reconfig_period;
  params.workload = &work;
  params.pow_d = c.pow_d;
  for (std::uint32_t i = 0; i < c.cluster.server_speeds.size(); ++i) {
    params.capacities[ServerId{i}] = c.cluster.server_speeds[i];
  }
  for (const MembershipEvent& e : c.events) {
    if (e.kind == MembershipEvent::Kind::kAdd) {
      params.capacities[ServerId{e.server}] = e.speed;
    }
  }
  // Fault-plan additions commission servers too: capacity-aware
  // policies need their speeds known up front.
  for (const fault::AddEvent& e : c.faults.additions) {
    params.capacities[ServerId{e.server}] = e.speed;
  }
  return info->make(params);
}

}  // namespace

ScenarioConfig parse_scenario(std::istream& is,
                              const std::string& source_name) {
  ScenarioConfig config;
  LineReader in(is, "anufs-scenario", source_name);
  std::vector<std::pair<std::size_t, std::uint32_t>> added;  // (line, id)
  while (in.next()) {
    const std::string key = in.word("key");
    if (key == "workload") {
      config.workload = in.word("workload kind");
      if (config.workload == "trace") {
        config.trace_path_workload = in.word("trace path");
      }
    } else if (key == "policy") {
      config.policy = in.word("policy name");
      if (policy::find_policy(config.policy) == nullptr) {
        in.fail("unknown policy '" + config.policy + "' (registered: " +
                policy::registered_policy_list() + ")");
      }
    } else if (key == "pow_d") {
      config.pow_d = in.u32("pow_d");
      if (config.pow_d < 1) {
        in.fail("pow_d must be >= 1 (d choices per decision)");
      }
    } else if (key == "servers") {
      config.cluster.server_speeds = parse_speeds(in);
    } else if (key == "period") {
      config.cluster.reconfig_period = in.number("period");
      if (config.cluster.reconfig_period <= 0.0) {
        in.fail("period must be > 0");
      }
    } else if (key == "duration") {
      config.duration = in.number("duration");
      if (config.duration <= 0.0) in.fail("duration must be > 0");
    } else if (key == "requests") {
      config.requests = in.u64("request count");
    } else if (key == "file_sets") {
      config.file_sets = in.u32("file-set count");
    } else if (key == "seed") {
      config.seed = in.u64("seed");
      config.cluster.seed = config.seed;
    } else if (key == "san") {
      config.cluster.san.enabled = parse_on_off(in);
    } else if (key == "detector") {
      config.cluster.detector.enabled = parse_on_off(in);
    } else if (key == "report_loss") {
      config.cluster.net.report_loss = in.number("report loss");
      if (config.cluster.net.report_loss < 0.0 ||
          config.cluster.net.report_loss > 1.0) {
        in.fail("report_loss must be in [0, 1]");
      }
    } else if (key == "routing_delay") {
      config.cluster.routing.distribution_delay = in.number("routing delay");
      if (config.cluster.routing.distribution_delay < 0.0) {
        in.fail("routing_delay must be >= 0 (0 = off)");
      }
    } else if (key == "movement") {
      config.cluster.movement.enabled = parse_on_off(in);
    } else if (key == "threshold") {
      const std::string v = in.word("threshold");
      if (v == "auto") {
        config.auto_threshold = true;
      } else {
        config.threshold = in.number(v, "threshold");
        if (config.threshold < 0.0) {
          in.fail("threshold must be >= 0 (or auto)");
        }
      }
    } else if (key == "max_scale") {
      config.max_scale = in.number("max_scale");
      if (config.max_scale <= 1.0) {
        in.fail("max_scale must be > 1 (a per-round factor)");
      }
    } else if (key == "average") {
      const std::string v = in.word("mean|median");
      if (v == "median") {
        config.median_average = true;
      } else if (v != "mean") {
        in.fail("expected mean|median");
      }
    } else if (key == "fail" || key == "recover") {
      MembershipEvent e;
      e.kind = key == "fail" ? MembershipEvent::Kind::kFail
                             : MembershipEvent::Kind::kRecover;
      e.time = in.number("time");
      e.server = in.u32("server id");
      config.events.push_back(e);
    } else if (key == "add") {
      MembershipEvent e;
      e.kind = MembershipEvent::Kind::kAdd;
      e.time = in.number("time");
      e.server = in.u32("server id");
      e.speed = in.number("speed");
      config.events.push_back(e);
      added.emplace_back(in.line(), e.server);
    } else if (key == "faults") {
      // Appends, so `faults` and inline `fault` lines compose.
      fault::load_fault_plan(in.word("path"), config.faults);
    } else if (key == "fault") {
      fault::parse_fault_directive(in, config.faults);
    } else if (key == "emit") {
      const std::string v = in.word("series|summary");
      if (v == "series") {
        config.emit_series = true;
      } else if (v != "summary") {
        in.fail("expected series|summary");
      }
    } else if (key == "trace") {
      config.trace_path = in.word("path");
    } else if (key == "trace_categories") {
      const std::string v = in.word("categories");
      const std::optional<std::uint32_t> mask = obs::parse_categories(v);
      if (!mask.has_value()) {
        in.fail("bad trace categories '" + v +
                "' (expected a comma list of delegate,tuner,"
                "move,cache,fault,sched or 'all')");
      }
      config.trace_categories = *mask;
    } else if (key == "jobs") {
      config.jobs = static_cast<std::size_t>(in.u64("jobs"));
      if (config.jobs == 0) in.fail("jobs must be >= 1");
    } else if (key == "sweep") {
      parse_sweep(in, config);
    } else if (key == "serve_threads") {
      config.serve_threads = in.u32("serve_threads");
    } else if (key == "serve_seconds") {
      config.serve_seconds = in.number("serve_seconds");
      if (config.serve_seconds <= 0) in.fail("serve_seconds must be > 0");
    } else {
      in.fail("unknown key '" + key + "'");
    }
    in.end();
  }
  // ServerIds are dense (common/ids.h): `add` lines take the ids that
  // follow the initial servers, as a fault plan's additions do.
  const std::size_t id_bound =
      config.cluster.server_speeds.size() + added.size();
  for (const auto& [line, id] : added) {
    if (id >= id_bound) {
      in.fail_at(line, "add: server id " + std::to_string(id) +
                           " outside the dense id range 0.." +
                           std::to_string(id_bound - 1));
    }
  }
  // Degenerate pow-d widths: more choices than the cluster has servers
  // is well-defined (probe everyone) but almost certainly a typo, so
  // warn and clamp to the initial size here; the policies additionally
  // clamp to the ALIVE count at every decision, so membership churn can
  // never make a configured d index outside the sampled set.
  if (config.pow_d > 0 && !config.cluster.server_speeds.empty() &&
      config.pow_d > config.cluster.server_speeds.size()) {
    std::fprintf(stderr,
                 "anufs-scenario: %s: pow_d %u exceeds the %zu-server "
                 "cluster; clamping to %zu\n",
                 source_name.c_str(), config.pow_d,
                 config.cluster.server_speeds.size(),
                 config.cluster.server_speeds.size());
    config.pow_d =
        static_cast<std::uint32_t>(config.cluster.server_speeds.size());
  }
  return config;
}

ScenarioConfig parse_scenario_text(const std::string& text) {
  std::istringstream is(text);
  return parse_scenario(is, "<inline>");
}

ScenarioConfig load_scenario(const std::string& path) {
  if (path == "-") return parse_scenario(std::cin, "<stdin>");
  std::ifstream in = open_input("anufs-scenario", path);
  return parse_scenario(in, path);
}

namespace {

/// Outcome of the optional real-time serving phase.
struct ServePhase {
  serve::ServeResult result;
  serve::EquivalenceReport equivalence;
};

/// Stand up the concurrent lookup service shaped by the scenario (same
/// seed, file_sets, fault plan, and ANU knobs as the simulated run),
/// serve for the configured window, then replay the recorded control-
/// plane log sequentially and require every concurrently-served sample
/// bit-identical. A divergent answer is a correctness bug, not a
/// degraded result — it aborts the scenario like any other violated
/// invariant.
ServePhase run_serve_phase(const ScenarioConfig& config) {
  serve::ServeConfig sc;
  sc.threads = config.serve_threads;
  sc.seconds = config.serve_seconds;
  if (config.seed > 0) sc.seed = config.seed;
  sc.n_servers =
      static_cast<std::uint32_t>(config.cluster.server_speeds.size());
  if (config.file_sets > 0) sc.file_sets = config.file_sets;
  sc.anu = make_anu_config(config);
  sc.faults = config.faults;
  serve::LookupService service(std::move(sc));
  ServePhase phase;
  phase.result = service.run();
  phase.equivalence = service.check_equivalence();
  ANUFS_ENSURES(phase.equivalence.ok());
  return phase;
}

cluster::RunResult run_built(const ScenarioConfig& config,
                             std::string* policy_name, RunProfile* profile,
                             std::optional<ServePhase>* serve_out = nullptr) {
  // Tracing: one sink, installed for THIS thread only (a parallel sweep
  // worker traces exactly its own run). The sink is passive — it never
  // schedules, draws randomness, or reorders anything — so the run
  // itself is bit-identical with tracing on or off.
  std::optional<obs::TraceSink> sink;
  std::optional<obs::ScopedTraceSink> installed;
  if (!config.trace_path.empty()) {
    sink.emplace(config.trace_categories);
    installed.emplace(*sink);
  }

  std::optional<obs::PhaseTimer> setup_timer;
  if (profile != nullptr) setup_timer.emplace(profile->setup);
  const workload::Workload work = build_workload(config);
  const std::unique_ptr<policy::PlacementPolicy> pol =
      build_policy(config, work);
  if (policy_name != nullptr) *policy_name = pol->name();
  cluster::ClusterSim sim(config.cluster, work, *pol);
  if (sink.has_value()) {
    // Stamp events with the run's own simulated clock from here on
    // (construction-time events carry t=0, which is when they happen).
    sink->set_clock([&sim]() { return sim.scheduler().now(); });
  }
  for (const MembershipEvent& e : config.events) {
    switch (e.kind) {
      case MembershipEvent::Kind::kFail:
        sim.schedule_failure(e.time, ServerId{e.server});
        break;
      case MembershipEvent::Kind::kRecover:
        sim.schedule_recovery(e.time, ServerId{e.server});
        break;
      case MembershipEvent::Kind::kAdd:
        sim.schedule_addition(e.time, ServerId{e.server}, e.speed);
        break;
    }
  }
  if (!config.faults.empty()) {
    fault::install_fault_plan(
        sim,
        static_cast<std::uint32_t>(config.cluster.server_speeds.size()),
        config.faults);
  }
  if (setup_timer.has_value()) setup_timer->stop();

  cluster::RunResult result;
  {
    std::optional<obs::PhaseTimer> run_timer;
    if (profile != nullptr) run_timer.emplace(profile->run);
    result = sim.run();
  }

  // Serving phase after the simulated run (real threads, wall-clock):
  // the sim proves placement quality, this proves the addressing hot
  // path serves it concurrently without changing an answer.
  std::optional<ServePhase> serve_phase;
  if (config.serve_threads > 0) {
    serve_phase.emplace(run_serve_phase(config));
  }
  if (serve_out != nullptr) *serve_out = serve_phase;

  if (sink.has_value()) {
    // Drain the ring FIRST: the metrics harvest reads the sink's health
    // counters (recorded/dropped), and harvesting before the final
    // flush would miss anything recorded in between — the snapshot
    // below is the flush, so trace.* and the exported events agree.
    const std::vector<obs::TraceEvent> events = sink->events();
    obs::Registry registry =
        collect_run_metrics(config, result, pol.get(), &*sink);
    if (serve_phase.has_value()) {
      serve::LookupService::harvest(serve_phase->result, registry);
      registry.counter("serve_equivalence_checked")
          .set(serve_phase->equivalence.samples_checked);
      registry.counter("serve_equivalence_digest")
          .set(serve_phase->equivalence.digest);
    }
    const bool ok =
        obs::write_text_file(config.trace_path, obs::to_jsonl(events)) &&
        obs::write_text_file(config.trace_path + ".chrome.json",
                             obs::to_chrome_trace(events)) &&
        obs::write_text_file(config.trace_path + ".metrics.json",
                             obs::to_json(registry));
    if (!ok) {
      std::fprintf(stderr, "anufs-scenario: cannot write trace files at %s\n",
                   config.trace_path.c_str());
    }
  }
  return result;
}

}  // namespace

cluster::RunResult run_scenario_quiet(const ScenarioConfig& config) {
  return run_built(config, nullptr, nullptr);
}

cluster::RunResult run_scenario_profiled(const ScenarioConfig& config,
                                         RunProfile& profile) {
  return run_built(config, nullptr, &profile);
}

cluster::RunResult run_scenario(const ScenarioConfig& config,
                                std::ostream& os) {
  std::string policy_name;
  std::optional<ServePhase> serve_phase;
  cluster::RunResult result =
      run_built(config, &policy_name, nullptr, &serve_phase);

  os << "# scenario: workload=" << config.workload
     << " policy=" << policy_name << " servers="
     << config.cluster.server_speeds.size() << "\n";
  if (config.emit_series) {
    metrics::emit_bundle(os, policy_name + " per-server mean latency (ms)",
                         result.latency_ms);
  }
  os << "requests " << result.completed << "/" << result.total_requests
     << " completed, " << result.lost << " lost\n";
  os << "moves " << result.moves << ", forwarded " << result.forwarded
     << "\n";
  if (!config.faults.empty()) {
    os << "faults " << config.faults.event_count() << " events, crash-moves "
       << result.crash_moves << ", move-failures " << result.move_failures
       << ", unresolved " << result.queued_at_end << "+"
       << result.held_at_end << "+" << result.in_transit_at_end
       << " (queued+held+in-transit)\n";
    for (const cluster::RecoveryEpisode& r : result.recoveries) {
      os << "  recovery at " << r.declared_at << " s: " << r.moves
         << " sets re-homed in " << metrics::TableEmitter::num(r.span())
         << " s\n";
    }
  }
  os << "run-mean latency " << result.mean_latency * 1e3 << " ms\n";
  for (const std::string& label : result.latency_ms.labels()) {
    os << "  " << label << " steady-state mean "
       << metrics::TableEmitter::num(
              result.latency_ms.at(label).tail_mean(1.0 / 3.0))
       << " ms\n";
  }
  if (config.cluster.san.enabled) {
    os << "san busy " << result.san_busy << " s, wasted-idle "
       << result.san_wasted_idle << " s, end-to-end "
       << result.san_mean_end_to_end * 1e3 << " ms\n";
  }
  if (serve_phase.has_value()) {
    const serve::ServeResult& s = serve_phase->result;
    const serve::EquivalenceReport& eq = serve_phase->equivalence;
    os << "serving " << s.threads << " threads x "
       << metrics::TableEmitter::num(s.seconds) << " s: " << s.lookups
       << " lookups ("
       << metrics::TableEmitter::num(s.lookups_per_second / 1e6)
       << "M/s), p99 "
       << metrics::TableEmitter::num(s.p99_ns) << " ns, " << s.ops_applied
       << " control-plane ops, generation " << s.final_generation << "\n";
    os << "serving equivalence OK: " << eq.samples_checked
       << " samples replayed bit-identical (digest " << eq.digest << ")\n";
  }
  return result;
}

}  // namespace anufs::driver
