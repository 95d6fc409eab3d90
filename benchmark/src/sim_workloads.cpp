// sim-paper and sim-scale: the simulated shared-disk cluster under the
// paper's churn script (fail, recover, add), driven end to end through
// driver::run_scenario_profiled. The traced run rebuilds the same
// composition by hand around a TimedPolicy.
#include <algorithm>
#include <bit>
#include <iostream>

#include "bench.h"
#include "cluster/cluster_sim.h"
#include "driver/scenario.h"
#include "hash/mix64.h"
#include "layer_replay.h"
#include "metrics/summary.h"
#include "policies/registry.h"
#include "timed_policy.h"
#include "workload/synthetic.h"

namespace anufs::bench {
namespace {

struct SimShape {
  std::vector<double> speeds;
  std::uint32_t file_sets = 0;
  std::uint64_t requests = 0;
  double duration = 0.0;
  std::uint32_t seeds = 1;  ///< seeds S..S+seeds-1 make one repetition
};

/// Repetitions run until --seconds have passed, and at least this many.
constexpr std::size_t kMinReps = 3;

SimShape sim_shape(const Options& o) {
  SimShape s;
  const bool paper = o.workload == "sim-paper";
  const std::uint32_t servers = paper ? 5 : (o.quick ? 64 : 1024);
  for (std::uint32_t i = 0; i < servers; ++i) {
    s.speeds.push_back(1.0 + 2.0 * (i % 5));  // 1,3,5,7,9,1,3,...
  }
  if (paper) {
    s.file_sets = 500;
    s.requests = o.quick ? 10'000 : 100'000;
    s.duration = 10'000.0;
    s.seeds = o.quick ? 3 : 60;
  } else {
    s.file_sets = o.quick ? 5'000 : 250'000;
    s.requests = o.quick ? 20'000 : 1'000'000;
    s.duration = 5'000.0;
    s.seeds = 1;
  }
  return s;
}

driver::ScenarioConfig scenario(const SimShape& s, std::uint64_t seed) {
  using Kind = driver::MembershipEvent::Kind;
  driver::ScenarioConfig c;
  c.workload = "synthetic";
  c.policy = "anu";
  c.cluster.server_speeds = s.speeds;
  c.cluster.seed = seed;
  c.seed = seed;
  c.duration = s.duration;
  c.requests = s.requests;
  c.file_sets = s.file_sets;
  const auto added = static_cast<std::uint32_t>(s.speeds.size());
  c.events = {{Kind::kFail, 1200.0, 4, 1.0},
              {Kind::kRecover, 2400.0, 4, 1.0},
              {Kind::kAdd, 3600.0, added, 9.0}};
  return c;
}

std::uint64_t fold(std::uint64_t digest, std::uint64_t value) {
  return hash::mix64(digest ^ (value + 0x9E3779B97F4A7C15ULL));
}

std::uint64_t run_digest(const cluster::RunResult& r) {
  std::uint64_t d = 0;
  for (const std::uint64_t v :
       {r.completed, r.lost, r.moves, r.crash_moves, r.engine.fired,
        std::bit_cast<std::uint64_t>(r.mean_latency)}) {
    d = fold(d, v);
  }
  for (const auto& [server, completed] : r.server_completed) {
    d = fold(fold(d, server), completed);
  }
  return d;
}

void check_ledger(Report& report, const cluster::RunResult& r) {
  report.check("request ledger balances",
               r.total_requests == r.completed + r.lost + r.queued_at_end +
                                       r.held_at_end + r.in_transit_at_end);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// One repetition over the whole seed set, as a user runs it.
struct Rep {
  double wall_s = 0.0;
  double run_s = 0.0;
  std::uint64_t completed = 0;
  std::vector<double> setup_s;         ///< one per seed
  std::vector<double> ns_per_request;  ///< run wall / completed, per seed
  std::uint64_t digest = 0;
};

Rep untraced_rep(const SimShape& s, const Options& o, Report& report) {
  Rep rep;
  const std::uint64_t start = now_ns();
  for (std::uint32_t i = 0; i < s.seeds; ++i) {
    driver::RunProfile profile;
    const cluster::RunResult r =
        driver::run_scenario_profiled(scenario(s, o.seed + i), profile);
    check_ledger(report, r);
    rep.setup_s.push_back(profile.setup.wall);
    rep.run_s += profile.run.wall;
    rep.completed += r.completed;
    rep.ns_per_request.push_back(
        profile.run.wall * 1e9 /
        static_cast<double>(std::max<std::uint64_t>(r.completed, 1)));
    rep.digest = fold(rep.digest, run_digest(r));
  }
  rep.wall_s = seconds_since(start);
  return rep;
}

void check_recorded_digest(const Options& o, Report& report,
                           std::uint64_t digest) {
  std::cout << "# digest " << o.workload << " " << (o.quick ? "quick" : "full")
            << " " << o.seed << " " << hex(digest) << "\n";
  std::uint64_t recorded = 0;
  if (recorded_digest(o, recorded)) {
    report.check("digest equals the recorded one", digest == recorded,
                 hex(digest) + " vs " + hex(recorded));
  }
}

void run_untraced(const SimShape& s, const Options& o, Report& report) {
  std::vector<Rep> reps;
  const std::uint64_t start = now_ns();
  while (reps.size() < kMinReps || seconds_since(start) < o.seconds) {
    reps.push_back(untraced_rep(s, o, report));
  }
  std::vector<double> setup, wall, rate, p50, tail;
  for (const Rep& rep : reps) {
    report.check("repetitions agree", rep.digest == reps.front().digest);
    setup.insert(setup.end(), rep.setup_s.begin(), rep.setup_s.end());
    wall.push_back(rep.wall_s);
    rate.push_back(static_cast<double>(rep.completed) / rep.run_s);
    // Over the repetition's simulated runs: the median, and as the tail
    // the highest percentile, at most p99, with ten runs beyond it (the
    // median again when a repetition has too few runs for any tail).
    const double tail_q = std::clamp(
        1.0 - 10.0 / static_cast<double>(rep.ns_per_request.size()), 0.5,
        0.99);
    p50.push_back(metrics::percentile(rep.ns_per_request, 0.5));
    tail.push_back(metrics::percentile(rep.ns_per_request, tail_q));
  }
  check_recorded_digest(o, report, reps.front().digest);
  report.metric("setup_s", summarize(setup));
  report.metric("wall_s", summarize(wall));
  report.metric("requests_per_s", summarize(rate));
  report.metric("latency_p50_ns", summarize(p50));
  report.metric("latency_tail_ns", summarize(tail));
  report.metric("peak_rss_mb", summarize({peak_rss_mb()}));
}

/// The traced repetition: the same composition as run_scenario_profiled,
/// built by hand so a TimedPolicy can sit between simulator and policy.
struct Traced {
  double wall_s = 0.0;  ///< excludes the owner() replay below
  double generate_s = 0.0;
  double run_s = 0.0;
  std::uint64_t digest = 0;
  TimedPolicy::Stats policy;
  std::vector<double> owner_block_ns;  ///< first seed, 4096 calls each
  std::uint64_t owner_checksum = 0;    ///< keeps the replayed calls live
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  std::size_t peak_pending = 0;
  core::PlacementCache::Stats cache;
  // First seed's control-plane log and working set, for replay_layers.
  std::vector<serve::WriterOp> ops;
  std::vector<ServerId> initial;
  std::vector<std::uint64_t> working_set;
  core::AnuConfig anu;
};

void traced_seed(const driver::ScenarioConfig& c, bool first, Traced& t,
                 Report& report) {
  const std::uint64_t start = now_ns();
  double analysis_s = 0.0;
  {
    std::uint64_t mark = now_ns();
    workload::SyntheticConfig wc;
    wc.duration = c.duration;
    wc.total_requests = c.requests;
    wc.file_sets = c.file_sets;
    if (c.seed > 0) wc.seed = c.seed;
    const workload::Workload work = workload::make_synthetic(wc);
    t.generate_s += seconds_since(mark);

    policy::PolicyParams params;
    params.seed = c.seed > 0 ? c.seed : 1;
    params.reconfig_period = c.cluster.reconfig_period;
    params.workload = &work;
    for (std::uint32_t i = 0; i < c.cluster.server_speeds.size(); ++i) {
      params.capacities[ServerId{i}] = c.cluster.server_speeds[i];
    }
    for (const driver::MembershipEvent& e : c.events) {
      if (e.kind == driver::MembershipEvent::Kind::kAdd) {
        params.capacities[ServerId{e.server}] = e.speed;
      }
    }
    const std::unique_ptr<policy::PlacementPolicy> inner =
        policy::make_registered_policy(c.policy, params);
    const auto* anu = dynamic_cast<const policy::AnuPolicy*>(inner.get());
    TimedPolicy timed(*inner, anu, t.policy);
    cluster::ClusterSim sim(c.cluster, work, timed);
    for (const driver::MembershipEvent& e : c.events) {
      switch (e.kind) {
        case driver::MembershipEvent::Kind::kFail:
          sim.schedule_failure(e.time, ServerId{e.server});
          break;
        case driver::MembershipEvent::Kind::kRecover:
          sim.schedule_recovery(e.time, ServerId{e.server});
          break;
        case driver::MembershipEvent::Kind::kAdd:
          sim.schedule_addition(e.time, ServerId{e.server}, e.speed);
          break;
      }
    }
    mark = now_ns();
    const cluster::RunResult r = sim.run();
    t.run_s += seconds_since(mark);

    mark = now_ns();
    check_ledger(report, r);
    t.digest = fold(t.digest, run_digest(r));
    t.fired += r.engine.fired;
    t.cancelled += r.engine.cancelled;
    t.peak_pending = std::max(t.peak_pending, r.engine.peak_pending);
    if (anu != nullptr) {
      const core::PlacementCache::Stats cs = anu->system().cache_stats();
      t.cache.hits += cs.hits;
      t.cache.misses += cs.misses;
      t.cache.invalidations += cs.invalidations;
      t.cache.revalidated += cs.revalidated;
    }
    if (first) {
      // owner() cost, replayed over the request stream's ids after the
      // run in timed blocks (a clock read per call would dwarf it).
      constexpr std::size_t kBlock = 4096;
      std::uint64_t sink = 0;
      for (std::size_t b = 0; b + kBlock <= work.requests.size();
           b += kBlock) {
        const std::uint64_t block_start = now_ns();
        for (std::size_t k = b; k < b + kBlock; ++k) {
          sink += inner->owner(work.requests[k].file_set).value;
        }
        t.owner_block_ns.push_back(
            static_cast<double>(now_ns() - block_start));
      }
      t.owner_checksum += sink;
      t.ops = timed.ops();
      t.initial = timed.initial_servers();
      t.anu = params.anu;
      for (const workload::FileSetSpec& fs : work.file_sets) {
        t.working_set.push_back(fs.fingerprint);
      }
    }
    analysis_s = seconds_since(mark);
  }
  t.wall_s += seconds_since(start) - analysis_s;
}

void run_traced(const SimShape& s, const Options& o, Report& report) {
  // Untraced repetitions before and after the traced one: their mean is
  // the overhead baseline, so a cold first repetition does not bias it.
  const Rep before = untraced_rep(s, o, report);
  Traced t;
  for (std::uint32_t i = 0; i < s.seeds; ++i) {
    traced_seed(scenario(s, o.seed + i), i == 0, t, report);
  }
  const Rep after = untraced_rep(s, o, report);
  const double untraced_wall_s = 0.5 * (before.wall_s + after.wall_s);
  report.check("repetitions agree", before.digest == after.digest);
  report.check("traced digest equals untraced", t.digest == before.digest,
               hex(t.digest) + " vs " + hex(before.digest));
  check_recorded_digest(o, report, before.digest);

  const LayerCosts layers = replay_layers(t.anu, t.initial, t.ops,
                                          t.working_set, o.seed, t.ops.size());
  report.check("replay follows the run's generations",
               layers.generation_mismatches == 0);
  report.check("cached answers equal uncached", layers.answer_mismatches == 0);

  const TimedPolicy::Stats& p = t.policy;
  double rebalance_s = 0.0;
  for (const double ms : p.rebalance_ms) rebalance_s += ms * 1e-3;
  const double owner_ns =
      t.owner_block_ns.empty() ? 0.0
                               : summarize(t.owner_block_ns).median / 4096.0;
  const double policy_s = rebalance_s + p.membership_s +
                          static_cast<double>(p.owner_calls) * owner_ns * 1e-9;
  const double sets = static_cast<double>(s.file_sets) * s.seeds;

  report.metric("workload.generate_s", t.generate_s);
  report.metric("policies.initialize_s", p.initialize_s);
  report.metric("policies.rebalance.calls",
                static_cast<double>(p.rebalance_ms.size()));
  report.metric("policies.rebalance.s", rebalance_s);
  report.metric("policies.rebalance.p50_ms",
                metrics::percentile(p.rebalance_ms, 0.5));
  report.metric("policies.rebalance.max_ms", summarize(p.rebalance_ms).max);
  report.metric("policies.rebalance.moves",
                static_cast<double>(p.rebalance_moves));
  report.metric("policies.membership.calls",
                static_cast<double>(p.membership_calls));
  report.metric("policies.membership.s", p.membership_s);
  report.metric("policies.membership.moves",
                static_cast<double>(p.membership_moves));
  report.metric("policies.moves_per_file_set",
                static_cast<double>(p.rebalance_moves + p.membership_moves) /
                    sets);
  report.metric("policies.owner.calls", static_cast<double>(p.owner_calls));
  report.metric("policies.owner.ns_per_call", owner_ns);
  report.metric("cluster.self_s", t.run_s - policy_s);
  report.metric("sim.events_fired", static_cast<double>(t.fired));
  report.metric("sim.events_cancelled", static_cast<double>(t.cancelled));
  report.metric("sim.peak_pending", static_cast<double>(t.peak_pending));
  report.metric("sim.events_per_s", static_cast<double>(t.fired) / t.run_s);
  report.metric("trace.overhead_pct",
                (t.wall_s - untraced_wall_s) / untraced_wall_s * 100.0);
  report.metric("core.cache.hit_rate", t.cache.hit_rate());
  report.metric("core.cache.invalidations",
                static_cast<double>(t.cache.invalidations));
  report.metric("core.cache.revalidated",
                static_cast<double>(t.cache.revalidated));
  report.metric("core.anu.control_us_per_op", layers.control_us_per_op);
  report.metric("serve.snapshot.publish_us_per_op", layers.publish_us_per_op);
  report.metric("serve.epoch.pin_ns_per_batch", layers.pin_ns_per_batch);
  report.metric("core.cache.ns_per_lookup", layers.cache_ns_per_lookup);
  report.metric("core.cache.replay_hit_rate", layers.cache_hit_rate);
  report.metric("core.locate.ns_per_lookup", layers.locate_ns_per_lookup);
  report.not_exercised(serve_only_layer_metrics());
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return name == "sim-paper" || name == "sim-scale";
}

const std::vector<std::string>& sim_only_layer_metrics() {
  static const std::vector<std::string> kNames = {
      "workload.generate_s",       "policies.initialize_s",
      "policies.rebalance.calls",  "policies.rebalance.s",
      "policies.rebalance.p50_ms", "policies.rebalance.max_ms",
      "policies.rebalance.moves",  "policies.membership.calls",
      "policies.membership.s",     "policies.membership.moves",
      "policies.moves_per_file_set", "policies.owner.calls",
      "policies.owner.ns_per_call", "cluster.self_s",
      "sim.events_fired",          "sim.events_cancelled",
      "sim.peak_pending",          "sim.events_per_s",
      "trace.overhead_pct",
  };
  return kNames;
}

void run_sim_workload(const Options& options, Report& report) {
  const SimShape shape = sim_shape(options);
  if (options.trace) {
    run_traced(shape, options, report);
  } else {
    run_untraced(shape, options, report);
  }
}

}  // namespace anufs::bench
