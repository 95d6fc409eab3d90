// serve-hot and serve-cold: the concurrent lookup service (2 readers plus
// its writer) with a working set that fits the per-reader cache 16 times
// over, and one 15 times larger than the cache.
#include <algorithm>
#include <cmath>

#include "bench.h"
#include "layer_replay.h"
#include "serve/lookup_service.h"
#include "sim/random.h"

namespace anufs::bench {
namespace {

struct ServeShape {
  std::uint32_t servers = 0;
  std::uint32_t file_sets = 0;
  double ops_per_s = 0.0;
};

/// Serving window per repetition (at least three repetitions per run),
/// and constructions timed per repetition.
constexpr double kWindowS = 3.0;
constexpr int kSetupsPerRep = 11;
/// Ops of the writer's log replayed through the serving layers.
constexpr std::size_t kReplayOps = 1024;
constexpr std::size_t kQuickReplayOps = 64;

ServeShape serve_shape(const Options& o) {
  if (o.workload == "serve-hot") return {16, 4096, 200.0};
  return {64, o.quick ? 250'000u : 1'000'000u, 2000.0};
}

serve::ServeConfig serve_config(const ServeShape& shape, std::uint64_t seed,
                                double window_s) {
  serve::ServeConfig c;
  c.threads = 2;
  c.seconds = window_s;
  c.seed = seed;
  c.n_servers = shape.servers;
  c.file_sets = shape.file_sets;
  c.writer_ops_per_second = shape.ops_per_s;
  c.batch_size = kReplayBatch;
  c.reader_cache_capacity = kReplayCacheSlots;
  return c;
}

void check_service(Report& report, const serve::LookupService& service,
                   const serve::ServeResult& r, const ServeShape& shape) {
  const serve::EquivalenceReport eq = service.check_equivalence();
  report.check("served answers replay bit-identical",
               eq.ok() && eq.samples_checked > 0,
               std::to_string(eq.mismatches) + " mismatches, " +
                   std::to_string(eq.unmatched_generation) + " unmatched");
  report.check("snapshots freed + pending == published - 1",
               r.snapshots_freed + r.snapshots_pending + 1 ==
                   r.snapshots_published);
  report.check("writer kept its op rate",
               static_cast<double>(r.ops_applied) >=
                   0.9 * shape.ops_per_s * r.seconds,
               std::to_string(r.ops_applied) + " ops in " +
                   std::to_string(r.seconds) + " s");
}

void run_untraced(const ServeShape& shape, const Options& o,
                  Report& report) {
  const int reps =
      std::max(3, static_cast<int>(std::lround(o.seconds / kWindowS)));
  const serve::ServeConfig config =
      serve_config(shape, o.seed, o.quick ? 0.2 : o.seconds / reps);
  std::vector<double> setup, wall, rate, p50, tail;
  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t start = now_ns();
    serve::LookupService service(config);
    setup.push_back(seconds_since(start));
    const serve::ServeResult r = service.run();
    check_service(report, service, r, shape);
    wall.push_back(seconds_since(start));
    rate.push_back(r.lookups_per_second);
    p50.push_back(r.p50_ns);
    // A repetition times 10^5 or more batches: p99 is a tail with far more
    // than ten batches beyond it.
    tail.push_back(r.p99_ns);
    // Construction is short, so time it several times per repetition.
    for (int k = 1; k < kSetupsPerRep; ++k) {
      const std::uint64_t t = now_ns();
      const serve::LookupService extra(config);
      setup.push_back(seconds_since(t));
    }
  }
  report.metric("setup_s", summarize(setup));
  report.metric("wall_s", summarize(wall));
  report.metric("requests_per_s", summarize(rate));
  report.metric("latency_p50_ns", summarize(p50));
  report.metric("latency_tail_ns", summarize(tail));
  report.metric("peak_rss_mb", summarize({peak_rss_mb()}));
}

void run_traced(const ServeShape& shape, const Options& o, Report& report) {
  const serve::ServeConfig config =
      serve_config(shape, o.seed, o.quick ? 0.2 : o.seconds / 2);
  serve::LookupService service(config);
  const serve::ServeResult r = service.run();
  check_service(report, service, r, shape);

  // The service's working set, re-derived through the same public stream
  // its constructor draws from; every served sample must come from it.
  std::vector<std::uint64_t> working_set;
  working_set.reserve(config.file_sets);
  sim::Xoshiro256 fps = sim::make_stream(config.seed, "serve/filesets");
  for (std::uint32_t i = 0; i < config.file_sets; ++i) {
    working_set.push_back(fps());
  }
  std::vector<std::uint64_t> sorted = working_set;
  std::sort(sorted.begin(), sorted.end());
  bool samples_in_set = true;
  for (const serve::Sample& s : service.all_samples()) {
    samples_in_set = samples_in_set && std::binary_search(sorted.begin(),
                                                          sorted.end(),
                                                          s.fingerprint);
  }
  report.check("served samples come from the working set", samples_in_set);

  std::vector<ServerId> initial;
  for (std::uint32_t i = 0; i < config.n_servers; ++i) {
    initial.push_back(ServerId{i});
  }
  const LayerCosts layers =
      replay_layers(config.anu, initial, service.ops(), working_set, o.seed,
                    o.quick ? kQuickReplayOps : kReplayOps);
  report.check("replay follows the writer's generations",
               layers.generation_mismatches == 0);
  report.check("cached answers equal uncached", layers.answer_mismatches == 0);

  report.metric("core.cache.hit_rate", r.cache.hit_rate());
  report.metric("core.cache.invalidations",
                static_cast<double>(r.cache.invalidations));
  report.metric("core.cache.revalidated",
                static_cast<double>(r.cache.revalidated));
  report.metric("serve.snapshots.published",
                static_cast<double>(r.snapshots_published));
  report.metric("serve.snapshots.pending",
                static_cast<double>(r.snapshots_pending));
  report.metric("serve.writer.ops_per_s",
                static_cast<double>(r.ops_applied) / r.seconds);
  report.metric("core.anu.control_us_per_op", layers.control_us_per_op);
  report.metric("serve.snapshot.publish_us_per_op", layers.publish_us_per_op);
  report.metric("serve.epoch.pin_ns_per_batch", layers.pin_ns_per_batch);
  report.metric("core.cache.ns_per_lookup", layers.cache_ns_per_lookup);
  report.metric("core.cache.replay_hit_rate", layers.cache_hit_rate);
  report.metric("core.locate.ns_per_lookup", layers.locate_ns_per_lookup);
  report.not_exercised(sim_only_layer_metrics());
}

}  // namespace

bool is_serve_workload(const std::string& name) {
  return name == "serve-hot" || name == "serve-cold";
}

const std::vector<std::string>& serve_only_layer_metrics() {
  static const std::vector<std::string> kNames = {
      "serve.snapshots.published", "serve.snapshots.pending",
      "serve.writer.ops_per_s"};
  return kNames;
}

void run_serve_workload(const Options& options, Report& report) {
  const ServeShape shape = serve_shape(options);
  if (options.trace) {
    run_traced(shape, options, report);
  } else {
    run_untraced(shape, options, report);
  }
}

}  // namespace anufs::bench
