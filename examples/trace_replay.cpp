// Scenario: replay a trace file through any placement policy.
//
// This is the integration point for real traces (e.g. converted
// DFSTrace data): anything in the `anufs-trace v1` format drives the
// full simulator. With no arguments it generates, saves, and replays
// the built-in DFSTrace-equivalent hour, demonstrating the round trip.
//
//   ./trace_replay [--policy NAME] [--trace FILE] [--period SECONDS]
//                  [--speeds 1,3,5,7,9]
//
// --policy takes any registered policy name (the usage message lists
// them); the default is anu.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_sim.h"
#include "common/line_reader.h"
#include "metrics/emit.h"
#include "metrics/summary.h"
#include "policies/registry.h"
#include "workload/dfstrace_like.h"
#include "workload/trace_io.h"

namespace {

using namespace anufs;

std::optional<double> positive(const std::string& text) {
  const std::optional<double> v = to_double(text);
  return v.has_value() && *v > 0.0 ? v : std::nullopt;
}

/// "1,3,5": every entry a positive number.
std::optional<std::vector<double>> speed_list(const std::string& csv) {
  std::vector<double> speeds;
  for (const std::string& token : split(csv, ',')) {
    const std::optional<double> v = positive(token);
    if (!v.has_value()) return std::nullopt;
    speeds.push_back(*v);
  }
  return speeds;
}

}  // namespace

int main(int argc, char** argv) {
  std::string policy_name = "anu";
  std::string trace_path;
  cluster::ClusterConfig cc;
  cc.server_speeds = {1, 3, 5, 7, 9};

  const auto usage = [&]() {
    std::fprintf(stderr,
                 "usage: %s [--policy NAME] [--trace FILE] "
                 "[--period SEC] [--speeds CSV]\n"
                 "policies: %s\n",
                 argv[0], policy::registered_policy_list().c_str());
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        usage();
      }
      return argv[++i];
    };
    // The value converted, or a usage error naming the flag.
    const auto value = [&](auto convert) {
      const std::string text = next();
      const auto v = convert(text);
      if (!v.has_value()) {
        std::fprintf(stderr, "%s: bad value '%s'\n", arg.c_str(),
                     text.c_str());
        usage();
      }
      return *v;
    };
    if (arg == "--policy") {
      policy_name = next();
      if (policy::find_policy(policy_name) == nullptr) {
        std::fprintf(stderr, "unknown policy '%s'\n", policy_name.c_str());
        usage();
      }
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--period") {
      cc.reconfig_period = value(positive);
    } else if (arg == "--speeds") {
      cc.server_speeds = value(speed_list);
    } else {
      usage();
    }
  }

  workload::Workload work;
  if (trace_path.empty()) {
    std::printf("no --trace given: generating the DFSTrace-equivalent hour "
                "and round-tripping it through the trace format...\n");
    const workload::Workload generated =
        workload::make_dfstrace_like(workload::DfsTraceLikeConfig{});
    const std::string tmp = "/tmp/anufs_dfstrace_like.trace";
    workload::save_trace(tmp, generated);
    work = workload::load_trace(tmp);
    std::printf("saved and re-loaded %s (%zu requests, %zu file sets)\n\n",
                tmp.c_str(), work.request_count(), work.file_sets.size());
  } else {
    work = workload::load_trace(trace_path);
    std::printf("loaded %s: %zu requests, %zu file sets, %.0f s\n\n",
                trace_path.c_str(), work.request_count(),
                work.file_sets.size(), work.duration);
  }

  policy::PolicyParams params;
  params.reconfig_period = cc.reconfig_period;
  params.workload = &work;
  for (std::uint32_t i = 0; i < cc.server_speeds.size(); ++i) {
    params.capacities[ServerId{i}] = cc.server_speeds[i];
  }
  const std::unique_ptr<policy::PlacementPolicy> policy =
      policy::make_registered_policy(policy_name, params);
  cluster::ClusterSim sim(cc, work, *policy);
  const cluster::RunResult result = sim.run();

  metrics::emit_bundle(std::cout,
                       policy->name() + " per-server mean latency (ms)",
                       result.latency_ms);
  std::printf("\npolicy %s: completed %llu/%llu, %llu moves, "
              "run mean %.1f ms\n",
              policy->name().c_str(),
              static_cast<unsigned long long>(result.completed),
              static_cast<unsigned long long>(result.total_requests),
              static_cast<unsigned long long>(result.moves),
              result.mean_latency * 1e3);
  for (const std::string& label : result.latency_ms.labels()) {
    std::printf("  %s steady-state (final 2/3) mean: %.2f ms\n",
                label.c_str(),
                result.latency_ms.at(label).tail_mean(1.0 / 3.0));
  }
  return 0;
}
