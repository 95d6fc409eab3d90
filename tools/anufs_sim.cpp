// anufs_sim: run a simulation scenario from a config file.
//
//   ./anufs_sim scenario.conf
//   ./anufs_sim -                          # read the config from stdin
//   ./anufs_sim --example                  # print a commented example
//   ./anufs_sim --faults plan.flt scenario.conf
//                                          # replay a fault-injection plan
//   ./anufs_sim --jobs 4 --sweep seed=1..10 scenario.conf
//                                          # 10 seeds on 4 worker threads
//   ./anufs_sim --trace run.jsonl scenario.conf
//                                          # structured trace: run.jsonl,
//                                          # run.jsonl.chrome.json (open in
//                                          # chrome://tracing / Perfetto),
//                                          # run.jsonl.metrics.json
//
// --jobs and --sweep override the corresponding config keys; --jobs 0
// means "auto" (one worker per hardware thread). A sweep
// runs the scenario once per seed and reports per-seed rows plus
// mean +/- stddev aggregates; results are independent of --jobs (each
// run owns its own scheduler and RNG streams).
//
// --trace and --trace-categories override the `trace`/`trace_categories`
// config keys. Tracing never changes results: a traced run is
// bit-identical to an untraced one.
//
// --faults REPLACES any fault plan from the config with the file's
// (crashes, recoveries, limping windows, SAN degradation, flaky moves —
// see src/fault/fault_plan.h for the grammar). Faulted runs keep the
// sweep reproducibility contract: bit-identical at any --jobs count.
//
// See src/driver/scenario.h for the config reference.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "common/line_reader.h"
#include "driver/parallel_runner.h"
#include "driver/scenario.h"
#include "fault/fault_plan.h"
#include "sim/thread_pool.h"

namespace {

constexpr const char* kExample = R"(# anufs_sim scenario
workload synthetic        # synthetic | dfstrace | opmix | trace <path>
policy anu                # any registered policy (anu | anu-pairwise |
                          # prescient | round-robin | simple-random |
                          # weighted-hash | consistent-hash | pow-d | jiq)
# pow_d 2                 # pow-d sample width (>=1; clamps to cluster)
servers 1,3,5,7,9         # relative speeds; ids 0..n-1
period 120                # reconfiguration period, seconds
seed 42
san off
detector off
routing_delay 0
movement on
# threshold 0.5           # ANU knobs (defaults if omitted)
# max_scale 2.0
# average mean
fail 1200 4               # membership script
recover 2400 4
add 3600 5 9.0
# fault limp 600 900 1 0.25    # inline fault-plan directives...
# faults plan.flt              # ...or a full plan file (--faults overrides)
emit summary              # summary | series
# trace run.jsonl         # structured trace + chrome trace + metrics
# trace_categories all    # delegate,tuner,move,cache,fault,sched
# jobs 4                  # worker threads for sweeps
# sweep seed=1..10        # run once per seed, aggregate mean +/- stddev
)";

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--jobs N] [--sweep seed=A..B] [--faults plan] "
               "[--trace out.jsonl] [--trace-categories a,b] "
               "<scenario.conf | - | --example>\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  bool jobs_set = false;
  std::size_t jobs_override = 0;
  std::string sweep_override;
  std::string faults_override;
  std::string trace_override;
  std::string categories_override;
  const char* input = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--example") == 0) {
      std::fputs(kExample, stdout);
      return 0;
    }
    if (std::strcmp(argv[i], "--jobs") == 0) {
      if (++i >= argc) usage(argv[0]);
      const std::optional<std::uint64_t> n = anufs::to_u64(argv[i]);
      if (!n.has_value()) usage(argv[0]);
      // --jobs 0 = "auto": size to the hardware (and a failed probe
      // still yields 1 worker — never a zero-thread pool).
      jobs_set = true;
      jobs_override = *n == 0 ? anufs::sim::ThreadPool::hardware_jobs()
                              : static_cast<std::size_t>(*n);
    } else if (std::strcmp(argv[i], "--sweep") == 0) {
      if (++i >= argc) usage(argv[0]);
      sweep_override = argv[i];
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      if (++i >= argc) usage(argv[0]);
      faults_override = argv[i];
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (++i >= argc) usage(argv[0]);
      trace_override = argv[i];
    } else if (std::strcmp(argv[i], "--trace-categories") == 0) {
      if (++i >= argc) usage(argv[0]);
      categories_override = argv[i];
    } else if (input == nullptr) {
      input = argv[i];
    } else {
      usage(argv[0]);
    }
  }
  if (input == nullptr) usage(argv[0]);

  anufs::driver::ScenarioConfig config = anufs::driver::load_scenario(input);
  if (!sweep_override.empty()) {
    // Reuse the config parser so the flag and the config key accept
    // exactly the same syntax (and share diagnostics).
    const anufs::driver::ScenarioConfig sweep_config =
        anufs::driver::parse_scenario_text("sweep " + sweep_override + "\n");
    config.sweep_begin = sweep_config.sweep_begin;
    config.sweep_end = sweep_config.sweep_end;
  }
  if (jobs_set) config.jobs = jobs_override;
  if (!faults_override.empty()) {
    config.faults = anufs::fault::load_fault_plan(faults_override);
  }
  if (!trace_override.empty()) config.trace_path = trace_override;
  if (!categories_override.empty()) {
    const auto mask = anufs::obs::parse_categories(categories_override);
    if (!mask.has_value()) {
      std::fprintf(stderr, "bad --trace-categories '%s'\n",
                   categories_override.c_str());
      return 2;
    }
    config.trace_categories = *mask;
  }

  if (config.is_sweep()) {
    (void)anufs::driver::run_sweep(config, std::cout);
  } else {
    (void)anufs::driver::run_scenario(config, std::cout);
  }
  return 0;
}
