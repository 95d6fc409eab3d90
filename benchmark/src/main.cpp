// anufs_e2e: one workload of the end-to-end benchmark per process, so
// peak RSS is per workload. benchmark/run.sh builds and drives it.
//
//   anufs_e2e --workload W [--seed N] [--seconds T] [--trace 0|1]
//             [--quick] [--digests FILE] [--commit ID] [--out FILE]
//
// Prints one "workload metric value unit" line per metric and, as the
// last line, {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones. Exits 1
// when a check fails, 2 on a usage error.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "anufs_e2e: %s\nusage: anufs_e2e --workload "
               "sim-paper|sim-scale|serve-hot|serve-cold [--seed N] "
               "[--seconds T] [--trace 0|1] [--quick] [--digests FILE] "
               "[--commit ID] [--out FILE]\n",
               why);
  std::exit(2);
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace anufs::bench;
  // One malloc arena for every thread: memory a repetition frees is
  // reused by the next one whichever thread allocates it, so peak RSS
  // follows live memory rather than which per-thread arenas grew.
  mallopt(M_ARENA_MAX, 1);
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    double number = 0.0;
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      const char* text = value();
      char* end = nullptr;
      options.seed = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0' || *text == '-') usage("bad --seed");
    } else if (arg == "--seconds") {
      if (!parse_number(value(), number) || number <= 0) {
        usage("bad --seconds");
      }
      options.seconds = number;
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      options.trace = v == "1";
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--digests") {
      options.digests_path = value();
    } else if (arg == "--commit") {
      options.commit = value();
    } else if (arg == "--out") {
      options.out_path = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!is_sim_workload(options.workload) &&
      !is_serve_workload(options.workload)) {
    usage("unknown or missing --workload");
  }

  const HostInfo host = detect_host(options.commit);
  Report report(options.workload);
  if (is_sim_workload(options.workload)) {
    run_sim_workload(options, report);
  } else {
    run_serve_workload(options, report);
  }
  report.print(options, host);
  if (!options.out_path.empty()) report.append_record(options, host);
  return report.correct() ? 0 : 1;
}
