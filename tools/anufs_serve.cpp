// anufs_serve: run the serving-mode concurrent lookup service.
//
//   ./anufs_serve --threads 16 --seconds 2
//   ./anufs_serve --threads 8 --ops 500 --check
//   ./anufs_serve --threads 4 --seconds 1 --faults plan.flt
//   ./anufs_serve --threads 2 --seconds 1 --metrics serve.metrics.json
//
// N reader threads issue locate() against epoch-pinned immutable
// placement snapshots while one writer thread churns the control plane
// (retunes, failures, commissions) on the live AnuSystem, publishing a
// fresh snapshot after every mutation. Readers never block on the
// control plane; the writer never waits for readers (src/serve has the
// epoch/snapshot protocol, DESIGN.md §6i the design notes).
//
// --check replays the recorded control-plane log sequentially on a
// fresh system and requires every concurrently-served sample to be
// bit-identical to the sequential derivation — exit 1 on any mismatch.
// Throughput numbers are machine-local; the equivalence digest is not.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "common/line_reader.h"
#include "fault/fault_plan.h"
#include "obs/export.h"
#include "obs/metrics_registry.h"
#include "serve/lookup_service.h"

namespace {

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --threads N        reader threads, >= 1 (default 4)\n"
      << "  --seconds S        serving window in wall seconds (default 1;\n"
      << "                     0 = run until --ops is exhausted)\n"
      << "  --ops N            control-plane op budget (default 0 =\n"
      << "                     unlimited churn for the window)\n"
      << "  --ops-per-second R control-plane rate (default 200; 0 = max)\n"
      << "  --servers N        initial server count, >= 2 (default 16)\n"
      << "  --file-sets N      fingerprint working set, >= 1 (default 4096)\n"
      << "  --batch N          lookups per epoch pin, >= 1 (default 256)\n"
      << "  --seed S           master seed (default 42)\n"
      << "  --faults PATH      fold a fault plan's membership events\n"
      << "                     into the churn schedule\n"
      << "  --check            replay the op log and verify every sample\n"
      << "                     bit-identical; exit 1 on mismatch\n"
      << "  --metrics PATH     write a metrics-registry JSON snapshot\n"
      << "  --quiet            print only the one-line summary\n";
}

std::optional<double> non_negative(const std::string& text) {
  const std::optional<double> v = anufs::to_double(text);
  return v.has_value() && *v >= 0.0 ? v : std::nullopt;
}

// A 32-bit count of at least `floor`: the sizes LookupService requires
// (one reader, one lookup per batch, one file set, two servers).
auto count_at_least(std::uint32_t floor) {
  return [floor](const std::string& text) -> std::optional<std::uint32_t> {
    const std::optional<std::uint32_t> v = anufs::to_u32(text);
    return v.has_value() && *v >= floor ? v : std::nullopt;
  };
}

}  // namespace

int main(int argc, char** argv) {
  anufs::serve::ServeConfig config;
  bool check = false;
  bool quiet = false;
  std::string metrics_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << ": missing value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    // The value converted, or exit 2 naming the flag.
    const auto value = [&](auto convert) {
      const std::string text = next();
      const auto v = convert(text);
      if (!v.has_value()) {
        std::cerr << arg << ": bad value '" << text << "'\n";
        std::exit(2);
      }
      return *v;
    };
    if (arg == "--threads") {
      config.threads = value(count_at_least(1));
    } else if (arg == "--seconds") {
      config.seconds = value(non_negative);
    } else if (arg == "--ops") {
      config.writer_ops = value(anufs::to_u64);
    } else if (arg == "--ops-per-second") {
      config.writer_ops_per_second = value(non_negative);
    } else if (arg == "--servers") {
      config.n_servers = value(count_at_least(2));
    } else if (arg == "--file-sets") {
      config.file_sets = value(count_at_least(1));
    } else if (arg == "--batch") {
      config.batch_size = value(count_at_least(1));
    } else if (arg == "--seed") {
      config.seed = value(anufs::to_u64);
    } else if (arg == "--faults") {
      config.faults = anufs::fault::load_fault_plan(next());
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage(argv[0]);
      return 2;
    }
  }
  if (config.seconds == 0.0 && config.writer_ops == 0) {
    std::cerr << "--seconds 0 requires a finite --ops budget\n";
    return 2;
  }

  const std::uint32_t batch = config.batch_size;
  anufs::serve::LookupService service(std::move(config));
  const anufs::serve::ServeResult result = service.run();

  std::printf(
      "serve: %u threads, %.3f s, %llu lookups, %.2fM lookups/s, "
      "%llu ops, %llu snapshots, gen %llu\n",
      result.threads, result.seconds,
      static_cast<unsigned long long>(result.lookups),
      result.lookups_per_second / 1e6,
      static_cast<unsigned long long>(result.ops_applied),
      static_cast<unsigned long long>(result.snapshots_published),
      static_cast<unsigned long long>(result.final_generation));
  if (!quiet) {
    std::printf(
        "  latency/lookup: mean %.1f ns, p50 %.1f ns, p99 %.1f ns "
        "(per-batch timing, batch %u)\n",
        result.mean_ns, result.p50_ns, result.p99_ns, batch);
    // The last batch of every 2^k is timed phase by phase; the phases
    // tile those batches, so the five means add up to their per-lookup
    // time.
    std::printf("  phases:");
    for (std::size_t p = 0; p < anufs::serve::kPhaseCount; ++p) {
      const std::string_view name = anufs::serve::kPhaseNames[p];
      std::printf("%s %.*s %.2f ns", p == 0 ? "" : ",",
                  static_cast<int>(name.size()), name.data(),
                  result.phase_ns[p]);
    }
    std::printf(" per lookup (%llu timed batches)\n",
                static_cast<unsigned long long>(result.phases.batches));
    std::printf(
        "  snapshots: %llu published, %llu freed, %zu pending; "
        "%zu samples recorded; digest %016llx\n",
        static_cast<unsigned long long>(result.snapshots_published),
        static_cast<unsigned long long>(result.snapshots_freed),
        result.snapshots_pending, result.samples,
        static_cast<unsigned long long>(result.digest));
  }

  if (!metrics_path.empty()) {
    anufs::obs::Registry registry;
    anufs::serve::LookupService::harvest(result, registry);
    if (!anufs::obs::write_text_file(metrics_path,
                                     anufs::obs::to_json(registry))) {
      std::cerr << "cannot write " << metrics_path << "\n";
      return 2;
    }
  }

  if (check) {
    const anufs::serve::EquivalenceReport eq = service.check_equivalence();
    std::printf(
        "equivalence: %zu samples checked, %zu mismatches, "
        "%zu unmatched, digest %016llx -> %s\n",
        eq.samples_checked, eq.mismatches, eq.unmatched_generation,
        static_cast<unsigned long long>(eq.digest),
        eq.ok() ? "OK" : "FAIL");
    if (!eq.ok()) return 1;
  }
  return 0;
}
