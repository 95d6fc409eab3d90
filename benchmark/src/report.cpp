#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include "bench.h"

namespace anufs::bench {
namespace {

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

const char* unit_of(const std::string& name) {
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& spec : *list) {
      if (name == spec.name) return spec.unit;
    }
  }
  return "?";
}

}  // namespace

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  const std::size_t mid = values.size() / 2;
  s.median = values.size() % 2 == 1 ? values[mid]
                                     : 0.5 * (values[mid - 1] + values[mid]);
  return s;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

HostInfo detect_host(const std::string& commit) {
  HostInfo host;
  cpu_set_t set;
  CPU_ZERO(&set);
  host.cores = sched_getaffinity(0, sizeof set, &set) == 0
                   ? static_cast<unsigned>(CPU_COUNT(&set))
                   : 0;
#if defined(__x86_64__) && defined(__GNUC__)
  host.avx512f = __builtin_cpu_supports("avx512f") != 0;
#endif
#if defined(__clang__)
  host.compiler = std::string("clang-") + __clang_version__;
#elif defined(__GNUC__)
  host.compiler = std::string("gcc-") + __VERSION__;
#else
  host.compiler = "unknown";
#endif
  host.build_type = ANUFS_BENCH_BUILD_TYPE;
  host.commit = commit;
  return host;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool recorded_digest(const Options& options, std::uint64_t& digest) {
  if (options.digests_path.empty()) return false;
  std::ifstream in(options.digests_path);
  const std::string size = options.quick ? "quick" : "full";
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ss(line);
    std::string workload, line_size, hex;
    std::uint64_t seed = 0;
    if (!(ss >> workload >> line_size >> seed >> hex)) continue;
    if (workload == options.workload && line_size == size &&
        seed == options.seed) {
      digest = std::strtoull(hex.c_str(), nullptr, 16);
      return true;
    }
  }
  return false;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kList = {
      {"setup_s", "s"},          {"wall_s", "s"},
      {"requests_per_s", "1/s"}, {"latency_p50_ns", "ns"},
      {"latency_tail_ns", "ns"}, {"peak_rss_mb", "MB"},
  };
  return kList;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kList = {
      {"workload.generate_s", "s"},
      {"policies.initialize_s", "s"},
      {"policies.rebalance.calls", "count"},
      {"policies.rebalance.s", "s"},
      {"policies.rebalance.p50_ms", "ms"},
      {"policies.rebalance.max_ms", "ms"},
      {"policies.rebalance.moves", "count"},
      {"policies.membership.calls", "count"},
      {"policies.membership.s", "s"},
      {"policies.membership.moves", "count"},
      {"policies.moves_per_file_set", "ratio"},
      {"policies.owner.calls", "count"},
      {"policies.owner.ns_per_call", "ns"},
      {"cluster.self_s", "s"},
      {"sim.events_fired", "count"},
      {"sim.events_cancelled", "count"},
      {"sim.peak_pending", "count"},
      {"sim.events_per_s", "1/s"},
      {"trace.overhead_pct", "%"},
      {"core.cache.hit_rate", "ratio"},
      {"core.cache.invalidations", "count"},
      {"core.cache.revalidated", "count"},
      {"serve.snapshots.published", "count"},
      {"serve.snapshots.pending", "count"},
      {"serve.writer.ops_per_s", "1/s"},
      {"core.anu.control_us_per_op", "us"},
      {"serve.snapshot.publish_us_per_op", "us"},
      {"serve.epoch.pin_ns_per_batch", "ns"},
      {"core.cache.ns_per_lookup", "ns"},
      {"core.cache.replay_hit_rate", "ratio"},
      {"core.locate.ns_per_lookup", "ns"},
  };
  return kList;
}

void Report::metric(const std::string& name, double value) {
  metrics_[name].value = value;
}

void Report::metric(const std::string& name, const Summary& summary) {
  Value& v = metrics_[name];
  v.value = summary.median;
  v.summary = summary;
  v.has_summary = true;
}

void Report::not_exercised(const std::vector<std::string>& names) {
  for (const std::string& name : names) metric(name, 0.0);
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  failures_.push_back(name + (detail.empty() ? "" : ": " + detail));
}

void Report::print(const Options& options, const HostInfo& host) {
  const std::vector<MetricSpec>& expected =
      options.trace ? per_layer_metrics() : end_to_end_metrics();
  std::set<std::string> names;
  for (const MetricSpec& spec : expected) names.insert(spec.name);
  std::set<std::string> got;
  for (const auto& [name, value] : metrics_) got.insert(name);
  check("metric set matches the mode's list", names == got);
  for (const auto& [name, value] : metrics_) {
    check("finite " + name, std::isfinite(value.value));
  }

  std::cout << "# host cores=" << host.cores
            << " isa=" << (host.avx512f ? "avx512f" : "no-avx512f")
            << " compiler=" << host.compiler << " build=" << host.build_type
            << " commit=" << host.commit << "\n";
  char line[256];
  for (const MetricSpec& spec : expected) {
    const auto it = metrics_.find(spec.name);
    if (it == metrics_.end()) continue;
    const Value& v = it->second;
    std::snprintf(line, sizeof line, "%s %s %.6g %s", workload_.c_str(),
                  spec.name, v.value, spec.unit);
    std::cout << line;
    if (v.has_summary) {
      std::snprintf(line, sizeof line, " min=%.6g max=%.6g n=%zu",
                    v.summary.min, v.summary.max, v.summary.n);
      std::cout << line;
    }
    std::cout << "\n";
  }
  for (const std::string& failure : failures_) {
    std::cout << "check FAILED " << failure << "\n";
  }
  std::cout << workload_ << " error_rate "
            << json_number(static_cast<double>(failed_) /
                           static_cast<double>(std::max<std::uint64_t>(
                               attempted_, 1)))
            << " ratio checks=" << attempted_ << "\n";

  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": " + metrics_json(false) + "}";
  std::cout << json << std::endl;
}

std::string Report::metrics_json(bool with_summary) const {
  std::string json = "{";
  for (const auto& [name, v] : metrics_) {
    if (json.size() > 1) json += ", ";
    json += json_string(name) + ": {\"value\": " +
            json_number(std::isfinite(v.value) ? v.value : 0.0) +
            ", \"unit\": " + json_string(unit_of(name));
    if (with_summary && v.has_summary) {
      json += ", \"min\": " + json_number(v.summary.min) +
              ", \"max\": " + json_number(v.summary.max) +
              ", \"n\": " + std::to_string(v.summary.n);
    }
    json += "}";
  }
  return json + "}";
}

void Report::append_record(const Options& options,
                           const HostInfo& host) const {
  std::string json = "{\"host\": {\"cores\": " + std::to_string(host.cores) +
                     ", \"isa\": " +
                     json_string(host.avx512f ? "avx512f" : "no-avx512f") +
                     ", \"compiler\": " + json_string(host.compiler) +
                     ", \"build_type\": " + json_string(host.build_type) +
                     ", \"commit\": " + json_string(host.commit) + "}";
  json += ", \"workload\": " + json_string(workload_);
  json += ", \"seed\": " + std::to_string(options.seed);
  json += ", \"seconds\": " + json_number(options.seconds);
  json += ", \"trace\": " + std::to_string(options.trace ? 1 : 0);
  json += ", \"quick\": " + std::string(options.quick ? "true" : "false");
  json += ", \"correct\": " + std::string(correct() ? "true" : "false");
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": " + metrics_json(true) + "}\n";
  std::ofstream out(options.out_path, std::ios::app);
  out << json;
  if (!out) {
    std::fprintf(stderr, "anufs_e2e: cannot append to %s\n",
                 options.out_path.c_str());
  }
}

}  // namespace anufs::bench
