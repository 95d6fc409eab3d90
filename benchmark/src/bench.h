// Shared pieces of the end-to-end benchmark binary: command-line options,
// the per-run report (metrics plus correctness checks), and the host
// fingerprint every result carries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace anufs::bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for a smoke pass of the harness (run.sh --quick).
  bool quick = false;
  /// "workload size seed digest" lines; empty = no recorded digests.
  std::string digests_path;
  std::string commit = "unknown";
  /// Append one JSON record of this run here (compare.py reads these).
  std::string out_path;
};

/// Median, extremes and sample count of one metric's repetitions.
struct Summary {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t n = 0;
};

[[nodiscard]] Summary summarize(std::vector<double> values);

[[nodiscard]] double seconds_since(std::uint64_t start_ns);
[[nodiscard]] std::uint64_t now_ns();

struct HostInfo {
  unsigned cores = 0;
  bool avx512f = false;
  std::string compiler;
  std::string build_type;
  std::string commit;
};

[[nodiscard]] HostInfo detect_host(const std::string& commit);

/// Peak resident set of this process so far, MB.
[[nodiscard]] double peak_rss_mb();

/// The digest recorded for (workload, size, seed), if any.
[[nodiscard]] bool recorded_digest(const Options& options,
                                   std::uint64_t& digest);

/// Metric names every run of one mode must print, with their units.
struct MetricSpec {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  /// A per-layer metric: one measured value.
  void metric(const std::string& name, double value);
  /// An end-to-end metric: the median of the run's repetitions.
  void metric(const std::string& name, const Summary& summary);
  /// Report the named per-layer metrics as 0: this workload does not
  /// run those layers.
  void not_exercised(const std::vector<std::string>& names);

  void check(const std::string& name, bool ok, const std::string& detail = "");

  [[nodiscard]] bool correct() const noexcept { return failed_ == 0; }

  /// Verifies the metric set against the mode's list, prints one
  /// "workload metric value unit" line per metric and one line per
  /// failed check, then the result object as the last line.
  void print(const Options& options, const HostInfo& host);

  /// Appends this run as one JSON line to options.out_path.
  void append_record(const Options& options, const HostInfo& host) const;

 private:
  struct Value {
    double value = 0.0;
    Summary summary;
    bool has_summary = false;
  };

  /// {"name": {"value", "unit"[, "min", "max", "n"]}, ...}
  [[nodiscard]] std::string metrics_json(bool with_summary) const;

  std::string workload_;
  std::map<std::string, Value> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Workload families (sim_workloads.cpp, serve_workloads.cpp).
[[nodiscard]] bool is_sim_workload(const std::string& name);
[[nodiscard]] bool is_serve_workload(const std::string& name);
void run_sim_workload(const Options& options, Report& report);
void run_serve_workload(const Options& options, Report& report);

/// Per-layer metrics that only one family measures; the other family
/// reports them through Report::not_exercised.
[[nodiscard]] const std::vector<std::string>& sim_only_layer_metrics();
[[nodiscard]] const std::vector<std::string>& serve_only_layer_metrics();

}  // namespace anufs::bench
