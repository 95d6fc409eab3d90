// Descriptive statistics over a sample of values (latencies, loads).
#pragma once

#include <cstdint>
#include <vector>

namespace anufs::metrics {

struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;   ///< population standard deviation
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  /// Coefficient of variation (stddev/mean; 0 when mean is 0). The
  /// balance metric we report in tables: a perfectly balanced system has
  /// identical per-server values and cv == 0.
  [[nodiscard]] double cv() const { return mean == 0.0 ? 0.0 : stddev / mean; }
};

/// Compute summary statistics. Percentiles use the nearest-rank method.
[[nodiscard]] Summary summarize(std::vector<double> values);

/// Nearest-rank percentile of a sample (q in [0,1]); 0 for empty input.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// percentile() without the copy or the full sort: selects the same
/// nearest-rank element with std::nth_element, reordering `values`.
/// Repeated calls on one vector stay exact (selection needs no order).
[[nodiscard]] double percentile_in_place(std::vector<double>& values,
                                         double q);

}  // namespace anufs::metrics
