#include "metrics/summary.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace anufs::metrics {

namespace {

// Ceil-rank (nearest-rank) index of the q-quantile in a sample of n.
// The single definition percentile(), percentile_in_place() and
// summarize() use — ceil(0 * n) == 0 must mean "the minimum", not an
// underflowed rank.
std::size_t nearest_rank_index(std::size_t n, double q) {
  ANUFS_EXPECTS(n > 0);
  if (q <= 0.0) return 0;
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::min(rank - 1, n - 1);
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  ANUFS_EXPECTS(q >= 0.0 && q <= 1.0);
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank_index(values.size(), q)];
}

double percentile_in_place(std::vector<double>& values, double q) {
  ANUFS_EXPECTS(q >= 0.0 && q <= 1.0);
  if (values.empty()) return 0.0;
  const auto nth =
      values.begin() +
      static_cast<std::ptrdiff_t>(nearest_rank_index(values.size(), q));
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;

  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  const std::size_t n = values.size();
  s.median = (n % 2 == 1) ? values[n / 2]
                          : 0.5 * (values[n / 2 - 1] + values[n / 2]);

  double sum = 0.0;
  for (const double v : values) sum += v;
  s.mean = sum / static_cast<double>(n);

  double var = 0.0;
  for (const double v : values) var += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(var / static_cast<double>(n));

  s.p95 = values[nearest_rank_index(n, 0.95)];
  s.p99 = values[nearest_rank_index(n, 0.99)];
  return s;
}

}  // namespace anufs::metrics
