#include "metrics/series.h"

#include <algorithm>

namespace anufs::metrics {

double Series::tail_mean(double from_fraction) const {
  ANUFS_EXPECTS(from_fraction >= 0.0 && from_fraction <= 1.0);
  if (points_.empty()) return 0.0;
  const auto start = static_cast<std::size_t>(
      from_fraction * static_cast<double>(points_.size()));
  const std::size_t first = std::min(start, points_.size() - 1);
  double sum = 0.0;
  for (std::size_t i = first; i < points_.size(); ++i) {
    sum += points_[i].second;
  }
  return sum / static_cast<double>(points_.size() - first);
}

std::vector<std::string> SeriesBundle::labels() const {
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [label, s] : series_) out.push_back(label);
  return out;
}

}  // namespace anufs::metrics
