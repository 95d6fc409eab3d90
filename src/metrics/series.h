// Time-series collection: the "log file" of per-interval server latency
// the paper's simulator writes, from which Figures 6-11 are plotted.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"

namespace anufs::metrics {

/// One sampled series: (time, value) pairs in nondecreasing time order.
class Series {
 public:
  void append(double time, double value) {
    ANUFS_EXPECTS(points_.empty() || time >= points_.back().first);
    points_.emplace_back(time, value);
  }

  /// Pre-size for an expected point count (e.g. duration / period) so
  /// steady-state appends never reallocate mid-run.
  void reserve(std::size_t points) { points_.reserve(points); }

  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }

  [[nodiscard]] const std::vector<std::pair<double, double>>& points()
      const noexcept {
    return points_;
  }

  /// Mean of values over the tail fraction [from, 1] of samples — used
  /// for "steady state" summaries after convergence.
  [[nodiscard]] double tail_mean(double from_fraction) const;

 private:
  std::vector<std::pair<double, double>> points_;
};

/// A labeled bundle of series sampled at the same instants (e.g. one per
/// server). Iteration order is label-sorted and therefore deterministic.
class SeriesBundle {
 public:
  Series& at(const std::string& label) { return series_[label]; }

  [[nodiscard]] const Series& at(const std::string& label) const {
    const auto it = series_.find(label);
    ANUFS_EXPECTS(it != series_.end());
    return it->second;
  }

  [[nodiscard]] bool contains(const std::string& label) const {
    return series_.contains(label);
  }

  [[nodiscard]] std::vector<std::string> labels() const;

  [[nodiscard]] std::size_t size() const noexcept { return series_.size(); }

  [[nodiscard]] const std::map<std::string, Series>& all() const noexcept {
    return series_;
  }

 private:
  std::map<std::string, Series> series_;
};

}  // namespace anufs::metrics
