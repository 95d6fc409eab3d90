// Load-imbalance metrics for placement quality (Table A in DESIGN.md):
// how far the most loaded server sits above the fair share.
#pragma once

#include <vector>

namespace anufs::metrics {

struct SkewReport {
  double max_over_mean = 0.0;   ///< max load / mean load (1.0 == perfect)
  double min_over_mean = 0.0;   ///< min load / mean load
  double cv = 0.0;              ///< coefficient of variation
  double max_load = 0.0;
  double mean_load = 0.0;
};

/// Skew of raw (unweighted) loads — e.g. file-set counts per server.
[[nodiscard]] SkewReport load_skew(const std::vector<double>& loads);

}  // namespace anufs::metrics
