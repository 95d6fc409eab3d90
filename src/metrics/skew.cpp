#include "metrics/skew.h"

#include <algorithm>
#include <cmath>


namespace anufs::metrics {

SkewReport load_skew(const std::vector<double>& loads) {
  SkewReport r;
  if (loads.empty()) return r;
  double sum = 0.0;
  double mx = loads.front();
  double mn = loads.front();
  for (const double v : loads) {
    sum += v;
    mx = std::max(mx, v);
    mn = std::min(mn, v);
  }
  const double mean = sum / static_cast<double>(loads.size());
  double var = 0.0;
  for (const double v : loads) var += (v - mean) * (v - mean);
  r.max_load = mx;
  r.mean_load = mean;
  if (mean > 0.0) {
    r.max_over_mean = mx / mean;
    r.min_over_mean = mn / mean;
    r.cv = std::sqrt(var / static_cast<double>(loads.size())) / mean;
  }
  return r;
}

}  // namespace anufs::metrics
