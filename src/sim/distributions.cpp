#include "sim/distributions.h"

#include <algorithm>

#include "common/check.h"

namespace anufs::sim {

WeightedSampler::WeightedSampler(const std::vector<double>& weights) {
  ANUFS_EXPECTS(!weights.empty());
  cdf_.reserve(weights.size());
  double acc = 0.0;
  for (const double w : weights) {
    ANUFS_EXPECTS(w >= 0.0);
    acc += w;
    cdf_.push_back(acc);
  }
  total_ = acc;
  ANUFS_EXPECTS(total_ > 0.0);
}

std::uint32_t WeightedSampler::sample(Xoshiro256& rng) const {
  const double u = rng.next_double() * total_;
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const auto idx = static_cast<std::uint32_t>(it - cdf_.begin());
  return std::min(idx, static_cast<std::uint32_t>(cdf_.size() - 1));
}

}  // namespace anufs::sim
