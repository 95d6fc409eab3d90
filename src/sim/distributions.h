// Sampling distributions used by the workload generators and the cluster
// model. All samplers take the generator by reference so callers control
// stream ownership and determinism.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "sim/random.h"

namespace anufs::sim {

// The three samplers are inline: workload generation draws about two
// samples per request, and an out-of-line call costs a noticeable share
// of the ~23 ns that log1p takes.

/// Exponential with the given rate (events per unit time). Mean = 1/rate.
[[nodiscard]] inline double sample_exponential(Xoshiro256& rng, double rate) {
  ANUFS_EXPECTS(rate > 0.0);
  // -log(1-U) with U in [0,1) avoids log(0).
  return -std::log1p(-rng.next_double()) / rate;
}

/// Uniform real in [lo, hi).
[[nodiscard]] inline double sample_uniform(Xoshiro256& rng, double lo,
                                           double hi) {
  ANUFS_EXPECTS(lo <= hi);
  return lo + (hi - lo) * rng.next_double();
}

/// Log-uniform: 10^U where U ~ Uniform[lo_exp, hi_exp). This is the
/// heterogeneity model for synthetic file-set weights: lo_exp=0, hi_exp=2
/// yields two decades (>=100x) of spread, matching the paper's "most
/// active file set has more than one hundred times as many requests".
[[nodiscard]] inline double sample_log_uniform(Xoshiro256& rng,
                                               double lo_exp, double hi_exp) {
  return std::pow(10.0, sample_uniform(rng, lo_exp, hi_exp));
}

/// Discrete sampler over arbitrary non-negative weights (normalized
/// internally). Used to pick which file set an arrival belongs to.
class WeightedSampler {
 public:
  explicit WeightedSampler(const std::vector<double>& weights);

  [[nodiscard]] std::uint32_t sample(Xoshiro256& rng) const;

  [[nodiscard]] double total_weight() const noexcept { return total_; }

 private:
  std::vector<double> cdf_;
  double total_ = 0.0;
};

}  // namespace anufs::sim
