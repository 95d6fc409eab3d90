// Sampling distributions used by the workload generators and the cluster
// model. All samplers take the generator by reference so callers control
// stream ownership and determinism.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/random.h"

namespace anufs::sim {

/// Exponential with the given rate (events per unit time). Mean = 1/rate.
[[nodiscard]] double sample_exponential(Xoshiro256& rng, double rate);

/// Uniform real in [lo, hi).
[[nodiscard]] double sample_uniform(Xoshiro256& rng, double lo, double hi);

/// Log-uniform: 10^U where U ~ Uniform[lo_exp, hi_exp). This is the
/// heterogeneity model for synthetic file-set weights: lo_exp=0, hi_exp=2
/// yields two decades (>=100x) of spread, matching the paper's "most
/// active file set has more than one hundred times as many requests".
[[nodiscard]] double sample_log_uniform(Xoshiro256& rng, double lo_exp,
                                        double hi_exp);

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
