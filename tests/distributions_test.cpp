// Tests for the sampling distributions.
#include "sim/distributions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace anufs::sim {
namespace {

TEST(Exponential, MeanMatchesRate) {
  Xoshiro256 rng{1};
  const double rate = 4.0;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += sample_exponential(rng, rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(Exponential, AlwaysNonNegative) {
  Xoshiro256 rng{2};
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(sample_exponential(rng, 0.5), 0.0);
  }
}

TEST(Exponential, VarianceMatches) {
  Xoshiro256 rng{3};
  const double rate = 2.0;
  const int n = 200000;
  std::vector<double> xs(n);
  double mean = 0.0;
  for (auto& x : xs) {
    x = sample_exponential(rng, rate);
    mean += x;
  }
  mean /= n;
  double var = 0.0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= n;
  EXPECT_NEAR(var, 1.0 / (rate * rate), 0.02);
}

TEST(Uniform, WithinBounds) {
  Xoshiro256 rng{4};
  for (int i = 0; i < 10000; ++i) {
    const double u = sample_uniform(rng, 2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Uniform, DegenerateIntervalReturnsLo) {
  Xoshiro256 rng{4};
  EXPECT_EQ(sample_uniform(rng, 3.0, 3.0), 3.0);
}

TEST(LogUniform, SpansDecades) {
  Xoshiro256 rng{5};
  double lo = 1e18;
  double hi = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double v = sample_log_uniform(rng, 0.0, 2.0);
    EXPECT_GE(v, 1.0);
    EXPECT_LT(v, 100.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  // The paper's heterogeneity claim: >100x spread is achievable.
  EXPECT_GT(hi / lo, 50.0);
}

TEST(LogUniform, MedianIsGeometricMean) {
  Xoshiro256 rng{6};
  int below = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (sample_log_uniform(rng, 0.0, 2.0) < 10.0) ++below;
  }
  EXPECT_NEAR(static_cast<double>(below) / n, 0.5, 0.01);
}

TEST(Weighted, RespectsWeights) {
  const WeightedSampler sampler({1.0, 3.0, 6.0});
  Xoshiro256 rng{10};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[sampler.sample(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Weighted, ZeroWeightNeverSampled) {
  const WeightedSampler sampler({0.0, 1.0, 0.0});
  Xoshiro256 rng{11};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(sampler.sample(rng), 1u);
}

TEST(Weighted, TotalWeightExposed) {
  const WeightedSampler sampler({1.5, 2.5});
  EXPECT_DOUBLE_EQ(sampler.total_weight(), 4.0);
}

}  // namespace
}  // namespace anufs::sim
