#include "workload/dfstrace_like.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "common/check.h"
#include "sim/distributions.h"
#include "sim/random.h"

namespace anufs::workload {

Workload make_dfstrace_like(const DfsTraceLikeConfig& config) {
  ANUFS_EXPECTS(config.file_sets > 0);
  ANUFS_EXPECTS(config.duration > 0.0);
  ANUFS_EXPECTS(config.epoch_seconds > 0.0);
  ANUFS_EXPECTS(config.burst_min >= 1.0 && config.burst_max >= config.burst_min);

  Workload w;
  w.name = "dfstrace-like";
  w.duration = config.duration;

  // Zipf base weights: set i (a traced workstation's subtree) has weight
  // proportional to 1/(i+1)^s.
  double weight_sum = 0.0;
  std::vector<double> base(config.file_sets);
  for (std::uint32_t i = 0; i < config.file_sets; ++i) {
    base[i] = 1.0 / std::pow(static_cast<double>(i + 1),
                             config.zipf_exponent);
    weight_sum += base[i];
  }
  w.file_sets.reserve(config.file_sets);
  for (std::uint32_t i = 0; i < config.file_sets; ++i) {
    w.file_sets.push_back(FileSetSpec::make(
        i, "dfstrace/ws" + std::to_string(i), base[i] / base.back()));
  }

  // Epoch-wise intensity multipliers: mostly 1.0, occasionally a burst.
  const auto epochs = static_cast<std::uint32_t>(
      std::ceil(config.duration / config.epoch_seconds));
  sim::Xoshiro256 burst_rng = sim::make_stream(config.seed, "dfs.bursts");
  std::vector<std::vector<double>> intensity(
      config.file_sets, std::vector<double>(epochs, 1.0));
  double expected_scale = 0.0;  // sum over sets/epochs of weight*intensity
  for (std::uint32_t i = 0; i < config.file_sets; ++i) {
    for (std::uint32_t e = 0; e < epochs; ++e) {
      const bool exempt = i < config.burst_exempt_top;
      if (!exempt && burst_rng.next_double() < config.burst_probability) {
        intensity[i][e] = sim::sample_uniform(burst_rng, config.burst_min,
                                              config.burst_max);
      }
      expected_scale += base[i] * intensity[i][e];
    }
  }

  // Calibrate so the expected total request count matches the target:
  // sum_i sum_e rate_{i,e} * epoch_len == total_requests.
  const double epoch_len = config.duration / epochs;
  const double calibration =
      static_cast<double>(config.total_requests) /
      (expected_scale * epoch_len);

  // Piecewise-homogeneous Poisson arrivals per set. Calibrated, the
  // total is Poisson with mean total_requests: reserve the mean plus
  // four standard deviations, as make_synthetic does.
  const auto expected = static_cast<double>(config.total_requests);
  w.requests.reserve(static_cast<std::size_t>(
      expected + 4.0 * std::ceil(std::sqrt(expected))));
  for (std::uint32_t i = 0; i < config.file_sets; ++i) {
    sim::Xoshiro256 rng = sim::make_stream(config.seed, "dfs.set", i);
    for (std::uint32_t e = 0; e < epochs; ++e) {
      const double rate = calibration * base[i] * intensity[i][e];
      if (rate <= 0.0) continue;
      const double start = static_cast<double>(e) * epoch_len;
      const double end = std::min(start + epoch_len, config.duration);
      double t = start + sim::sample_exponential(rng, rate);
      while (t <= end) {
        const double demand =
            sim::sample_exponential(rng, 1.0 / config.mean_demand);
        w.requests.push_back(RequestEvent{t, FileSetId{i}, demand});
        t += sim::sample_exponential(rng, rate);
      }
    }
  }
  sort_by_time(w.requests, config.duration);
  w.validate();
  return w;
}

}  // namespace anufs::workload
