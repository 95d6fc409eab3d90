#include "workload/synthetic.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>

#include "common/check.h"
#include "sim/distributions.h"
#include "sim/random.h"

namespace anufs::workload {

Workload make_synthetic(const SyntheticConfig& config) {
  ANUFS_EXPECTS(config.file_sets > 0);
  ANUFS_EXPECTS(config.duration > 0.0);
  ANUFS_EXPECTS(config.demand_hi_exp >= config.demand_lo_exp);

  Workload w;
  w.name = "synthetic";
  w.duration = config.duration;

  // Weights (workload shares) and per-request mean demands, both
  // log-uniform. The arrival rate of set i is proportional to
  // weight/demand: heavy sets are heavy either by issuing many requests
  // or by issuing expensive ones (or both).
  sim::Xoshiro256 weight_rng =
      sim::make_stream(config.seed, "synthetic.weights");
  std::vector<double> demand_mean(config.file_sets);
  std::vector<double> rate_shape(config.file_sets);
  double shape_sum = 0.0;
  w.file_sets.reserve(config.file_sets);
  for (std::uint32_t i = 0; i < config.file_sets; ++i) {
    const double weight = sim::sample_log_uniform(
        weight_rng, config.weight_lo_exp, config.weight_hi_exp);
    demand_mean[i] = sim::sample_log_uniform(
        weight_rng, config.demand_lo_exp, config.demand_hi_exp);
    rate_shape[i] = weight / demand_mean[i];
    shape_sum += rate_shape[i];
    w.file_sets.push_back(
        FileSetSpec::make(i, "synthetic/fs" + std::to_string(i), weight));
  }

  // Per-set Poisson arrival streams, then a merge by time. Each set gets
  // its own derived RNG stream so the workload of set i is independent
  // of how many sets exist.
  const double total_rate =
      static_cast<double>(config.total_requests) / config.duration;
  // The merged arrival count is Poisson with mean total_requests, so
  // reserve the mean plus four standard deviations (4 * sqrt(mean)): the
  // stream is allocated once, and a rarer overshoot costs one
  // reallocation, never a different workload.
  const auto expected = static_cast<double>(config.total_requests);
  w.requests.reserve(static_cast<std::size_t>(
      expected + 4.0 * std::ceil(std::sqrt(expected))));
  for (std::uint32_t i = 0; i < config.file_sets; ++i) {
    const double rate = total_rate * (rate_shape[i] / shape_sum);
    sim::Xoshiro256 rng = sim::make_stream(config.seed, "synthetic.set", i);
    double t = sim::sample_exponential(rng, rate);
    while (t <= config.duration) {
      const double demand =
          sim::sample_exponential(rng, 1.0 / demand_mean[i]);
      w.requests.push_back(RequestEvent{t, FileSetId{i}, demand});
      t += sim::sample_exponential(rng, rate);
    }
  }
  std::sort(w.requests.begin(), w.requests.end(),
            [](const RequestEvent& a, const RequestEvent& b) {
              return a.time < b.time;
            });
  w.validate();
  return w;
}

}  // namespace anufs::workload
