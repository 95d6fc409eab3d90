#include "core/pairwise_tuner.h"

#include <algorithm>

#include "common/check.h"
#include "hash/unit_interval.h"
#include "sim/random.h"

namespace anufs::core {

using hash::kHalfInterval;

PairwiseTuner::PairwiseTuner(PairwiseConfig config) : config_(config) {
  ANUFS_EXPECTS(config.tolerance >= 0.0);
  ANUFS_EXPECTS(config.max_scale > 1.0);
  ANUFS_EXPECTS(config.damping > 0.0 && config.damping <= 1.0);
}

std::vector<ServerId> PairwiseTuner::matching(
    std::uint64_t round, std::vector<ServerId> alive) const {
  std::sort(alive.begin(), alive.end());
  // Deterministic Fisher-Yates keyed by (seed, round): every node
  // computes the identical matching with no communication.
  sim::Xoshiro256 rng = sim::make_stream(config_.seed, "pairwise", round);
  for (std::size_t i = alive.size(); i > 1; --i) {
    const std::size_t j = rng.next_below(i);
    std::swap(alive[i - 1], alive[j]);
  }
  return alive;
}

TuneDecision PairwiseTuner::retune(const std::vector<ServerReport>& reports,
                                   const RegionMap& regions) {
  ANUFS_EXPECTS(!reports.empty());
  ANUFS_EXPECTS(regions.total_share() == kHalfInterval);

  TuneDecision decision;
  decision.system_average =
      LatencyTuner::system_average(reports, AverageKind::kWeightedMean);

  // This round's report and target per id (ServerId.value). A later
  // report for an id replaces an earlier one: the last report wins.
  std::vector<ServerId> alive;
  alive.reserve(reports.size());
  std::size_t id_bound = 0;
  for (const ServerReport& r : reports) {
    ANUFS_EXPECTS(regions.has_server(r.id));
    alive.push_back(r.id);
    id_bound = std::max(id_bound, std::size_t{r.id.value} + 1);
  }
  std::vector<const ServerReport*> report_of(id_bound, nullptr);
  std::vector<Measure> target(id_bound, 0);
  for (const ServerReport& r : reports) {
    report_of[r.id.value] = &r;
    target[r.id.value] = regions.share(r.id);
  }

  const std::vector<ServerId> order = matching(round_, alive);
  ++round_;

  for (std::size_t k = 0; k + 1 < order.size(); k += 2) {
    const ServerReport& a = *report_of[order[k].value];
    const ServerReport& b = *report_of[order[k + 1].value];
    // Identify hot and cold within the pair. Idle servers (no samples)
    // count as cold with latency 0 and can only RECEIVE measure.
    const ServerReport& hot = a.mean_latency >= b.mean_latency ? a : b;
    const ServerReport& cold = a.mean_latency >= b.mean_latency ? b : a;
    if (hot.requests == 0) continue;  // both idle
    if (hot.mean_latency <=
        (1.0 + config_.tolerance) * cold.mean_latency) {
      continue;  // within tolerance: no exchange
    }
    if (config_.divergent) {
      // The hot server checks its own trajectory before shedding again:
      // if the last exchange is still draining (latency falling), wait.
      const double* hot_prev = history_.find(hot.id);
      if (hot_prev != nullptr && hot.mean_latency < *hot_prev) {
        continue;
      }
      // The cold side refuses while its own latency is rising: it is
      // still absorbing a previous acceptance.
      const double* cold_prev = history_.find(cold.id);
      if (cold_prev != nullptr && cold.requests > 0 &&
          cold.mean_latency > *cold_prev) {
        continue;
      }
    }
    // The scale the centralized rule would apply toward the pair mean,
    // clamped and damped. delta is what hot sheds and cold gains.
    const double pair_mean = 0.5 * (hot.mean_latency + cold.mean_latency);
    const double factor =
        std::max(pair_mean / hot.mean_latency, 1.0 / config_.max_scale);
    const Measure hot_share = target[hot.id.value];
    const auto correction = static_cast<Measure>(
        static_cast<long double>(hot_share) *
        static_cast<long double>((1.0 - factor) * config_.damping));
    // Respect the floor on the shedding side.
    const Measure floor_room =
        hot_share > config_.min_share ? hot_share - config_.min_share : 0;
    const Measure delta = std::min(correction, floor_room);
    if (delta == 0) continue;
    target[hot.id.value] -= delta;
    target[cold.id.value] += delta;  // pair-local conservation
    decision.explicitly_scaled.push_back(hot.id);
    decision.explicitly_scaled.push_back(cold.id);
  }

  // Refresh each server's locally-remembered latency (in report order,
  // so the last report per id wins); unreported servers keep theirs.
  for (const ServerReport& r : reports) {
    history_.record(r.id, r.mean_latency);
  }

  Measure sum = 0;
  decision.targets.reserve(alive.size());
  for (const ServerReport& r : reports) {
    const Measure t = target[r.id.value];
    decision.targets.emplace_back(r.id, t);
    sum += t;
    if (t != regions.share(r.id)) decision.acted = true;
  }
  ANUFS_ENSURES(sum == kHalfInterval);  // conservation, exactly
  return decision;
}

}  // namespace anufs::core
