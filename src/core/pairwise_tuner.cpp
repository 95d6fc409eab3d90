#include "core/pairwise_tuner.h"

#include <algorithm>

#include "common/check.h"
#include "hash/unit_interval.h"
#include "sim/random.h"

namespace anufs::core {

using hash::kHalfInterval;

namespace {

// One round's per-server working state, sorted by id for binary-search
// lookups during the exchange loop.
struct Entry {
  ServerId id;
  const ServerReport* report = nullptr;
  Measure target = 0;
};

Entry& entry_of(std::vector<Entry>& entries, ServerId id) {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), id,
      [](const Entry& e, ServerId key) { return e.id < key; });
  ANUFS_ENSURES(it != entries.end() && it->id == id);
  return *it;
}

}  // namespace

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

  std::vector<Entry> entries;
  entries.reserve(reports.size());
  std::vector<ServerId> alive;
  alive.reserve(reports.size());
  for (const ServerReport& r : reports) {
    entries.push_back(Entry{r.id, &r, 0});
    alive.push_back(r.id);
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& x, const Entry& y) { return x.id < y.id; });
  // Duplicate ids (never produced by AnuSystem): keep the LAST report,
  // matching the former std::map's insert-or-assign.
  auto out = entries.begin();
  for (auto it = entries.begin(); it != entries.end(); ++it) {
    if (out != entries.begin() && (out - 1)->id == it->id) {
      *(out - 1) = *it;
    } else {
      *out++ = *it;
    }
  }
  entries.erase(out, entries.end());
  for (Entry& e : entries) e.target = regions.share(e.id);

  const std::vector<ServerId> order = matching(round_, alive);
  ++round_;

  for (std::size_t k = 0; k + 1 < order.size(); k += 2) {
    const ServerReport& a = *entry_of(entries, order[k]).report;
    const ServerReport& b = *entry_of(entries, order[k + 1]).report;
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
    Entry& hot_entry = entry_of(entries, hot.id);
    const Measure hot_share = hot_entry.target;
    const auto correction = static_cast<Measure>(
        static_cast<long double>(hot_share) *
        static_cast<long double>((1.0 - factor) * config_.damping));
    // Respect the floor on the shedding side.
    const Measure floor_room =
        hot_share > config_.min_share ? hot_share - config_.min_share : 0;
    const Measure delta = std::min(correction, floor_room);
    if (delta == 0) continue;
    hot_entry.target -= delta;
    entry_of(entries, cold.id).target += delta;  // pair-local conservation
    decision.explicitly_scaled.push_back(hot.id);
    decision.explicitly_scaled.push_back(cold.id);
  }

  // Refresh each server's locally-remembered latency (`entries` holds
  // the last report per id); unreported servers keep their entry.
  for (const Entry& e : entries) {
    history_.record(e.id, e.report->mean_latency);
  }

  Measure sum = 0;
  decision.targets.reserve(alive.size());
  for (const ServerReport& r : reports) {
    const Measure target = entry_of(entries, r.id).target;
    decision.targets.emplace_back(r.id, target);
    sum += target;
    if (target != regions.share(r.id)) decision.acted = true;
  }
  ANUFS_ENSURES(sum == kHalfInterval);  // conservation, exactly
  return decision;
}

}  // namespace anufs::core
