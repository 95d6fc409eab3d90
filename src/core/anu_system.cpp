#include "core/anu_system.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "core/invariant_auditor.h"
#include "hash/unit_interval.h"
#include "obs/trace.h"

namespace anufs::core {

namespace {

using hash::kHalfInterval;
using Wide = __int128;

/// Proportional integer split of `total` across `weights`, exact: the
/// rounding residue goes to the largest weight (ties: lowest index).
std::vector<Measure> proportional_split(Measure total,
                                        const std::vector<Measure>& weights) {
  const std::size_t n = weights.size();
  ANUFS_EXPECTS(n > 0);
  Wide weight_sum = 0;
  for (const Measure w : weights) weight_sum += static_cast<Wide>(w);

  std::vector<Measure> out(n);
  Wide assigned = 0;
  if (weight_sum == 0) {
    const Measure per = total / n;
    for (auto& v : out) v = per;
    assigned = static_cast<Wide>(per) * static_cast<Wide>(n);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const Wide v = static_cast<Wide>(total) *
                     static_cast<Wide>(weights[i]) / weight_sum;
      out[i] = static_cast<Measure>(v);
      assigned += v;
    }
  }
  const Wide residue = static_cast<Wide>(total) - assigned;
  ANUFS_ENSURES(residue >= 0);
  const std::size_t largest = static_cast<std::size_t>(
      std::max_element(weights.begin(), weights.end()) - weights.begin());
  out[largest] += static_cast<Measure>(residue);
  return out;
}

}  // namespace

AnuSystem::AnuSystem(AnuConfig config, const std::vector<ServerId>& initial)
    : config_(config),
      placement_(PlacementMap::for_servers(
          config.placement, static_cast<std::uint32_t>(initial.size()))),
      delegate_(config.tuner),
      pairwise_(config.pairwise) {
  ANUFS_EXPECTS(!initial.empty());
  RegionMap& regions = placement_.regions();
  for (const ServerId id : initial) regions.add_server(id);
  // Equal initial shares: no a-priori knowledge of servers or workload.
  const std::vector<Measure> weights(initial.size(), 1);
  const std::vector<Measure> shares =
      proportional_split(kHalfInterval, weights);
  std::vector<std::pair<ServerId, Measure>> targets;
  std::vector<ServerId> sorted = initial;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    targets.emplace_back(sorted[i], shares[i]);
  }
  regions.rebalance_to(targets);
  ANUFS_ENSURES(regions.total_share() == kHalfInterval);
  check_invariants();
  detail::maybe_audit(*this);
}

TuneDecision AnuSystem::reconfigure(const std::vector<ServerReport>& reports) {
  ANUFS_EXPECTS(reports.size() == placement_.regions().server_count());
  TuneDecision decision =
      config_.mode == TunerMode::kDecentralizedPairwise
          ? pairwise_.retune(reports, placement_.regions())
          : delegate_.run_round(reports, placement_.regions());
  ANUFS_TRACE(obs::Category::kDelegate, "round",
              {"reports", reports.size()},
              {"avg_ms", decision.system_average * 1e3},
              {"scaled", decision.explicitly_scaled.size()},
              {"acted", decision.acted ? 1 : 0}, {"version", version_});
  std::uint32_t touched = 0;
  if (decision.acted) {
    touched = placement_.regions().rebalance_to(decision.targets);
    ++control_stats_.rounds_acted;
    ++version_;
  }
  ++control_stats_.rounds;
  note_touched(touched);
  ANUFS_TRACE(obs::Category::kControl, "retune_touched",
              {"touched", touched}, {"servers", reports.size()},
              {"acted", decision.acted ? 1 : 0}, {"version", version_});
  check_invariants();
  detail::maybe_audit(*this);
  return decision;
}

void AnuSystem::note_touched(std::uint32_t touched) {
  control_stats_.last_touched = touched;
  control_stats_.touched_total += touched;
  control_stats_.max_touched =
      std::max(control_stats_.max_touched, touched);
  const std::size_t bucket =
      touched == 0
          ? 0
          : std::min<std::size_t>(std::bit_width(touched),
                                  control_stats_.touched_log2.size() - 1);
  ++control_stats_.touched_log2[bucket];
}

std::uint32_t AnuSystem::restore_half_occupancy() {
  RegionMap& regions = placement_.regions();
  const std::vector<ServerId> ids = regions.server_ids();
  ANUFS_EXPECTS(!ids.empty());
  std::vector<Measure> weights;
  weights.reserve(ids.size());
  for (const ServerId id : ids) weights.push_back(regions.share(id));
  const std::vector<Measure> shares =
      proportional_split(kHalfInterval, weights);
  std::vector<std::pair<ServerId, Measure>> targets;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    targets.emplace_back(ids[i], shares[i]);
  }
  const std::uint32_t touched = regions.rebalance_to(targets);
  ANUFS_ENSURES(regions.total_share() == kHalfInterval);
  return touched;
}

void AnuSystem::fail_server(ServerId id) {
  RegionMap& regions = placement_.regions();
  ANUFS_EXPECTS(regions.has_server(id));
  ANUFS_EXPECTS(regions.server_count() > 1);
  regions.remove_server(id);
  // A crash loses the server's own latency memory (PairwiseConfig::
  // divergent), so a recovered server is not gated against its past.
  pairwise_.forget(id);
  // Survivors grow in proportion to their current shares: their existing
  // regions are untouched (cache preservation); only the failed measure
  // is re-homed.
  const std::uint32_t touched = restore_half_occupancy() + 1;  // +1: `id`
  ++control_stats_.membership_events;
  note_touched(touched);
  ++version_;
  ANUFS_TRACE(obs::Category::kControl, "fail_touched", {"touched", touched},
              {"survivors", regions.server_count()}, {"version", version_});
  ANUFS_TRACE(obs::Category::kDelegate, "fail_server", {"server", id.value},
              {"survivors", regions.server_count()}, {"version", version_});
  check_invariants();
  detail::maybe_audit(*this);
}

void AnuSystem::add_server(ServerId id) {
  RegionMap& regions = placement_.regions();
  ANUFS_EXPECTS(!regions.has_server(id));
  regions.add_server(id);
  // "If the added server increases n such that there are fewer than
  // 2(n+1) partitions, the algorithm re-partitions the unit interval."
  while (!regions.space().sufficient_for(regions.server_count())) {
    regions.repartition_double();
  }
  // The newcomer is assigned (the measure of) a free partition; everyone
  // else scales back proportionally to keep half-occupancy.
  const Measure grant =
      std::min(regions.space().partition_size(),
               kHalfInterval / regions.server_count());
  const std::vector<ServerId> ids = regions.server_ids();
  std::vector<Measure> weights;
  std::vector<ServerId> others;
  for (const ServerId s : ids) {
    if (s == id) continue;
    others.push_back(s);
    weights.push_back(regions.share(s));
  }
  const std::vector<Measure> shares =
      proportional_split(kHalfInterval - grant, weights);
  std::vector<std::pair<ServerId, Measure>> targets;
  targets.emplace_back(id, grant);
  for (std::size_t i = 0; i < others.size(); ++i) {
    targets.emplace_back(others[i], shares[i]);
  }
  const std::uint32_t touched = regions.rebalance_to(targets);
  ANUFS_ENSURES(regions.total_share() == kHalfInterval);
  ++control_stats_.membership_events;
  note_touched(touched);
  ++version_;
  ANUFS_TRACE(obs::Category::kControl, "add_touched", {"touched", touched},
              {"servers", regions.server_count()}, {"version", version_});
  ANUFS_TRACE(obs::Category::kDelegate, "add_server", {"server", id.value},
              {"servers", regions.server_count()},
              {"partitions", regions.space().count()},
              {"version", version_});
  check_invariants();
  detail::maybe_audit(*this);
}

}  // namespace anufs::core
