#include "policies/join_idle_queue.h"

#include <algorithm>

namespace anufs::policy {

JoinIdleQueuePolicy::JoinIdleQueuePolicy(JiqConfig config) : config_(config) {
  ANUFS_EXPECTS(config_.d >= 1);
  ANUFS_EXPECTS(config_.idle_factor > 0.0 && config_.idle_factor < 1.0);
  ANUFS_EXPECTS(config_.overload_factor > 1.0);
  ANUFS_EXPECTS(config_.shed_fraction > 0.0 && config_.shed_fraction <= 1.0);
}

ServerId JoinIdleQueuePolicy::take_target(sim::Xoshiro256& rng) {
  if (!idle_.empty()) {
    // Among announced-idle servers take the fastest (lowest latency
    // EWMA; unknown counts as fastest via the floor), ties to lowest
    // id. One placement retires the announcement, as in JIQ.
    std::size_t best = 0;
    double best_lat = table_.effective_latency(idle_[0]);
    for (std::size_t i = 1; i < idle_.size(); ++i) {
      const double lat = table_.effective_latency(idle_[i]);
      if (lat < best_lat) {  // idle_ is id-sorted, so ties keep lowest id
        best = i;
        best_lat = lat;
      }
    }
    const ServerId id = idle_[best];
    idle_.erase(idle_.begin() + static_cast<std::ptrdiff_t>(best));
    return id;
  }
  return table_.choose(rng, config_.d, servers_);
}

void JoinIdleQueuePolicy::drop_idle(ServerId id) {
  const auto it = std::lower_bound(idle_.begin(), idle_.end(), id);
  if (it != idle_.end() && *it == id) idle_.erase(it);
}

void JoinIdleQueuePolicy::initialize(
    const std::vector<workload::FileSetSpec>& file_sets,
    const std::vector<ServerId>& servers) {
  begin_initialize(file_sets, servers);
  table_.reset(servers_);
  // Before any request every server is trivially idle: the first n
  // placements deal one set to each server, then pow-d takes over.
  idle_ = servers_;
  sim::Xoshiro256 rng = sim::make_stream(config_.seed, "jiq", draws_++);
  assign_initial([&](std::size_t) { return place(rng); });
}

ServerId JoinIdleQueuePolicy::place(sim::Xoshiro256& rng) {
  const ServerId to = take_target(rng);
  table_.credit(to, +1);
  return to;
}

std::vector<Move> JoinIdleQueuePolicy::rebalance(
    sim::SimTime /*now*/, const std::vector<core::ServerReport>& reports) {
  table_.observe(reports, /*smoothing=*/0.5);
  const double average = round_average(reports);
  // Rebuild the idle list from this round's announcements. With no
  // completed requests anywhere there is no average to compare against,
  // so every reporting server counts as idle.
  idle_.clear();
  for (const core::ServerReport& r : reports) {
    if (!table_.contains(r.id)) continue;  // crashed-undetected reporter
    if (r.requests == 0 ||
        (average > 0.0 && r.mean_latency < config_.idle_factor * average)) {
      idle_.push_back(r.id);
    }
  }
  std::sort(idle_.begin(), idle_.end());
  if (average <= 0.0) return {};  // idle round: nobody is overloaded
  sim::Xoshiro256 rng = sim::make_stream(config_.seed, "jiq", draws_++);
  const std::vector<ServerId> next = shed_overloaded(
      reports, average, config_.overload_factor, config_.shed_fraction,
      owners(), table_, [&] { return take_target(rng); });
  if (next.empty()) return {};
  return adopt(next);
}

std::vector<Move> JoinIdleQueuePolicy::on_server_failed(ServerId id) {
  remove_server_id(id);
  ANUFS_EXPECTS(!servers_.empty());
  table_.remove(id);
  drop_idle(id);
  sim::Xoshiro256 rng = sim::make_stream(config_.seed, "jiq", draws_++);
  return rehome(id, [&] { return place(rng); });
}

std::vector<Move> JoinIdleQueuePolicy::on_server_added(ServerId id) {
  add_server_id(id);
  table_.add(id);
  // A commissioned server starts idle by definition: announce it so the
  // next placements (failure re-homes, sheds) go there first.
  const auto it = std::lower_bound(idle_.begin(), idle_.end(), id);
  ANUFS_EXPECTS(it == idle_.end() || *it != id);
  idle_.insert(it, id);
  return {};
}

}  // namespace anufs::policy
