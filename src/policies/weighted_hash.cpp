#include "policies/weighted_hash.h"

#include <algorithm>

#include "hash/unit_interval.h"

namespace anufs::policy {

using hash::kHalfInterval;
using hash::Measure;

WeightedHashPolicy::WeightedHashPolicy(std::map<ServerId, double> capacities,
                                       core::PlacementConfig placement)
    : capacities_(std::move(capacities)), placement_config_(placement) {
  ANUFS_EXPECTS(!capacities_.empty());
  for (const auto& [id, c] : capacities_) ANUFS_EXPECTS(c > 0.0);
}

void WeightedHashPolicy::reproportion() {
  // Exact integer proportional split of the mapped half by capacity,
  // residue to the largest-capacity server.
  core::RegionMap& regions = map_->regions();
  const std::vector<ServerId> ids = regions.server_ids();
  ANUFS_EXPECTS(!ids.empty());
  double total = 0.0;
  for (const ServerId id : ids) total += capacities_.at(id);
  std::vector<std::pair<ServerId, Measure>> targets;
  Measure assigned = 0;
  ServerId largest = ids.front();
  for (const ServerId id : ids) {
    if (capacities_.at(id) > capacities_.at(largest)) largest = id;
    const auto share = static_cast<Measure>(
        static_cast<long double>(kHalfInterval) *
        static_cast<long double>(capacities_.at(id) / total));
    targets.emplace_back(id, share);
    assigned += share;
  }
  for (auto& [id, share] : targets) {
    if (id == largest) share += kHalfInterval - assigned;
  }
  regions.rebalance_to(targets);
  ANUFS_ENSURES(regions.total_share() == kHalfInterval);
}

ServerId WeightedHashPolicy::derived_owner(std::size_t i) const {
  return map_->locate_server(file_sets_[i].fingerprint);
}

void WeightedHashPolicy::initialize(
    const std::vector<workload::FileSetSpec>& file_sets,
    const std::vector<ServerId>& servers) {
  begin_initialize(file_sets, servers);
  map_ = std::make_unique<core::PlacementMap>(core::PlacementMap::for_servers(
      placement_config_, static_cast<std::uint32_t>(servers.size())));
  for (const ServerId id : servers_) {
    ANUFS_EXPECTS(capacities_.contains(id));
    map_->regions().add_server(id);
  }
  reproportion();
  assign_initial([this](std::size_t i) { return derived_owner(i); });
}

std::vector<Move> WeightedHashPolicy::on_server_failed(ServerId id) {
  remove_server_id(id);
  map_->regions().remove_server(id);
  reproportion();
  return reassign_all([this](std::size_t i) { return derived_owner(i); });
}

std::vector<Move> WeightedHashPolicy::on_server_added(ServerId id) {
  ANUFS_EXPECTS(capacities_.contains(id));
  add_server_id(id);
  core::RegionMap& regions = map_->regions();
  regions.add_server(id);
  while (!regions.space().sufficient_for(regions.server_count())) {
    regions.repartition_double();
  }
  reproportion();
  return reassign_all([this](std::size_t i) { return derived_owner(i); });
}

}  // namespace anufs::policy
