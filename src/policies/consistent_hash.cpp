#include "policies/consistent_hash.h"

#include <cmath>

#include "hash/mix64.h"

namespace anufs::policy {

ConsistentHashPolicy::ConsistentHashPolicy(
    std::map<ServerId, double> capacities, ConsistentHashConfig config)
    : capacities_(std::move(capacities)), config_(config) {
  ANUFS_EXPECTS(!capacities_.empty());
  ANUFS_EXPECTS(config_.vnodes_per_unit > 0);
}

std::uint32_t ConsistentHashPolicy::vnode_count(ServerId id) const {
  const double c = capacities_.at(id);
  ANUFS_EXPECTS(c > 0.0);
  return std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(
             std::lround(c * config_.vnodes_per_unit)));
}

void ConsistentHashPolicy::add_points(ServerId id) {
  for (std::uint32_t v = 0; v < vnode_count(id); ++v) {
    const std::uint64_t point = hash::mix64(
        (static_cast<std::uint64_t>(id.value) << 32 | v) ^ config_.salt ^
        0xC2B2AE3D27D4EB4FULL);
    // Collisions between distinct (server, vnode) pairs are ~2^-64 and
    // deterministic; first inserter keeps the point.
    ring_.emplace(point, id);
  }
}

void ConsistentHashPolicy::remove_points(ServerId id) {
  for (auto it = ring_.begin(); it != ring_.end();) {
    if (it->second == id) {
      it = ring_.erase(it);
    } else {
      ++it;
    }
  }
}

ServerId ConsistentHashPolicy::ring_owner(std::uint64_t fingerprint) const {
  ANUFS_EXPECTS(!ring_.empty());
  const std::uint64_t pos =
      hash::mix64_v2(fingerprint ^ config_.salt);
  const auto it = ring_.lower_bound(pos);
  return it == ring_.end() ? ring_.begin()->second : it->second;
}

ServerId ConsistentHashPolicy::derived_owner(std::size_t i) const {
  return ring_owner(file_sets_[i].fingerprint);
}

void ConsistentHashPolicy::initialize(
    const std::vector<workload::FileSetSpec>& file_sets,
    const std::vector<ServerId>& servers) {
  begin_initialize(file_sets, servers);
  ring_.clear();
  for (const ServerId id : servers_) {
    ANUFS_EXPECTS(capacities_.contains(id));
    add_points(id);
  }
  assign_initial([this](std::size_t i) { return derived_owner(i); });
}

std::vector<Move> ConsistentHashPolicy::on_server_failed(ServerId id) {
  remove_server_id(id);
  remove_points(id);
  ANUFS_EXPECTS(!ring_.empty());
  return reassign_all([this](std::size_t i) { return derived_owner(i); });
}

std::vector<Move> ConsistentHashPolicy::on_server_added(ServerId id) {
  ANUFS_EXPECTS(capacities_.contains(id));
  add_server_id(id);
  add_points(id);
  return reassign_all([this](std::size_t i) { return derived_owner(i); });
}

}  // namespace anufs::policy
