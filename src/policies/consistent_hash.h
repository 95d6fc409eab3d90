// Consistent-hashing ring baseline (Chord/Pastry-family, paper §3).
//
// The peer-to-peer systems the paper discusses "use simple randomized
// load placement" via a hash ring: servers own the arc preceding each
// of their virtual points, and a file set belongs to the successor of
// its hash. Capacity-weighted virtual-node counts make it capacity-
// aware; nothing makes it workload-aware — like weighted hashing it is
// a static comparator that isolates ANU's adaptivity.
//
// Its membership behaviour is the interesting part: adding/removing a
// server moves only the arcs adjacent to its virtual points, giving
// minimal movement comparable to ANU's (measured in Table H).
#pragma once

#include <cstdint>
#include <map>

#include "policies/policy.h"

namespace anufs::policy {

struct ConsistentHashConfig {
  /// Virtual points per unit of capacity; more points = smoother arcs.
  std::uint32_t vnodes_per_unit = 8;
  std::uint64_t salt = 0;
};

class ConsistentHashPolicy final : public AssignmentPolicyBase {
 public:
  ConsistentHashPolicy(std::map<ServerId, double> capacities,
                       ConsistentHashConfig config = {});

  [[nodiscard]] std::string name() const override {
    return "consistent-hash";
  }

  void initialize(const std::vector<workload::FileSetSpec>& file_sets,
                  const std::vector<ServerId>& servers) override;

  std::vector<Move> rebalance(
      sim::SimTime /*now*/,
      const std::vector<core::ServerReport>& /*reports*/) override {
    return {};  // static
  }

  std::vector<Move> on_server_failed(ServerId id) override;
  std::vector<Move> on_server_added(ServerId id) override;

  /// Successor lookup on the ring (exposed for tests).
  [[nodiscard]] ServerId ring_owner(std::uint64_t fingerprint) const;

  [[nodiscard]] std::size_t ring_points() const noexcept {
    return ring_.size();
  }

 private:
  [[nodiscard]] std::uint32_t vnode_count(ServerId id) const;
  void add_points(ServerId id);
  void remove_points(ServerId id);
  /// Ring owner of the file set with index `i`.
  [[nodiscard]] ServerId derived_owner(std::size_t i) const;

  std::map<ServerId, double> capacities_;
  ConsistentHashConfig config_;
  std::map<std::uint64_t, ServerId> ring_;  // position -> server
};

}  // namespace anufs::policy
