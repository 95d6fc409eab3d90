// Capacity-weighted hashing baseline (SIEVE/CRUSH-family).
//
// The paper derives ANU from Brinkmann et al.'s SIEVE strategy, whose
// static form places objects by hashing into server regions sized
// proportionally to KNOWN capacities. This policy is that static form:
// capacity-aware (unlike round-robin) but workload-blind (unlike ANU) —
// it uses the same unit-interval machinery with region shares fixed
// proportional to server speed and never responds to latency.
//
// Scientifically this is the sharpest static comparator: it isolates
// ANU's *adaptivity* from its *placement geometry*. Under server-only
// heterogeneity it should do well; under workload heterogeneity it
// cannot tell a hot file set from a cold one.
#pragma once

#include <map>

#include "core/placement.h"
#include "policies/policy.h"

namespace anufs::policy {

class WeightedHashPolicy final : public AssignmentPolicyBase {
 public:
  /// `capacities` is the administrator's knowledge of relative server
  /// power (exactly what ANU does NOT need).
  explicit WeightedHashPolicy(std::map<ServerId, double> capacities,
                              core::PlacementConfig placement = {});

  [[nodiscard]] std::string name() const override { return "weighted-hash"; }

  void initialize(const std::vector<workload::FileSetSpec>& file_sets,
                  const std::vector<ServerId>& servers) override;

  std::vector<Move> rebalance(
      sim::SimTime /*now*/,
      const std::vector<core::ServerReport>& /*reports*/) override {
    return {};  // static: latency never feeds back
  }

  std::vector<Move> on_server_failed(ServerId id) override;
  std::vector<Move> on_server_added(ServerId id) override;

  [[nodiscard]] const core::PlacementMap& placement() const {
    ANUFS_EXPECTS(map_ != nullptr);
    return *map_;
  }

 private:
  /// (Re)shape regions proportional to the capacities of alive servers.
  void reproportion();
  /// Region-map owner of the file set with index `i`.
  [[nodiscard]] ServerId derived_owner(std::size_t i) const;

  std::map<ServerId, double> capacities_;
  core::PlacementConfig placement_config_;
  std::unique_ptr<core::PlacementMap> map_;
};

}  // namespace anufs::policy
