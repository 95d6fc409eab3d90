// ANU randomization as a placement policy: adapts core::AnuSystem to the
// policy interface used by the cluster simulator. Ownership is never
// stored per file set inside ANU itself — it is re-derived from the hash
// probe sequence against the current region map, which is the paper's
// whole point (shared state scales with servers, not file sets). The
// policy layer's dense owner table is a routing answer cache: each
// re-derivation writes the freshly located owners into it, and the
// writes that change an owner become the round's Move records.
#pragma once

#include <memory>

#include "core/anu_system.h"
#include "policies/policy.h"

namespace anufs::policy {

class AnuPolicy final : public AssignmentPolicyBase {
 public:
  explicit AnuPolicy(core::AnuConfig config) : config_(config) {}

  [[nodiscard]] std::string name() const override {
    return config_.mode == core::TunerMode::kDecentralizedPairwise
               ? "anu-pairwise"
               : "anu";
  }

  void initialize(const std::vector<workload::FileSetSpec>& file_sets,
                  const std::vector<ServerId>& servers) override;

  std::vector<Move> rebalance(
      sim::SimTime now,
      const std::vector<core::ServerReport>& reports) override;

  std::vector<Move> on_server_failed(ServerId id) override;
  std::vector<Move> on_server_added(ServerId id) override;

  /// The underlying ANU system (for invariant checks and introspection).
  [[nodiscard]] const core::AnuSystem& system() const {
    ANUFS_EXPECTS(system_ != nullptr);
    return *system_;
  }
  [[nodiscard]] core::AnuSystem& system() {
    ANUFS_EXPECTS(system_ != nullptr);
    return *system_;
  }

 private:
  /// Re-derive every file set's owner from the probe sequence (one
  /// AnuSystem::locate_many sweep) and write it into the owner table.
  std::vector<Move> rederive();

  core::AnuConfig config_;
  std::unique_ptr<core::AnuSystem> system_;
  std::vector<std::uint64_t> fingerprints_;  // index == FileSetId.value
  std::vector<core::LocateResult> located_;  // locate_many output
};

}  // namespace anufs::policy
