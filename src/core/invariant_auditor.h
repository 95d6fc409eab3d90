// Independent auditor for the paper's placement invariants.
//
// RegionMap::check_invariants() verifies the map against its OWN internal
// indexes; a bookkeeping bug that corrupts both the partitions and the
// indexes consistently would pass it. The auditor closes that gap: it
// re-derives every structural claim from the public query surface alone
// (dump(), owner_at(), segments(), share()) and from raw partition
// records, so it would also catch a dump() whose records lie about the
// state the map answers queries from.
//
// Invariants audited (paper Section 4, SIEVE rules):
//   * disjointness  — each partition has at most one owner, no duplicate
//                     records, every owner is a registered server;
//   * one-partial   — a server fully occupies all but at most one of its
//                     partitions, which may be partially occupied;
//   * coverage      — owner_at()/segments()/share() agree with the
//                     record-level state everywhere, including unmapped
//                     space;
//   * half-occupancy— mapped regions sum to exactly 1/2 (system level);
//   * P >= 2(n+1)   — the partition bound that guarantees a free
//                     partition for any recovering server (system level).
//
// Activation: audits run after every RegionMap/AnuSystem mutation in
// debug builds (!NDEBUG); release builds opt in with ANUFS_AUDIT=1 (and
// debug builds may opt out with ANUFS_AUDIT=0). Violations hard-fail via
// the contract machinery — a wrong placement map must never be silent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "core/region_map.h"

namespace anufs::core {

class AnuSystem;

/// Which system-level invariants a record audit should demand. The
/// structural rules (disjointness, one-partial, fill bounds) are always
/// checked; these two only hold for a fully configured AnuSystem.
/// (Namespace-scope rather than nested so it can serve as a default
/// argument inside InvariantAuditor.)
struct AuditExpectations {
  bool half_occupancy = true;   ///< fills sum to exactly kHalfInterval
  bool partition_bound = true;  ///< P >= 2(n+1)
};

class InvariantAuditor {
 public:
  /// Outcome of one audit pass: empty == every invariant held.
  struct Report {
    std::vector<std::string> violations;
    [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
    /// All violations joined into one diagnostic line.
    [[nodiscard]] std::string to_string() const;
  };

  using Expectations = AuditExpectations;

  // ---- pure audits (no live map required) -------------------------------

  /// Audit raw partition records, in the form RegionMap::dump() returns.
  /// `n_partitions` need not be validated by the caller; a bad count is
  /// itself reported. This is the seam tests use to seed violations.
  [[nodiscard]] static Report audit_records(
      std::uint32_t n_partitions, const std::vector<ServerId>& servers,
      const std::vector<RegionMap::PartitionRecord>& records,
      const Expectations& expect = Expectations{});

  // ---- live audits ------------------------------------------------------

  /// Structural audit of a live map via its public queries only. Does not
  /// demand half-occupancy: a RegionMap mid-setup (or mid-rebalance)
  /// legitimately holds less than half the interval.
  [[nodiscard]] static Report audit(const RegionMap& map);

  /// Full system audit: structure + half-occupancy + the partition bound
  /// + the free-partition guarantee those two imply.
  [[nodiscard]] static Report audit(const AnuSystem& system);

  /// Audit and abort with the full report on any violation.
  static void enforce(const RegionMap& map);
  static void enforce(const AnuSystem& system);

  // ---- activation gate --------------------------------------------------

  /// True when post-mutation audit hooks should run. Debug builds default
  /// on, release builds default off; ANUFS_AUDIT=1/0 overrides either.
  [[nodiscard]] static bool enabled() noexcept;

  /// Re-read ANUFS_AUDIT (for tests and CLIs that setenv() after start).
  static void refresh_enabled();

  /// Total audit passes performed process-wide (any overload). Atomic:
  /// concurrent simulation runs audit in parallel.
  [[nodiscard]] static std::uint64_t audits_performed() noexcept;
};

namespace detail {
/// Post-mutation hook used by RegionMap/AnuSystem: no-op unless
/// InvariantAuditor::enabled().
void maybe_audit(const RegionMap& map);
void maybe_audit(const AnuSystem& system);
}  // namespace detail

}  // namespace anufs::core
