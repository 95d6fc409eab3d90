// Facade over the ANU machinery: placement map + delegate + membership.
//
// This is the public API a file system embeds. It owns the replicated
// state (the region map), answers locate() for request routing, applies
// one delegate round per reconfiguration period, and handles server
// failure/recovery/commission/decommission with the paper's semantics:
// only the affected measure moves, survivors preserve their regions (and
// therefore their caches), and the interval re-partitions itself when
// growth demands it. It memoizes nothing: every locate() is calculated
// from the region map.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/attributes.h"
#include "common/ids.h"
#include "core/delegate.h"
#include "core/pairwise_tuner.h"
#include "core/placement.h"
#include "core/placement_cache.h"
#include "core/tuner.h"

namespace anufs::core {

/// How reconfiguration decisions are computed.
enum class TunerMode {
  kCentralizedDelegate,    ///< the paper's elected-delegate protocol
  kDecentralizedPairwise,  ///< the paper's future-work gossip variant
};

struct AnuConfig {
  PlacementConfig placement;
  TunerConfig tuner;           ///< used in kCentralizedDelegate mode
  PairwiseConfig pairwise;     ///< used in kDecentralizedPairwise mode
  TunerMode mode = TunerMode::kCentralizedDelegate;
};

/// Per-mutation cost accounting for the O(changed) contract: how many
/// servers each applied reconfiguration or membership event actually
/// reshaped (the count RegionMap::rebalance_to reports). A healthy
/// steady state shows most rounds in the 0 bucket — the scalability
/// claim is that control-plane work tracks these counts, not n.
struct ControlPlaneStats {
  std::uint64_t rounds = 0;             ///< reconfigure() calls
  std::uint64_t rounds_acted = 0;       ///< rounds that applied a rebalance
  std::uint64_t membership_events = 0;  ///< fail_server/add_server calls
  std::uint64_t touched_total = 0;      ///< servers reshaped, cumulative
  std::uint32_t last_touched = 0;       ///< servers reshaped by last mutation
  std::uint32_t max_touched = 0;
  /// Log2 buckets of per-mutation touched counts: bucket 0 counts
  /// zero-touch mutations, bucket i counts 2^(i-1) <= touched < 2^i
  /// (the last bucket absorbs everything larger). Harvested into the
  /// metrics registry as a mergeable histogram by driver/run_metrics.
  std::array<std::uint64_t, 16> touched_log2{};
};

class AnuSystem {
 public:
  /// Construct with the initial server set. With no knowledge of
  /// hardware, every server starts with an equal share of the mapped
  /// half ("the initial configuration places the same number of file
  /// sets at each server, minus hashing variance").
  AnuSystem(AnuConfig config, const std::vector<ServerId>& initial);

  // ---- addressing -------------------------------------------------------
  // Request routing is calculated, not memoized: every call walks the
  // probe chain of placement_ ("successive hash probes incur negligible
  // costs", §4). An AnuSystem therefore holds no mutable state behind
  // its const API, and serving readers calculate against snapshots of
  // placement() the same way (see serve::LookupService).

  [[nodiscard]] ANUFS_HOT ServerId locate(std::uint64_t fingerprint) const {
    return placement_.locate(fingerprint).server;
  }
  [[nodiscard]] ANUFS_HOT LocateResult locate_detailed(std::uint64_t fp) const {
    return placement_.locate(fp);
  }

  /// Batched addressing for bulk consumers (recovery re-homing,
  /// commissioning, workload replay): one SoA sweep; out[i] is
  /// bit-identical to locate_detailed(fps[i]).
  ANUFS_HOT void locate_many(std::span<const std::uint64_t> fps,
                             std::span<LocateResult> out) const {
    placement_.locate_many(fps, out);
  }

  /// Always zero; held for benchmark/ until ROADMAP item 1 deletes it.
  [[nodiscard]] PlacementCache::Stats cache_stats() const noexcept {
    return {};
  }

  // ---- reconfiguration --------------------------------------------------

  /// One delegate round: elect, tune, and apply the new mapping.
  /// `reports` must contain exactly one entry per alive server.
  TuneDecision reconfigure(const std::vector<ServerReport>& reports);

  // ---- membership -------------------------------------------------------

  /// Server failure or decommission: its region is released and the
  /// survivors grow proportionally to restore half-occupancy. Only file
  /// sets of the failed server re-home.
  void fail_server(ServerId id);

  /// Server recovery or commission: re-partitions the interval if needed
  /// (doubling P until P >= 2(n+1)), grants the newcomer one partition's
  /// measure from a free partition, and scales everyone else back.
  void add_server(ServerId id);

  // ---- introspection ----------------------------------------------------

  [[nodiscard]] const PlacementMap& placement() const noexcept {
    return placement_;
  }
  [[nodiscard]] PlacementMap& placement() noexcept { return placement_; }
  [[nodiscard]] const RegionMap& regions() const noexcept {
    return placement_.regions();
  }
  [[nodiscard]] std::vector<ServerId> alive() const {
    return placement_.regions().server_ids();
  }
  [[nodiscard]] Delegate& delegate() noexcept { return delegate_; }
  [[nodiscard]] PairwiseTuner& pairwise() noexcept { return pairwise_; }

  /// Monotone configuration version; bumps on every change that can move
  /// load (tuning rounds that acted, failures, additions).
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  [[nodiscard]] const ControlPlaneStats& control_plane_stats() const noexcept {
    return control_stats_;
  }

  void check_invariants() const { placement_.regions().check_invariants(); }

 private:
  /// Proportionally rescale all servers so shares sum to exactly 1/2.
  /// Returns how many servers changed shape.
  std::uint32_t restore_half_occupancy();

  /// Fold one mutation's touched-server count into the stats/histogram.
  void note_touched(std::uint32_t touched);

  AnuConfig config_;
  PlacementMap placement_;
  Delegate delegate_;
  PairwiseTuner pairwise_;
  std::uint64_t version_ = 0;
  ControlPlaneStats control_stats_;
};

}  // namespace anufs::core
