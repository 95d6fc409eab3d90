// File-set placement: the probe sequence over the unit interval.
//
// locate() hashes a file set's fingerprint with H_0; if the position lies
// in a mapped region, the owning server is the answer. Otherwise it
// re-hashes with H_1, H_2, ... ("re-hashing is performed using the next
// hash function among an agreed upon family"). After max_rounds failures
// (probability 2^-max_rounds under half occupancy) the fingerprint is
// hashed DIRECTLY to a server. Locating a file set does no I/O and needs
// only the replicated region map: this is the paper's scalable addressing
// property.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/attributes.h"
#include "common/check.h"
#include "common/ids.h"
#include "core/region_map.h"
#include "hash/hash_family.h"

namespace anufs::core {

struct PlacementConfig {
  /// Probe rounds before the direct-to-server fallback. At half
  /// occupancy each round misses with probability 1/2, so the fallback
  /// fires with probability 2^-max_rounds (~1.5e-5 at 16) and the mean
  /// probe count is < 2.
  std::uint32_t max_rounds = 16;
  /// Cluster-wide hash-family salt.
  std::uint64_t salt = 0;
};

struct LocateResult {
  ServerId server = kInvalidServer;
  std::uint32_t probes = 0;  ///< hash evaluations performed
  bool fallback = false;     ///< true when the direct hash decided
  hash::Pos position = 0;    ///< the deciding probe position (if !fallback)
};

/// Region map + hash family + probe policy: everything a node needs to
/// route any request. Copyable; the copy is the "replicated state".
class PlacementMap {
 public:
  PlacementMap(PlacementConfig config, std::uint32_t n_partitions)
      : config_(config), family_(config.salt), regions_(n_partitions) {
    ANUFS_EXPECTS(config.max_rounds >= 1);
  }

  [[nodiscard]] static PlacementMap for_servers(PlacementConfig config,
                                                std::uint32_t n_servers) {
    return PlacementMap(config,
                        PartitionSpace::required_partitions(n_servers));
  }

  [[nodiscard]] RegionMap& regions() noexcept { return regions_; }
  [[nodiscard]] const RegionMap& regions() const noexcept { return regions_; }
  [[nodiscard]] const hash::HashFamily& family() const noexcept {
    return family_;
  }
  [[nodiscard]] const PlacementConfig& config() const noexcept {
    return config_;
  }

  /// Resolve a fingerprint to its owning server. Requires at least one
  /// registered server.
  [[nodiscard]] ANUFS_HOT LocateResult locate(std::uint64_t fingerprint) const;

  /// Batched resolve: `out[i]` is bit-identical to `locate(fps[i])` on
  /// all four fields, including probe counts and the sorted-alive-list
  /// fallback. Probing runs round-major over a structure-of-arrays view
  /// of the owner table — every round mixes all unresolved lanes with
  /// one multi-lane finalizer pass and touches contiguous cache lines —
  /// instead of chasing each fingerprint's probe chain to completion.
  /// Requires at least one registered server and out.size() >= fps.size().
  ANUFS_HOT void locate_many(std::span<const std::uint64_t> fps,
                             std::span<LocateResult> out) const;

  [[nodiscard]] ANUFS_HOT ServerId locate_server(
      std::uint64_t fingerprint) const {
    return locate(fingerprint).server;
  }

  /// Lanes per SoA sweep in locate_many: one serving batch (256
  /// lookups) is one sweep, so its vector passes, scalar tail and
  /// answer sweep each run once per batch. Scratch lives on the stack
  /// (~10 KB in the AVX-512 body, ~5 KB in the portable loop), so
  /// larger batches are processed in chunks of this many fingerprints.
  static constexpr std::uint32_t kBatchLanes = 256;

 private:
  /// The single shared probe-round implementation: scalar locate() is a
  /// one-lane chunk, so there is no scalar/batch logic fork to keep in
  /// sync. Preconditions (server_count() > 0) and the fallback-list
  /// lookup are hoisted into the callers; this helper only probes.
  ANUFS_HOT void locate_chunk(const RegionMap::OwnerTable& table,
                              const std::vector<ServerId>& alive,
                              const std::uint64_t* fps, std::uint32_t n,
                              LocateResult* out) const;

  /// AVX-512 body of locate_chunk (8 fingerprints per vector: vpmullq
  /// mixing, gathered owner-table probes, vpcompress lane compaction).
  /// Sweeps a whole chunk at once; the first pass stages its answers by
  /// lane, later passes' winners are placed by lane index, and out[] is
  /// written in one sequential sweep before the scalar tail overwrites
  /// its own survivors. Bit-identical to the scalar rounds; only defined
  /// on x86-64 and only dispatched to after a runtime
  /// __builtin_cpu_supports check.
  ANUFS_HOT void locate_chunk_x8(const RegionMap::OwnerTable& table,
                                 const std::vector<ServerId>& alive,
                                 const std::uint64_t* fps, std::uint32_t n,
                                 LocateResult* out) const;

  /// Direct-to-server fallback after max_rounds failed probes:
  /// deterministic over the caller-provided sorted alive list, so every
  /// node resolves identically without coordination. Fallback results
  /// leave position == 0.
  [[nodiscard]] ANUFS_HOT LocateResult resolve_fallback(
      const std::vector<ServerId>& alive, std::uint64_t fp) const;

  PlacementConfig config_;
  hash::HashFamily family_;
  RegionMap regions_;
};

namespace testing {

/// Test-only: when `on`, every batched locate runs the portable
/// multi-lane loop even on hosts with the AVX-512 kernel, so its
/// properties are tested there too. Results are identical either way.
void force_portable_locate(bool on) noexcept;

}  // namespace testing

}  // namespace anufs::core
