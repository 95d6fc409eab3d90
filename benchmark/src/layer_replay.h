// Single-threaded replay of a control-plane op log through the serving
// layers, timing each layer from outside: the ANU control plane
// (AnuSystem), snapshot publication (SnapshotStore), the epoch pin, the
// per-reader placement cache and the uncached batch locate kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "core/anu_system.h"
#include "serve/lookup_service.h"

namespace anufs::bench {

/// Lookups per batch, batches per op and cache slots of the replay; the
/// serving workloads use the same batch and cache size.
inline constexpr std::uint32_t kReplayBatch = 256;
inline constexpr std::uint32_t kReplayBatchesPerOp = 64;
inline constexpr std::size_t kReplayCacheSlots = 65536;

struct LayerCosts {
  double control_us_per_op = 0.0;
  double publish_us_per_op = 0.0;
  double pin_ns_per_batch = 0.0;
  double cache_ns_per_lookup = 0.0;
  double cache_hit_rate = 0.0;
  double locate_ns_per_lookup = 0.0;
  /// Ops after which the replayed map generation differs from the one
  /// recorded with the op (the replay left the run's configuration path).
  std::size_t generation_mismatches = 0;
  /// Lookups whose cached answer differs from the uncached one.
  std::uint64_t answer_mismatches = 0;
};

/// Replays the first `max_ops` ops of `ops` on a fresh AnuSystem built
/// from `config` and `initial`. After each op it publishes a snapshot and
/// resolves kReplayBatchesPerOp batches of uniform draws from
/// `working_set` both through a PlacementCache and through
/// PlacementMap::locate_many.
[[nodiscard]] LayerCosts replay_layers(
    const core::AnuConfig& config, const std::vector<ServerId>& initial,
    const std::vector<serve::WriterOp>& ops,
    const std::vector<std::uint64_t>& working_set, std::uint64_t seed,
    std::size_t max_ops);

}  // namespace anufs::bench
