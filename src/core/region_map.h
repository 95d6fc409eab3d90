// Server mapped-region allocator over the partitioned unit interval.
//
// This is the SIEVE-style bookkeeping at the heart of ANU randomization
// (Brinkmann et al. 2002, as adapted by Wu & Burns). Representation:
//
//  * each partition is owned by AT MOST ONE server, as a prefix
//    [start, start + fill) of the partition (fill in (0, size]);
//  * a server owns any number of FULL partitions plus at most one
//    PARTIAL partition ("a server completely occupies all but one
//    sub-region, which may be partially occupied");
//  * the total measure of all regions is exactly half the unit interval
//    (the half-occupancy invariant), in exact fixed-point arithmetic.
//
// One-owner-per-partition is how the paper's figures draw the interval
// (each shaded sub-region belongs to a single server) and, combined with
// P >= 2(n+1), it guarantees constructively that (a) a wholly free
// partition always exists for a recovering server and (b) any
// shrink-first/grow-second reshaping succeeds without relocating any
// occupied segment — which is what gives ANU its minimal-movement and
// cache-preservation properties.
//
// Control-plane scalability (the O(changed) contract): every internal
// lookup is O(1) or O(log64 P) — servers live in a table indexed by id
// (common/ids.h), free partitions in a hierarchical bitmap
// (core::PartitionIndex), and a server's full partitions in a sorted
// flat vector (average occupancy P/2n < 2 partitions per server). A
// mutation therefore costs only the partitions it actually touches,
// never a walk of the whole map, and rebalance_to() skips servers whose
// target equals their share without touching them at all. A consumer
// that memoizes derived state (the placement cache) tracks change at
// two granularities: the global generation (any mutation) and
// per-partition stamps (exactly which sub-regions moved), so its
// invalidation is scoped to what changed.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/attributes.h"
#include "common/ids.h"
#include "core/partition_index.h"
#include "core/partition_space.h"
#include "hash/unit_interval.h"

namespace anufs::core {

/// One contiguous piece of a server's mapped region, for introspection.
struct Segment {
  Pos begin = 0;
  Pos end = 0;  // exclusive; end - begin == measure (end may be 0 == 2^64
                // only for a segment reaching the top, which cannot occur
                // because a prefix of the last partition never reaches 2^64
                // unless the partition is full; we store end-exclusive as
                // begin + fill which never wraps for fill <= size and
                // begin + size <= 2^64 - handled via unsigned wrap at top).
  [[nodiscard]] Measure measure() const noexcept { return end - begin; }
};

/// The full placement state every server needs (the paper's only
/// replicated state; serving ships it in-process as immutable snapshots):
/// O(n) in the number of servers, independent of the number of file sets.
class RegionMap {
 public:
  /// Starts with `n_partitions` (power of two >= 4) and no servers.
  explicit RegionMap(std::uint32_t n_partitions);

  /// Convenience: sized for `n_servers` per the paper's bound.
  [[nodiscard]] static RegionMap for_servers(std::uint32_t n_servers) {
    return RegionMap(PartitionSpace::required_partitions(n_servers));
  }

  // ---- membership -------------------------------------------------------

  /// Register a server with an empty region. Fails if already present.
  void add_server(ServerId id);

  /// Release every partition the server owns and deregister it. The
  /// freed measure becomes unmapped space (callers restore
  /// half-occupancy by growing survivors; see rebalance_to).
  void remove_server(ServerId id);

  [[nodiscard]] bool has_server(ServerId id) const noexcept {
    return id.value < servers_.size() && servers_[id.value].registered;
  }

  [[nodiscard]] std::vector<ServerId> server_ids() const;

  /// Registered servers in id order, without allocating: the snapshot is
  /// maintained eagerly across membership changes (shaping leaves it
  /// untouched), so request-time fallback routing never materializes a
  /// fresh vector. Invalidated by the next mutation — do not hold the
  /// reference across one.
  [[nodiscard]] const std::vector<ServerId>& server_ids_view() const noexcept {
    return alive_ids_;
  }

  [[nodiscard]] std::uint32_t server_count() const noexcept {
    return static_cast<std::uint32_t>(alive_ids_.size());
  }

  /// Monotone mutation counter: bumps on every state-changing operation
  /// (add/remove/resize/rebalance/repartition). Consumers that memoize
  /// placement lookups (core::PlacementCache) stamp entries with this
  /// value; per-partition stamps below let them re-validate instead of
  /// discarding when the mutation did not touch their probe chain.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

  /// Generation of the last change to the (owner, fill) state of the
  /// partition containing position x. An entry derived at generation G
  /// from partitions whose stamps are all <= G is still exact, no
  /// matter how many times the rest of the map moved since.
  [[nodiscard]] ANUFS_HOT std::uint64_t stamp_at(Pos x) const noexcept {
    return part_stamps_[space_.partition_of(x)];
  }

  /// Generation of the last membership change (add/remove). Anything
  /// derived from the alive-server list (the locate() fallback path)
  /// is exact iff its stamp is >= this.
  [[nodiscard]] std::uint64_t membership_stamp() const noexcept {
    return membership_stamp_;
  }

  // ---- shaping ----------------------------------------------------------

  /// Grow or shrink one server's region to exactly `target` measure.
  /// Growth claims only the server's own partial headroom and wholly
  /// free partitions; shrinking releases a suffix of its region. Either
  /// direction relocates nothing that remains mapped.
  void resize(ServerId id, Measure target);

  /// Atomically reshape every listed server to the given targets
  /// (servers not listed keep their share). Shrinks are applied before
  /// grows, which guarantees success whenever the targets sum to
  /// <= kHalfInterval and the partition bound P >= 2(n+1) holds.
  /// Servers whose target equals their current share are not touched.
  /// Returns how many servers actually changed shape — the control
  /// plane's per-round "touched" count.
  std::uint32_t rebalance_to(
      const std::vector<std::pair<ServerId, Measure>>& targets);

  /// Double the partition count. Preserves every boundary; no load moves
  /// (and no placement answer changes: child partitions inherit their
  /// parent's stamp, so scoped caches stay valid across it).
  void repartition_double();

  // ---- queries ----------------------------------------------------------

  /// Owner of position x, or nullopt when x lies in unmapped space.
  [[nodiscard]] ANUFS_HOT std::optional<ServerId> owner_at(Pos x) const;

  /// Structure-of-arrays view of the per-partition owner table, for
  /// batched probes (PlacementMap::locate_many). The owner and fill
  /// columns live in separate dense arrays indexed by partition, so a
  /// probe round over many positions streams two flat arrays (8 fills
  /// or 16 owners per cache line) instead of striding an
  /// array-of-structs, and the `fills` compare needs no branch: a free
  /// partition stores fill 0, which no offset is ever below. The view
  /// aliases live map storage — it is invalidated by the next mutation,
  /// exactly like server_ids_view(); hoist it once per batch, never
  /// across one.
  struct OwnerTable {
    const ServerId* owners = nullptr;  ///< kInvalidServer when free
    const Measure* fills = nullptr;    ///< 0 when free
    std::uint32_t shift = 0;           ///< 64 - log2 P: partition_of(x)
    Measure offset_mask = 0;           ///< partition_size - 1

    /// One probe: true iff x lies in a mapped prefix. `owner_out` is
    /// written unconditionally (kInvalidServer on a miss) so the caller
    /// can run lanes branch-free and only publish on a hit.
    [[nodiscard]] ANUFS_HOT bool probe(Pos x,
                                       ServerId& owner_out) const noexcept {
      const auto p = static_cast<std::size_t>(x >> shift);
      owner_out = owners[p];
      return (x & offset_mask) < fills[p];
    }

    /// Hint both columns of x's partition toward the caller's cache
    /// before a batched round resolves its lanes.
    ANUFS_HOT void prefetch(Pos x) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
      const auto p = static_cast<std::size_t>(x >> shift);
      __builtin_prefetch(&fills[p], /*rw=*/0, /*locality=*/1);
      __builtin_prefetch(&owners[p], /*rw=*/0, /*locality=*/1);
#endif
    }
  };

  [[nodiscard]] ANUFS_HOT OwnerTable owner_table() const noexcept {
    return OwnerTable{part_owners_.data(), part_fills_.data(),
                      64u - space_.log2_count(),
                      space_.partition_size() - 1};
  }

  /// Current measure of a server's mapped region. O(1).
  [[nodiscard]] Measure share(ServerId id) const;

  /// Sum of all shares.
  [[nodiscard]] Measure total_share() const noexcept { return total_; }

  [[nodiscard]] const PartitionSpace& space() const noexcept { return space_; }

  /// Partitions owned by nobody.
  [[nodiscard]] std::uint32_t free_partition_count() const noexcept {
    return static_cast<std::uint32_t>(free_.size());
  }

  /// The server's region as maximal disjoint segments, sorted by begin.
  [[nodiscard]] std::vector<Segment> segments(ServerId id) const;

  /// Abort if any structural invariant is violated (used by tests and
  /// after every mutating operation in debug-heavy paths).
  void check_invariants() const;

  // ---- mutation notification (serving mode; see src/serve) ---------------

  /// Install a post-mutation publication hook, fired exactly once at the
  /// tail of every public mutator (add_server / remove_server / resize /
  /// rebalance_to / repartition_double) after all stamps are advanced and
  /// audits have run — i.e. at the first point where the map is a valid,
  /// fully-stamped configuration an observer may copy. The serving
  /// writer uses it to mark the live map dirty so a snapshot is
  /// published before the next reader-visible instant; rule G1
  /// (tools/anufs_lint.py) is the static guard that the hook sites and
  /// the stamp sites are the same set — a mutator that forgot to stamp
  /// (and so could also skip publication-by-generation-compare) cannot
  /// land. The hook must not re-enter the map. It is deliberately
  /// dropped from snapshot copies by the publisher, so an immutable
  /// snapshot can never fire it.
  // anufs-lint: safe(G1) installs the observer; mutates no mapped state,
  // so there is no stamp to advance.
  void set_mutation_hook(std::function<void()> hook) {
    mutation_hook_ = std::move(hook);
  }

  // ---- record view (the invariant auditor's input) ----------------------

  /// One occupied partition's state.
  struct PartitionRecord {
    std::uint32_t index = 0;
    ServerId owner;
    Measure fill = 0;
  };

  /// Dump every occupied partition, index-ordered: at most
  /// space().count() records, so O(servers), never O(file sets) (§5).
  [[nodiscard]] std::vector<PartitionRecord> dump() const;

 private:
  struct ServerRegions {
    std::vector<std::uint32_t> full;       // fully-owned partitions, sorted
    std::optional<std::uint32_t> partial;  // at most one
    Measure share = 0;
    bool registered = false;
  };

  [[nodiscard]] Measure part_size() const noexcept {
    return space_.partition_size();
  }

  /// resize() without the post-mutation audit hook: the batch body of
  /// rebalance_to(), which audits once after the whole batch instead of
  /// after each member (n audits per rebalance is the difference
  /// between O(touched) and O(touched * audit) control-plane rounds).
  void resize_step(ServerId id, Measure target);

  [[nodiscard]] ServerRegions& regions_of(ServerId id);
  [[nodiscard]] const ServerRegions& regions_of(ServerId id) const;

  /// Record that partition p's (owner, fill) state changed in the
  /// mutation currently stamping `generation_`.
  void touch(std::uint32_t p) { part_stamps_[p] = generation_; }

  /// Fire the publication hook (tail of every public mutator).
  // anufs-lint: safe(G1) notification fan-out: runs strictly after the
  // caller advanced its stamps; mutates no mapped state itself.
  void notify_mutation() {
    if (mutation_hook_) mutation_hook_();
  }

  void grow(ServerId id, ServerRegions& sr, Measure delta);
  void shrink(ServerRegions& sr, Measure delta);
  // Claim the lowest-numbered free partition for `id` with `fill` measure.
  void claim_free(ServerId id, ServerRegions& sr, Measure fill);
  void release_partition(std::uint32_t p);

  PartitionSpace space_;
  // Per-partition owner and prefix fill in structure-of-arrays form
  // (parallel vectors indexed by partition): owner_table() hands the
  // batched probe path raw pointers into exactly this storage, so the
  // SoA layout IS the probe layout — there is no derived copy to keep
  // coherent. fill == 0 <=> unowned (owner kInvalidServer).
  std::vector<ServerId> part_owners_;
  std::vector<Measure> part_fills_;
  std::vector<std::uint64_t> part_stamps_;  // last-change generation per p
  PartitionIndex free_;                     // unowned partitions
  // Per-server regions indexed by ServerId.value; a removed id's entry
  // is reset and unregistered. alive_ids_ (sorted) provides the
  // deterministic iteration order every walk uses.
  std::vector<ServerRegions> servers_;
  std::vector<ServerId> alive_ids_;  // sorted; mirrors registration set
  Measure total_ = 0;
  // Starts at 1 so generation 0 can serve as an "empty" sentinel in
  // generation-stamped caches.
  std::uint64_t generation_ = 1;
  std::uint64_t membership_stamp_ = 0;
  // Copying a RegionMap copies the hook too (std::function is
  // copyable); the snapshot publisher clears it on its immutable copy
  // (serve/snapshot.cpp) so only the one live map ever fires it.
  std::function<void()> mutation_hook_;
};

}  // namespace anufs::core
