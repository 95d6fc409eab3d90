// Decentralized pair-wise region tuning — the paper's stated future
// work (Section 5): "replacing centralized re-scaling of server mapped
// regions with pair-wise interactions in which servers scale their
// mapped regions in peer-to-peer exchanges."
//
// Each round, alive servers are matched into disjoint pairs by a
// deterministic seeded shuffle (every node can compute the matching
// locally from the round number and membership — no coordinator). Within
// a pair, if the latency gap exceeds the tolerance, the hotter server
// transfers a damped fraction of its region measure to the cooler one.
// Transfers CONSERVE measure pair-locally, so the half-occupancy
// invariant holds globally without any central renormalization step —
// this is precisely what makes the scheme decentralizable.
//
// Compared to the centralized delegate, convergence takes more rounds
// (each round equalizes only along the matching), but no node ever needs
// the full latency vector (see bench/tabe_pairwise_vs_central).
//
// Control-plane cost: a round is inherently O(n) in the matching (every
// alive server participates in the shuffle). The round's reports and
// targets live in tables indexed by id (common/ids.h); remembered
// latencies live in a LatencyHistory, the dense table the central tuner
// uses too.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "core/region_map.h"
#include "core/tuner.h"  // ServerReport, TuneDecision

namespace anufs::core {

struct PairwiseConfig {
  /// Latency-ratio tolerance within a pair: no transfer while
  /// hot <= (1 + tolerance) * cold.
  double tolerance = 1.0;
  /// Clamp on the implied scale factor, as in the centralized tuner.
  double max_scale = 2.0;
  /// Fraction of the computed correction actually applied per exchange;
  /// damping keeps alternating matchings from oscillating.
  double damping = 0.35;
  /// Divergent gating, decentralized edition: a server sheds only while
  /// its OWN latency is not already falling. Each server's previous
  /// latency is local state, so (unlike the delegate's version) this
  /// survives any failure except the server's own.
  bool divergent = true;
  /// Region floor, as in the centralized tuner.
  Measure min_share = Measure{1} << 40;
  /// Matching-shuffle seed (cluster-wide constant).
  std::uint64_t seed = 0x9E3779B97F4A7C15ULL;
};

class PairwiseTuner {
 public:
  explicit PairwiseTuner(PairwiseConfig config);

  /// One gossip round. Reports must cover the registered servers.
  /// Returns a complete target assignment (unpaired/odd servers keep
  /// their share).
  [[nodiscard]] TuneDecision retune(const std::vector<ServerReport>& reports,
                                    const RegionMap& regions);

  [[nodiscard]] const PairwiseConfig& config() const noexcept {
    return config_;
  }

  [[nodiscard]] std::uint64_t rounds() const noexcept { return round_; }

  /// The matching used for a given round and membership (exposed so
  /// tests can verify determinism and disjointness). Pairs are
  /// (ids[2k], ids[2k+1]) of the returned permutation; an odd final
  /// element is unmatched.
  [[nodiscard]] std::vector<ServerId> matching(
      std::uint64_t round, std::vector<ServerId> alive) const;

  /// Forget a departed server's local history (its own crash is the one
  /// event that loses it).
  void forget(ServerId id) { history_.forget(id); }

 private:
  PairwiseConfig config_;
  std::uint64_t round_ = 0;
  // Each server's LOCAL remembered latency, held here in one table: the
  // decentralized analogue of the delegate's history.
  LatencyHistory history_;
};

}  // namespace anufs::core
