// Power-of-d-choices baseline with heterogeneity-aware weighting
// (Mukhopadhyay et al., "Randomized Assignment of Jobs to Servers in
// Heterogeneous Clusters").
//
// Classic power-of-d samples d servers uniformly per decision and joins
// the least-loaded of them — an exponential improvement over one-choice
// randomization at a constant probe cost. In a heterogeneous cluster the
// queue length alone is the wrong signal: a weak server with few file
// sets can still be the slowest choice. Following the heterogeneous-
// cluster analysis we weight every sampled candidate by its REPORTED
// latency — the same per-interval core::ServerReport feed the ANU
// delegate tunes from, so like ANU (and unlike weighted-hash/prescient)
// the policy needs no administrator capacity knowledge. Fast servers
// win ties and attract proportionally more file sets.
//
// Decision rule, per placement decision:
//   sample min(d, alive) distinct servers from sim/random;
//   score(j) = (assigned_sets_j + 1) * latency_ewma_j;
//   take the sampled candidate with minimal score (ties: lowest id).
//
// The policy is adaptive but memoryless about individual file sets:
// each rebalance round sheds a deterministic fraction of every
// overloaded server's sets through fresh d-choice decisions, and a
// failure re-homes exactly the victim's sets the same way (exact
// re-homing — no ripple, unlike ANU's half-occupancy cascades).
//
// Determinism (lint rule D1): every random draw comes from a
// sim::make_stream substream keyed by a per-entry-point counter, and
// all iteration is over sorted or id-indexed flat vectors — replays are
// bit-identical for a given seed, across --jobs counts.
#pragma once

#include <algorithm>
#include <cstdint>

#include "policies/policy.h"
#include "sim/random.h"

namespace anufs::policy {

/// The shared d-choice decision table: each server's file-set count and
/// latency EWMA, indexed by id (common/ids.h), plus the sample-and-argmin
/// kernel. O(1) id lookup, no hash iteration anywhere. Shared by the
/// pow-d and JIQ policies (JIQ uses it as its non-idle fallback); the
/// owning policy's sorted server list is the population choose() samples.
class DChoiceTable {
 public:
  /// Replace the table with `servers`; counts reset to zero, latencies
  /// to "unknown".
  void reset(const std::vector<ServerId>& servers);

  void add(ServerId id);
  void remove(ServerId id);

  /// Adjust a server's assigned-set count (delta may be negative).
  void credit(ServerId id, std::int32_t delta);

  /// Fold one round of latency reports into the EWMA (`smoothing` in
  /// (0,1]; 1 = replace). Zero-request reports carry no latency signal
  /// and leave the server's estimate untouched.
  void observe(const std::vector<core::ServerReport>& reports,
               double smoothing);

  /// Sample min(max(d,1), alive.size()) distinct servers of `alive` (the
  /// table's servers, id-sorted) and return the one with minimal
  /// (sets+1) * latency score; ties break to the lowest id. The clamp
  /// means no d — including d == 0 or d > alive — can index outside the
  /// list. Requires a non-empty list.
  [[nodiscard]] ServerId choose(sim::Xoshiro256& rng, std::uint32_t d,
                                const std::vector<ServerId>& alive) const;

  /// Effective latency used in scores: the EWMA, or the optimistic
  /// floor while the server has never reported (newcomers look fast so
  /// the system explores them; their first report corrects the guess).
  [[nodiscard]] double effective_latency(ServerId id) const;

  [[nodiscard]] std::uint32_t sets_of(ServerId id) const;
  [[nodiscard]] bool contains(ServerId id) const noexcept {
    return id.value < stats_.size() && stats_[id.value].alive;
  }

 private:
  struct Stats {
    double latency = 0.0;    // EWMA seconds; kUnknown until reported
    std::uint32_t sets = 0;  // assigned file sets
    bool alive = false;
  };

  [[nodiscard]] const Stats& stats_of(ServerId id) const;  // aborts if absent

  std::vector<Stats> stats_;  // indexed by ServerId.value
  // Sampling-without-replacement scratch (partial Fisher-Yates);
  // mutable because choose() is logically const.
  mutable std::vector<std::uint32_t> scratch_;
};

/// Request-weighted mean latency of one report round; 0 when no server
/// completed anything (an idle interval carries no signal).
[[nodiscard]] double round_average(
    const std::vector<core::ServerReport>& reports);

/// The overload-shedding round pow-d and JIQ share. Every reporting
/// server whose latency exceeds overload_factor x `average` re-decides
/// max(1, shed_fraction x its set count) of its sets through `pick()` —
/// every ceil(count/shed)-th of them in id order, which keeps the
/// selection deterministic and spread across the id range. A pick that
/// leaves home is credited in `table`. `owners` (the pre-round
/// assignment) is only read; decisions land in the returned table,
/// which is empty when nothing changed.
template <typename Pick>
[[nodiscard]] std::vector<ServerId> shed_overloaded(
    const std::vector<core::ServerReport>& reports, double average,
    double overload_factor, double shed_fraction,
    const std::vector<ServerId>& owners, DChoiceTable& table, Pick&& pick) {
  std::vector<ServerId> next = owners;
  bool changed = false;
  for (const core::ServerReport& r : reports) {
    if (r.requests == 0 || !table.contains(r.id)) continue;
    if (r.mean_latency <= overload_factor * average) continue;
    const std::uint32_t count = table.sets_of(r.id);
    if (count == 0) continue;
    const auto shed = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(static_cast<double>(count) *
                                      shed_fraction));
    const std::uint32_t stride = (count + shed - 1) / shed;
    std::uint32_t seen = 0;
    std::uint32_t moved = 0;
    const auto end = owners.end();
    for (auto it = std::find(owners.begin(), end, r.id); it != end;
         it = std::find(it + 1, end, r.id)) {
      const bool selected = seen % stride == 0 && moved < shed;
      ++seen;
      if (!selected) continue;
      ++moved;
      const ServerId to = pick();
      if (to == r.id) continue;  // the decision kept it home
      next[static_cast<std::size_t>(it - owners.begin())] = to;
      table.credit(r.id, -1);
      table.credit(to, +1);
      changed = true;
    }
  }
  if (!changed) next.clear();
  return next;
}

struct PowDConfig {
  /// Choices per decision. 1 degenerates to simple randomization; the
  /// literature's sweet spot is 2. Values above the alive-server count
  /// clamp to "probe everyone" (deterministic best-of-all).
  std::uint32_t d = 2;
  std::uint64_t seed = 1;
  /// A server sheds load when its reported latency exceeds this factor
  /// of the round's request-weighted average.
  double overload_factor = 1.5;
  /// Fraction of an overloaded server's sets re-decided per round
  /// (at least one). Small values converge gently without thrashing.
  double shed_fraction = 0.25;
};

class PowerOfDChoicesPolicy final : public AssignmentPolicyBase {
 public:
  explicit PowerOfDChoicesPolicy(PowDConfig config = {});

  [[nodiscard]] std::string name() const override { return "pow-d"; }

  void initialize(const std::vector<workload::FileSetSpec>& file_sets,
                  const std::vector<ServerId>& servers) override;

  std::vector<Move> rebalance(
      sim::SimTime now,
      const std::vector<core::ServerReport>& reports) override;

  std::vector<Move> on_server_failed(ServerId id) override;
  std::vector<Move> on_server_added(ServerId id) override;

 private:
  /// One placement decision: a d-choice draw, credited to the winner.
  [[nodiscard]] ServerId place(sim::Xoshiro256& rng);

  PowDConfig config_;
  DChoiceTable table_;
  std::uint64_t draws_ = 0;  // substream counter: one per entry point
};

}  // namespace anufs::policy
