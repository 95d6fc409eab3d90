// The delegate's re-scaling rule, including the paper's three
// over-tuning heuristics (Section 6):
//
//  * THRESHOLDING  - leave servers alone while their latency lies within
//                    [A(1-t), A(1+t)] around the system average A;
//  * TOP-OFF       - never grow a region explicitly: only shrink
//                    overloaded servers, and let everyone else gain
//                    implicitly through half-occupancy renormalization;
//  * DIVERGENT     - only scale a server whose latency is above average
//                    and rising, or below average and falling, so queued
//                    "memento" work from the previous configuration is
//                    not corrected twice.
//
// The tuner is stateless except for the previous-interval latencies that
// divergent tuning needs; reset_history() models a delegate failover,
// after which divergent gating is skipped for one round (exactly the
// paper's degraded mode).
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "core/region_map.h"

namespace anufs::core {

enum class AverageKind {
  kWeightedMean,  ///< request-count-weighted mean of server latencies
  kMedian,        ///< median of server latencies (robustness experiment)
};

struct TunerConfig {
  bool thresholding = true;
  bool top_off = true;
  bool divergent = true;
  /// Threshold width t: tolerate latencies in [A(1-t), A(1+t)]. The
  /// paper uses "fairly large values"; 0.5 is our default.
  double threshold = 0.5;
  /// Self-managing threshold ("the proper choice of t depends on
  /// workload heterogeneity, on the number of file sets..." — §6; our
  /// Table G shows it also grows with the server count). When enabled,
  /// each round t is set to the `auto_quantile` quantile of the
  /// servers' relative deviations |latency - A| / A, clamped to
  /// [auto_min, auto_max]: the band tolerates all but the most extreme
  /// deviations, so only genuine outliers get tuned at any cluster
  /// size. The quantile must sit high (default 0.95) — a lower one
  /// guarantees a fixed fraction of servers is ALWAYS outside the band
  /// and the system never quiesces (measured in bench/tabg).
  bool auto_threshold = false;
  double auto_quantile = 0.95;
  double auto_min = 0.25;
  double auto_max = 2.0;
  /// Per-round multiplicative clamp on region scale factors. Bounds how
  /// aggressively one round can move load (and caps the growth of idle
  /// servers whose raw ratio A/0 would be infinite).
  double max_scale = 2.0;
  AverageKind average = AverageKind::kWeightedMean;
  /// Region floor: shares never drop below this, so multiplicative decay
  /// cannot strand a server at an exactly-zero region it could never
  /// regrow from. ~6e-8 of the unit interval.
  Measure min_share = Measure{1} << 40;
};

/// One server's interval measurement, as reported to the delegate.
struct ServerReport {
  ServerId id;
  double mean_latency = 0.0;    ///< seconds; 0 when idle
  std::uint64_t requests = 0;   ///< completions in the interval
};

/// The delegate's output: a complete new share assignment.
struct TuneDecision {
  double system_average = 0.0;  ///< the A used this round
  bool acted = false;           ///< false when nothing was scaled
  std::vector<std::pair<ServerId, Measure>> targets;  ///< sums to 1/2
  std::vector<ServerId> explicitly_scaled;            ///< factor != 1
};

/// Previous-interval latency per server: the one piece of state
/// divergent gating carries from round to round, in both the central
/// and the pair-wise tuner. ServerIds are dense by contract
/// (common/ids.h), so the table is indexed by id and grows on the first
/// record of a higher one.
class LatencyHistory {
 public:
  /// Remembered latency of `id`, or nullptr when unknown.
  [[nodiscard]] const double* find(ServerId id) const {
    return id.value < slots_.size() && slots_[id.value].known
               ? &slots_[id.value].latency
               : nullptr;
  }

  /// Remember `latency` for `id`, replacing any earlier value (so the
  /// last of several reports for one id wins).
  void record(ServerId id, double latency);

  /// Drop `id`'s entry; an unknown id is ignored.
  void forget(ServerId id) {
    if (id.value < slots_.size()) slots_[id.value].known = false;
  }

  void clear() { slots_.clear(); }

 private:
  struct Slot {
    double latency = 0.0;
    bool known = false;
  };
  std::vector<Slot> slots_;
};

class LatencyTuner {
 public:
  explicit LatencyTuner(TunerConfig config);

  /// Compute new shares from this interval's reports and the current
  /// region map. Reports must cover exactly the registered servers.
  [[nodiscard]] TuneDecision retune(const std::vector<ServerReport>& reports,
                                    const RegionMap& regions);

  /// Delegate failover: previous-interval latencies are delegate-local
  /// state and are lost; divergent gating degrades gracefully.
  void reset_history() { history_.clear(); }

  [[nodiscard]] const TunerConfig& config() const noexcept { return config_; }

  /// The average the tuner would use for a report set (exposed for the
  /// mean-vs-median robustness experiment and tests).
  [[nodiscard]] static double system_average(
      const std::vector<ServerReport>& reports, AverageKind kind);

  /// The threshold used by the most recent retune (== config.threshold
  /// unless auto_threshold chose one).
  [[nodiscard]] double last_threshold() const noexcept {
    return last_threshold_;
  }

 private:
  /// The t to use this round (auto or configured).
  [[nodiscard]] double choose_threshold(
      const std::vector<ServerReport>& reports, double average) const;

  TunerConfig config_;
  LatencyHistory history_;
  double last_threshold_ = 0.0;
};

}  // namespace anufs::core
