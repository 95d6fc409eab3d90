// Dynamic prescient placement: the paper's upper-bound comparator.
//
// "...knows the processing capabilities of each server and the workload
// characteristics of each file set ... identifies the permutation of
// file sets onto servers that minimizes load skew." For trace workloads
// it is DYNAMIC: it "looks forward into the trace, identifying the best
// load balance before the workload occurs and configuring the servers to
// best handle that workload." For stationary workloads it "retains the
// same configuration for the duration of the experiment."
//
// Objective, in two lexicographic passes matching the paper's wording
// ("identifies the permutation of file sets onto servers that minimizes
// LOAD SKEW", evaluated by LATENCY):
//   1. minimize max_j (assigned_demand_j / speed_j)  — load skew;
//   2. holding normalized load within a small factor of that optimum,
//      minimize max_j estimated latency
//         est_j = mean_service_j / (1 - utilization_j).
// Pass 2 is what makes "a single, small file set on the least powerful
// server" the optimal configuration (Figure 9): among equally
// load-balanced permutations, the weak server is best used for CHEAP
// requests.
//
// Engine: LPT seeding (longest-demand-first onto least normalized load)
// followed by a local search over single-set moves and pairwise swaps.
// Exact bin packing is NP-hard; LPT + local search is the standard
// prescient stand-in and reaches the optimum on every small instance we
// can verify exhaustively (see tests/prescient_test.cpp).
#pragma once

#include <cstdint>
#include <map>

#include "policies/policy.h"

namespace anufs::policy {

struct PrescientConfig {
  /// Perfect knowledge of server capability.
  std::map<ServerId, double> speeds;
  /// kStationary: pack once from whole-trace knowledge.
  /// kLookAhead: re-pack each rebalance from the NEXT interval's actual
  /// demand (requires the full workload, i.e. prescience).
  enum class Mode { kStationary, kLookAhead };
  Mode mode = Mode::kLookAhead;
  /// Reconfiguration period; must match the cluster's (look-ahead mode).
  double period = 120.0;
  /// Local-search effort cap per pack (per pass).
  std::uint32_t max_search_rounds = 256;
  /// Pass-2 latitude: how far above the pass-1 optimum the normalized
  /// load may drift while chasing lower latency.
  double load_slack = 1.1;
  /// Churn hysteresis (look-ahead mode): a re-pack is adopted only when
  /// it improves the window objective by at least this factor; moving a
  /// file set costs 5-10 s of unavailability, so marginal repacks lose
  /// more than they gain. 0.6 (a 40% improvement bar) is calibrated so
  /// per-window Poisson noise never triggers a reshuffle but real
  /// workload shifts (multi-x bursts) still do.
  double improvement_factor = 0.6;
};

class PrescientPolicy final : public AssignmentPolicyBase {
 public:
  PrescientPolicy(PrescientConfig config, const workload::Workload& workload);

  [[nodiscard]] std::string name() const override { return "prescient"; }

  void initialize(const std::vector<workload::FileSetSpec>& file_sets,
                  const std::vector<ServerId>& servers) override;

  std::vector<Move> rebalance(
      sim::SimTime now, const std::vector<core::ServerReport>& reports) override;

  std::vector<Move> on_server_failed(ServerId id) override;
  std::vector<Move> on_server_added(ServerId id) override;

 private:
  /// Per-set knowledge for one time window.
  struct WindowLoad {
    std::vector<double> demand;  ///< unit-speed seconds within the window
    std::vector<double> count;   ///< requests within the window
    double seconds = 0.0;        ///< window length
  };

  [[nodiscard]] WindowLoad window_load(double from, double to) const;
  [[nodiscard]] WindowLoad total_load() const;

  /// Per-server score used by the local search; the objective is the
  /// max over servers. `norm_cap` < inf activates the pass-2 scoring
  /// (latency, with an overwhelming penalty above the load cap).
  [[nodiscard]] double server_score(double demand, double count,
                                    double seconds, double speed,
                                    double norm_cap) const;

  /// Per-server (demand, count) totals; every alive server present.
  using ServerLoads = std::map<ServerId, std::pair<double, double>>;
  [[nodiscard]] ServerLoads per_server(const std::vector<ServerId>& assignment,
                                       const WindowLoad& load) const;

  /// The alive server with the least normalized load after taking on
  /// `demand` on top of its `acc` total (ties: lowest id).
  [[nodiscard]] ServerId least_loaded(const std::map<ServerId, double>& acc,
                                      double demand) const;

  /// The search objective of a full assignment (max server score).
  [[nodiscard]] double objective(
      const std::vector<ServerId>& assignment, const WindowLoad& load,
      double norm_cap) const;

  /// LPT seed by normalized load.
  [[nodiscard]] std::vector<ServerId> pack_lpt(
      const WindowLoad& load) const;

  /// One local-search pass (moves + swaps) minimizing max server_score.
  [[nodiscard]] std::vector<ServerId> search_pass(
      std::vector<ServerId> assignment, const WindowLoad& load,
      double norm_cap) const;

  /// Both passes: load skew first, then latency under the load cap.
  [[nodiscard]] std::vector<ServerId> refine(
      std::vector<ServerId> assignment, const WindowLoad& load) const;

  [[nodiscard]] double speed_of(ServerId id) const;

  PrescientConfig config_;
  // Per-set time-sorted (time, prefix-demand) for O(log n) window sums.
  std::vector<std::vector<double>> set_times_;
  std::vector<std::vector<double>> set_prefix_;
  double duration_ = 0.0;
};

}  // namespace anufs::policy
