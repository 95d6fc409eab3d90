// Join-idle-queue-style placement (Gardner et al., "Scalable Load
// Balancing in the Presence of Heterogeneous Servers"; Lu et al.'s
// original JIQ).
//
// JIQ decouples discovery from dispatch: servers announce themselves
// idle, and the dispatcher sends work to an announced-idle server with
// no probing at all, falling back to randomized dispatch only when the
// idle list is empty. Here the announcement rides the existing
// core::ServerReport path — a server is idle this round when it
// completed nothing, or when its reported latency sits below
// idle_factor x the round's request-weighted average (the "below
// threshold" form that makes JIQ work under heterogeneity: a fast
// server that is merely under-utilized is as good as an idle one).
//
// Placement decision:
//   idle list non-empty -> take the BEST idle server (lowest latency
//     EWMA, ties to lowest id — the heterogeneity-aware refinement:
//     among idle servers, prefer the fast one) and retire it from the
//     list (one placement per announcement, as in JIQ);
//   idle list empty -> power-of-d fallback over all alive servers
//     (shared DChoiceTable kernel, see pow_d.h).
//
// Like pow-d it is adaptive without administrator capacity knowledge,
// re-homes exactly a victim's sets on failure, and draws all
// randomness from seeded sim/random substreams (lint rule D1).
#pragma once

#include <cstdint>

#include "policies/pow_d.h"

namespace anufs::policy {

struct JiqConfig {
  /// Fallback probe width when no server is idle (see PowDConfig::d).
  std::uint32_t d = 2;
  std::uint64_t seed = 1;
  /// "Idle" when reported latency < idle_factor x round average (or the
  /// server completed nothing this round).
  double idle_factor = 0.5;
  /// Overload shedding, as in pow-d.
  double overload_factor = 1.5;
  double shed_fraction = 0.25;
};

class JoinIdleQueuePolicy final : public AssignmentPolicyBase {
 public:
  explicit JoinIdleQueuePolicy(JiqConfig config = {});

  [[nodiscard]] std::string name() const override { return "jiq"; }

  void initialize(const std::vector<workload::FileSetSpec>& file_sets,
                  const std::vector<ServerId>& servers) override;

  std::vector<Move> rebalance(
      sim::SimTime now,
      const std::vector<core::ServerReport>& reports) override;

  std::vector<Move> on_server_failed(ServerId id) override;
  std::vector<Move> on_server_added(ServerId id) override;

  /// The currently-announced idle servers, in id order (for tests).
  [[nodiscard]] const std::vector<ServerId>& idle_servers() const noexcept {
    return idle_;
  }

 private:
  /// One placement decision: best announced-idle server, else pow-d.
  [[nodiscard]] ServerId take_target(sim::Xoshiro256& rng);
  /// take_target(), credited to the winner.
  [[nodiscard]] ServerId place(sim::Xoshiro256& rng);
  void drop_idle(ServerId id);

  JiqConfig config_;
  DChoiceTable table_;
  std::vector<ServerId> idle_;  // sorted; rebuilt from each report round
  std::uint64_t draws_ = 0;
};

}  // namespace anufs::policy
