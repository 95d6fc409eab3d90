// The composed shared-disk metadata-cluster simulation: heterogeneous
// servers, a replayable workload, a pluggable placement policy, the
// file-set movement cost model, periodic latency-driven reconfiguration,
// and membership (failure/recovery/commission) injection.
//
// This is the experimental apparatus of Section 7 of the paper: every
// figure is produced by running this simulator with a different policy
// or workload.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "cluster/movement.h"
#include "cluster/san.h"
#include "cluster/server_node.h"
#include "core/collection.h"
#include "common/ids.h"
#include "metrics/series.h"
#include "policies/policy.h"
#include "sim/random.h"
#include "sim/scheduler.h"
#include "workload/spec.h"

namespace anufs::cluster {

class FsmetaBacking;

/// Client-side routing staleness model. After a reconfiguration the new
/// server-to-interval mapping takes time to reach every client; until
/// then, requests for moved file sets land on the PREVIOUS owner, which
/// re-hashes the unique name and forwards ("when a server sees an
/// unknown unique name, it hashes it and routes the request to the
/// appropriate server", paper §5).
struct RoutingConfig {
  /// How long a new mapping takes to reach clients; 0 (the default)
  /// turns the staleness model off.
  double distribution_delay = 0.0;
  /// Unit-speed CPU the wrong server spends re-hashing + forwarding.
  double forward_demand = 0.002;
  /// Network hop to the correct server.
  double forward_hop = 0.002;
};

/// Heartbeat failure detection. With the detector enabled, a crash is
/// NOT instantly known: requests routed to the dead server during the
/// detection window are lost (client timeouts), and only after
/// `timeout` seconds of silence does the cluster declare the failure
/// and re-home the victim's file sets — the "self-organizing" mode of
/// the paper's §1 ("placing, moving, and balancing workload without
/// human intervention").
struct FailureDetectorConfig {
  bool enabled = false;
  double sweep_interval = 5.0;  ///< how often silence is checked
  double timeout = 15.0;        ///< silence before declaring failure
};

/// Report collection, one path for every round. Each latency report
/// reaches the delegate with probability 1 - report_loss (0: all do);
/// the delegate tunes with what arrived and declares a member failed
/// after `collection.miss_threshold` consecutive silent rounds. A false
/// positive FENCES a live server: its queue is discarded.
struct NetConfig {
  double report_loss = 0.0;
  core::CollectionConfig collection;
};

struct ClusterConfig {
  /// Initial servers: speeds[i] is the relative power of ServerId{i}.
  /// The paper's cluster is {1, 3, 5, 7, 9}.
  std::vector<double> server_speeds{1, 3, 5, 7, 9};
  /// Reconfiguration (latency collection) period; 120 s in the paper.
  double reconfig_period = 120.0;
  MovementConfig movement;
  /// Optional client/SAN data-path model (off by default: the paper's
  /// latency figures measure the metadata path only).
  SanConfig san;
  /// Optional routing-staleness/forwarding model (off by default).
  RoutingConfig routing;
  /// Optional heartbeat failure detector (off: failures are declared
  /// instantly, as in schedule_failure).
  FailureDetectorConfig detector;
  /// Report-message loss model (report_loss == 0: lossless).
  NetConfig net;
  /// Record every request latency for whole-run percentile analysis
  /// (RunResult::latency_samples). Off by default: memory-proportional
  /// to the request count.
  bool record_latency_samples = false;
  std::uint64_t seed = 42;
};

/// One crash-induced re-homing episode: from the instant the failure
/// was DECLARED (detector timeout or instant declaration) to the moment
/// the last displaced file set became available at its new owner.
struct RecoveryEpisode {
  double declared_at = 0.0;   ///< when the membership change was applied
  double completed_at = 0.0;  ///< when the last moved set became servable
  std::uint64_t moves = 0;    ///< file sets re-homed by this episode
  [[nodiscard]] double span() const noexcept {
    return completed_at - declared_at;
  }
};

struct RunResult {
  /// Per-server mean latency (milliseconds) sampled once per period —
  /// the series plotted in Figures 6-11. Labels: "server0", "server1"...
  metrics::SeriesBundle latency_ms;
  std::uint64_t total_requests = 0;
  std::uint64_t completed = 0;
  std::uint64_t lost = 0;   ///< dropped by server crashes
  std::uint64_t moves = 0;  ///< file-set relocations over the run
  std::uint64_t forwarded = 0;  ///< stale-routed requests (RoutingConfig)
  std::uint64_t reports_lost = 0;  ///< dropped report messages (NetConfig)
  std::uint64_t fenced = 0;  ///< live servers expelled by missed reports
  /// (time, moves) at each reconfiguration/membership event.
  std::vector<std::pair<double, std::uint64_t>> moves_timeline;
  /// Moves forced by declared failures (subset of `moves`).
  std::uint64_t crash_moves = 0;
  /// Failed file-set transfer attempts injected by a MoveFaultSpec.
  std::uint64_t move_failures = 0;
  /// One entry per declared failure that displaced at least one file
  /// set — the raw material of the recovery-time experiment (Table K).
  std::vector<RecoveryEpisode> recoveries;
  /// End-of-run conservation ledger. Together with completed and lost:
  ///   total_requests == completed + lost + queued_at_end + held_at_end
  ///                     + in_transit_at_end
  /// — the "no request is silently dropped" property the fault tests
  /// assert for every random plan.
  std::uint64_t queued_at_end = 0;      ///< in a live server's queue
  std::uint64_t held_at_end = 0;        ///< awaiting a file set in motion
  std::uint64_t in_transit_at_end = 0;  ///< forwarding hop never landed
  /// Completed-request mean latency over the whole run, seconds.
  double mean_latency = 0.0;
  /// Whole-run per-server stats, keyed by ServerId value.
  std::map<std::uint32_t, std::uint64_t> server_completed;
  std::map<std::uint32_t, double> server_busy;
  /// Per-server request latencies (seconds), populated only when
  /// ClusterConfig::record_latency_samples is set.
  std::map<std::uint32_t, std::vector<double>> latency_samples;
  /// SAN model outputs (zero unless ClusterConfig::san.enabled).
  double san_busy = 0.0;         ///< seconds with >=1 transfer in flight
  double san_wasted_idle = 0.0;  ///< idle-while-clients-blocked seconds
  double san_mean_end_to_end = 0.0;  ///< metadata + transfer, seconds
  /// Event-engine counters for the run (throughput reporting).
  sim::Scheduler::Stats engine;
};

class ClusterSim {
 public:
  /// Why a batch of file-set relocations happened — recorded on the
  /// trace (`move` category) and deciding crash-episode accounting.
  enum class MoveReason {
    kRebalance,   ///< delegate round scaled regions (overload correction)
    kRecovery,    ///< declared failure displaced the victim's sets
    kMembership,  ///< re-commission/addition re-hashed sets to the newcomer
  };

  /// The policy is borrowed and must outlive the simulation.
  ClusterSim(ClusterConfig config, const workload::Workload& workload,
             policy::PlacementPolicy& policy);

  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  /// Inject a crash of an initial (or added) server at time t. With the
  /// failure detector disabled the membership change is declared
  /// immediately; with it enabled, the crash is silent until the
  /// detector's timeout elapses. A server already down at t (fenced for
  /// lost reports) is left as it is.
  void schedule_failure(sim::SimTime t, ServerId id);

  /// Re-commission a previously crashed server at time t.
  void schedule_recovery(sim::SimTime t, ServerId id);

  /// Commission a brand-new server (fresh id) with the given speed.
  void schedule_addition(sim::SimTime t, ServerId id, double speed);

  // ---- fault-injection hooks (driven by fault::install_fault_plan) ----
  // All four are plain state changes on the simulator; the fault layer
  // schedules them through scheduler() so they interleave with regular
  // events deterministically.

  /// Scale a server's commissioned speed ("limping"); 1.0 restores it.
  void set_speed_factor(ServerId id, double factor) {
    node(id).set_speed_factor(factor);
  }

  /// Stretch SAN transfers started from now on; 1.0 restores.
  void set_san_slowdown(double factor) { san_.set_slowdown(factor); }

  /// Enter/leave a flaky file-set-transfer window (see MoveFaultSpec).
  void set_move_fault(const MoveFaultSpec& spec) {
    movement_.set_fault(spec);
  }
  void clear_move_fault() { movement_.clear_fault(); }

  /// Executing-server mode: attach a backing BEFORE run(). Request
  /// demands then come from executing each request's typed operation,
  /// and move costs from the backing's real flush/recovery work. The
  /// backing must outlive the simulation.
  void attach_backing(FsmetaBacking& backing) {
    ANUFS_EXPECTS(!ran_ && backing_ == nullptr);
    backing_ = &backing;
  }

  /// Run to the workload's duration and collect results. Call once.
  RunResult run();

  /// Scheduler access for tests that interleave custom events.
  [[nodiscard]] sim::Scheduler& scheduler() noexcept { return sched_; }

 private:
  struct HeldRequest {
    sim::SimTime time;
    double demand;
    std::size_t op_index;  // aligned with the workload (backing mode)
  };
  // Client routing for a recently moved set: until `until`, requests
  // still go to `previous` (RoutingConfig).
  struct StaleRoute {
    ServerId previous;
    sim::SimTime until = 0.0;
  };

  void arrive(std::size_t index);
  /// Deliver to the correct owner, holding while the set is in transit.
  void deliver(FileSetId fs, double demand, sim::SimTime original_arrival,
               std::size_t op_index);
  void route(FileSetId fs, double demand, sim::SimTime original_arrival,
             std::size_t op_index);
  void reconfigure();
  void apply_moves(const std::vector<policy::Move>& moves,
                   MoveReason reason);
  void drain_held(FileSetId fs);
  [[nodiscard]] ServerNode& node(ServerId id);
  void install_node(ServerId id, double speed);
  /// Admit a (re)joining server; silence from before it left is forgotten.
  void join(ServerId id);
  /// Take a live server down: its queued requests are lost (and their
  /// clients unblocked on the SAN), and in executing-server mode every
  /// file set it owned loses its journal tail. Membership is untouched.
  /// Returns the requests lost.
  std::size_t crash_node(ServerId id);
  using Undetected = std::map<ServerId, sim::SimTime>;
  /// Declare a silent crash found by the detector sweep or by the
  /// delegate's missing report: re-home the victim's file sets and stop
  /// tracking it. Returns the entry after the erased one.
  Undetected::iterator declare_failure(Undetected::iterator it);
  void detector_sweep();

  ClusterConfig config_;
  const workload::Workload& workload_;
  policy::PlacementPolicy& policy_;
  sim::Scheduler sched_;
  MovementModel movement_;
  SanModel san_;
  sim::Xoshiro256 san_rng_;
  // Dense by ServerId.value (ids are commissioned densely): request
  // routing resolves the owner's node with one indexed load instead of
  // an ordered-map walk. Index order == id order, so iteration remains
  // deterministic; a null slot is an id never commissioned.
  std::vector<std::unique_ptr<ServerNode>> nodes_;
  // Per-file-set state, dense by FileSetId.value like the policies'
  // owner table (the constructor checks that workload ids are dense):
  // every request reads these with one indexed load, no hashing.
  //
  // Movement in progress: when the set's latest move lands. Any time at
  // or before now (0.0 initially) means the set is available.
  std::vector<sim::SimTime> unavailable_until_;
  // Requests held while the set is in transit, replayed by drain_held.
  std::vector<std::vector<HeldRequest>> held_;
  // Requests currently held across all file sets, maintained
  // incrementally (deliver/drain_held) so the end-of-run conservation
  // ledger is one read, not a walk over every set's queue.
  std::size_t held_count_ = 0;
  // Routing staleness per set; allocated only when
  // RoutingConfig::distribution_delay > 0 (empty otherwise).
  std::vector<StaleRoute> stale_;
  // Failure detection: crash time of silently-dead servers, pending
  // declaration by the detector sweep or the next reconfiguration.
  Undetected undetected_;
  FsmetaBacking* backing_ = nullptr;
  core::ReportCollector collector_;
  sim::Xoshiro256 net_rng_;
  RunResult result_;
  // Requests currently between servers (forward hop in flight): part of
  // the conservation ledger surfaced as RunResult::in_transit_at_end.
  std::uint64_t in_transit_ = 0;
  // Index of the request the armed arrival stream delivers next.
  std::size_t next_arrival_ = 0;
  bool ran_ = false;
};

}  // namespace anufs::cluster
