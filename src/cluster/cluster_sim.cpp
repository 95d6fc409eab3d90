#include "cluster/cluster_sim.h"

#include <algorithm>
#include <string>

#include "cluster/fsmeta_backing.h"
#include "obs/trace.h"
#include "sim/distributions.h"

namespace anufs::cluster {

namespace {

std::string server_label(ServerId id) {
  return "server" + std::to_string(id.value);
}

const char* reason_name(ClusterSim::MoveReason reason) {
  switch (reason) {
    case ClusterSim::MoveReason::kRebalance:
      return "rebalance";
    case ClusterSim::MoveReason::kRecovery:
      return "recovery";
    case ClusterSim::MoveReason::kMembership:
      return "membership";
  }
  return "unknown";
}

}  // namespace

ClusterSim::ClusterSim(ClusterConfig config,
                       const workload::Workload& workload,
                       policy::PlacementPolicy& policy)
    : config_(std::move(config)),
      workload_(workload),
      policy_(policy),
      movement_(config_.movement, config_.seed),
      san_(sched_),
      san_rng_(sim::make_stream(config_.seed, "san")),
      collector_(config_.net.collection),
      net_rng_(sim::make_stream(config_.seed, "net")) {
  ANUFS_EXPECTS(!config_.server_speeds.empty());
  ANUFS_EXPECTS(config_.reconfig_period > 0.0);
  const std::size_t sets = workload_.file_sets.size();
  for (std::size_t i = 0; i < sets; ++i) {
    // The per-set tables below are indexed by FileSetId.value.
    ANUFS_EXPECTS(workload_.file_sets[i].id.value == i);
  }
  unavailable_until_.assign(sets, 0.0);
  held_.resize(sets);
  if (config_.routing.distribution_delay > 0.0) stale_.resize(sets);
  std::vector<ServerId> initial;
  for (std::uint32_t i = 0; i < config_.server_speeds.size(); ++i) {
    const ServerId id{i};
    install_node(id, config_.server_speeds[i]);
    initial.push_back(id);
  }
  policy_.initialize(workload_.file_sets, initial);
}

void ClusterSim::install_node(ServerId id, double speed) {
  const std::size_t idx = id.value;
  if (idx >= nodes_.size()) nodes_.resize(idx + 1);
  ANUFS_EXPECTS(nodes_[idx] == nullptr);
  auto node_ptr = std::make_unique<ServerNode>(sched_, id, speed);
  if (config_.record_latency_samples) node_ptr->enable_sample_recording();
  if (config_.san.enabled) {
    node_ptr->set_completion_hook(
        [this](FileSetId, const sim::JobCompletion& c) {
          const double transfer = sim::sample_exponential(
              san_rng_, 1.0 / config_.san.mean_transfer);
          san_.on_metadata_done(c.latency(), transfer);
        });
  }
  nodes_[idx] = std::move(node_ptr);
}

ServerNode& ClusterSim::node(ServerId id) {
  ANUFS_EXPECTS(id.value < nodes_.size() && nodes_[id.value] != nullptr);
  return *nodes_[id.value];
}

std::size_t ClusterSim::crash_node(ServerId id) {
  const std::size_t lost = node(id).crash();
  result_.lost += lost;
  if (config_.san.enabled) {
    for (std::size_t i = 0; i < lost; ++i) san_.on_metadata_lost();
  }
  if (backing_ != nullptr) {
    // Every file set the victim served loses its volatile journal tail
    // at this instant; recovery happens when a new owner acquires it.
    for (const workload::FileSetSpec& fs : workload_.file_sets) {
      if (policy_.owner(fs.id) == id) backing_->on_owner_crashed(fs.id);
    }
  }
  return lost;
}

void ClusterSim::schedule_failure(sim::SimTime t, ServerId id) {
  sched_.schedule_at(t, [this, id] {
    if (!node(id).alive()) {
      // Fencing took the server down first: there is nothing left to
      // crash, and a scheduled recovery brings it back as usual.
      ANUFS_TRACE(obs::Category::kFault, "crash_of_down_server",
                  {"server", id.value});
      return;
    }
    const std::size_t lost = crash_node(id);
    ANUFS_TRACE(obs::Category::kFault, "crash", {"server", id.value},
                {"lost", lost},
                {"silent", config_.detector.enabled ? 1 : 0});
    if (config_.detector.enabled) {
      // Silent crash: the cluster learns of it only through heartbeat
      // silence; meanwhile its file sets are unreachable.
      undetected_.emplace(id, sched_.now());
    } else {
      apply_moves(policy_.on_server_failed(id), MoveReason::kRecovery);
    }
  });
}

ClusterSim::Undetected::iterator ClusterSim::declare_failure(
    Undetected::iterator it) {
  ANUFS_TRACE(obs::Category::kFault, "failure_declared",
              {"server", it->first.value},
              {"silent_for", sched_.now() - it->second});
  apply_moves(policy_.on_server_failed(it->first), MoveReason::kRecovery);
  return undetected_.erase(it);
}

void ClusterSim::detector_sweep() {
  const sim::SimTime now = sched_.now();
  for (auto it = undetected_.begin(); it != undetected_.end();) {
    it = now - it->second >= config_.detector.timeout ? declare_failure(it)
                                                      : std::next(it);
  }
  sched_.schedule_in(config_.detector.sweep_interval,
                     [this] { detector_sweep(); });
}

void ClusterSim::schedule_recovery(sim::SimTime t, ServerId id) {
  sched_.schedule_at(t, [this, id] {
    // A server cannot be re-commissioned before its failure was even
    // declared (it would still be a member).
    ANUFS_EXPECTS(!undetected_.contains(id));
    node(id).recover();
    ANUFS_TRACE(obs::Category::kFault, "recover", {"server", id.value});
    join(id);
  });
}

void ClusterSim::schedule_addition(sim::SimTime t, ServerId id,
                                   double speed) {
  sched_.schedule_at(t, [this, id, speed] {
    install_node(id, speed);
    ANUFS_TRACE(obs::Category::kFault, "add", {"server", id.value},
                {"speed", speed});
    join(id);
  });
}

void ClusterSim::join(ServerId id) {
  collector_.forget(id);
  apply_moves(policy_.on_server_added(id), MoveReason::kMembership);
}

void ClusterSim::arrive(std::size_t index) {
  const workload::RequestEvent& r = workload_.requests[index];
  ANUFS_EXPECTS(r.file_set.value < held_.size());
  // The issuing client blocks on metadata from this instant.
  if (config_.san.enabled) san_.on_metadata_issued();

  // Routing staleness: a client whose mapping predates the last
  // reconfiguration sends to the previous owner, which re-hashes the
  // name and forwards after the forwarding work clears its queue.
  bool forwarded = false;
  // A set never moved, or whose mapping has propagated, is not stale.
  if (!stale_.empty()) {
    const StaleRoute& stale = stale_[r.file_set.value];
    if (sched_.now() < stale.until && node(stale.previous).alive()) {
      ++result_.forwarded;
      forwarded = true;
      // The request is now "between servers": if the forwarder crashes
      // while it queues, or the hop lands past the horizon, the ledger
      // still accounts for it (in_transit_at_end).
      ++in_transit_;
      const FileSetId fs = r.file_set;
      const double demand = r.demand;
      const sim::SimTime arrival = r.time;
      node(stale.previous)
          .stall_then(config_.routing.forward_demand,
                      [this, fs, demand, arrival, index] {
                        sched_.schedule_in(
                            config_.routing.forward_hop,
                            [this, fs, demand, arrival, index] {
                              --in_transit_;
                              deliver(fs, demand, arrival, index);
                            });
                      });
    }
  }
  if (!forwarded) deliver(r.file_set, r.demand, r.time, index);

  // The next arrival rides the scheduler's stream (installed by run()),
  // armed here, where its seq would be taken as a heap event.
  if (index + 1 < workload_.requests.size()) {
    next_arrival_ = index + 1;
    sched_.stream_at(workload_.requests[next_arrival_].time);
  }
}

void ClusterSim::deliver(FileSetId fs, double demand,
                         sim::SimTime original_arrival,
                         std::size_t op_index) {
  // Requests for a file set in flight between servers are held and
  // replayed when the move completes.
  if (sched_.now() < unavailable_until_[fs.value]) {
    held_[fs.value].push_back(
        HeldRequest{original_arrival, demand, op_index});
    ++held_count_;
  } else {
    route(fs, demand, original_arrival, op_index);
  }
}

void ClusterSim::route(FileSetId fs, double demand,
                       sim::SimTime original_arrival,
                       std::size_t op_index) {
  const ServerId owner = policy_.owner(fs);
  if (!node(owner).alive()) {
    // The owner crashed but the failure has not been declared yet: the
    // client's request times out and is lost.
    ANUFS_ENSURES(config_.detector.enabled);
    ++result_.lost;
    if (config_.san.enabled) san_.on_metadata_lost();
    return;
  }
  if (backing_ != nullptr) {
    // Executing-server mode: the demand is whatever the typed
    // operation costs when it reaches the head of the queue (cold
    // cache still applies, consumed once per served request).
    node(owner).submit_deferred(
        fs,
        [this, fs, op_index] {
          return backing_->execute_op(op_index) *
                 movement_.demand_multiplier(fs);
        },
        original_arrival);
    return;
  }
  // Cold-cache penalty is consumed per actually-served request.
  const double effective = demand * movement_.demand_multiplier(fs);
  node(owner).submit(fs, effective, original_arrival);
}

void ClusterSim::drain_held(FileSetId fs) {
  // A later move superseded this one; its own drain replays the set.
  if (sched_.now() < unavailable_until_[fs.value]) return;
  std::vector<HeldRequest>& held = held_[fs.value];
  if (held.empty()) return;
  const std::vector<HeldRequest> pending = std::move(held);
  held.clear();  // a moved-from vector is valid but unspecified
  held_count_ -= pending.size();
  for (const HeldRequest& h : pending) {
    route(fs, h.demand, h.time, h.op_index);
  }
}

void ClusterSim::apply_moves(const std::vector<policy::Move>& moves,
                             MoveReason reason) {
  const bool crash_induced = reason == MoveReason::kRecovery;
  // Movement off: moves cost no time, stall nobody and leave caches
  // warm, but still run the backing's state transitions (flush +
  // recovery), or crashed file sets would never recover.
  const bool costed = movement_.config().enabled;
  result_.moves += moves.size();
  result_.moves_timeline.emplace_back(sched_.now(), moves.size());
  if (crash_induced) result_.crash_moves += moves.size();
  if (!stale_.empty()) {
    const sim::SimTime until =
        sched_.now() + config_.routing.distribution_delay;
    for (const policy::Move& m : moves) {
      stale_[m.file_set.value] = StaleRoute{m.from, until};
    }
  }
  sim::SimTime last_ready = sched_.now();
  for (const policy::Move& m : moves) {
    ANUFS_TRACE(obs::Category::kMove, "fileset_move",
                {"fs", m.file_set.value}, {"from", m.from.value},
                {"to", m.to.value}, {"reason", reason_name(reason)});
    double transit = 0.0;
    if (costed) {
      movement_.on_move(m.file_set);
      transit = movement_.sample_init();
      // Flaky-transfer injection: each failed attempt wastes a backoff
      // plus a fresh init before the set comes up at the new owner.
      const std::uint32_t failures = movement_.sample_move_failures();
      result_.move_failures += failures;
      for (std::uint32_t attempt = 0; attempt < failures; ++attempt) {
        transit += movement_.fault_backoff() + movement_.sample_init();
      }
      if (!crash_induced) transit += movement_.sample_flush();
    }
    // The shedding server spends a little CPU driving the flush.
    if (!crash_induced && node(m.from).alive()) {
      double shed_stall = movement_.config().shed_cpu_stall;
      if (backing_ != nullptr) {
        shed_stall += backing_->flush_cost(m.file_set);
      }
      if (costed) node(m.from).stall(shed_stall);
    }
    double acquire_stall = movement_.config().acquire_cpu_stall;
    if (backing_ != nullptr) {
      acquire_stall += backing_->acquire_cost(m.file_set);
    }
    if (!costed) continue;
    // The acquirer may be silently dead (crashed but not yet declared by
    // the detector): membership still lists it, so a concurrent
    // recovery/addition can pick it as a target. No CPU to stall then —
    // its requests are lost until the failure is declared and the set is
    // re-homed again.
    if (node(m.to).alive()) node(m.to).stall(acquire_stall);
    const sim::SimTime ready = sched_.now() + transit;
    last_ready = std::max(last_ready, ready);
    sim::SimTime& until = unavailable_until_[m.file_set.value];
    until = std::max(until, ready);
    sched_.schedule_at(ready,
                       [this, fs = m.file_set] { drain_held(fs); });
  }
  if (crash_induced && !moves.empty()) {
    // With movement off the episode spans 0 s: the victim's sets are
    // re-owned the moment the failure is declared.
    result_.recoveries.push_back(
        RecoveryEpisode{sched_.now(), last_ready, moves.size()});
  }
}

void ClusterSim::reconfigure() {
  const sim::SimTime now = sched_.now();
  // A crashed server cannot report: the delegate notices the missing
  // report, which is itself failure detection — declare before tuning.
  while (!undetected_.empty()) (void)declare_failure(undetected_.begin());
  // Each live server's report reaches the delegate independently;
  // silence accumulates toward expulsion (fencing).
  std::vector<core::ServerReport> arrived;
  std::size_t harvested = 0;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == nullptr) continue;
    const ServerId id{i};
    ServerNode& n = *nodes_[i];
    if (!n.alive()) {
      result_.latency_ms.at(server_label(id)).append(now, 0.0);
      continue;
    }
    const sim::IntervalSnapshot snap = n.harvest();
    result_.latency_ms.at(server_label(id)).append(now, snap.mean * 1e3);
    ++harvested;
    if (net_rng_.next_double() < config_.net.report_loss) {
      ++result_.reports_lost;
    } else {
      arrived.push_back(core::ServerReport{id, snap.mean, snap.count});
    }
  }
  if (harvested > 0) {
    const std::vector<ServerId> members = policy_.servers();
    std::size_t remaining = members.size();
    for (const ServerId suspect : collector_.close_round(members, arrived)) {
      // Never expel the last member: someone must keep serving (the
      // quorum rule every membership service ends at).
      if (remaining <= 1) break;
      --remaining;
      // After the drain every member is alive: expelling one fences it,
      // discarding its queue; it may rejoin later.
      ++result_.fenced;
      (void)crash_node(suspect);
      ANUFS_TRACE(obs::Category::kFault, "fenced",
                  {"server", suspect.value});
      apply_moves(policy_.on_server_failed(suspect), MoveReason::kRecovery);
    }
    // The tuner gets one report per remaining member, in id order.
    apply_moves(policy_.rebalance(now, collector_.padded(policy_.servers())),
                MoveReason::kRebalance);
  }
  const sim::SimTime next = now + config_.reconfig_period;
  if (next <= workload_.duration) {
    sched_.schedule_at(next, [this] { reconfigure(); });
  }
}

RunResult ClusterSim::run() {
  ANUFS_EXPECTS(!ran_);
  ran_ = true;
  result_.total_requests = workload_.requests.size();
  // Pre-create series for the initial servers so labels exist even if a
  // server never completes a request — and pre-size everything the
  // steady-state loop appends to, so the hot path never reallocates.
  const auto expected_points = static_cast<std::size_t>(
      workload_.duration / config_.reconfig_period + 1.0);
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == nullptr) continue;
    result_.latency_ms.at(server_label(ServerId{i})).reserve(expected_points);
  }
  sched_.reserve(256);
  sched_.set_stream([this] { arrive(next_arrival_); });
  if (!workload_.requests.empty()) {
    sched_.stream_at(workload_.requests.front().time);
  }
  if (config_.reconfig_period <= workload_.duration) {
    sched_.schedule_at(config_.reconfig_period, [this] { reconfigure(); });
  }
  if (config_.detector.enabled) {
    sched_.schedule_in(config_.detector.sweep_interval,
                       [this] { detector_sweep(); });
  }
  sched_.run_until(workload_.duration);

  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == nullptr) continue;
    const ServerNode& n = *nodes_[i];
    result_.completed += n.completed();
    result_.mean_latency += n.latency_sum();
    result_.server_completed[i] = n.completed();
    result_.server_busy[i] = n.busy_time();
    result_.queued_at_end += n.in_flight();
    if (config_.record_latency_samples) {
      result_.latency_samples[i] = n.latency_samples();
    }
  }
  // Close the conservation ledger: every request the workload issued is
  // completed, lost, queued, held behind a move, or mid-forward. The
  // fault property tests assert this sum for every random plan.
  result_.held_at_end += held_count_;
  result_.in_transit_at_end = in_transit_;
  result_.mean_latency = result_.completed == 0
                             ? 0.0
                             : result_.mean_latency /
                                   static_cast<double>(result_.completed);
  if (config_.san.enabled) {
    // The SAN half of the ledger: every client still blocked on
    // metadata has a request queued, held or mid-forward.
    ANUFS_ENSURES(san_.blocked_clients() == result_.queued_at_end +
                                                result_.held_at_end +
                                                result_.in_transit_at_end);
    san_.advance();
    result_.san_busy = san_.busy_time();
    result_.san_wasted_idle = san_.wasted_idle();
    result_.san_mean_end_to_end = san_.mean_end_to_end();
  }
  result_.engine = sched_.stats();
  return std::move(result_);
}

}  // namespace anufs::cluster
