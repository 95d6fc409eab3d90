// One simulated metadata server: FIFO queueing resource + per-interval
// latency accounting + liveness.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "sim/interval_stats.h"
#include "sim/queueing.h"
#include "sim/scheduler.h"

namespace anufs::cluster {

class ServerNode {
 public:
  using CompletionHook =
      std::function<void(FileSetId, const sim::JobCompletion&)>;

  ServerNode(sim::Scheduler& sched, ServerId id, double speed)
      : id_(id),
        base_speed_(speed),
        fifo_(sched, speed,
              [this](const sim::JobCompletion& c) { on_complete(c); }) {}

  // The FIFO's completion sink holds `this`.
  ServerNode(const ServerNode&) = delete;
  ServerNode& operator=(const ServerNode&) = delete;

  [[nodiscard]] ServerId id() const noexcept { return id_; }
  [[nodiscard]] double speed() const noexcept { return fifo_.speed(); }
  [[nodiscard]] bool alive() const noexcept { return alive_; }

  /// Fault injection: scale the commissioned speed by `factor` (a
  /// "limping" episode; 1.0 restores full speed). Takes effect when the
  /// next job starts service. Legal while crashed — the factor simply
  /// persists across recovery, like a degraded disk would.
  void set_speed_factor(double factor) {
    ANUFS_EXPECTS(factor > 0.0);
    fifo_.set_speed(base_speed_ * factor);
  }

  /// Observer invoked on every request completion (e.g. to start the
  /// client's SAN transfer once its metadata is served).
  void set_completion_hook(CompletionHook hook) { hook_ = std::move(hook); }

  /// Record every request latency for whole-run percentile analysis
  /// (off by default: the paper's figures use interval means).
  void enable_sample_recording() { record_samples_ = true; }

  [[nodiscard]] const std::vector<double>& latency_samples() const noexcept {
    return samples_;
  }

  /// Submit one metadata request for file set `fs`; latency is recorded
  /// into the interval accumulator on completion. `arrival` backdates
  /// requests held during file-set movement.
  void submit(FileSetId fs, double demand,
              std::optional<sim::SimTime> arrival = std::nullopt) {
    ANUFS_EXPECTS(alive_);
    ++submitted_;
    fifo_.submit(demand, fs.value, arrival);
  }

  /// CPU stall (flush/init work during file-set movement).
  void stall(sim::SimDuration seconds) {
    ANUFS_EXPECTS(alive_);
    if (seconds > 0.0) fifo_.occupy(seconds);
  }

  /// Executing-server mode: demand is computed at service start by
  /// `demand_fn` (which runs the typed operation).
  void submit_deferred(FileSetId fs, sim::FifoServer::DemandFn demand_fn,
                       std::optional<sim::SimTime> arrival = std::nullopt) {
    ANUFS_EXPECTS(alive_);
    ++submitted_;
    fifo_.submit_deferred(std::move(demand_fn), fs.value, arrival);
  }

  /// FIFO-ordered stall with a completion callback — used for request
  /// forwarding: a stale-routed request queues at the wrong server,
  /// costs it `demand` unit-speed seconds to re-hash and re-route, and
  /// `done` fires when that work completes.
  void stall_then(double demand, sim::FifoServer::DoneFn done) {
    ANUFS_EXPECTS(alive_);
    fifo_.occupy(demand / fifo_.speed(), std::move(done));
  }

  /// Harvest and reset this interval's statistics.
  sim::IntervalSnapshot harvest() { return interval_.harvest(); }

  /// Crash: drop all queued work; returns the number of requests lost.
  std::size_t crash() {
    ANUFS_EXPECTS(alive_);
    alive_ = false;
    interval_ = {};
    const std::size_t dropped = fifo_.reset();
    lost_ += dropped;
    return dropped;
  }

  /// Rejoin with an empty queue (shared disk preserved the data).
  void recover() {
    ANUFS_EXPECTS(!alive_);
    alive_ = true;
  }

  // Cumulative whole-run statistics.
  [[nodiscard]] std::uint64_t completed() const noexcept {
    return fifo_.completed();
  }
  [[nodiscard]] double latency_sum() const noexcept { return latency_sum_; }
  [[nodiscard]] sim::SimDuration busy_time() const noexcept {
    return fifo_.busy_time();
  }

  /// Requests accepted but neither completed nor lost to a crash —
  /// queued or in service right now. Part of the simulator's
  /// conservation ledger: submitted == completed + lost + in_flight.
  [[nodiscard]] std::uint64_t in_flight() const noexcept {
    return submitted_ - completed() - lost_;
  }

 private:
  // The FIFO's one completion sink: the tag is the request's file set.
  void on_complete(const sim::JobCompletion& c) {
    const sim::SimDuration lat = c.latency();
    interval_.record(lat);
    latency_sum_ += lat;
    if (record_samples_) samples_.push_back(lat);
    if (hook_) hook_(FileSetId{static_cast<std::uint32_t>(c.tag)}, c);
  }

  ServerId id_;
  double base_speed_;
  sim::FifoServer fifo_;
  sim::IntervalAccumulator interval_;
  CompletionHook hook_;
  std::vector<double> samples_;
  bool record_samples_ = false;
  bool alive_ = true;
  std::uint64_t submitted_ = 0;
  std::uint64_t lost_ = 0;
  double latency_sum_ = 0.0;
};

}  // namespace anufs::cluster
