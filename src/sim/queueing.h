// FIFO queueing resource: the simulated execution model of one metadata
// server. Mirrors the YACSIM facility the paper used: first-in-first-out
// discipline, a single service channel, and a speed factor that divides
// service demand (a "power 9" server finishes the same request 9x faster
// than a "power 1" server).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "common/check.h"
#include "sim/scheduler.h"
#include "sim/time.h"

namespace anufs::sim {

/// Delivered to the submitter when a job completes service.
struct JobCompletion {
  SimTime arrival;     ///< when the job entered the queue
  SimTime start;       ///< when service began
  SimTime completion;  ///< when service finished (== now at delivery)
  double demand;       ///< service demand in unit-speed seconds
  std::uint64_t tag;   ///< caller-supplied correlation tag

  /// Queueing + service time: the latency metric the paper reports.
  [[nodiscard]] SimDuration latency() const { return completion - arrival; }
  [[nodiscard]] SimDuration wait() const { return start - arrival; }
};

/// Single FIFO server with a tunable speed factor.
///
/// `submit` enqueues a job whose service time is demand/speed, with speed
/// sampled when service starts (so a speed change applies from the next
/// job onward, like a CPU upgrade between requests). `occupy` blocks the
/// channel for a fixed wall duration regardless of speed — used to model
/// cache-flush and file-set-initialization stalls during load movement.
class FifoServer {
 public:
  using CompletionFn = std::function<void(const JobCompletion&)>;
  using DoneFn = std::function<void()>;

  FifoServer(Scheduler& sched, double speed) : sched_(sched), speed_(speed) {
    ANUFS_EXPECTS(speed > 0.0);
  }

  FifoServer(const FifoServer&) = delete;
  FifoServer& operator=(const FifoServer&) = delete;

  /// Enqueue a metadata request. `demand` is in unit-speed seconds.
  /// `arrival` backdates the request's queue-entry time (default: now) —
  /// used when a request was held elsewhere (e.g. while its file set was
  /// in flight between servers) so reported latency spans the full wait.
  void submit(double demand, std::uint64_t tag, CompletionFn on_complete,
              std::optional<SimTime> arrival = std::nullopt);

  /// Like submit, but the demand is computed WHEN SERVICE STARTS — used
  /// by the executing-server mode, where a request's cost is whatever
  /// the metadata operation actually takes against the file set's state
  /// at that moment. The function must return a demand > 0.
  using DemandFn = std::function<double()>;
  void submit_deferred(DemandFn demand_fn, std::uint64_t tag,
                       CompletionFn on_complete,
                       std::optional<SimTime> arrival = std::nullopt);

  /// Enqueue a fixed-duration stall (flush, file-set init). FIFO-ordered
  /// with regular jobs; `done` fires when the stall completes.
  void occupy(SimDuration duration, DoneFn done = {});

  /// Change the speed factor; applies when the next job starts service.
  void set_speed(double speed) {
    ANUFS_EXPECTS(speed > 0.0);
    speed_ = speed;
  }

  [[nodiscard]] double speed() const noexcept { return speed_; }

  /// Jobs waiting (excluding the one in service).
  [[nodiscard]] std::size_t queue_length() const noexcept {
    return queue_.size();
  }

  [[nodiscard]] bool busy() const noexcept { return in_service_; }

  /// Cumulative busy time (service + occupy), for utilization metrics.
  [[nodiscard]] SimDuration busy_time() const noexcept { return busy_time_; }

  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }

  /// Sum of unit-speed demand currently enqueued (including in service,
  /// pro-rated is NOT attempted — this is a planning heuristic only).
  [[nodiscard]] double backlog_demand() const noexcept { return backlog_; }

  /// Crash model: drop every queued and in-service job without delivering
  /// completions, and return the number of regular jobs lost. The server
  /// is immediately usable again (recovery with an empty queue).
  std::size_t reset();

 private:
  struct Job {
    bool is_stall;
    double demand;         // unit-speed seconds (regular) or wall seconds
    SimTime arrival;
    std::uint64_t tag;
    CompletionFn on_complete;  // regular jobs
    DoneFn done;               // stalls
    DemandFn demand_fn;        // deferred jobs: evaluated at service start
  };

  void maybe_start();
  void finish(std::uint64_t epoch);

  Scheduler& sched_;
  double speed_;
  std::deque<Job> queue_;
  std::uint64_t epoch_ = 0;  // bumped by reset(); stale completions no-op
  bool in_service_ = false;
  // When the job in service started: one channel, so one start time. Kept
  // here rather than in the completion closure so that closure fits
  // std::function's inline buffer.
  SimTime service_start_ = kTimeZero;
  SimDuration busy_time_ = 0.0;
  std::uint64_t completed_ = 0;
  double backlog_ = 0.0;
};

}  // namespace anufs::sim
