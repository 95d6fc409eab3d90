// FIFO queueing resource: the simulated execution model of one metadata
// server. Mirrors the YACSIM facility the paper used: first-in-first-out
// discipline, a single service channel, and a speed factor that divides
// service demand (a "power 9" server finishes the same request 9x faster
// than a "power 1" server).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/attributes.h"
#include "common/check.h"
#include "sim/scheduler.h"
#include "sim/time.h"

namespace anufs::sim {

/// Delivered to the server's completion sink when a job completes service.
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

namespace detail {

/// FIFO over a power-of-two ring: a std::vector that doubles when full
/// and never shrinks, so once it has reached a run's peak depth, push
/// and pop allocate nothing (std::deque frees and re-mallocs a block
/// every few elements as its head and tail advance).
template <class T>
class Ring {
 public:
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] T& front() noexcept { return buf_[head_]; }

  void push_back(T value) {
    if (size_ == buf_.size()) double_capacity();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(value);
    ++size_;
  }

  void pop_front() noexcept {
    // Release whatever a callback captured now, not when the slot is
    // next overwritten.
    if constexpr (!std::is_trivially_destructible_v<T>) buf_[head_] = T{};
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

  void clear() noexcept {
    while (!empty()) pop_front();
  }

 private:
  // Cold: runs once per doubling, so growth is amortized over the
  // pushes that fill the new capacity.
  ANUFS_COLD void double_capacity() {
    std::vector<T> next(buf_.empty() ? 8 : buf_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace detail

/// Single FIFO server with a tunable speed factor.
///
/// `submit` enqueues a job whose service time is demand/speed, with speed
/// sampled when service starts (so a speed change applies from the next
/// job onward, like a CPU upgrade between requests). `occupy` blocks the
/// channel for a fixed wall duration regardless of speed — used to model
/// cache-flush and file-set-initialization stalls during load movement.
///
/// Every regular job's completion goes to the one sink given at
/// construction; the job's tag tells the sink which request it was. Jobs
/// are plain records in a ring, so a request costs no allocation once
/// the ring has grown to the run's peak depth. The two rare callbacks —
/// a stall's `done` and a deferred job's demand function — wait in side
/// FIFOs, pushed only by the jobs that carry one and popped when that
/// job reaches the front, so they stay in lockstep with the ring.
class FifoServer {
 public:
  using CompletionFn = std::function<void(const JobCompletion&)>;
  using DoneFn = std::function<void()>;
  using DemandFn = std::function<double()>;

  /// `on_complete` receives every regular job's completion; empty means
  /// completions are only counted.
  FifoServer(Scheduler& sched, double speed, CompletionFn on_complete = {})
      : sched_(sched), speed_(speed), on_complete_(std::move(on_complete)) {
    ANUFS_EXPECTS(speed > 0.0);
  }

  FifoServer(const FifoServer&) = delete;
  FifoServer& operator=(const FifoServer&) = delete;

  /// Enqueue a metadata request. `demand` is in unit-speed seconds.
  /// `arrival` backdates the request's queue-entry time (default: now) —
  /// used when a request was held elsewhere (e.g. while its file set was
  /// in flight between servers) so reported latency spans the full wait.
  void submit(double demand, std::uint64_t tag,
              std::optional<SimTime> arrival = std::nullopt);

  /// Like submit, but the demand is computed WHEN SERVICE STARTS — used
  /// by the executing-server mode, where a request's cost is whatever
  /// the metadata operation actually takes against the file set's state
  /// at that moment. The function must return a demand > 0.
  void submit_deferred(DemandFn demand_fn, std::uint64_t tag,
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

  /// Jobs queued, including the one in service.
  [[nodiscard]] std::size_t queue_length() const noexcept {
    return jobs_.size();
  }

  [[nodiscard]] bool busy() const noexcept { return in_service_; }

  /// Cumulative busy time (service + occupy), for utilization metrics.
  [[nodiscard]] SimDuration busy_time() const noexcept { return busy_time_; }

  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }

  /// Crash model: drop every queued and in-service job without delivering
  /// completions, and return the number of regular jobs lost. The server
  /// is immediately usable again (recovery with an empty queue).
  std::size_t reset();

 private:
  enum class Kind : std::uint8_t {
    kRequest,    // demand known at submit
    kDeferred,   // demand from the front of demand_fns_ at service start
    kStall,      // wall-clock stall, nothing to notify
    kStallDone,  // stall whose done is the front of stall_dones_
  };
  struct Job {
    double demand;  // unit-speed seconds (requests) or wall seconds (stalls)
    SimTime arrival;
    std::uint64_t tag;
    Kind kind;
  };

  void maybe_start();
  void finish(std::uint64_t epoch);

  Scheduler& sched_;
  double speed_;
  CompletionFn on_complete_;
  detail::Ring<Job> jobs_;
  detail::Ring<DemandFn> demand_fns_;  // one per queued kDeferred job
  detail::Ring<DoneFn> stall_dones_;   // one per queued kStallDone job
  std::uint64_t epoch_ = 0;  // bumped by reset(); stale completions no-op
  bool in_service_ = false;
  // When the job in service started: one channel, so one start time. Kept
  // here rather than in the completion closure so that closure fits
  // std::function's inline buffer.
  SimTime service_start_ = kTimeZero;
  SimDuration busy_time_ = 0.0;
  std::uint64_t completed_ = 0;
};

}  // namespace anufs::sim
