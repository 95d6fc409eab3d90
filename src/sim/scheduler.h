// Discrete-event scheduler: the core of the YACSIM-replacement engine.
//
// Events are callbacks ordered by (time, insertion sequence). The sequence
// tiebreak makes runs fully deterministic: two events scheduled for the
// same instant always fire in the order they were scheduled, regardless of
// heap internals.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/attributes.h"
#include "common/check.h"
#include "sim/time.h"

namespace anufs::sim {

/// Single-threaded event calendar.
///
/// Usage:
///   Scheduler sched;
///   sched.schedule_in(1.0, [&]{ ... });
///   sched.run();                      // until the calendar drains
///
/// Handlers may schedule further events, including at the current time.
/// The calendar only schedules and fires: nothing withdraws an event once
/// scheduled (the simulator retires stale completions with an epoch check
/// in FifoServer instead), so every heap entry is live.
///
/// The stream: one extra event that lives beside the heap, for a chain
/// whose next link is known when the current one fires (the simulator's
/// arrivals, which the workload already holds in time order). set_stream()
/// installs its handler once; stream_at() arms it with a seq taken exactly
/// where schedule_at() would take one, so moving a chain onto the stream
/// changes no firing order. step() and run_until() fire whichever of the
/// heap top and the stream entry ranks first. A stream firing counts in
/// fired, pending() and peak_pending like any event, but holds no pool
/// slot, builds no std::function and never touches the heap. At most one
/// stream event is pending; a firing disarms it before its handler runs.
///
/// Order: an entry's rank is one unsigned 128-bit number, the bit pattern
/// of its time over its key. Times are never negative (schedule_at and
/// stream_at normalise -0.0 to +0.0), and non-negative doubles order like
/// their bit patterns, so comparing ranks is the (time, seq) order with a
/// single wide compare instead of a branch on the times.
///
/// Allocation discipline: handlers live in a slot pool recycled through a
/// free list, so steady-state operation (schedule -> fire -> schedule)
/// performs no per-event heap allocation once the pool has grown to the
/// peak concurrent event count. Stats::pool_allocated / pool_recycled
/// expose the split so tests can assert the steady state really recycles.
///
/// A Scheduler is confined to one thread. Concurrent simulations each own
/// their own Scheduler (see sim::ThreadPool and driver/parallel_runner).
class Scheduler {
 public:
  using Handler = std::function<void()>;

  /// Engine counters, cheap enough to maintain unconditionally. Exposed
  /// so bench binaries can report throughput (events/sec) and tests can
  /// observe reclamation.
  ///
  /// Thread ownership: the counters are plain fields mutated by the
  /// scheduler's owning thread on every schedule and firing — they are
  /// NOT atomics. stats() therefore returns a by-value snapshot, and
  /// both it and the fields themselves may only be read from the thread
  /// that runs the scheduler (for a parallel sweep: inside the run, or
  /// after the run's task has completed and the pool has joined — the
  /// pattern parallel_runner uses when it copies stats into RunResult).
  struct Stats {
    std::uint64_t fired = 0;       ///< handlers actually run
    /// Always 0: the calendar cancels nothing. Kept only because the
    /// end-to-end benchmark (benchmark/src/sim_workloads.cpp) reads it
    /// for sim.events_cancelled; it goes when that reader does.
    std::uint64_t cancelled = 0;
    std::size_t peak_pending = 0;  ///< high-water mark of pending()
    std::uint64_t pool_allocated = 0;  ///< pool slots freshly allocated
    std::uint64_t pool_recycled = 0;   ///< schedules served from the free list
    // Pool composition AT SNAPSHOT TIME, filled by stats() in the same
    // read as the cumulative counters above so the "allocates nothing"
    // assertions can check conservation (pool_size == pool_free +
    // pending - stream_armed: the stream event is pending but holds no
    // pool slot) from one snapshot.
    std::size_t pool_size = 0;  ///< slots ever allocated (pool high-water)
    std::size_t pool_free = 0;  ///< slots on the free list right now
    std::size_t pending = 0;    ///< scheduled, not yet fired events
    std::size_t stream_armed = 0;  ///< 1 while the stream event is pending
  };

  /// Current simulated time. Starts at kTimeZero; advances only while
  /// events run.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Number of events scheduled but not yet fired.
  [[nodiscard]] std::size_t pending() const noexcept {
    return heap_.size() + stream_armed();
  }

  [[nodiscard]] bool empty() const noexcept { return pending() == 0; }

  /// Total events fired so far (useful for progress accounting and tests).
  [[nodiscard]] std::uint64_t fired() const noexcept { return stats_.fired; }

  /// Consistent snapshot of the counters (see Stats for thread rules):
  /// returning by value means a caller holding the result can never
  /// observe a half-updated struct if it outlives this Scheduler or
  /// hands the snapshot to another thread. The pool-composition fields
  /// are captured in the same call as the cumulative counters, so the
  /// conservation law pool_size == pool_free + pending - stream_armed
  /// holds in every snapshot.
  [[nodiscard]] Stats stats() const noexcept {
    Stats s = stats_;
    s.pool_size = handlers_.size();
    s.pool_free = free_slots_.size();
    s.pending = pending();
    s.stream_armed = stream_armed();
    return s;
  }

  /// Pre-size the calendar and the handler pool for an expected peak of
  /// concurrently pending events (optional; the pool grows on demand).
  void reserve(std::size_t events) {
    heap_.reserve(events);
    handlers_.reserve(events);
    free_slots_.reserve(events);
  }

  /// Schedule `fn` at absolute simulated time `at` (>= now()).
  ANUFS_HOT void schedule_at(SimTime at, Handler fn);

  /// Schedule `fn` `delay` seconds from now (delay >= 0).
  ANUFS_HOT void schedule_in(SimDuration delay, Handler fn) {
    ANUFS_EXPECTS(delay >= 0.0);
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Install the stream's handler (see the class comment). Cold: called
  /// once, before the stream is first armed, and never while it is armed.
  ANUFS_COLD void set_stream(Handler fn);

  /// Arm the stream to fire at absolute time `at` (>= now()). The stream
  /// must be installed and not already armed.
  ANUFS_HOT void stream_at(SimTime at);

  /// Run events until the calendar is empty.
  void run();

  /// Run events with time <= horizon, then advance the clock to exactly
  /// `horizon` (even if no event lies there). Events scheduled at `horizon`
  /// itself do fire, including ones scheduled by handlers firing at the
  /// horizon.
  void run_until(SimTime horizon);

  /// Fire exactly one event, if any. Returns false when the calendar is
  /// empty.
  ANUFS_HOT bool step();

 private:
  // An entry's key packs its schedule sequence over its pool slot:
  // seq << kSlotBits | slot. Sequences are unique and start at 1, so no
  // pending key is kNoEvent. Comparing keys compares seqs, since seq
  // fills the high bits.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << (64 - kSlotBits);
  static constexpr std::uint64_t kNoEvent = 0;

  // 16 bytes: a 4-ary node's children fill one 64-byte line.
  struct Entry {
    SimTime time;
    std::uint64_t key;
  };
  // The (time, seq) order as one number: exact because times are never
  // negative (schedule_at and stream_at store at + 0.0, so not -0.0
  // either), and a non-negative double's bit pattern orders like its
  // value.
  [[nodiscard]] static unsigned __int128 rank(const Entry& e) noexcept {
    const auto time_bits = std::bit_cast<std::uint64_t>(e.time);
    return static_cast<unsigned __int128>(time_bits) << 64 | e.key;
  }
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return rank(a) > rank(b);
    }
  };

  [[nodiscard]] static constexpr std::uint32_t slot_of(
      std::uint64_t key) noexcept {
    return static_cast<std::uint32_t>(key & kSlotMask);
  }

  // 4-ary heap primitives over heap_, earliest entry at index 0 (the
  // children of i are 4i+1 .. 4i+4). sift_up moves the entry at `i` up,
  // but not above `top`, to restore order after an append; sift_down
  // restores it after the entry at `i` was replaced; pop_top removes
  // heap_[0].
  ANUFS_HOT void sift_up(std::size_t i, std::size_t top) noexcept;
  ANUFS_HOT void sift_down(std::size_t i) noexcept;
  ANUFS_HOT void pop_top() noexcept;
  [[nodiscard]] std::size_t stream_armed() const noexcept {
    return stream_.key != kNoEvent ? 1 : 0;
  }
  // The earliest pending entry, the heap top or the stream, whichever
  // ranks first; nullptr when nothing is pending.
  ANUFS_HOT const Entry* earliest();
  // Fire `e`, an entry earliest() returned.
  ANUFS_HOT void fire(const Entry* e);
  // Slow path of schedule_at: allocate a fresh pool slot because the
  // free list is empty (the pool has not yet grown to this run's peak
  // concurrency). Cold: steady state recycles, never allocates.
  ANUFS_COLD std::uint32_t grow_pool();

  SimTime now_ = kTimeZero;
  std::uint64_t next_seq_ = 1;
  Stats stats_;
  // 4-ary min-heap in Later order, managed by sift_up/sift_down rather
  // than std::priority_queue. At simulator depths (tens of thousands
  // pending) the wider fan-out halves the levels a pop walks, and a
  // node's four children are contiguous, so the extra comparisons cost
  // few extra cache misses.
  std::vector<Entry> heap_;
  // Slot pool: handlers stored out of the heap so Entry stays trivially
  // copyable, recycled through free_slots_ so steady state allocates
  // nothing. A slot is freed only when its entry pops, so every heap
  // entry names the handler it was scheduled with.
  std::vector<Handler> handlers_;
  std::vector<std::uint32_t> free_slots_;
  // The stream: its handler, and its pending entry (key seq << kSlotBits,
  // slot bits unused), or key kNoEvent while disarmed.
  Handler stream_fn_;
  Entry stream_{kTimeZero, kNoEvent};
};

}  // namespace anufs::sim
