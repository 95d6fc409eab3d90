// Tests for the discrete-event scheduler: ordering, determinism,
// cancellation, horizons.
#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace anufs::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler sched;
  EXPECT_EQ(sched.now(), 0.0);
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.fired(), 0u);
}

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(3.0, [&] { order.push_back(3); });
  sched.schedule_at(1.0, [&] { order.push_back(1); });
  sched.schedule_at(2.0, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 3.0);
}

TEST(Scheduler, SameTimeFiresInScheduleOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, ClockAdvancesToEventTime) {
  Scheduler sched;
  double seen = -1.0;
  sched.schedule_at(5.5, [&] { seen = sched.now(); });
  sched.run();
  EXPECT_EQ(seen, 5.5);
}

TEST(Scheduler, ScheduleInIsRelative) {
  Scheduler sched;
  double seen = -1.0;
  sched.schedule_at(2.0, [&] {
    sched.schedule_in(3.0, [&] { seen = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(seen, 5.0);
}

TEST(Scheduler, HandlerMayScheduleAtCurrentTime) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(1.0, [&] {
    order.push_back(1);
    sched.schedule_at(1.0, [&] { order.push_back(2); });
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, CancelPreventsFiring) {
  Scheduler sched;
  bool fired = false;
  const EventId id = sched.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sched.cancel(id));
  sched.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sched.fired(), 0u);
}

TEST(Scheduler, CancelTwiceReturnsFalse) {
  Scheduler sched;
  const EventId id = sched.schedule_at(1.0, [] {});
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));
}

TEST(Scheduler, CancelAfterFireReturnsFalse) {
  Scheduler sched;
  const EventId id = sched.schedule_at(1.0, [] {});
  sched.run();
  EXPECT_FALSE(sched.cancel(id));
}

TEST(Scheduler, PendingCountsUnfiredUncancelled) {
  Scheduler sched;
  const EventId a = sched.schedule_at(1.0, [] {});
  sched.schedule_at(2.0, [] {});
  EXPECT_EQ(sched.pending(), 2u);
  sched.cancel(a);
  EXPECT_EQ(sched.pending(), 1u);
}

TEST(Scheduler, RunUntilStopsAtHorizon) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(1.0, [&] { order.push_back(1); });
  sched.schedule_at(2.0, [&] { order.push_back(2); });
  sched.schedule_at(3.0, [&] { order.push_back(3); });
  sched.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sched.now(), 2.0);
  EXPECT_EQ(sched.pending(), 1u);
}

TEST(Scheduler, RunUntilAdvancesClockWithoutEvents) {
  Scheduler sched;
  sched.run_until(10.0);
  EXPECT_EQ(sched.now(), 10.0);
}

TEST(Scheduler, EventAtHorizonFires) {
  Scheduler sched;
  bool fired = false;
  sched.schedule_at(2.0, [&] { fired = true; });
  sched.run_until(2.0);
  EXPECT_TRUE(fired);
}

TEST(Scheduler, StepFiresExactlyOne) {
  Scheduler sched;
  int count = 0;
  sched.schedule_at(1.0, [&] { ++count; });
  sched.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sched.step());
}

TEST(Scheduler, CascadedEventsAllFire) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sched.schedule_in(0.5, chain);
  };
  sched.schedule_in(0.5, chain);
  sched.run();
  EXPECT_EQ(depth, 100);
  EXPECT_NEAR(sched.now(), 50.0, 1e-9);
}

TEST(Scheduler, FiredCounterTracksHandlers) {
  Scheduler sched;
  for (int i = 0; i < 7; ++i) sched.schedule_at(1.0 + i, [] {});
  sched.run();
  EXPECT_EQ(sched.fired(), 7u);
}

TEST(Scheduler, CancelFromWithinHandler) {
  Scheduler sched;
  bool late_fired = false;
  const EventId late = sched.schedule_at(5.0, [&] { late_fired = true; });
  sched.schedule_at(1.0, [&] { sched.cancel(late); });
  sched.run();
  EXPECT_FALSE(late_fired);
}

TEST(Scheduler, CancelReclaimsHandlerStateImmediately) {
  // The handler (and everything it captured) must die inside cancel(),
  // not when the tombstone eventually surfaces at the heap top — which
  // is never if the calendar is abandoned or run_until stops early.
  Scheduler sched;
  auto payload = std::make_shared<int>(7);
  const EventId id = sched.schedule_at(1.0, [payload] { (void)*payload; });
  EXPECT_EQ(payload.use_count(), 2);
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_EQ(payload.use_count(), 1);  // released without running anything
}

TEST(Scheduler, CancelHeavyWorkloadCompactsHeap) {
  Scheduler sched;
  std::vector<EventId> ids;
  for (int i = 0; i < 2000; ++i) {
    ids.push_back(sched.schedule_at(1.0 + i, [] {}));
  }
  for (int i = 0; i < 2000; ++i) {
    if (i % 4 != 0) EXPECT_TRUE(sched.cancel(ids[static_cast<size_t>(i)]));
  }
  EXPECT_EQ(sched.pending(), 500u);
  EXPECT_GE(sched.stats().compactions, 1u);
  EXPECT_EQ(sched.stats().cancelled, 1500u);
  sched.run();
  EXPECT_EQ(sched.fired(), 500u);
  EXPECT_TRUE(sched.empty());
}

TEST(Scheduler, StatsTrackFiredCancelledPeak) {
  Scheduler sched;
  const EventId a = sched.schedule_at(1.0, [] {});
  sched.schedule_at(2.0, [] {});
  sched.schedule_at(3.0, [] {});
  EXPECT_EQ(sched.stats().peak_pending, 3u);
  sched.cancel(a);
  sched.run();
  EXPECT_EQ(sched.stats().fired, 2u);
  EXPECT_EQ(sched.stats().cancelled, 1u);
  EXPECT_EQ(sched.stats().peak_pending, 3u);
}

TEST(Scheduler, SameTimeOrderSurvivesCompaction) {
  // Interleave survivors and cancellations at one instant; the purge
  // rebuilds the heap, which must not perturb the (time, seq) order.
  Scheduler sched;
  std::vector<int> order;
  std::vector<EventId> doomed;
  for (int i = 0; i < 200; ++i) {
    sched.schedule_at(1.0, [&order, i] { order.push_back(i); });
    doomed.push_back(sched.schedule_at(1.0, [] {}));
  }
  for (const EventId id : doomed) EXPECT_TRUE(sched.cancel(id));
  EXPECT_GE(sched.stats().compactions, 1u);
  sched.run();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, RunUntilHorizonBoundaryAfterCompaction) {
  Scheduler sched;
  std::vector<int> fired;
  std::vector<EventId> doomed;
  for (int i = 0; i < 100; ++i) {
    doomed.push_back(sched.schedule_at(0.5, [] {}));
  }
  sched.schedule_at(2.0, [&] { fired.push_back(1); });
  sched.schedule_at(2.0, [&] { fired.push_back(2); });
  const EventId past = sched.schedule_at(2.5, [&] { fired.push_back(99); });
  for (const EventId id : doomed) EXPECT_TRUE(sched.cancel(id));
  EXPECT_GE(sched.stats().compactions, 1u);
  sched.run_until(2.0);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));  // horizon events fire in order
  EXPECT_EQ(sched.now(), 2.0);
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_TRUE(sched.cancel(past));
}

TEST(Scheduler, RunUntilFiresHandlerScheduledAtHorizonByHorizonHandler) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(2.0, [&] {
    order.push_back(1);
    sched.schedule_at(2.0, [&] { order.push_back(2); });
  });
  sched.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, AbandonedCalendarReleasesCancelledState) {
  // Cancel everything, never run: pending() must report empty and the
  // cancelled ids must have been reclaimed by compaction (not retained
  // until a drain that never happens).
  Scheduler sched;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sched.schedule_at(1.0 + i, [] {}));
  }
  for (const EventId id : ids) EXPECT_TRUE(sched.cancel(id));
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_GE(sched.stats().compactions, 1u);
  sched.run();
  EXPECT_EQ(sched.fired(), 0u);
}

TEST(Scheduler, DeterministicOrderWithCancellationAndCompaction) {
  const auto run_once = [] {
    Scheduler sched;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 600; ++i) {
      ids.push_back(sched.schedule_at((i * 7919) % 100,
                                      [&order, i] { order.push_back(i); }));
    }
    for (int i = 0; i < 600; i += 3) {
      sched.cancel(ids[static_cast<size_t>(i)]);
    }
    sched.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Scheduler, SteadyStateRecyclesSlotsInsteadOfAllocating) {
  // schedule -> fire -> schedule must stop growing the pool once it
  // covers the peak backlog: only the first round allocates nodes, every
  // later schedule is served from the free list.
  Scheduler sched;
  for (int round = 0; round < 100; ++round) {
    for (int e = 0; e < 8; ++e) {
      sched.schedule_in(static_cast<double>(e), [] {});
    }
    sched.run();
  }
  const Scheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.fired, 800u);
  EXPECT_EQ(stats.pool_allocated, 8u);
  EXPECT_EQ(stats.pool_recycled, 792u);
}

TEST(Scheduler, CancelledSlotsReturnToThePool) {
  Scheduler sched;
  const EventId id = sched.schedule_at(1.0, [] {});
  EXPECT_TRUE(sched.cancel(id));
  sched.schedule_at(2.0, [] {});
  const Scheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.pool_allocated, 1u);
  EXPECT_EQ(stats.pool_recycled, 1u);
}

TEST(Scheduler, StaleIdCannotCancelARecycledSlot) {
  // After `first` fires, its slot returns to the pool and the next
  // schedule reuses it — under a fresh key, so the stale id must
  // neither cancel the new event nor be reported as cancellable.
  Scheduler sched;
  const EventId first = sched.schedule_at(1.0, [] {});
  sched.run();
  bool second_fired = false;
  const EventId second =
      sched.schedule_at(2.0, [&second_fired] { second_fired = true; });
  EXPECT_NE(first.value, second.value);
  EXPECT_FALSE(sched.cancel(first));
  sched.run();
  EXPECT_TRUE(second_fired);
  EXPECT_EQ(sched.stats().pool_recycled, 1u);
}

TEST(Scheduler, DefaultEventIdCancelsNothing) {
  // A default EventId (value 0) names slot 0, and a slot with no pending
  // event also holds key 0, so cancel() must refuse it explicitly: an
  // idle slot must not be "cancelled" onto the free list a second time.
  Scheduler sched;
  bool fired = false;
  sched.schedule_at(1.0, [&fired] { fired = true; });
  EXPECT_FALSE(sched.cancel(EventId{}));
  sched.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(sched.cancel(EventId{}));
  const Scheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.pool_free, stats.pool_size);
}

TEST(Scheduler, ReservePreSizesWithoutAllocatingNodes) {
  Scheduler sched;
  sched.reserve(64);
  EXPECT_EQ(sched.stats().pool_allocated, 0u);
  sched.schedule_at(1.0, [] {});
  EXPECT_EQ(sched.stats().pool_allocated, 1u);
  sched.run();
  EXPECT_EQ(sched.fired(), 1u);
}

TEST(Scheduler, StatsSnapshotConservesPoolAcrossCancelStormAndCompaction) {
  // Regression: the pool counters used to be readable only alongside a
  // SEPARATE read of the free list, so an assertion could observe the
  // cumulative counters and the free-list head from different moments
  // (e.g. one taken mid-cancel-storm, after the eager reclaim but with
  // a pre-compaction snapshot of the counters). stats() now captures
  // pool composition and counters in one call, so the conservation law
  // pool_size == pool_free + pending must hold in EVERY snapshot —
  // before, during, and after the storm that triggers compaction.
  //
  // The stream event is pending but holds no pool slot, so the law reads
  // pool_size == pool_free + pending - stream_armed; the stream stays
  // armed through the scheduling and the storm below.
  Scheduler sched;
  const auto check = [&sched](const char* where) {
    const Scheduler::Stats s = sched.stats();
    EXPECT_EQ(s.pool_size, s.pool_free + s.pending - s.stream_armed)
        << where;
    EXPECT_EQ(s.pool_size, s.pool_allocated) << where;
    EXPECT_EQ(s.pending, sched.pending()) << where;
  };
  check("empty");

  std::uint64_t stream_fires = 0;
  sched.set_stream([&sched, &stream_fires] {
    if (++stream_fires < 3) sched.stream_at(sched.now() + 100.0);
  });
  sched.stream_at(0.5);
  EXPECT_EQ(sched.stats().stream_armed, 1u);
  check("stream armed");

  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(sched.schedule_at(1.0 + i, [] {}));
    check("scheduling");
  }
  // Cancel from the back: tombstones pile up until compaction fires
  // (floor 64, majority rule) while the snapshot stays conserved on
  // every single step, including the cancel that triggers it.
  for (int i = 199; i >= 40; --i) {
    ASSERT_TRUE(sched.cancel(ids[static_cast<std::size_t>(i)]));
    check("cancelling");
  }
  EXPECT_GT(sched.stats().compactions, 0u);

  // Steady state: fire everything; every fired slot returns to the
  // free list, so the pool drains to fully-free.
  sched.run();
  check("drained");
  const Scheduler::Stats end = sched.stats();
  EXPECT_EQ(end.pending, 0u);
  EXPECT_EQ(end.stream_armed, 0u);
  EXPECT_EQ(end.pool_free, end.pool_size);
  EXPECT_EQ(stream_fires, 3u);
  EXPECT_EQ(end.fired, 40u + stream_fires);
  EXPECT_EQ(end.cancelled, 160u);
}

TEST(Scheduler, ManyEventsDeterministicOrder) {
  // Two identical schedules must produce identical firing orders.
  const auto run_once = [] {
    Scheduler sched;
    std::vector<int> order;
    for (int i = 0; i < 500; ++i) {
      sched.schedule_at((i * 7919) % 100, [&order, i] { order.push_back(i); });
    }
    sched.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

// Oracle for the calendar's firing order: a seeded random mix of every
// public operation, checked event by event against a std::set of
// (time, seq) — the order the scheduler promises. The calendar grows
// past 4, 16, 64 and 4096 pending (the first levels of a 4-ary heap and
// a deep one), many events share an instant, and a cancel storm forces
// compaction.
//
// With the stream on, the stream event joins the same reference set
// under the seq stream_at takes. Handlers re-arm the stream and schedule
// heap events at their own instant in both seq orders, cancels and
// compactions run while it is armed, run_until sometimes stops exactly
// at its time, and fired, pending(), peak_pending and the pool
// conservation law are checked against the reference after every
// operation.
class OrderOracle {
 public:
  using Key = std::pair<SimTime, std::uint64_t>;

  explicit OrderOracle(bool with_stream = false)
      : with_stream_(with_stream) {
    if (with_stream_) sched_.set_stream([this] { fire_stream(); });
  }

  // Moves the calendar toward `target` pending events with a random mix
  // of operations biased in that direction.
  void drive_to(std::size_t target) {
    if (sched_.pending() < target) {
      while (sched_.pending() < target) grow_op();
    } else {
      while (sched_.pending() > target) shrink_op();
    }
  }

  // Cancels live events until at most `target` remain (the stream event,
  // which cannot be cancelled, arms first so the storm runs beside it).
  void cancel_storm(std::size_t target) {
    if (with_stream_) arm_stream(stream_delay());
    while (sched_.pending() > target + stream_count()) {
      prune_scheduled();
      cancel_random();
      check_counters();
    }
  }

  void drain() {
    sched_.run();
    check(expected_.empty());
    check_counters();
  }

  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }
  [[nodiscard]] std::uint64_t stream_fired() const { return stream_fired_; }
  [[nodiscard]] const Scheduler& sched() const { return sched_; }

 private:
  void grow_op() {
    const std::uint64_t r = rng_() % 20;
    if (r < 12) {
      schedule(r % 2 == 0);
    } else if (r < 15) {
      cancel_random();
    } else {
      step();
    }
    if (with_stream_ && rng_() % 2 == 0) arm_stream(stream_delay());
    check(sched_.pending() == expected_.size());
    check_counters();
  }

  void shrink_op() {
    const std::uint64_t r = rng_() % 20;
    if (r < 2) {
      schedule(r % 2 == 0);
    } else if (r < 8) {
      cancel_random();
    } else if (r < 17) {
      step();
    } else if (stream_armed_ && rng_() % 2 == 0) {
      run_until(stream_key_.first);
    } else {
      run_until(sched_.now() + 0.25 * static_cast<double>(rng_() % 3));
    }
    check(sched_.pending() == expected_.size());
    check_counters();
  }

  // Delays on a quarter-second grid, half of them within two seconds, so
  // many events land on the same instant.
  SimDuration random_delay() {
    const std::uint64_t spread = rng_() % 2 == 0 ? 8 : 64;
    return 0.25 * static_cast<double>(rng_() % spread);
  }

  // The stream's next link lies within a second, on the same grid, so it
  // fires often even with thousands of heap events pending.
  SimDuration stream_delay() {
    return 0.25 * static_cast<double>(rng_() % 4);
  }

  void schedule(bool absolute) { schedule(absolute, random_delay()); }

  void schedule(bool absolute, SimDuration delay) {
    const Key key{sched_.now() + delay, next_seq_++};
    auto handler = [this, key] { fire(key); };
    const EventId id = absolute ? sched_.schedule_at(key.first, handler)
                                : sched_.schedule_in(delay, handler);
    insert(key);
    scheduled_.emplace_back(id, key);
  }

  // Arms the stream `delay` from now unless it is already armed.
  void arm_stream(SimDuration delay) {
    if (!with_stream_ || stream_armed_) return;
    stream_key_ = Key{sched_.now() + delay, next_seq_++};
    sched_.stream_at(stream_key_.first);
    stream_armed_ = true;
    insert(stream_key_);
  }

  void insert(const Key& key) {
    expected_.insert(key);
    peak_ = std::max(peak_, expected_.size());
  }

  void fire(const Key& key) {
    check_next(key);
    if (!with_stream_) {
      // Some handlers schedule follow-ups, some at the current instant.
      if (rng_() % 4 == 0) schedule(rng_() % 2 == 0);
      return;
    }
    follow_up();
  }

  void fire_stream() {
    check(stream_armed_);
    stream_armed_ = false;
    ++stream_fired_;
    check_next(stream_key_);
    follow_up();
  }

  void check_next(const Key& key) {
    check(!expected_.empty() && *expected_.begin() == key);
    check(sched_.now() == key.first);
    expected_.erase(key);
    ++fired_;
  }

  // What a handler does once its firing checks out, with the stream on:
  // nothing, a heap follow-up, a re-armed stream, or both at the current
  // instant in either seq order. At most 7/8 of a new event per firing
  // on average, so every chain dies out and drain() terminates.
  void follow_up() {
    switch (rng_() % 8) {
      case 0:
      case 1:
        schedule(rng_() % 2 == 0);
        break;
      case 2:
        arm_stream(stream_delay());
        break;
      case 3:  // stream first, then the heap, at this instant
        arm_stream(0.0);
        schedule(rng_() % 2 == 0, 0.0);
        break;
      case 4:  // heap first, then the stream, at this instant
        schedule(rng_() % 2 == 0, 0.0);
        arm_stream(0.0);
        break;
      default:
        break;
    }
  }

  void cancel_random() {
    if (scheduled_.empty()) return;
    const auto& [id, key] = scheduled_[rng_() % scheduled_.size()];
    check(sched_.cancel(id) == expected_.contains(key));
    expected_.erase(key);
  }

  void step() {
    const bool had_events = !expected_.empty();
    check(sched_.step() == had_events);
  }

  void run_until(SimTime horizon) {
    sched_.run_until(horizon);
    check(sched_.now() == horizon);
    check(expected_.empty() || expected_.begin()->first > horizon);
  }

  // Keeps cancel targets mostly live once the calendar is large.
  void prune_scheduled() {
    if (scheduled_.size() <= 2 * expected_.size() + 64) return;
    std::erase_if(scheduled_, [this](const std::pair<EventId, Key>& e) {
      return !expected_.contains(e.second);
    });
  }

  [[nodiscard]] std::size_t stream_count() const {
    return stream_armed_ ? 1 : 0;
  }

  void check_counters() {
    const Scheduler::Stats s = sched_.stats();
    check(s.fired == fired_);
    check(s.pending == expected_.size());
    check(s.peak_pending == peak_);
    check(s.stream_armed == stream_count());
    check(s.pool_size == s.pool_free + s.pending - s.stream_armed);
  }

  void check(bool ok) {
    if (!ok) ++mismatches_;
  }

  const bool with_stream_;
  Scheduler sched_;
  std::set<Key> expected_;
  std::vector<std::pair<EventId, Key>> scheduled_;
  bool stream_armed_ = false;
  Key stream_key_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t stream_fired_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t mismatches_ = 0;
  std::mt19937_64 rng_{20030415};
};

void drive_oracle(OrderOracle& oracle) {
  for (const std::size_t target : {5u, 3u, 17u, 15u, 65u, 63u, 4097u}) {
    oracle.drive_to(target);
  }
  oracle.cancel_storm(1000);
  for (const std::size_t target : {4097u, 300u, 70u, 20u, 3u, 0u}) {
    oracle.drive_to(target);
  }
  oracle.drain();
}

TEST(Scheduler, FiringOrderMatchesOrderedSetOracle) {
  OrderOracle oracle;
  drive_oracle(oracle);
  EXPECT_EQ(oracle.mismatches(), 0u);
  const Scheduler::Stats stats = oracle.sched().stats();
  EXPECT_GE(stats.peak_pending, 4097u);
  EXPECT_GE(stats.compactions, 1u);
  EXPECT_GT(stats.cancelled, 3000u);
}

TEST(Scheduler, StreamAndHeapFiringOrderMatchesOrderedSetOracle) {
  OrderOracle oracle(/*with_stream=*/true);
  drive_oracle(oracle);
  EXPECT_EQ(oracle.mismatches(), 0u);
  EXPECT_GT(oracle.stream_fired(), 200u);
  const Scheduler::Stats stats = oracle.sched().stats();
  EXPECT_GE(stats.peak_pending, 4097u);
  EXPECT_GE(stats.compactions, 1u);
  EXPECT_GT(stats.cancelled, 3000u);
}

TEST(Scheduler, StreamTakesItsSeqWhereScheduleAtWould) {
  // At one instant the stream and heap events fire in the order they
  // were armed and scheduled, whichever came first, also when a stream
  // handler re-arms beside a heap follow-up (heap first on the first
  // firing, stream first on the second).
  Scheduler sched;
  std::vector<int> order;
  int stream_fires = 0;
  sched.set_stream([&] {
    order.push_back(-++stream_fires);
    if (stream_fires == 1) {
      sched.schedule_at(1.0, [&] { order.push_back(3); });
      sched.stream_at(1.0);
    } else if (stream_fires == 2) {
      sched.stream_at(1.0);
      sched.schedule_at(1.0, [&] { order.push_back(4); });
    }
  });
  sched.schedule_at(1.0, [&] { order.push_back(1); });
  sched.stream_at(1.0);
  sched.schedule_at(1.0, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, -1, 2, 3, -2, -3, 4}));
  EXPECT_EQ(sched.fired(), 7u);
}

TEST(Scheduler, StreamCountsAsPendingAndFired) {
  Scheduler sched;
  int fires = 0;
  sched.set_stream([&] {
    if (++fires < 4) sched.stream_at(sched.now() + 1.0);
  });
  sched.stream_at(1.0);
  sched.schedule_at(1.5, [] {});
  EXPECT_EQ(sched.pending(), 2u);
  EXPECT_EQ(sched.stats().peak_pending, 2u);
  EXPECT_EQ(sched.stats().pool_size, 1u);
  sched.run_until(2.0);  // the stream at exactly the horizon fires
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(sched.pending(), 1u);
  sched.run();
  EXPECT_EQ(fires, 4);
  EXPECT_EQ(sched.now(), 4.0);
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.fired(), 5u);
}

TEST(Scheduler, NegativeZeroFiresBeforeALaterPositiveZero) {
  // -0.0 passes `at >= now()` at t = 0, and its bit pattern would rank
  // after every other time; the scheduler stores it as +0.0.
  Scheduler sched;
  std::vector<int> order;
  sched.set_stream([&] { order.push_back(2); });
  sched.schedule_at(-0.0, [&] { order.push_back(1); });
  sched.stream_at(-0.0);
  sched.schedule_at(0.0, [&] { order.push_back(3); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(std::signbit(sched.now()));
}

TEST(SchedulerDeathTest, ArmingAnArmedStreamAborts) {
  Scheduler sched;
  sched.set_stream([] {});
  sched.stream_at(1.0);
  EXPECT_DEATH(sched.stream_at(2.0), "precondition");
}

TEST(SchedulerDeathTest, ArmingAnUninstalledStreamAborts) {
  Scheduler sched;
  EXPECT_DEATH(sched.stream_at(1.0), "precondition");
}

}  // namespace
}  // namespace anufs::sim
