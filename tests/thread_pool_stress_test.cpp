// Stress tests for ThreadPool aimed at the tsan preset: hammer the
// submit / wait_idle / shutdown edges and the per-run isolation rule
// (concurrent Schedulers with schedule storms) hard enough that any data
// race or lost-wakeup window surfaces under ThreadSanitizer. The
// assertions also hold in normal builds; TSan is what makes the
// *absence* of races a checked property rather than a code-review claim.
#include "sim/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/scheduler.h"

namespace anufs::sim {
namespace {

TEST(ThreadPoolStress, ManyProducersOneConsumerDrain) {
  // Several external threads submit concurrently while the main thread
  // repeatedly joins on wait_idle: exercises the queue mutex, the
  // task_ready wakeup, and the all_idle edge from both sides.
  std::atomic<int> count{0};
  ThreadPool pool(4);
  std::vector<std::thread> producers;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &count] {
      for (int i = 0; i < kPerProducer; ++i) {
        pool.submit([&count] { count.fetch_add(1); });
      }
    });
  }
  for (std::thread& t : producers) t.join();
  pool.wait_idle();
  EXPECT_EQ(count.load(), kProducers * kPerProducer);
}

TEST(ThreadPoolStress, SubmitFromInsideRunningTasks) {
  // Tasks fan out recursively from inside the pool (the documented
  // "safe to call from any thread, including from inside a running
  // task" contract). wait_idle must not report idle while any
  // descendant is still pending.
  std::atomic<int> count{0};
  ThreadPool pool(3);
  // Each task at depth d > 0 spawns two at depth d-1: 2^6 - 1 tasks.
  std::function<void(int)> spawn = [&](int depth) {
    count.fetch_add(1);
    if (depth == 0) return;
    pool.submit([&spawn, depth] { spawn(depth - 1); });
    pool.submit([&spawn, depth] { spawn(depth - 1); });
  };
  pool.submit([&spawn] { spawn(5); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 63);
}

TEST(ThreadPoolStress, ConcurrentWaitIdleObservers) {
  // wait_idle from many threads at once: every observer must see the
  // fully drained state, and none may deadlock on a missed notify.
  std::atomic<int> count{0};
  ThreadPool pool(2);
  for (int i = 0; i < 200; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  std::vector<std::thread> observers;
  std::atomic<int> observed{0};
  for (int i = 0; i < 4; ++i) {
    observers.emplace_back([&pool, &count, &observed] {
      pool.wait_idle();
      if (count.load() == 200) observed.fetch_add(1);
    });
  }
  for (std::thread& t : observers) t.join();
  EXPECT_EQ(observed.load(), 4);
}

TEST(ThreadPoolStress, ShutdownDrainsConcurrentBacklog) {
  // Destruction with a deep backlog from multiple producers: the
  // destructor must drain every pending task exactly once, racing the
  // workers that are still picking tasks up.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    {
      ThreadPool pool(3);
      std::vector<std::thread> producers;
      for (int p = 0; p < 3; ++p) {
        producers.emplace_back([&pool, &count] {
          for (int i = 0; i < 100; ++i) {
            pool.submit([&count] { count.fetch_add(1); });
          }
        });
      }
      for (std::thread& t : producers) t.join();
      // Pool destructor runs here with (possibly) hundreds queued.
    }
    ASSERT_EQ(count.load(), 300);
  }
}

TEST(ThreadPoolStress, ZeroThreadClampStillDrains) {
  // The --jobs 0 / failed-nproc-probe path: a clamped single worker
  // must behave like any other pool, including under outside producers.
  std::atomic<int> count{0};
  ThreadPool pool(0);
  ASSERT_EQ(pool.size(), 1u);
  std::thread producer([&pool, &count] {
    for (int i = 0; i < 300; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  });
  producer.join();
  pool.wait_idle();
  EXPECT_EQ(count.load(), 300);
}

TEST(ThreadPoolStress, IndependentSchedulersWithScheduleStorms) {
  // The isolation rule under fire: each parallel_for index owns its own
  // Scheduler and runs a schedule storm on it, whose handlers schedule
  // follow-ups. Under TSan this proves whole-run parallelism shares no
  // engine state — the property the parallel sweep's bit-identical claim
  // rests on.
  constexpr std::size_t kRuns = 8;
  std::vector<std::uint64_t> fired(kRuns, 0);
  std::vector<std::uint64_t> allocated(kRuns, 0);
  std::vector<std::uint64_t> recycled(kRuns, 0);
  parallel_for(kRuns, 4, [&](std::size_t i) {
    Scheduler sched;
    for (int round = 0; round < 50; ++round) {
      for (int e = 0; e < 40; ++e) {
        sched.schedule_in(static_cast<double>(e % 7), [&sched, e] {
          sched.schedule_in(static_cast<double>(e % 3), [] {});
        });
      }
      sched.run();
    }
    const Scheduler::Stats stats = sched.stats();  // by-value snapshot
    fired[i] = stats.fired;
    allocated[i] = stats.pool_allocated;
    recycled[i] = stats.pool_recycled;
  });
  // Identical storms => identical per-run counters, regardless of
  // which worker executed which run.
  for (std::size_t i = 1; i < kRuns; ++i) {
    EXPECT_EQ(fired[i], fired[0]);
    EXPECT_EQ(allocated[i], allocated[0]);
    EXPECT_EQ(recycled[i], recycled[0]);
  }
  EXPECT_EQ(fired[0], 50u * 80u);
  // Steady state really recycles: the pool grows only in the first
  // round (40 concurrent events; a follow-up takes the slot its parent
  // just freed); every other schedule is served from the free list.
  EXPECT_EQ(allocated[0], 40u);
  EXPECT_EQ(recycled[0], 50u * 80u - 40u);
}

TEST(ThreadPoolStress, RapidConstructDestructCycles) {
  // Construction/teardown races: a pool whose workers may not even have
  // reached their first wait when shutdown begins.
  for (int i = 0; i < 100; ++i) {
    std::atomic<int> count{0};
    ThreadPool pool(2);
    pool.submit([&count] { count.fetch_add(1); });
    // Immediate destruction: must still run the one task.
    pool.wait_idle();
    ASSERT_EQ(count.load(), 1);
  }
}

}  // namespace
}  // namespace anufs::sim
