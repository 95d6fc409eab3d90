// Tests for the FIFO queueing resource.
#include "sim/queueing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <map>
#include <new>
#include <vector>

#include "cluster/server_node.h"
#include "sim/distributions.h"
#include "sim/random.h"
#include "sim/scheduler.h"

// Every heap allocation this executable makes, counted so the
// steady-state test below can assert the request path makes none.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC flags free() of a pointer that came from operator new, which is
// exactly what a replacement pair over malloc does.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace anufs::sim {
namespace {

TEST(FifoServer, SingleJobLatencyIsServiceTime) {
  Scheduler sched;
  std::vector<JobCompletion> done;
  FifoServer server(sched, 2.0,
                    [&](const JobCompletion& c) { done.push_back(c); });
  server.submit(1.0, 7);
  sched.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].latency(), 0.5);  // demand 1.0 / speed 2.0
  EXPECT_DOUBLE_EQ(done[0].wait(), 0.0);
  EXPECT_EQ(done[0].tag, 7u);
}

TEST(FifoServer, JobsServeFifo) {
  Scheduler sched;
  std::vector<std::uint64_t> order;
  FifoServer server(sched, 1.0,
                    [&](const JobCompletion& c) { order.push_back(c.tag); });
  for (std::uint64_t i = 0; i < 5; ++i) server.submit(1.0, i);
  sched.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(FifoServer, QueueingDelaysLatency) {
  Scheduler sched;
  std::vector<double> latencies;
  FifoServer server(sched, 1.0, [&](const JobCompletion& c) {
    latencies.push_back(c.latency());
  });
  for (int i = 0; i < 3; ++i) server.submit(2.0, 0);
  sched.run();
  ASSERT_EQ(latencies.size(), 3u);
  EXPECT_DOUBLE_EQ(latencies[0], 2.0);
  EXPECT_DOUBLE_EQ(latencies[1], 4.0);
  EXPECT_DOUBLE_EQ(latencies[2], 6.0);
}

TEST(FifoServer, SpeedDividesServiceTime) {
  Scheduler sched;
  double slow_done = 0.0;
  double fast_done = 0.0;
  FifoServer slow(sched, 1.0,
                  [&](const JobCompletion& c) { slow_done = c.completion; });
  FifoServer fast(sched, 9.0,
                  [&](const JobCompletion& c) { fast_done = c.completion; });
  slow.submit(9.0, 0);
  fast.submit(9.0, 0);
  sched.run();
  EXPECT_DOUBLE_EQ(slow_done, 9.0);
  EXPECT_DOUBLE_EQ(fast_done, 1.0);
}

TEST(FifoServer, SpeedChangeAppliesToNextService) {
  Scheduler sched;
  std::vector<double> completions;
  FifoServer server(sched, 1.0, [&](const JobCompletion& c) {
    completions.push_back(c.completion);
  });
  server.submit(1.0, 0);
  server.submit(1.0, 1);
  // Upgrade while the first job is in service.
  sched.schedule_at(0.5, [&] { server.set_speed(2.0); });
  sched.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_DOUBLE_EQ(completions[0], 1.0);  // started before the upgrade
  EXPECT_DOUBLE_EQ(completions[1], 1.5);  // 1.0 + 1.0/2.0
}

TEST(FifoServer, OccupyBlocksQueue) {
  Scheduler sched;
  bool stall_done = false;
  double job_completion = 0.0;
  FifoServer server(sched, 1.0, [&](const JobCompletion& c) {
    job_completion = c.completion;
  });
  server.occupy(5.0, [&] { stall_done = true; });
  server.submit(1.0, 0);
  sched.run();
  EXPECT_TRUE(stall_done);
  EXPECT_DOUBLE_EQ(job_completion, 6.0);
}

TEST(FifoServer, OccupyIsFifoOrdered) {
  Scheduler sched;
  double job_completion = 0.0;
  FifoServer server(sched, 1.0, [&](const JobCompletion& c) {
    job_completion = c.completion;
  });
  server.submit(2.0, 0);
  server.occupy(5.0);
  sched.run();
  EXPECT_DOUBLE_EQ(job_completion, 2.0);  // job entered first
  EXPECT_DOUBLE_EQ(sched.now(), 7.0);     // stall ran after
}

TEST(FifoServer, BusyTimeAccumulates) {
  Scheduler sched;
  FifoServer server(sched, 2.0);
  server.submit(4.0, 0);
  server.occupy(1.0);
  sched.run();
  EXPECT_DOUBLE_EQ(server.busy_time(), 3.0);  // 4/2 + 1
}

TEST(FifoServer, CompletedCounts) {
  Scheduler sched;
  FifoServer server(sched, 1.0);
  for (int i = 0; i < 4; ++i) server.submit(0.5, 0);
  server.occupy(1.0);  // stalls do not count as completions
  sched.run();
  EXPECT_EQ(server.completed(), 4u);
}

TEST(FifoServer, QueueLengthExcludesInService) {
  Scheduler sched;
  FifoServer server(sched, 1.0);
  server.submit(1.0, 0);
  server.submit(1.0, 0);
  server.submit(1.0, 0);
  EXPECT_TRUE(server.busy());
  EXPECT_EQ(server.queue_length(), 3u);  // the ring holds all incl. in-service
  sched.run();
  EXPECT_EQ(server.queue_length(), 0u);
  EXPECT_FALSE(server.busy());
}

TEST(FifoServer, ResetDropsQueuedJobs) {
  Scheduler sched;
  int completions = 0;
  FifoServer server(sched, 1.0, [&](const JobCompletion&) { ++completions; });
  for (int i = 0; i < 5; ++i) server.submit(1.0, 0);
  sched.schedule_at(2.5, [&] {
    const std::size_t lost = server.reset();
    EXPECT_EQ(lost, 3u);  // 2 completed (t=1,2), 3 dropped
  });
  sched.run();
  EXPECT_EQ(completions, 2);
  EXPECT_FALSE(server.busy());
}

TEST(FifoServer, ResetOrphansInFlightCompletion) {
  Scheduler sched;
  bool completed = false;
  FifoServer server(sched, 1.0,
                    [&](const JobCompletion&) { completed = true; });
  server.submit(2.0, 0);
  sched.schedule_at(1.0, [&] { server.reset(); });
  sched.run();
  EXPECT_FALSE(completed);  // the scheduled completion event was stale
}

TEST(FifoServer, UsableAfterReset) {
  Scheduler sched;
  std::vector<JobCompletion> done;
  FifoServer server(sched, 1.0,
                    [&](const JobCompletion& c) { done.push_back(c); });
  server.submit(10.0, 0);
  sched.schedule_at(1.0, [&] {
    server.reset();
    server.submit(1.0, 1);
  });
  sched.run();
  EXPECT_EQ(server.completed(), 1u);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].tag, 1u);
  EXPECT_DOUBLE_EQ(done[0].latency(), 1.0);
}

TEST(FifoServer, BackdatedArrivalExtendsLatency) {
  Scheduler sched;
  double latency = 0.0;
  FifoServer server(sched, 1.0,
                    [&](const JobCompletion& c) { latency = c.latency(); });
  sched.schedule_at(10.0, [&] { server.submit(1.0, 0, /*arrival=*/4.0); });
  sched.run();
  EXPECT_DOUBLE_EQ(latency, 7.0);  // waited 6 held + 1 service
}

TEST(FifoServer, DeferredDemandEvaluatedAtServiceStart) {
  Scheduler sched;
  double current_cost = 1.0;
  std::vector<double> served;
  FifoServer server(sched, 1.0, [&](const JobCompletion& c) {
    served.push_back(c.demand);
  });
  // Two deferred jobs; the cost variable changes between their starts.
  for (int i = 0; i < 2; ++i) {
    server.submit_deferred([&current_cost] { return current_cost; }, 0);
  }
  sched.schedule_at(0.5, [&] { current_cost = 3.0; });
  sched.run();
  ASSERT_EQ(served.size(), 2u);
  EXPECT_DOUBLE_EQ(served[0], 1.0);  // started at t=0 with cost 1
  EXPECT_DOUBLE_EQ(served[1], 3.0);  // started at t=1 after the change
}

TEST(FifoServer, DeferredJobsKeepFifoOrder) {
  Scheduler sched;
  std::vector<std::uint64_t> order;
  FifoServer server(sched, 2.0,
                    [&](const JobCompletion& c) { order.push_back(c.tag); });
  server.submit(1.0, 1);
  server.submit_deferred([] { return 1.0; }, 2);
  server.submit(1.0, 3);
  sched.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(FifoServer, DeferredDemandDividedBySpeed) {
  Scheduler sched;
  double completion = 0.0;
  FifoServer server(sched, 4.0,
                    [&](const JobCompletion& c) { completion = c.completion; });
  server.submit_deferred([] { return 2.0; }, 0);
  sched.run();
  EXPECT_DOUBLE_EQ(completion, 0.5);
}

TEST(FifoServer, DeferredEvaluatedExactlyOnce) {
  Scheduler sched;
  FifoServer server(sched, 1.0);
  int evaluations = 0;
  server.submit_deferred(
      [&evaluations] {
        ++evaluations;
        return 1.0;
      },
      0);
  sched.run();
  EXPECT_EQ(evaluations, 1);
}

TEST(FifoServer, DeferredLostOnReset) {
  Scheduler sched;
  FifoServer server(sched, 1.0);
  int evaluations = 0;
  server.submit(5.0, 0);  // keeps the channel busy
  server.submit_deferred(
      [&evaluations] {
        ++evaluations;
        return 1.0;
      },
      0);
  sched.schedule_at(1.0, [&] { EXPECT_EQ(server.reset(), 2u); });
  sched.run();
  EXPECT_EQ(evaluations, 0);  // never reached service
}

// M/M/1 sanity: with utilization rho, mean sojourn time converges to
// E[S]/(1-rho). This validates the queueing core against theory.
TEST(FifoServer, MM1MeanSojourn) {
  Scheduler sched;
  Xoshiro256 rng{42};
  const double lambda = 0.5;   // arrivals per second
  const double mean_service = 1.0;  // rho = 0.5
  double total_latency = 0.0;
  std::uint64_t completions = 0;
  FifoServer server(sched, 1.0, [&](const JobCompletion& c) {
    total_latency += c.latency();
    ++completions;
  });

  double t = 0.0;
  for (int i = 0; i < 200000; ++i) {
    t += sample_exponential(rng, lambda);
    const double demand = sample_exponential(rng, 1.0 / mean_service);
    sched.schedule_at(t, [&, demand] { server.submit(demand, 0); });
  }
  sched.run();
  const double mean = total_latency / static_cast<double>(completions);
  // Theory: E[T] = E[S]/(1-rho) = 1/(1-0.5) = 2.0. Allow 5% noise.
  EXPECT_NEAR(mean, 2.0, 0.1);
}

// ---------------------------------------------------------------------------
// Lockstep oracle. A seeded random mix of submit, submit_deferred, occupy
// (with and without done), set_speed and reset runs through a real
// Scheduler, and every completion, stall `done` and operation is checked
// against a reference model that keeps full job records in a deque: the
// job's kind, demand, arrival and tag together, with no side queues.

class FifoLockstep {
 public:
  explicit FifoLockstep(std::uint64_t seed)
      : rng_(seed),
        server_(sched_, 1.0,
                [this](const JobCompletion& c) { on_completion(c); }) {}

  void run(int ops) {
    SimTime t = 0.0;
    for (int i = 0; i < ops; ++i) {
      t += sample_exponential(rng_, 1.0);
      sched_.schedule_at(t, [this] { random_op(); });
    }
    sched_.run();
    settle();
    check_state();
    EXPECT_FALSE(server_.busy());
    EXPECT_TRUE(queue_.empty());
    // Every deferred demand was evaluated exactly once, at the service
    // start the model predicted, and no job lost before it started was
    // ever evaluated.
    ASSERT_EQ(evals_.size(), started_deferred_.size());
    for (const auto& [tag, start] : started_deferred_) {
      const auto it = evals_.find(tag);
      ASSERT_NE(it, evals_.end()) << "deferred job " << tag;
      EXPECT_EQ(it->second.count, 1) << "deferred job " << tag;
      EXPECT_EQ(it->second.time, start) << "deferred job " << tag;
    }
  }

  // Coverage, so a generator change cannot quietly stop testing a path.
  std::uint64_t completions = 0;
  std::uint64_t deferred_completions = 0;
  std::uint64_t stall_dones = 0;
  std::uint64_t jobs_lost = 0;
  std::size_t peak_queue = 0;

 private:
  enum class Kind { kRequest, kDeferred, kStall, kStallDone };
  struct RefJob {
    Kind kind;
    double demand;  // unknown (0) for deferred jobs until evaluated
    SimTime arrival;
    std::uint64_t tag;  // request tag, or stall id for kStallDone
  };
  struct Eval {
    SimTime time = 0.0;
    double value = 0.0;
    int count = 0;
  };

  static bool is_request(Kind k) {
    return k == Kind::kRequest || k == Kind::kDeferred;
  }

  double draw_demand() { return 0.05 + sample_exponential(rng_, 0.5); }

  // --- operations, applied to the server and the model together ---

  void submit() {
    const std::uint64_t tag = next_tag_++;
    const double demand = draw_demand();
    SimTime arrival = sched_.now();
    if (rng_() % 4 == 0) arrival -= rng_.next_double() * std::min(arrival, 5.0);
    server_.submit(demand, tag, arrival);
    push(RefJob{Kind::kRequest, demand, arrival, tag});
  }

  void submit_deferred() {
    const std::uint64_t tag = next_tag_++;
    server_.submit_deferred([this, tag] { return evaluate(tag); }, tag);
    push(RefJob{Kind::kDeferred, 0.0, sched_.now(), tag});
  }

  void occupy(bool with_done) {
    const double duration = draw_demand();
    if (with_done) {
      const std::uint64_t id = next_tag_++;
      server_.occupy(duration, [this, id] { on_stall_done(id); });
      push(RefJob{Kind::kStallDone, duration, sched_.now(), id});
    } else {
      server_.occupy(duration);
      push(RefJob{Kind::kStall, duration, sched_.now(), 0});
    }
  }

  void reset() {
    const auto lost = static_cast<std::size_t>(std::count_if(
        queue_.begin(), queue_.end(),
        [](const RefJob& j) { return is_request(j.kind); }));
    queue_.clear();
    in_service_ = false;
    EXPECT_EQ(server_.reset(), lost);
    jobs_lost += lost;
  }

  void random_op() {
    settle();
    const std::uint64_t pick = rng_() % 100;
    if (pick < 33) {
      submit();
    } else if (pick < 48) {
      submit_deferred();
    } else if (pick < 58) {
      occupy(/*with_done=*/false);
    } else if (pick < 68) {
      occupy(/*with_done=*/true);
    } else if (pick < 78) {
      speed_ = 0.25 + 4.0 * rng_.next_double();
      server_.set_speed(speed_);
    } else if (pick < 83) {
      reset();
    } else if (pick < 88) {
      // A burst deep enough to grow the ring with its head anywhere.
      const std::uint64_t n = 8 + rng_() % 40;
      for (std::uint64_t i = 0; i < n; ++i) {
        if (i % 3 == 1) {
          submit_deferred();
        } else if (i % 5 == 4) {
          occupy(/*with_done=*/(i & 1) != 0);
        } else {
          submit();
        }
      }
    } else {
      cost_ = draw_demand();  // what the next deferred evaluation returns
    }
    check_state();
  }

  // A callback re-entering the server, as ClusterSim's hooks do.
  void maybe_reenter() {
    const std::uint64_t pick = rng_() % 8;
    if (pick == 0) {
      submit();
    } else if (pick == 1) {
      submit_deferred();
    } else if (pick == 2) {
      occupy(/*with_done=*/true);
    }
  }

  // --- deliveries from the server, checked against the model ---

  double evaluate(std::uint64_t tag) {
    Eval& e = evals_[tag];
    e.time = sched_.now();
    e.value = cost_;
    ++e.count;
    return cost_;
  }

  void on_completion(const JobCompletion& c) {
    settle();
    ASSERT_TRUE(in_service_ && !queue_.empty()) << "unexpected completion";
    const RefJob job = queue_.front();
    ASSERT_TRUE(is_request(job.kind)) << "completion for a stall";
    queue_.pop_front();
    in_service_ = false;
    double demand = job.demand;
    if (job.kind == Kind::kDeferred) {
      const Eval& e = evals_[job.tag];
      EXPECT_EQ(e.count, 1);
      EXPECT_EQ(e.time, start_);  // evaluated when service started
      demand = e.value;
      ++deferred_completions;
    }
    EXPECT_EQ(c.tag, job.tag);
    EXPECT_EQ(c.arrival, job.arrival);
    EXPECT_EQ(c.start, start_);
    EXPECT_EQ(c.demand, demand);
    EXPECT_EQ(c.completion, start_ + demand / start_speed_);
    EXPECT_EQ(c.completion, sched_.now());
    ++completions;
    check_state();
    maybe_reenter();
    start_next(sched_.now());
  }

  void on_stall_done(std::uint64_t id) {
    settle();
    ASSERT_TRUE(in_service_ && !queue_.empty()) << "unexpected stall done";
    const RefJob job = queue_.front();
    ASSERT_EQ(job.kind, Kind::kStallDone);
    EXPECT_EQ(job.tag, id);
    EXPECT_EQ(sched_.now(), start_ + job.demand);
    queue_.pop_front();
    in_service_ = false;
    ++stall_dones;
    check_state();
    maybe_reenter();
    start_next(sched_.now());
  }

  // --- the model ---

  void push(const RefJob& job) {
    queue_.push_back(job);
    peak_queue = std::max(peak_queue, queue_.size());
    start_next(sched_.now());
  }

  void start_next(SimTime at) {
    if (in_service_ || queue_.empty()) return;
    in_service_ = true;
    start_ = at;
    start_speed_ = speed_;
    if (queue_.front().kind == Kind::kDeferred) {
      started_deferred_[queue_.front().tag] = at;
    }
  }

  // Stalls without `done` finish silently: retire every one whose end
  // has passed, starting the next job where the stall ended.
  void settle() {
    while (in_service_ && queue_.front().kind == Kind::kStall &&
           start_ + queue_.front().demand <= sched_.now()) {
      const SimTime end = start_ + queue_.front().demand;
      queue_.pop_front();
      in_service_ = false;
      start_next(end);
    }
  }

  void check_state() {
    EXPECT_EQ(server_.busy(), in_service_);
    EXPECT_EQ(server_.queue_length(), queue_.size());
    EXPECT_EQ(server_.completed(), completions);
  }

  Scheduler sched_;
  Xoshiro256 rng_;
  FifoServer server_;
  std::deque<RefJob> queue_;
  bool in_service_ = false;
  SimTime start_ = 0.0;
  double start_speed_ = 1.0;
  double speed_ = 1.0;
  double cost_ = 1.0;
  std::uint64_t next_tag_ = 1;
  std::map<std::uint64_t, Eval> evals_;
  std::map<std::uint64_t, SimTime> started_deferred_;
};

TEST(FifoServer, LockstepWithFullRecordModel) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    FifoLockstep lockstep(seed);
    lockstep.run(/*ops=*/500);
    EXPECT_GT(lockstep.completions, 0u);
    EXPECT_GT(lockstep.deferred_completions, 0u);
    EXPECT_GT(lockstep.stall_dones, 0u);
    EXPECT_GT(lockstep.jobs_lost, 0u);
    EXPECT_GT(lockstep.peak_queue, 16u);
  }
}

// ---------------------------------------------------------------------------
// Steady state allocates nothing. A closed loop of clients, each with at
// most one job at the server, cycles submit -> complete -> think -> submit
// through Scheduler, FifoServer and ServerNode. Every client arrives at
// time zero, so every queue reaches its peak depth at once; after that
// warm-up, 100k cycles must not call operator new.

struct ClosedLoop {
  static constexpr std::uint32_t kClients = 64;

  Scheduler sched;
  cluster::ServerNode node{sched, ServerId{0}, 8.0};
  Xoshiro256 rng{7};
  std::uint64_t cycles = 0;

  ClosedLoop() {
    node.set_completion_hook([this](FileSetId fs, const JobCompletion&) {
      ++cycles;
      sched.schedule_in(sample_exponential(rng, 1.0),
                        [this, fs] { arrive(fs); });
    });
    for (std::uint32_t i = 0; i < kClients; ++i) {
      sched.schedule_at(0.0, [this, i] { arrive(FileSetId{i}); });
    }
  }

  // Client i's kind is fixed, so each side FIFO's depth is bounded by
  // its client count: plain requests, deferred requests, and requests
  // forwarded through a stall first.
  void arrive(FileSetId fs) {
    switch (fs.value % 4) {
      case 1:
        node.submit_deferred(fs, [this] { return demand(); });
        break;
      case 2:
        node.stall_then(0.1, [this, fs] { node.submit(fs, demand()); });
        break;
      default:
        node.submit(fs, demand());
        break;
    }
  }

  double demand() { return 0.5 + rng.next_double(); }

  void run_cycles(std::uint64_t n) {
    const std::uint64_t target = cycles + n;
    while (cycles < target && sched.step()) {
    }
  }
};

TEST(FifoServer, SteadyStateCyclesAllocateNothing) {
  ClosedLoop loop;
  loop.run_cycles(10000);  // warm-up
  const std::uint64_t before = g_allocations.load();
  loop.run_cycles(100000);
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(loop.cycles, 110000u);
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(loop.node.completed(), loop.cycles);
}

}  // namespace
}  // namespace anufs::sim
