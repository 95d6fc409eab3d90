// Microbenchmarks (google-benchmark) for the mechanism costs the paper
// argues are negligible: hashing, probe-based lookup ("a hash probe does
// no I/O ... successive hash probes incur negligible costs"), the
// delegate's retune step, and region reshaping / re-partitioning.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/anu_system.h"
#include "core/collection.h"
#include "core/placement_cache.h"
#include "core/tuner.h"
#include "hash/hash_family.h"
#include "obs/trace.h"
#include "policies/anu_policy.h"
#include "policies/join_idle_queue.h"
#include "policies/pow_d.h"
#include "serve/lookup_service.h"
#include "serve/snapshot.h"
#include "sim/distributions.h"
#include "sim/queueing.h"
#include "sim/random.h"
#include "sim/scheduler.h"
#include "workload/dfstrace_like.h"
#include "workload/spec.h"
#include "workload/synthetic.h"

namespace {

using namespace anufs;

void BM_HashProbe(benchmark::State& state) {
  const hash::HashFamily family;
  std::uint64_t fp = 0x12345678ULL;
  std::uint32_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(family.probe(fp++, round++ & 15u));
  }
}
BENCHMARK(BM_HashProbe);

// Fresh random fingerprints through a PlacementCache: every lookup
// misses, so this is the memo's overhead on top of the probe chain
// (compare BM_LocateUncached).
void BM_LocateCacheMiss(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < n; ++i) servers.push_back(ServerId{i});
  const core::AnuSystem system{core::AnuConfig{}, servers};
  core::PlacementCache cache(16384);
  sim::Xoshiro256 rng{123};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.locate(system.placement(), rng()));
  }
  state.counters["hit_rate"] = cache.stats().hit_rate();
}
BENCHMARK(BM_LocateCacheMiss)->Arg(5)->Arg(64)->Arg(512);

// A simulated run touches the same file sets over and over: the paper's
// workloads have hundreds of file sets, not millions (the synthetic
// workload defaults to 500). Model that with a fixed working set cycled
// in order — the steady state of route().
constexpr std::size_t kWorkingSet = 512;

std::vector<std::uint64_t> working_set_fps() {
  sim::Xoshiro256 rng{123};
  std::vector<std::uint64_t> fps(kWorkingSet);
  for (auto& fp : fps) fp = rng();
  return fps;
}

void BM_LocateUncached(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < n; ++i) servers.push_back(ServerId{i});
  const core::AnuSystem system{core::AnuConfig{}, servers};
  const std::vector<std::uint64_t> fps = working_set_fps();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.locate_detailed(fps[i]));
    i = (i + 1) & (kWorkingSet - 1);
  }
}
BENCHMARK(BM_LocateUncached)->Arg(5)->Arg(64)->Arg(512);

void BM_LocateCached(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < n; ++i) servers.push_back(ServerId{i});
  const core::AnuSystem system{core::AnuConfig{}, servers};
  core::PlacementCache cache(16384);
  const std::vector<std::uint64_t> fps = working_set_fps();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.locate(system.placement(), fps[i]));
    i = (i + 1) & (kWorkingSet - 1);
  }
  state.counters["hit_rate"] = cache.stats().hit_rate();
}
BENCHMARK(BM_LocateCached)->Arg(5)->Arg(64)->Arg(512);

// Batched addressing (PlacementMap::locate_many, no cache): one SoA
// sweep resolves the whole batch — round-major multi-lane mixing plus
// contiguous owner-table probes — so the per-element cost (items/s)
// is the number to compare against BM_LocateUncached's serial
// probe-chain chasing. Arg is the batch size; the cluster is fixed at
// 64 servers to match the scalar baseline's middle arg.
void BM_LocateBatch(benchmark::State& state) {
  const auto batch = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < 64; ++i) servers.push_back(ServerId{i});
  const core::AnuSystem system{core::AnuConfig{}, servers};
  const std::vector<std::uint64_t> fps = working_set_fps();
  std::vector<std::uint64_t> in(batch);
  for (std::uint32_t k = 0; k < batch; ++k) in[k] = fps[k & (kWorkingSet - 1)];
  std::vector<core::LocateResult> out(batch);
  for (auto _ : state) {
    system.locate_many(in, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_LocateBatch)->Arg(1)->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

// Batched cached addressing (PlacementCache::locate_many): steady state
// is one classification pass of pure hits, so this bounds the batch
// overhead over BM_LocateCached's per-lookup memo path.
void BM_LocateBatchCached(benchmark::State& state) {
  const auto batch = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < 64; ++i) servers.push_back(ServerId{i});
  const core::AnuSystem system{core::AnuConfig{}, servers};
  core::PlacementCache cache(16384);
  const std::vector<std::uint64_t> fps = working_set_fps();
  std::vector<std::uint64_t> in(batch);
  for (std::uint32_t k = 0; k < batch; ++k) in[k] = fps[k & (kWorkingSet - 1)];
  std::vector<core::LocateResult> out(batch);
  for (auto _ : state) {
    cache.locate_many(system.placement(), in, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * batch);
  state.counters["hit_rate"] = cache.stats().hit_rate();
}
BENCHMARK(BM_LocateBatchCached)->Arg(1)->Arg(8)->Arg(64)->Arg(1024);

// The serving hot path (src/serve): pin a published snapshot, run one
// batch of cached lookups against its map, release the pin. This is
// exactly one reader-loop iteration of serve::LookupService, so the
// items/s rate is the single-thread ceiling of `anufs_serve`; the
// multi-thread number is measured live by the tool and the serve-smoke
// gate. The epoch pin/unpin amortizes across the batch — growing the
// batch should leave the per-item cost flat at the BM_LocateCached
// floor.
void BM_ServeLocate(benchmark::State& state) {
  const auto batch = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < 16; ++i) servers.push_back(ServerId{i});
  core::AnuSystem system{core::AnuConfig{}, servers};
  serve::SnapshotStore store(/*max_readers=*/1);
  store.publish(system.placement());
  core::PlacementCache cache(16384);
  const std::vector<std::uint64_t> fps = working_set_fps();
  std::size_t i = 0;
  std::uint64_t folded = 0;
  for (auto _ : state) {
    const serve::Snapshot* snap = store.acquire(0);
    for (std::uint32_t k = 0; k < batch; ++k) {
      folded ^= cache.locate(snap->map, fps[i]).server.value;
      i = (i + 1) & (kWorkingSet - 1);
    }
    store.release(0);
  }
  benchmark::DoNotOptimize(folded);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * batch);
  state.counters["hit_rate"] = cache.stats().hit_rate();
}
BENCHMARK(BM_ServeLocate)->Arg(1)->Arg(64)->Arg(256);

// The batched reader-loop iteration: one epoch pin, then
// serve::serve_batch, the very kernel LookupService::run_batch calls
// (two-pass key draw, one map.locate_many sweep, the digest fold), then
// the release. Argument: batch size. The working set is drawn like the
// service's (sim::make_stream "serve/filesets"); serve-hot's shape is
// 16 servers and 4096 keys, serve-cold's 64 servers and 1M keys (8 MB,
// so the draw's loads miss the cache).
void serve_locate_batch(benchmark::State& state, std::uint32_t n_servers,
                        std::uint32_t n_keys) {
  const auto batch = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < n_servers; ++i) servers.push_back(ServerId{i});
  core::AnuSystem system{core::AnuConfig{}, servers};
  serve::SnapshotStore store(/*max_readers=*/1);
  store.publish(system.placement());
  std::vector<std::uint64_t> keys(n_keys);
  sim::Xoshiro256 key_stream = sim::make_stream(42, "serve/filesets");
  for (auto& key : keys) key = key_stream();
  sim::Xoshiro256 rng = sim::make_stream(42, "serve/reader");
  std::vector<std::uint64_t> fps(batch);
  std::vector<core::LocateResult> results(batch);
  std::uint64_t digest = 0;
  for (auto _ : state) {
    const serve::Snapshot* snap = store.acquire(0);
    digest = serve::serve_batch(snap->map, keys, rng, fps, results, digest,
                                /*stamps=*/nullptr);
    store.release(0);
  }
  benchmark::DoNotOptimize(digest);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * batch);
}
void BM_ServeLocateBatch(benchmark::State& state) {
  serve_locate_batch(state, 16, 4096);
}
BENCHMARK(BM_ServeLocateBatch)->Arg(1)->Arg(64)->Arg(256);
void BM_ServeLocateBatchCold(benchmark::State& state) {
  serve_locate_batch(state, 64, 1'000'000);
}
BENCHMARK(BM_ServeLocateBatchCold)->Arg(256);

// Argument: calendar depth (events pending at every step). 64 is a
// paper-scale run; sim-scale peaks near 42k pending, so 65536 is the
// depth that decides the simulator's event rate there.
void BM_SchedulerThroughput(benchmark::State& state) {
  const auto backlog = static_cast<int>(state.range(0));
  sim::Scheduler sched;
  sched.reserve(static_cast<std::size_t>(backlog));
  // Self-rescheduling tickers: every fired event schedules exactly one
  // more, so the pool reaches steady state immediately and every
  // schedule after warmup is served from the free list.
  struct Ticker {
    sim::Scheduler& sched;
    void arm(double at) {
      sched.schedule_at(at, [this, at] { arm(at + 1.0); });
    }
  };
  Ticker ticker{sched};
  for (int i = 0; i < backlog; ++i) {
    ticker.arm(static_cast<double>(i) / backlog);
  }
  for (auto _ : state) {
    sched.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  const sim::Scheduler::Stats stats = sched.stats();
  state.counters["pool_allocated"] =
      static_cast<double>(stats.pool_allocated);
  state.counters["pool_recycled"] = static_cast<double>(stats.pool_recycled);
}
BENCHMARK(BM_SchedulerThroughput)->Arg(64)->Arg(4096)->Arg(65536);

// Argument: calendar depth, as above. BM_SchedulerThroughput's tickers
// always schedule the latest event, the heap's best case: the new entry
// never rises. Here each fired event schedules its successor an
// exponential delay ahead (mean 1 s, fixed seed, drawn up front so the
// loop times only the calendar), so new entries land anywhere in the
// heap and the (time, seq) comparison decides at every level.
void BM_SchedulerRandomDelay(benchmark::State& state) {
  const auto backlog = static_cast<std::size_t>(state.range(0));
  std::vector<double> delays(std::size_t{1} << 16);
  sim::Xoshiro256 rng{42};
  for (double& d : delays) d = sim::sample_exponential(rng, 1.0);
  sim::Scheduler sched;
  sched.reserve(backlog);
  struct Source {
    sim::Scheduler& sched;
    const std::vector<double>& delays;
    std::size_t next = 0;
    void arm() {
      const double delay = delays[next++ & (delays.size() - 1)];
      sched.schedule_in(delay, [this] { arm(); });
    }
  };
  Source source{sched, delays};
  for (std::size_t i = 0; i < backlog; ++i) source.arm();
  for (auto _ : state) {
    sched.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SchedulerRandomDelay)->Arg(64)->Arg(4096)->Arg(65536);

// Argument: jobs at the server, counting the one in service. The sink
// submits a fresh job for every one that completes, so the depth holds
// and each step is one submit -> start -> complete cycle through a real
// Scheduler: the per-request cost of a simulated metadata server.
void BM_FifoServerThroughput(benchmark::State& state) {
  struct ClosedLoop {
    sim::Scheduler sched;
    sim::FifoServer server{sched, 2.0, [this](const sim::JobCompletion& c) {
                             server.submit(1.0, c.tag + 1);
                           }};
  };
  ClosedLoop loop;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    loop.server.submit(1.0, static_cast<std::uint64_t>(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.sched.step());
  }
  benchmark::DoNotOptimize(loop.server.completed());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FifoServerThroughput)->Arg(1)->Arg(16)->Arg(256);

// One tuning round: every server's measurement moved since the last
// round (two report sets alternate, as real reports never repeat bit
// for bit), so each call is the tuner's O(n) computation with dense
// per-server lookups.
void BM_Retune(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < n; ++i) servers.push_back(ServerId{i});
  core::AnuSystem system{core::AnuConfig{}, servers};
  sim::Xoshiro256 rng{5};
  std::vector<core::ServerReport> even;
  std::vector<core::ServerReport> odd;
  for (std::uint32_t i = 0; i < n; ++i) {
    even.push_back(core::ServerReport{
        ServerId{i}, 0.01 + 0.05 * rng.next_double(), 100 + i});
    odd.push_back(core::ServerReport{
        ServerId{i}, 0.01 + 0.05 * rng.next_double(), 100 + i});
  }
  core::LatencyTuner tuner{core::TunerConfig{}};
  bool flip = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tuner.retune(flip ? odd : even, system.regions()));
    flip = !flip;
  }
}
BENCHMARK(BM_Retune)->Arg(5)->Arg(64)->Arg(512)->Arg(1024)->Arg(2048)
    ->Arg(4096);

void BM_Rebalance(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < n; ++i) servers.push_back(ServerId{i});
  core::AnuSystem system{core::AnuConfig{}, servers};
  sim::Xoshiro256 rng{6};
  std::uint64_t round = 0;
  for (auto _ : state) {
    std::vector<core::ServerReport> reports;
    for (std::uint32_t i = 0; i < n; ++i) {
      reports.push_back(core::ServerReport{
          ServerId{i}, 0.01 + 0.05 * rng.next_double(), 100 + round});
    }
    benchmark::DoNotOptimize(system.reconfigure(reports));
    ++round;
  }
}
BENCHMARK(BM_Rebalance)->Arg(5)->Arg(64);

void BM_MembershipChurn(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < n; ++i) servers.push_back(ServerId{i});
  core::AnuSystem system{core::AnuConfig{}, servers};
  for (auto _ : state) {
    system.fail_server(ServerId{0});
    system.add_server(ServerId{0});
  }
}
BENCHMARK(BM_MembershipChurn)->Arg(5)->Arg(64);

// One report-collection round as ClusterSim::reconfigure runs it: close
// the round over n members with ~10% of reports lost, then pad the lost
// ones for the tuner. Two loss patterns alternate, so which members are
// silent (and, past the threshold, suspected) changes from round to
// round.
void BM_CloseRound(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> members;
  for (std::uint32_t i = 0; i < n; ++i) members.push_back(ServerId{i});
  sim::Xoshiro256 rng{8};
  std::vector<core::ServerReport> arrived[2];
  for (std::vector<core::ServerReport>& pattern : arrived) {
    for (std::uint32_t i = 0; i < n; ++i) {
      if (rng.next_double() < 0.1) continue;
      pattern.push_back(core::ServerReport{
          ServerId{i}, 0.01 + 0.05 * rng.next_double(), 100 + i});
    }
  }
  core::ReportCollector collector{core::CollectionConfig{}};
  bool flip = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(collector.close_round(members, arrived[flip]));
    benchmark::DoNotOptimize(collector.padded(members));
    flip = !flip;
  }
}
BENCHMARK(BM_CloseRound)->Arg(64)->Arg(1024)->Arg(4096);

// -------- policy-zoo decision paths (src/policies) --------

/// The pow-d decision kernel alone: sample d of n and argmin the
/// latency-weighted score. Arg = server count; d = 2.
void BM_PowDChoose(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> servers;
  std::vector<core::ServerReport> reports;
  for (std::uint32_t i = 0; i < n; ++i) {
    servers.push_back(ServerId{i});
    // Skewed latencies so the argmin is doing real work.
    reports.push_back({ServerId{i}, 0.001 * (1.0 + i % 7), 100});
  }
  policy::DChoiceTable table;
  table.reset(servers);
  table.observe(reports, 0.5);
  sim::Xoshiro256 rng = sim::make_stream(1, "bench-pow-d", 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.choose(rng, 2, servers));
  }
}
BENCHMARK(BM_PowDChoose)->Arg(5)->Arg(64)->Arg(512);

/// n servers, m file sets, and a report round whose latency skew flips
/// each call so every rebalance finds an overloaded server to shed.
template <typename Policy>
void bench_rebalance(benchmark::State& state, Policy& policy,
                     std::uint32_t n, std::uint32_t m) {
  std::vector<workload::FileSetSpec> sets;
  for (std::uint32_t i = 0; i < m; ++i) {
    sets.push_back(
        workload::FileSetSpec::make(i, "fs" + std::to_string(i), 1.0));
  }
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < n; ++i) servers.push_back(ServerId{i});
  policy.initialize(sets, servers);
  double now = 0.0;
  std::uint64_t round = 0;
  std::uint64_t moves = 0;
  for (auto _ : state) {
    std::vector<core::ServerReport> reports;
    for (std::uint32_t i = 0; i < n; ++i) {
      const bool hot = i % 2 == round % 2;
      reports.push_back({ServerId{i}, hot ? 0.030 : 0.002, 100});
    }
    now += 120.0;
    ++round;
    moves += policy.rebalance(now, reports).size();
  }
  state.counters["moves_per_round"] = benchmark::Counter(
      static_cast<double>(moves), benchmark::Counter::kAvgIterations);
}

/// Arg = servers, with 8 file sets each.
template <typename Policy, typename Config>
void bench_zoo_rebalance(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Policy policy{Config{}};
  bench_rebalance(state, policy, n, 8 * n);
}

void BM_PowDRebalance(benchmark::State& state) {
  bench_zoo_rebalance<policy::PowerOfDChoicesPolicy, policy::PowDConfig>(
      state);
}
BENCHMARK(BM_PowDRebalance)->Arg(5)->Arg(64);

void BM_JiqRebalance(benchmark::State& state) {
  bench_zoo_rebalance<policy::JoinIdleQueuePolicy, policy::JiqConfig>(state);
}
BENCHMARK(BM_JiqRebalance)->Arg(5)->Arg(64);

/// One ANU rebalance round — retune, then re-derive and diff the whole
/// owner table — over 64 servers. Arg = file sets (m).
void BM_AnuRebalance(benchmark::State& state) {
  policy::AnuPolicy policy{core::AnuConfig{}};
  bench_rebalance(state, policy, 64,
                  static_cast<std::uint32_t>(state.range(0)));
}
BENCHMARK(BM_AnuRebalance)->Arg(500)->Arg(50'000)->Arg(1'000'000);

// Workload generation, the setup layer of every simulated run, and the
// arrival sort inside it. Arg 0 is the sim-paper shape (500 sets, 100k
// requests over 10,000 s), Arg 1 the sim-scale shape (250k sets, 1M
// requests over 5,000 s).
workload::SyntheticConfig synthetic_shape(std::int64_t shape) {
  workload::SyntheticConfig config;
  if (shape == 1) {
    config.file_sets = 250'000;
    config.total_requests = 1'000'000;
    config.duration = 5'000.0;
  }
  return config;
}

void BM_MakeSynthetic(benchmark::State& state) {
  const workload::SyntheticConfig config = synthetic_shape(state.range(0));
  for (auto _ : state) {
    const workload::Workload w = workload::make_synthetic(config);
    benchmark::DoNotOptimize(w.requests.data());
  }
}
BENCHMARK(BM_MakeSynthetic)->Arg(0)->Arg(1);

void BM_MakeDfsTraceLike(benchmark::State& state) {
  const workload::DfsTraceLikeConfig config;
  for (auto _ : state) {
    const workload::Workload w = workload::make_dfstrace_like(config);
    benchmark::DoNotOptimize(w.requests.data());
  }
}
BENCHMARK(BM_MakeDfsTraceLike);

/// Times `sort` on the shape's stream in generation order (sets in id
/// order, each with rising times): the input make_synthetic sorts. Each
/// iteration restores that order untimed.
template <typename Sort>
void bench_arrival_sort(benchmark::State& state, Sort sort) {
  const workload::Workload w =
      workload::make_synthetic(synthetic_shape(state.range(0)));
  std::vector<workload::RequestEvent> generated = w.requests;
  std::sort(generated.begin(), generated.end(),
            [](const workload::RequestEvent& a,
               const workload::RequestEvent& b) {
              if (a.file_set != b.file_set) {
                return a.file_set.value < b.file_set.value;
              }
              return a.time < b.time;
            });
  std::vector<workload::RequestEvent> requests;
  for (auto _ : state) {
    state.PauseTiming();
    requests = generated;
    state.ResumeTiming();
    sort(requests, w.duration);
    benchmark::DoNotOptimize(requests.data());
    benchmark::ClobberMemory();
  }
}

void BM_SortByTime(benchmark::State& state) {
  bench_arrival_sort(state, workload::sort_by_time);
}
BENCHMARK(BM_SortByTime)->Arg(0)->Arg(1);

/// The baseline sort_by_time replaced: std::sort by time alone.
void BM_StdSortByTime(benchmark::State& state) {
  bench_arrival_sort(state, [](std::vector<workload::RequestEvent>& requests,
                               sim::SimTime) {
    std::sort(requests.begin(), requests.end(),
              [](const workload::RequestEvent& a,
                 const workload::RequestEvent& b) { return a.time < b.time; });
  });
}
BENCHMARK(BM_StdSortByTime)->Arg(0)->Arg(1);

// The observability layer's overhead contract (src/obs/trace.h): with
// no sink installed a trace site is one thread-local load and a null
// check; with a sink it is one POD append into a pre-sized ring. Both
// must stay flat — a regression here taxes every decision point in
// every run.
void BM_TraceDisabled(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    ANUFS_TRACE(obs::Category::kMove, "bench", {"i", i});
    benchmark::DoNotOptimize(++i);
  }
}
BENCHMARK(BM_TraceDisabled);

void BM_TraceEnabled(benchmark::State& state) {
  obs::TraceSink sink;
  obs::ScopedTraceSink install(sink);
  std::uint64_t i = 0;
  for (auto _ : state) {
    ANUFS_TRACE(obs::Category::kMove, "bench", {"i", i});
    benchmark::DoNotOptimize(++i);
  }
}
BENCHMARK(BM_TraceEnabled);

}  // namespace

BENCHMARK_MAIN();
