// Property tests for the batched locate path: locate_many must be
// bit-identical, element by element, to the scalar sequence it replaces
// — all four LocateResult fields against both the scalar cached path and
// PlacementMap::locate() — and must leave a standalone
// PlacementCache in exactly the state the scalar sequence would have
// (identical hit/miss/revalidated/invalidation counts), under random
// batch sizes (1..4096), heavy fingerprint duplication, fallback-heavy
// probe budgets, and random churn/fault interleavings with the
// invariant auditor forced on. The digest test re-proves the
// reproducibility contract: the same interleavings replayed at any
// --jobs count fold to the same digests. The portable tests rerun the
// properties with the AVX-512 kernel switched off, so the portable
// multi-lane loop is tested on hosts that have the vector kernel. The
// edge test pins sizes around the group and chunk boundaries, odd round
// budgets and an all-fallback map on both paths.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "core/anu_system.h"
#include "core/invariant_auditor.h"
#include "core/placement_cache.h"
#include "hash/mix64.h"
#include "sim/random.h"
#include "sim/thread_pool.h"

namespace anufs {
namespace {

using core::LocateResult;

constexpr std::size_t kSlots = 16384;

void force_auditing() {
  setenv("ANUFS_AUDIT", "1", /*overwrite=*/1);
  core::InvariantAuditor::refresh_enabled();
}

std::uint64_t fold(std::uint64_t digest, const LocateResult& r) {
  digest = hash::mix64(digest ^ r.server.value);
  digest = hash::mix64(digest ^ r.probes);
  digest = hash::mix64(digest ^ (r.fallback ? 0x9E3779B9ULL : 0x85EBCA6BULL));
  digest = hash::mix64(digest ^ r.position);
  return digest;
}

void expect_same(const LocateResult& got, const LocateResult& want,
                 const char* what, std::size_t i) {
  EXPECT_EQ(got.server, want.server) << what << " element " << i;
  EXPECT_EQ(got.probes, want.probes) << what << " element " << i;
  EXPECT_EQ(got.fallback, want.fallback) << what << " element " << i;
  EXPECT_EQ(got.position, want.position) << what << " element " << i;
}

void expect_same_stats(const core::PlacementCache::Stats& a,
                       const core::PlacementCache::Stats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.revalidated, b.revalidated);
}

// One random churn/lookup interleaving, run against TWO identically-
// mutated systems, each with its own cache: one answers every batch
// through PlacementCache::locate_many, the other answers the same
// fingerprints through the scalar cache path in index order. The batch
// contract is that they never diverge — results, counters, or
// post-batch cache state. Returns the digest over every batched answer.
std::uint64_t run_interleaving(std::uint64_t seed) {
  sim::Xoshiro256 rng{sim::make_stream(seed, "locate-batch")};

  // Rotate fallback-heavy probe budgets through the seeds: max_rounds 1
  // makes the direct-to-server fallback a common case instead of a
  // 2^-16 tail, so the batched fallback sweep is exercised hard.
  core::AnuConfig config;
  config.placement.max_rounds =
      (seed % 3 == 0) ? 2u : ((seed % 3 == 1) ? 16u : 1u);
  config.placement.salt = seed * 0x1111;

  const std::uint32_t n_servers = (seed % 2 == 0) ? 8 : 3;
  std::vector<ServerId> initial;
  for (std::uint32_t i = 0; i < n_servers; ++i) {
    initial.push_back(ServerId{i});
  }
  core::AnuSystem batch_sys{config, initial};
  core::AnuSystem scalar_sys{config, initial};
  core::PlacementCache batch_cache(kSlots);
  core::PlacementCache scalar_cache(kSlots);

  // A small pool revisited with high probability: batches carry heavy
  // duplication, so duplicate-after-miss aliasing inside one batch is a
  // common case, not a corner.
  std::vector<std::uint64_t> pool(192);
  for (auto& fp : pool) fp = rng();

  std::vector<std::uint64_t> fps;
  std::vector<LocateResult> got;
  std::vector<LocateResult> got_uncached;
  std::vector<ServerId> failed;
  std::uint32_t next_id = n_servers;
  std::uint64_t digest = 0;
  std::uint64_t fallbacks_seen = 0;

  for (int step = 0; step < 120; ++step) {
    const std::uint64_t op = rng() % 100;
    const std::vector<ServerId> alive = batch_sys.alive();
    if (op < 10 && alive.size() > 2) {
      const ServerId victim = alive[rng() % alive.size()];
      batch_sys.fail_server(victim);
      scalar_sys.fail_server(victim);
      failed.push_back(victim);
    } else if (op < 18) {
      ServerId id{0};
      if (!failed.empty() && (rng() & 1u) == 0) {
        id = failed.back();
        failed.pop_back();
      } else {
        id = ServerId{next_id++};
      }
      batch_sys.add_server(id);
      scalar_sys.add_server(id);
    } else if (op < 26) {
      std::vector<core::ServerReport> reports;
      for (const ServerId id : alive) {
        reports.push_back(core::ServerReport{
            id, 0.01 + 0.05 * rng.next_double(),
            100 + static_cast<std::uint64_t>(rng() % 50)});
      }
      (void)batch_sys.reconfigure(reports);
      (void)scalar_sys.reconfigure(reports);
    } else {
      // Batch sizes span the contract's range: mostly serving-shaped,
      // with a 4096-element worst case that crosses every internal
      // chunk boundary (PlacementMap lanes and cache chunks alike).
      std::size_t size = 0;
      const std::uint64_t pick = rng() % 100;
      if (pick < 70) {
        size = 1 + rng() % 64;
      } else if (pick < 95) {
        size = 1 + rng() % 512;
      } else {
        size = 4096;
      }
      fps.resize(size);
      got.resize(size);
      got_uncached.resize(size);
      for (auto& fp : fps) {
        fp = (rng() % 4 != 0) ? pool[rng() % pool.size()] : rng();
      }
      batch_sys.locate_many(fps, got_uncached);
      batch_cache.locate_many(batch_sys.placement(), fps, got);
      for (std::size_t i = 0; i < size; ++i) {
        const LocateResult scalar_cached =
            scalar_cache.locate(scalar_sys.placement(), fps[i]);
        const LocateResult scalar_uncached =
            scalar_sys.placement().locate(fps[i]);
        expect_same(got[i], scalar_cached, "batched-cached vs scalar", i);
        expect_same(got_uncached[i], scalar_uncached,
                    "batched-uncached vs scalar", i);
        expect_same(got[i], got_uncached[i], "cached vs uncached", i);
        if (got[i].fallback) ++fallbacks_seen;
        digest = fold(digest, got[i]);
      }
      // Identical post-batch cache state, observed as exact counter
      // equality with the scalar sequence (and implied by the
      // element-wise identity continuing to hold on later batches that
      // revisit the same slots).
      expect_same_stats(batch_cache.stats(), scalar_cache.stats());
    }
  }
  EXPECT_GT(batch_cache.stats().hits, 0u);
  if (config.placement.max_rounds == 1) {
    // A one-round budget at half occupancy falls back ~half the time;
    // the interleaving must actually have exercised the fallback sweep.
    EXPECT_GT(fallbacks_seen, 0u);
  }
  return digest;
}

std::vector<std::uint64_t> digests_at_jobs(std::uint64_t seeds,
                                           std::size_t jobs) {
  std::vector<std::uint64_t> digests(seeds);
  sim::parallel_for(seeds, jobs, [&digests](std::size_t i) {
    digests[i] = run_interleaving(static_cast<std::uint64_t>(i) + 1);
  });
  return digests;
}

TEST(LocateBatch, BatchedMatchesScalarUnderRandomInterleavings) {
  force_auditing();
  const std::uint64_t audits_before =
      core::InvariantAuditor::audits_performed();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    (void)run_interleaving(seed);
  }
  EXPECT_GT(core::InvariantAuditor::audits_performed(), audits_before);
}

TEST(LocateBatch, BitIdenticalAcrossJobsCounts) {
  force_auditing();
  const std::vector<std::uint64_t> serial = digests_at_jobs(6, 1);
  EXPECT_EQ(serial, digests_at_jobs(6, 4)) << "jobs=4";
}

// Routes batched locates through the portable multi-lane loop for its
// scope. On hosts without AVX-512 that loop already runs, and these
// tests repeat the ones above.
class PortableLocate {
 public:
  PortableLocate() { core::testing::force_portable_locate(true); }
  ~PortableLocate() { core::testing::force_portable_locate(false); }
  PortableLocate(const PortableLocate&) = delete;
  PortableLocate& operator=(const PortableLocate&) = delete;
};

TEST(LocateBatch, PortableLoopMatchesScalarUnderRandomInterleavings) {
  force_auditing();
  std::vector<std::uint64_t> portable_digests;
  {
    const PortableLocate portable;
    portable_digests = digests_at_jobs(6, 1);
  }
  EXPECT_EQ(portable_digests, digests_at_jobs(6, 1));
}

TEST(LocateBatch, PortableLoopAndDispatchedKernelAgree) {
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < 24; ++i) servers.push_back(ServerId{i});
  const core::AnuSystem system{core::AnuConfig{}, servers};
  sim::Xoshiro256 rng{5};
  std::vector<std::uint64_t> fps(4096);
  for (auto& fp : fps) fp = rng();
  std::vector<LocateResult> want(fps.size());
  std::vector<LocateResult> got(fps.size());
  system.locate_many(fps, want);
  {
    const PortableLocate portable;
    system.locate_many(fps, got);
  }
  for (std::size_t i = 0; i < fps.size(); ++i) {
    expect_same(got[i], want[i], "portable vs dispatched", i);
  }
}

// Sizes around the group (8) and chunk (kBatchLanes) edges, odd round
// budgets (the paired vector passes stop with one round left for the
// tail), and a map whose servers are registered but own no region (every
// lane exhausts its rounds and falls back), on both the dispatched and
// the portable path: every answer must equal scalar locate().
TEST(LocateBatch, EdgeSizesAndRoundBudgetsMatchScalar) {
  constexpr std::uint32_t kServers = 24;
  const std::size_t sizes[] = {1,   7,   8,   9,   63,  64,  65,
                               255, 256, 257, 511, 512, 513};
  sim::Xoshiro256 rng{29};
  for (const std::uint32_t max_rounds : {1u, 2u, 3u, 5u, 16u}) {
    core::AnuConfig config;
    config.placement.max_rounds = max_rounds;
    std::vector<ServerId> servers;
    for (std::uint32_t i = 0; i < kServers; ++i) {
      servers.push_back(ServerId{i});
    }
    const core::AnuSystem system{config, servers};
    core::PlacementMap unmapped =
        core::PlacementMap::for_servers(config.placement, kServers);
    for (const ServerId id : servers) unmapped.regions().add_server(id);
    const core::PlacementMap* const maps[] = {&system.placement(), &unmapped};
    for (const core::PlacementMap* map : maps) {
      const bool all_fallback = map == &unmapped;
      const auto check = [&](const char* path) {
        for (const std::size_t size : sizes) {
          // Exactly-sized buffers: a store past the batch leaves them.
          std::vector<std::uint64_t> fps(size);
          for (auto& fp : fps) fp = rng();
          std::vector<LocateResult> got(size);
          map->locate_many(fps, got);
          SCOPED_TRACE(::testing::Message()
                       << "max_rounds " << max_rounds << " size " << size
                       << " " << path
                       << (all_fallback ? " unmapped" : " mapped"));
          for (std::size_t i = 0; i < size; ++i) {
            expect_same(got[i], map->locate(fps[i]), "batched vs scalar", i);
            if (all_fallback) {
              EXPECT_TRUE(got[i].fallback) << "element " << i;
            }
          }
        }
      };
      check("dispatched");
      const PortableLocate portable;
      check("portable");
    }
  }
}

TEST(LocateBatch, EmptyBatchIsANoOp) {
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < 4; ++i) servers.push_back(ServerId{i});
  const core::AnuSystem system{core::AnuConfig{}, servers};
  core::PlacementCache cache(kSlots);
  std::vector<std::uint64_t> fps;
  std::vector<LocateResult> out;
  cache.locate_many(system.placement(), fps, out);
  system.locate_many(fps, out);
  const core::PlacementCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 0u);
  EXPECT_EQ(stats.invalidations, 0u);  // not even the warm-up epoch bump
}

TEST(LocateBatch, DuplicateFingerprintsHitTheBatchInstall) {
  // Eight copies of one fingerprint in a single batch: the scalar
  // sequence misses once and hits seven times against the freshly
  // installed entry, and the batch must account identically.
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < 5; ++i) servers.push_back(ServerId{i});
  const core::AnuSystem system{core::AnuConfig{}, servers};
  core::PlacementCache cache(kSlots);

  const std::vector<std::uint64_t> fps(8, 0xDEADBEEFCAFEF00DULL);
  std::vector<LocateResult> out(8);
  cache.locate_many(system.placement(), fps, out);
  const LocateResult ref = system.placement().locate(fps[0]);
  for (std::size_t i = 0; i < fps.size(); ++i) {
    expect_same(out[i], ref, "duplicate batch", i);
  }
  const core::PlacementCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 7u);
}

TEST(LocateBatch, TinyCacheCollisionsMatchScalarSequence) {
  // Two slots: nearly every batch element collides, so in-batch slot
  // overwrites (a later miss re-claiming an earlier miss's slot) are the
  // common case. The batched cache must still answer and account exactly
  // like the scalar sequence on an identical twin cache.
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < 16; ++i) servers.push_back(ServerId{i});
  const core::AnuSystem system{core::AnuConfig{}, servers};

  core::PlacementCache tiny_batch{2};
  core::PlacementCache tiny_scalar{2};
  sim::Xoshiro256 rng{99};
  std::vector<std::uint64_t> pool(64);
  for (auto& fp : pool) fp = rng();

  std::vector<std::uint64_t> fps;
  std::vector<LocateResult> out;
  for (int round = 0; round < 200; ++round) {
    fps.resize(1 + rng() % 32);
    out.resize(fps.size());
    for (auto& fp : fps) fp = pool[rng() % pool.size()];
    tiny_batch.locate_many(system.placement(), fps, out);
    for (std::size_t i = 0; i < fps.size(); ++i) {
      const LocateResult ref = tiny_scalar.locate(system.placement(), fps[i]);
      expect_same(out[i], ref, "tiny-cache batch", i);
    }
    expect_same_stats(tiny_batch.stats(), tiny_scalar.stats());
  }
  EXPECT_EQ(tiny_batch.capacity(), 2u);
}

}  // namespace
}  // namespace anufs
