// Property tests for core::PlacementCache: a cached locate() must be
// bit-identical to PlacementMap::locate() in EVERY field of
// LocateResult, under arbitrary interleavings of map mutations (failures,
// additions, tuning rounds) and lookups, with the invariant auditor
// forced on so every mutation is audited mid-interleaving. The
// digest test re-proves the cluster-level reproducibility contract at
// the cache layer: the same interleaving replayed at any --jobs count
// folds to the same digest. Each test owns a standalone cache over the
// map of an AnuSystem it mutates, the way a serving reader does.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
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

// One random mutation/lookup interleaving. Every lookup is answered
// twice — through the cache and straight through the probe chain — and
// asserted field-identical; both results fold into the digest so a
// divergence also perturbs the cross-jobs comparison. Returns the
// digest over the whole interleaving.
std::uint64_t run_interleaving(std::uint64_t seed) {
  sim::Xoshiro256 rng{sim::make_stream(seed, "placement-cache")};

  constexpr std::uint32_t kInitialServers = 8;
  std::vector<ServerId> initial;
  for (std::uint32_t i = 0; i < kInitialServers; ++i) {
    initial.push_back(ServerId{i});
  }
  core::AnuSystem system{core::AnuConfig{}, initial};
  core::PlacementCache cache(kSlots);

  // A small fingerprint pool revisited with high probability, so the
  // cache's hit path (not just the fill path) is exercised.
  std::vector<std::uint64_t> pool(256);
  for (auto& fp : pool) fp = rng();

  std::vector<ServerId> failed;
  std::uint32_t next_id = kInitialServers;
  std::uint64_t digest = 0;

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t op = rng() % 100;
    const std::vector<ServerId> alive = system.alive();
    if (op < 10 && alive.size() > 2) {
      const ServerId victim = alive[rng() % alive.size()];
      system.fail_server(victim);
      failed.push_back(victim);
    } else if (op < 18) {
      ServerId id{0};
      if (!failed.empty() && (rng() & 1u) == 0) {
        id = failed.back();
        failed.pop_back();
      } else {
        id = ServerId{next_id++};
      }
      system.add_server(id);
    } else if (op < 28) {
      std::vector<core::ServerReport> reports;
      for (const ServerId id : alive) {
        reports.push_back(core::ServerReport{
            id, 0.01 + 0.05 * rng.next_double(),
            100 + static_cast<std::uint64_t>(rng() % 50)});
      }
      (void)system.reconfigure(reports);
    } else {
      for (int i = 0; i < 16; ++i) {
        const std::uint64_t fp =
            (rng() % 4 != 0) ? pool[rng() % pool.size()] : rng();
        const LocateResult cached = cache.locate(system.placement(), fp);
        const LocateResult uncached = system.placement().locate(fp);
        EXPECT_EQ(cached.server, uncached.server);
        EXPECT_EQ(cached.probes, uncached.probes);
        EXPECT_EQ(cached.fallback, uncached.fallback);
        EXPECT_EQ(cached.position, uncached.position);
        digest = fold(digest, cached);
        digest = fold(digest, uncached);
      }
    }
  }
  // The interleaving must actually have exercised the hit path.
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_GT(cache.stats().invalidations, 1u);
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

TEST(PlacementCache, CachedMatchesUncachedUnderRandomInterleavings) {
  force_auditing();
  const std::uint64_t audits_before =
      core::InvariantAuditor::audits_performed();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    (void)run_interleaving(seed);
  }
  // The auditor really was on: every mutation in every interleaving
  // re-checked the half-occupancy and partition invariants.
  EXPECT_GT(core::InvariantAuditor::audits_performed(), audits_before);
}

TEST(PlacementCache, BitIdenticalAcrossJobsCounts) {
  force_auditing();
  const std::vector<std::uint64_t> serial = digests_at_jobs(8, 1);
  for (const std::size_t jobs : {2u, 4u, 8u}) {
    EXPECT_EQ(serial, digests_at_jobs(8, jobs)) << "jobs=" << jobs;
  }
}

TEST(PlacementCache, RepeatLookupIsAHitAndMutationsNeverChangeAnswers) {
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < 5; ++i) servers.push_back(ServerId{i});
  core::AnuSystem system{core::AnuConfig{}, servers};
  core::PlacementCache cache(kSlots);

  const std::uint64_t fp = 0xDEADBEEFCAFEF00DULL;
  const LocateResult first = cache.locate(system.placement(), fp);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);

  const LocateResult second = cache.locate(system.placement(), fp);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(second.server, first.server);
  EXPECT_EQ(second.probes, first.probes);

  // A mutation no longer fences the whole cache: invalidation is scoped
  // to the touched partitions, so this lookup may be a revalidated hit
  // (failure did not move anything under this fingerprint's chain) or a
  // miss (it did) — but in either case the answer is bit-identical to
  // PlacementMap::locate(), and every lookup is accounted exactly once.
  system.fail_server(ServerId{first.server == ServerId{0} ? 1u : 0u});
  const LocateResult after = cache.locate(system.placement(), fp);
  const LocateResult reference = system.placement().locate(fp);
  EXPECT_EQ(after.server, reference.server);
  EXPECT_EQ(after.probes, reference.probes);
  EXPECT_EQ(after.fallback, reference.fallback);
  EXPECT_EQ(after.position, reference.position);
  const core::PlacementCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 3u);
  EXPECT_EQ(stats.invalidations, 2u);  // warm-up epoch + the failure
}

TEST(PlacementCache, HitRateSurvivesMembershipChurn) {
  // The over-broad-invalidation regression: under the old epoch-only
  // check, EVERY post-churn lookup missed (hit rate cratered to ~0
  // whenever membership changed between lookups). Scoped revalidation
  // keeps entries whose probe chains the churn did not touch — the bulk,
  // since survivors' full partitions are preserved by design ("cache
  // preservation" is the paper's point) — so most lookups stay hits.
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < 64; ++i) servers.push_back(ServerId{i});
  core::AnuSystem system{core::AnuConfig{}, servers};
  core::PlacementCache cache(kSlots);

  sim::Xoshiro256 rng{sim::make_stream(7, "cache-churn")};
  std::vector<std::uint64_t> pool(4096);
  for (auto& fp : pool) fp = rng();

  // Warm the cache.
  for (const std::uint64_t fp : pool) {
    (void)cache.locate(system.placement(), fp);
  }

  const core::PlacementCache::Stats warm = cache.stats();
  std::uint32_t next_id = 64;
  std::uint64_t post_churn_lookups = 0;
  for (int round = 0; round < 10; ++round) {
    if (round % 2 == 0) {
      const std::vector<ServerId> alive = system.alive();
      system.fail_server(alive[rng() % alive.size()]);
    } else {
      system.add_server(ServerId{next_id++});
    }
    for (const std::uint64_t fp : pool) {
      const LocateResult cached = cache.locate(system.placement(), fp);
      const LocateResult reference = system.placement().locate(fp);
      ASSERT_EQ(cached.server, reference.server);
      ASSERT_EQ(cached.probes, reference.probes);
      ASSERT_EQ(cached.fallback, reference.fallback);
      ASSERT_EQ(cached.position, reference.position);
      ++post_churn_lookups;
    }
  }
  const core::PlacementCache::Stats after = cache.stats();
  const std::uint64_t post_hits = after.hits - warm.hits;
  const double post_hit_rate =
      static_cast<double>(post_hits) /
      static_cast<double>(post_churn_lookups);
  // Every one of the 10 rounds starts right after a membership change,
  // so the epoch-only cache would score ~0 here (only same-round repeat
  // lookups could hit, and the pool has no repeats). Scoped
  // revalidation must keep the majority of the working set alive.
  EXPECT_GT(post_hit_rate, 0.5) << "post-churn hit rate cratered";
  EXPECT_GT(after.revalidated, 0u);
  EXPECT_GE(after.invalidations, 10u);
}

TEST(PlacementCache, TinyCacheCollisionsNeverChangeAnswers) {
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < 16; ++i) servers.push_back(ServerId{i});
  const core::AnuSystem system{core::AnuConfig{}, servers};

  // Two slots: nearly every lookup collides and overwrites. Residency
  // affects only the hit rate, never the answer.
  core::PlacementCache tiny{2};
  sim::Xoshiro256 rng{99};
  std::vector<std::uint64_t> pool(64);
  for (auto& fp : pool) fp = rng();
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t fp = pool[rng() % pool.size()];
    const LocateResult cached = tiny.locate(system.placement(), fp);
    const LocateResult reference = system.placement().locate(fp);
    EXPECT_EQ(cached.server, reference.server);
    EXPECT_EQ(cached.probes, reference.probes);
    EXPECT_EQ(cached.fallback, reference.fallback);
    EXPECT_EQ(cached.position, reference.position);
  }
  EXPECT_EQ(tiny.capacity(), 2u);
}

}  // namespace
}  // namespace anufs
