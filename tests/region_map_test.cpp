// Tests for the SIEVE-style region allocator: structural invariants,
// minimal movement, re-partitioning, and randomized operation fuzzing.
#include "core/region_map.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "hash/unit_interval.h"
#include "sim/random.h"

namespace anufs::core {
namespace {

using hash::kHalfInterval;

RegionMap make_five_server_map() {
  RegionMap map = RegionMap::for_servers(5);
  std::vector<std::pair<ServerId, Measure>> targets;
  for (std::uint32_t i = 0; i < 5; ++i) {
    map.add_server(ServerId{i});
    targets.emplace_back(ServerId{i}, kHalfInterval / 5);
  }
  targets[0].second += kHalfInterval - 5 * (kHalfInterval / 5);
  map.rebalance_to(targets);
  return map;
}

TEST(RegionMap, StartsEmpty) {
  const RegionMap map(16);
  EXPECT_EQ(map.server_count(), 0u);
  EXPECT_EQ(map.total_share(), 0u);
  EXPECT_EQ(map.free_partition_count(), 16u);
  map.check_invariants();
}

TEST(RegionMap, ForServersUsesPaperBound) {
  const RegionMap map = RegionMap::for_servers(5);
  EXPECT_EQ(map.space().count(), 16u);
}

TEST(RegionMap, AddServerRegistersWithZeroShare) {
  RegionMap map(16);
  map.add_server(ServerId{3});
  EXPECT_TRUE(map.has_server(ServerId{3}));
  EXPECT_EQ(map.share(ServerId{3}), 0u);
  map.check_invariants();
}

TEST(RegionMap, ResizeGrowsToTarget) {
  RegionMap map(16);
  map.add_server(ServerId{0});
  map.resize(ServerId{0}, kHalfInterval);
  EXPECT_EQ(map.share(ServerId{0}), kHalfInterval);
  EXPECT_EQ(map.total_share(), kHalfInterval);
  map.check_invariants();
}

TEST(RegionMap, ResizeShrinksToTarget) {
  RegionMap map(16);
  map.add_server(ServerId{0});
  map.resize(ServerId{0}, kHalfInterval);
  map.resize(ServerId{0}, kHalfInterval / 3);
  EXPECT_EQ(map.share(ServerId{0}), kHalfInterval / 3);
  map.check_invariants();
}

TEST(RegionMap, ResizeToZeroReleasesEverything) {
  RegionMap map(16);
  map.add_server(ServerId{0});
  map.resize(ServerId{0}, kHalfInterval);
  map.resize(ServerId{0}, 0);
  EXPECT_EQ(map.share(ServerId{0}), 0u);
  EXPECT_EQ(map.free_partition_count(), 16u);
  map.check_invariants();
}

TEST(RegionMap, RemoveServerFreesPartitions) {
  RegionMap map = make_five_server_map();
  map.remove_server(ServerId{2});
  EXPECT_FALSE(map.has_server(ServerId{2}));
  EXPECT_LT(map.total_share(), kHalfInterval);
  map.check_invariants();
}

TEST(RegionMap, HalfOccupancyIsExact) {
  const RegionMap map = make_five_server_map();
  EXPECT_EQ(map.total_share(), kHalfInterval);  // exact, not approximate
}

TEST(RegionMap, OwnerAtFindsOwners) {
  RegionMap map = make_five_server_map();
  // Sum of owned measure recovered by sampling must be plausible; more
  // precisely, each sampled owner must actually have that pos inside
  // one of its segments.
  sim::Xoshiro256 rng{21};
  int owned = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const Pos x = rng();
    const std::optional<ServerId> owner = map.owner_at(x);
    if (!owner) continue;
    ++owned;
    bool inside = false;
    for (const Segment& seg : map.segments(*owner)) {
      // Handle the wrap-at-top case via measure arithmetic.
      if (x - seg.begin < seg.measure()) inside = true;
    }
    EXPECT_TRUE(inside);
  }
  // Half the interval is mapped.
  EXPECT_NEAR(static_cast<double>(owned) / n, 0.5, 0.02);
}

TEST(RegionMap, SegmentsMeasureMatchesShare) {
  RegionMap map = make_five_server_map();
  for (const ServerId id : map.server_ids()) {
    Measure total = 0;
    for (const Segment& seg : map.segments(id)) total += seg.measure();
    EXPECT_EQ(total, map.share(id));
  }
}

TEST(RegionMap, FreePartitionAlwaysExistsAtHalfOccupancy) {
  // Paper invariant I3: with P >= 2(n+1) and half occupancy, a free
  // partition exists for a recovered server. Exercise many shapes.
  sim::Xoshiro256 rng{22};
  for (int trial = 0; trial < 50; ++trial) {
    RegionMap map = RegionMap::for_servers(5);
    std::vector<std::pair<ServerId, Measure>> targets;
    // Random shares summing to exactly kHalfInterval.
    std::vector<double> raw(5);
    double sum = 0.0;
    for (auto& r : raw) {
      r = rng.next_double() + 0.01;
      sum += r;
    }
    Measure assigned = 0;
    for (std::uint32_t i = 0; i < 5; ++i) {
      map.add_server(ServerId{i});
      const auto share =
          i == 4 ? kHalfInterval - assigned
                 : static_cast<Measure>(static_cast<double>(kHalfInterval) *
                                        raw[i] / sum);
      targets.emplace_back(ServerId{i}, share);
      assigned += share;
    }
    map.rebalance_to(targets);
    EXPECT_EQ(map.total_share(), kHalfInterval);
    EXPECT_GE(map.free_partition_count(), 1u);
    map.check_invariants();
  }
}

TEST(RegionMap, ShrinkOnlyReleasesShrunkMeasure) {
  // Minimal-movement property I5: positions owned by OTHER servers are
  // untouched by one server's shrink, and the shrinking server keeps a
  // prefix of its measure.
  RegionMap map = make_five_server_map();
  sim::Xoshiro256 rng{23};
  std::vector<Pos> samples;
  std::map<Pos, std::optional<ServerId>> before;
  for (int i = 0; i < 5000; ++i) {
    const Pos x = rng();
    samples.push_back(x);
    before[x] = map.owner_at(x);
  }
  const Measure old_share = map.share(ServerId{1});
  map.resize(ServerId{1}, old_share / 2);
  map.check_invariants();
  for (const Pos x : samples) {
    const std::optional<ServerId> now = map.owner_at(x);
    const std::optional<ServerId> was = before[x];
    if (was.has_value() && was != ServerId{1}) {
      EXPECT_EQ(now, was);  // other servers' territory untouched
    }
    if (!was.has_value()) {
      EXPECT_FALSE(now.has_value());  // shrink never claims new space
    }
  }
}

TEST(RegionMap, GrowOnlyClaimsFreeSpace) {
  RegionMap map = make_five_server_map();
  // Make room first (shrink 0), then grow 4; nobody else may lose.
  map.resize(ServerId{0}, map.share(ServerId{0}) / 4);
  sim::Xoshiro256 rng{24};
  std::vector<std::pair<Pos, std::optional<ServerId>>> before;
  for (int i = 0; i < 5000; ++i) {
    const Pos x = rng();
    before.emplace_back(x, map.owner_at(x));
  }
  map.resize(ServerId{4}, map.share(ServerId{4}) + kHalfInterval / 8);
  map.check_invariants();
  for (const auto& [x, was] : before) {
    if (was.has_value()) {
      EXPECT_EQ(map.owner_at(x), was);  // every owned point keeps its owner
    }
  }
}

TEST(RegionMap, RebalanceToExactTargets) {
  RegionMap map = make_five_server_map();
  std::vector<std::pair<ServerId, Measure>> targets{
      {ServerId{0}, kHalfInterval / 100},
      {ServerId{1}, kHalfInterval / 10},
      {ServerId{2}, kHalfInterval / 5},
      {ServerId{3}, kHalfInterval / 4},
      {ServerId{4}, 0},
  };
  Measure sum = 0;
  for (auto& [id, share] : targets) sum += share;
  targets[4].second = kHalfInterval - sum;
  map.rebalance_to(targets);
  for (const auto& [id, share] : targets) {
    EXPECT_EQ(map.share(id), share);
  }
  EXPECT_EQ(map.total_share(), kHalfInterval);
  map.check_invariants();
}

TEST(RegionMap, RepartitionPreservesEveryOwner) {
  // Paper invariant I6: "further partitioning the unit interval does not
  // move any existing load."
  RegionMap map = make_five_server_map();
  sim::Xoshiro256 rng{25};
  std::vector<std::pair<Pos, std::optional<ServerId>>> before;
  for (int i = 0; i < 20000; ++i) {
    const Pos x = rng();
    before.emplace_back(x, map.owner_at(x));
  }
  map.repartition_double();
  map.check_invariants();
  EXPECT_EQ(map.space().count(), 32u);
  for (const auto& [x, was] : before) {
    EXPECT_EQ(map.owner_at(x), was);
  }
  // Shares are bit-identical too.
  EXPECT_EQ(map.total_share(), kHalfInterval);
}

TEST(RegionMap, RepartitionTwicePreservesOwners) {
  RegionMap map = make_five_server_map();
  const Measure share2 = map.share(ServerId{2});
  map.repartition_double();
  map.repartition_double();
  map.check_invariants();
  EXPECT_EQ(map.space().count(), 64u);
  EXPECT_EQ(map.share(ServerId{2}), share2);
}

TEST(RegionMap, AddRemoveAtExactHalfOccupancyBoundary) {
  // Membership churn while the map sits at EXACTLY 1/2: the states the
  // invariant auditor formalizes. Adding a server at the boundary must
  // not disturb the mapped half; removing one must release exactly its
  // measure; and restoring the boundary must land on 1/2 to the ulp.
  RegionMap map = make_five_server_map();
  ASSERT_EQ(map.total_share(), kHalfInterval);

  // A newcomer registers with zero share: boundary unchanged.
  map.add_server(ServerId{5});
  EXPECT_EQ(map.total_share(), kHalfInterval);
  map.check_invariants();

  // Remove a survivor: exactly its share leaves the mapped half.
  const Measure departing = map.share(ServerId{2});
  map.remove_server(ServerId{2});
  EXPECT_EQ(map.total_share(), kHalfInterval - departing);
  map.check_invariants();

  // Re-grow the newcomer to precisely the departed measure: boundary
  // restored exactly, and the paper's free-partition guarantee holds.
  map.resize(ServerId{5}, departing);
  EXPECT_EQ(map.total_share(), kHalfInterval);
  EXPECT_GE(map.free_partition_count(), 1u);
  map.check_invariants();
}

TEST(RegionMap, ResizeOneUlpAroundPartitionBoundary) {
  // Crossing a partition-size multiple by one ulp in each direction
  // exercises the partial<->full transitions the one-partial rule
  // constrains: at an exact multiple there is no partial partition; one
  // ulp either side there is exactly one.
  RegionMap map(16);
  map.add_server(ServerId{0});
  const Measure ps = map.space().partition_size();

  map.resize(ServerId{0}, 2 * ps);  // exact multiple: no partial
  EXPECT_EQ(map.segments(ServerId{0}).size(), 1u);
  map.check_invariants();

  map.resize(ServerId{0}, 2 * ps + 1);  // one ulp over: a 1-ulp partial
  EXPECT_EQ(map.share(ServerId{0}), 2 * ps + 1);
  map.check_invariants();

  map.resize(ServerId{0}, 2 * ps - 1);  // one ulp under the multiple
  EXPECT_EQ(map.share(ServerId{0}), 2 * ps - 1);
  map.check_invariants();

  map.resize(ServerId{0}, 2 * ps);  // back to the exact boundary
  EXPECT_EQ(map.share(ServerId{0}), 2 * ps);
  map.check_invariants();
}

// Parameterized fuzz: random sequences of add/remove/resize/repartition
// keep all invariants intact; run under several seeds.
class RegionMapFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RegionMapFuzz, RandomOperationsKeepInvariants) {
  sim::Xoshiro256 rng{GetParam()};
  RegionMap map = RegionMap::for_servers(4);
  std::uint32_t next_id = 0;
  std::vector<ServerId> alive;

  // Start with four servers at random shares.
  for (int i = 0; i < 4; ++i) {
    const ServerId id{next_id++};
    map.add_server(id);
    alive.push_back(id);
  }

  const auto random_targets = [&] {
    // Random shares summing to exactly half.
    std::vector<std::pair<ServerId, Measure>> targets;
    Measure left = kHalfInterval;
    for (std::size_t i = 0; i < alive.size(); ++i) {
      const Measure share =
          i + 1 == alive.size() ? left : rng.next_below(left / 2 + 1);
      targets.emplace_back(alive[i], share);
      left -= share;
    }
    return targets;
  };
  map.rebalance_to(random_targets());

  for (int step = 0; step < 300; ++step) {
    const std::uint64_t op = rng.next_below(10);
    if (op < 5) {
      // Reshape everybody.
      map.rebalance_to(random_targets());
    } else if (op < 7 && alive.size() > 1) {
      // Remove a random server and regrow the others equally.
      const std::size_t victim = rng.next_below(alive.size());
      map.remove_server(alive[victim]);
      alive.erase(alive.begin() +
                  static_cast<std::ptrdiff_t>(victim));
      map.rebalance_to(random_targets());
    } else if (op < 9) {
      // Add a server (repartition first if the bound demands it).
      const ServerId id{next_id++};
      map.add_server(id);
      alive.push_back(id);
      while (!map.space().sufficient_for(map.server_count())) {
        map.repartition_double();
      }
      map.rebalance_to(random_targets());
    } else if (map.space().count() < (1u << 12)) {
      map.repartition_double();
    }
    map.check_invariants();
    EXPECT_EQ(map.total_share(), kHalfInterval);
    EXPECT_GE(map.free_partition_count(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionMapFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(RegionMap, ReaddedHighIdStartsWithZeroShare) {
  RegionMap map(16);
  map.add_server(ServerId{0});
  map.add_server(ServerId{1000});
  map.resize(ServerId{0}, kHalfInterval / 2);
  map.resize(ServerId{1000}, kHalfInterval / 2);
  map.remove_server(ServerId{1000});
  EXPECT_FALSE(map.has_server(ServerId{1000}));
  map.add_server(ServerId{1000});
  EXPECT_EQ(map.share(ServerId{1000}), 0u);
  EXPECT_TRUE(map.segments(ServerId{1000}).empty());
  EXPECT_EQ(map.total_share(), kHalfInterval / 2);
  map.check_invariants();
  map.resize(ServerId{1000}, kHalfInterval / 2);
  EXPECT_EQ(map.total_share(), kHalfInterval);
  map.check_invariants();
}

}  // namespace
}  // namespace anufs::core
