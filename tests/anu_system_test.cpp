// Tests for the AnuSystem facade: initialization, reconfiguration,
// membership changes, re-partitioning, and movement minimality.
#include "core/anu_system.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "hash/unit_interval.h"
#include "sim/random.h"

namespace anufs::core {
namespace {

using hash::kHalfInterval;

std::vector<ServerId> ids(std::uint32_t n) {
  std::vector<ServerId> out;
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(ServerId{i});
  return out;
}

std::vector<ServerReport> uniform_reports(const std::vector<ServerId>& alive,
                                          double latency = 0.02) {
  std::vector<ServerReport> out;
  for (const ServerId id : alive) {
    out.push_back(ServerReport{id, latency, 100});
  }
  return out;
}

TEST(AnuSystem, InitialSharesEqual) {
  const AnuSystem system{AnuConfig{}, ids(5)};
  const Measure share0 = system.regions().share(ServerId{0});
  for (std::uint32_t i = 1; i < 5; ++i) {
    const Measure share = system.regions().share(ServerId{i});
    EXPECT_NEAR(static_cast<double>(share), static_cast<double>(share0),
                static_cast<double>(share0) * 1e-9);
  }
  EXPECT_EQ(system.regions().total_share(), kHalfInterval);
}

TEST(AnuSystem, LocateResolvesForAnyFingerprint) {
  const AnuSystem system{AnuConfig{}, ids(5)};
  sim::Xoshiro256 rng{41};
  for (int i = 0; i < 10000; ++i) {
    const ServerId owner = system.locate(rng());
    EXPECT_LT(owner.value, 5u);
  }
}

TEST(AnuSystem, BalancedReportsCauseNoChange) {
  AnuSystem system{AnuConfig{}, ids(5)};
  const TuneDecision d = system.reconfigure(uniform_reports(ids(5)));
  EXPECT_FALSE(d.acted);
  EXPECT_EQ(system.version(), 0u);
}

TEST(AnuSystem, SkewedReportsShrinkHotServer) {
  AnuSystem system{AnuConfig{}, ids(5)};
  std::vector<ServerReport> reports = uniform_reports(ids(5));
  reports[0].mean_latency = 0.50;  // hot
  const Measure before = system.regions().share(ServerId{0});
  const TuneDecision d = system.reconfigure(reports);
  EXPECT_TRUE(d.acted);
  EXPECT_LT(system.regions().share(ServerId{0}), before);
  EXPECT_EQ(system.version(), 1u);
  EXPECT_EQ(system.regions().total_share(), kHalfInterval);
}

TEST(AnuSystem, FailureRestoresHalfOccupancy) {
  AnuSystem system{AnuConfig{}, ids(5)};
  system.fail_server(ServerId{2});
  EXPECT_FALSE(system.regions().has_server(ServerId{2}));
  EXPECT_EQ(system.regions().total_share(), kHalfInterval);
  EXPECT_EQ(system.alive().size(), 4u);
}

TEST(AnuSystem, FailureMovesOnlyVictimSets) {
  AnuSystem system{AnuConfig{}, ids(5)};
  sim::Xoshiro256 rng{42};
  std::map<std::uint64_t, ServerId> before;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t fp = rng();
    before[fp] = system.locate(fp);
  }
  system.fail_server(ServerId{1});
  int moved = 0;
  int victims = 0;
  for (const auto& [fp, owner] : before) {
    if (owner == ServerId{1}) ++victims;
    if (system.locate(fp) != owner) {
      ++moved;
      // A moved set was either the victim's, or intercepted by a
      // survivor's grown region (the growth ripple).
      if (owner != ServerId{1}) {
        // Growth claims previously-free space only, so a non-victim
        // set can move only because an EARLIER probe round now hits a
        // newly mapped region.
        EXPECT_NE(system.locate(fp), owner);
      }
    }
  }
  // Much closer to the victim's share (~20%) than to a rehash-all.
  EXPECT_LT(moved, victims * 2);
  // Every victim set must re-home (its owner is gone).
  EXPECT_GE(moved, victims);
}

TEST(AnuSystem, RecoveryGrantsFreePartition) {
  AnuSystem system{AnuConfig{}, ids(5)};
  system.fail_server(ServerId{3});
  system.add_server(ServerId{3});
  EXPECT_TRUE(system.regions().has_server(ServerId{3}));
  EXPECT_GT(system.regions().share(ServerId{3}), 0u);
  EXPECT_EQ(system.regions().total_share(), kHalfInterval);
}

TEST(AnuSystem, AdditionTriggersRepartition) {
  // 7 servers fit in 16 partitions (2*8=16); the 8th requires 32.
  AnuSystem system{AnuConfig{}, ids(7)};
  EXPECT_EQ(system.regions().space().count(), 16u);
  system.add_server(ServerId{7});
  EXPECT_EQ(system.regions().space().count(), 32u);
  EXPECT_EQ(system.regions().total_share(), kHalfInterval);
  system.check_invariants();
}

TEST(AnuSystem, AdditionWithRepartitionMovesLittle) {
  // Adding the 8th server re-partitions (16 -> 32). Re-partitioning
  // itself moves nothing (see RegionMap.RepartitionPreservesEveryOwner);
  // the addition then sheds only the newcomer's grant (one partition,
  // 1/16 of the mapped half) from the survivors, plus the small probe-
  // interception ripple. Total movement must stay near that bound —
  // nothing remotely like a rehash-everything.
  AnuSystem system{AnuConfig{}, ids(7)};
  sim::Xoshiro256 rng{43};
  std::map<std::uint64_t, ServerId> before;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t fp = rng();
    before[fp] = system.locate(fp);
  }
  system.add_server(ServerId{7});
  int moved = 0;
  int to_newcomer = 0;
  for (const auto& [fp, owner] : before) {
    const ServerId now = system.locate(fp);
    if (now != owner) {
      ++moved;
      if (now == ServerId{7}) ++to_newcomer;
    }
  }
  const double moved_frac = moved / 20000.0;
  EXPECT_GT(to_newcomer, 0);
  EXPECT_LT(moved_frac, 0.25);  // rehash-all would move ~7/8 = 0.875
}

TEST(AnuSystem, FailRecoverManyTimesKeepsInvariants) {
  AnuSystem system{AnuConfig{}, ids(5)};
  for (int round = 0; round < 20; ++round) {
    system.fail_server(ServerId{4});
    system.check_invariants();
    system.add_server(ServerId{4});
    system.check_invariants();
    EXPECT_EQ(system.regions().total_share(), kHalfInterval);
  }
}

TEST(AnuSystem, GrowingClusterKeepsInvariants) {
  AnuSystem system{AnuConfig{}, ids(2)};
  for (std::uint32_t id = 2; id < 40; ++id) {
    system.add_server(ServerId{id});
    system.check_invariants();
    EXPECT_EQ(system.regions().total_share(), kHalfInterval);
    EXPECT_TRUE(
        system.regions().space().sufficient_for(system.alive().size()
                                                    ? static_cast<std::uint32_t>(
                                                          system.alive().size())
                                                    : 0));
  }
  EXPECT_EQ(system.alive().size(), 40u);
}

TEST(Replication, StateSizeScalesWithServersNotFileSets) {
  // The paper's scalability claim (§5): the state every server needs is
  // one record per occupied partition, so it depends only on servers and
  // partitions, regardless of how many file sets exist.
  std::vector<ServerId> alive = ids(5);
  AnuSystem system{AnuConfig{}, alive};
  // A couple of skewed rounds so the state is non-trivial.
  std::vector<ServerReport> reports;
  for (std::uint32_t i = 0; i < 5; ++i) {
    reports.push_back(ServerReport{ServerId{i}, 0.01 * (i + 1) * (i + 1),
                                   100});
  }
  (void)system.reconfigure(reports);
  (void)system.reconfigure(reports);
  const auto before = system.regions().dump();
  EXPECT_LE(before.size(), system.regions().space().count());
  // 5 servers, 16 partitions.
  EXPECT_LE(system.regions().space().count(), 16u);
  // Routing a great many file sets adds nothing to that state.
  sim::Xoshiro256 rng{77};
  for (int i = 0; i < 20000; ++i) (void)system.locate(rng());
  const auto after = system.regions().dump();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].index, before[i].index);
    EXPECT_EQ(after[i].owner, before[i].owner);
    EXPECT_EQ(after[i].fill, before[i].fill);
  }
  // Growing the cluster grows the state with the servers.
  for (std::uint32_t id = 5; id < 40; ++id) {
    system.add_server(ServerId{id});
    EXPECT_LE(system.regions().dump().size(),
              system.regions().space().count());
  }
}

TEST(AnuSystem, ShrinkingClusterKeepsInvariants) {
  AnuSystem system{AnuConfig{}, ids(16)};
  for (std::uint32_t id = 15; id >= 1; --id) {
    system.fail_server(ServerId{id});
    system.check_invariants();
    EXPECT_EQ(system.regions().total_share(), kHalfInterval);
  }
  EXPECT_EQ(system.alive().size(), 1u);
  // The lone survivor owns the whole mapped half.
  EXPECT_EQ(system.regions().share(ServerId{0}), kHalfInterval);
}

TEST(AnuSystem, VersionBumpsOnMembership) {
  AnuSystem system{AnuConfig{}, ids(3)};
  const std::uint64_t v0 = system.version();
  system.fail_server(ServerId{2});
  EXPECT_EQ(system.version(), v0 + 1);
  system.add_server(ServerId{2});
  EXPECT_EQ(system.version(), v0 + 2);
}

TEST(AnuSystem, DelegateFailoverKeepsTuning) {
  AnuSystem system{AnuConfig{}, ids(3)};
  std::vector<ServerReport> reports = uniform_reports(ids(3));
  reports[1].mean_latency = 0.2;
  (void)system.reconfigure(reports);
  EXPECT_EQ(system.delegate().current(), ServerId{0});
  // Delegate (server 0) dies: tuning continues under server 1.
  system.fail_server(ServerId{0});
  std::vector<ServerReport> reports2{{ServerId{1}, 0.2, 100},
                                     {ServerId{2}, 0.02, 100}};
  const TuneDecision d = system.reconfigure(reports2);
  EXPECT_EQ(system.delegate().current(), ServerId{1});
  EXPECT_EQ(system.delegate().failovers(), 1u);
  EXPECT_TRUE(d.acted);
}

// Fuzz: random interleavings of tuning rounds and membership changes.
class AnuSystemFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnuSystemFuzz, RandomLifecycleKeepsInvariants) {
  sim::Xoshiro256 rng{GetParam()};
  AnuSystem system{AnuConfig{}, ids(4)};
  std::vector<ServerId> alive = ids(4);
  std::uint32_t next = 4;
  for (int step = 0; step < 200; ++step) {
    const std::uint64_t op = rng.next_below(10);
    if (op < 6) {
      std::vector<ServerReport> reports;
      for (const ServerId id : alive) {
        reports.push_back(
            ServerReport{id, rng.next_double() * 0.1,
                         rng.next_below(200)});
      }
      (void)system.reconfigure(reports);
    } else if (op < 8 && alive.size() > 1) {
      const std::size_t victim = rng.next_below(alive.size());
      system.fail_server(alive[victim]);
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      const ServerId id{next++};
      system.add_server(id);
      alive.push_back(id);
    }
    system.check_invariants();
    EXPECT_EQ(system.regions().total_share(), kHalfInterval);
    // Addressing total: every fingerprint still resolves.
    EXPECT_LT(system.locate(rng()).value, next);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnuSystemFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace anufs::core
