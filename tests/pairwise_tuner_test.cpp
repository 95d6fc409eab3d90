// Tests for the decentralized pair-wise tuner (the paper's future-work
// variant implemented in core/pairwise_tuner.h).
#include "core/pairwise_tuner.h"

#include <gtest/gtest.h>

#include <set>

#include "core/anu_system.h"
#include "hash/unit_interval.h"

namespace anufs::core {
namespace {

using hash::kHalfInterval;

RegionMap equal_map(std::uint32_t n) {
  RegionMap map = RegionMap::for_servers(n);
  std::vector<std::pair<ServerId, Measure>> targets;
  Measure left = kHalfInterval;
  for (std::uint32_t i = 0; i < n; ++i) {
    map.add_server(ServerId{i});
    const Measure share = i + 1 == n ? left : kHalfInterval / n;
    targets.emplace_back(ServerId{i}, share);
    left -= share;
  }
  map.rebalance_to(targets);
  return map;
}

std::vector<ServerReport> reports_of(std::vector<double> lat) {
  std::vector<ServerReport> out;
  for (std::uint32_t i = 0; i < lat.size(); ++i) {
    out.push_back(ServerReport{ServerId{i}, lat[i],
                               lat[i] > 0 ? 100u : 0u});
  }
  return out;
}

TEST(PairwiseMatching, IsAPermutation) {
  const PairwiseTuner tuner{PairwiseConfig{}};
  std::vector<ServerId> alive;
  for (std::uint32_t i = 0; i < 9; ++i) alive.push_back(ServerId{i});
  const std::vector<ServerId> order = tuner.matching(3, alive);
  EXPECT_EQ(order.size(), alive.size());
  std::set<ServerId> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), alive.size());
}

TEST(PairwiseMatching, DeterministicPerRound) {
  const PairwiseTuner tuner{PairwiseConfig{}};
  std::vector<ServerId> alive;
  for (std::uint32_t i = 0; i < 8; ++i) alive.push_back(ServerId{i});
  EXPECT_EQ(tuner.matching(5, alive), tuner.matching(5, alive));
}

TEST(PairwiseMatching, VariesAcrossRounds) {
  const PairwiseTuner tuner{PairwiseConfig{}};
  std::vector<ServerId> alive;
  for (std::uint32_t i = 0; i < 8; ++i) alive.push_back(ServerId{i});
  int identical = 0;
  for (std::uint64_t r = 0; r < 10; ++r) {
    if (tuner.matching(r, alive) == tuner.matching(r + 1, alive)) {
      ++identical;
    }
  }
  EXPECT_LT(identical, 3);  // shuffles differ essentially always
}

TEST(PairwiseMatching, InputOrderIrrelevant) {
  const PairwiseTuner tuner{PairwiseConfig{}};
  const std::vector<ServerId> a{ServerId{2}, ServerId{0}, ServerId{1}};
  const std::vector<ServerId> b{ServerId{1}, ServerId{2}, ServerId{0}};
  EXPECT_EQ(tuner.matching(7, a), tuner.matching(7, b));
}

TEST(PairwiseTuner, ConservesMeasureExactly) {
  const RegionMap map = equal_map(5);
  PairwiseTuner tuner{PairwiseConfig{}};
  const TuneDecision d =
      tuner.retune(reports_of({0.5, 0.01, 0.2, 0.01, 0.05}), map);
  Measure sum = 0;
  for (const auto& [id, share] : d.targets) sum += share;
  EXPECT_EQ(sum, kHalfInterval);
}

TEST(PairwiseTuner, BalancedPairsUntouched) {
  const RegionMap map = equal_map(4);
  PairwiseTuner tuner{PairwiseConfig{}};
  const TuneDecision d =
      tuner.retune(reports_of({0.02, 0.021, 0.019, 0.02}), map);
  EXPECT_FALSE(d.acted);
}

TEST(PairwiseTuner, HotServerShedsToItsPartner) {
  const RegionMap map = equal_map(2);  // only one possible pair
  PairwiseTuner tuner{PairwiseConfig{}};
  const TuneDecision d = tuner.retune(reports_of({0.5, 0.01}), map);
  EXPECT_TRUE(d.acted);
  EXPECT_LT(d.targets[0].second, map.share(ServerId{0}));
  EXPECT_GT(d.targets[1].second, map.share(ServerId{1}));
  // Exactly pair-conserving.
  EXPECT_EQ(d.targets[0].second + d.targets[1].second, kHalfInterval);
}

TEST(PairwiseTuner, IdleReceiverGainsButNeverSheds) {
  const RegionMap map = equal_map(2);
  PairwiseTuner tuner{PairwiseConfig{}};
  // Server 1 idle (0 requests): it can only gain.
  std::vector<ServerReport> reports{{ServerId{0}, 0.5, 100},
                                    {ServerId{1}, 0.0, 0}};
  const TuneDecision d = tuner.retune(reports, map);
  EXPECT_GT(d.targets[1].second, map.share(ServerId{1}));
}

TEST(PairwiseTuner, BothIdleNoExchange) {
  const RegionMap map = equal_map(2);
  PairwiseTuner tuner{PairwiseConfig{}};
  std::vector<ServerReport> reports{{ServerId{0}, 0.0, 0},
                                    {ServerId{1}, 0.0, 0}};
  EXPECT_FALSE(tuner.retune(reports, map).acted);
}

TEST(PairwiseTuner, RespectsShareFloor) {
  RegionMap map = equal_map(2);
  PairwiseConfig config;
  PairwiseTuner tuner{config};
  for (int round = 0; round < 80; ++round) {
    const TuneDecision d = tuner.retune(reports_of({1.0, 0.001}), map);
    map.rebalance_to(d.targets);
  }
  EXPECT_GE(map.share(ServerId{0}), config.min_share);
  EXPECT_EQ(map.total_share(), kHalfInterval);
}

TEST(PairwiseTuner, ConvergesTowardLatencyProportionalShares) {
  // Closed-loop toy model: latency of server i is load_i / speed_i with
  // load proportional to share. Iterate gossip rounds; shares should
  // approach speed-proportional (equal latency).
  RegionMap map = equal_map(4);
  const std::vector<double> speeds{1, 2, 4, 8};
  PairwiseConfig config;
  config.tolerance = 0.05;
  PairwiseTuner tuner{config};
  for (int round = 0; round < 200; ++round) {
    std::vector<double> lat(4);
    for (std::uint32_t i = 0; i < 4; ++i) {
      lat[i] = hash::to_double(map.share(ServerId{i})) / speeds[i];
    }
    const TuneDecision d = tuner.retune(reports_of(lat), map);
    map.rebalance_to(d.targets);
  }
  // Equal latency => share_i proportional to speed_i: 1:2:4:8 of 1/2.
  const double total_speed = 15.0;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const double frac = 2.0 * hash::to_double(map.share(ServerId{i}));
    EXPECT_NEAR(frac, speeds[i] / total_speed, 0.05) << "server " << i;
  }
}

TEST(PairwiseTuner, AnuSystemIntegration) {
  core::AnuConfig config;
  config.mode = TunerMode::kDecentralizedPairwise;
  AnuSystem system{config, {ServerId{0}, ServerId{1}, ServerId{2}}};
  std::vector<ServerReport> reports{{ServerId{0}, 0.4, 100},
                                    {ServerId{1}, 0.02, 100},
                                    {ServerId{2}, 0.02, 100}};
  // Run several rounds; the hot server's share must fall.
  const Measure before = system.regions().share(ServerId{0});
  for (int i = 0; i < 10; ++i) (void)system.reconfigure(reports);
  EXPECT_LT(system.regions().share(ServerId{0}), before);
  system.check_invariants();
}

TEST(PairwiseTuner, CrashForgetsRememberedLatency) {
  // A crashed server loses its local latency memory: once it is back, a
  // hot report is judged on its own, not against its pre-crash latency
  // (against which 5.0 would read as "still draining" and hold it back).
  core::AnuConfig config;
  config.mode = TunerMode::kDecentralizedPairwise;
  AnuSystem system{config,
                   {ServerId{0}, ServerId{1}, ServerId{2}, ServerId{3}}};
  (void)system.reconfigure(reports_of({0.1, 0.1, 10.0, 0.1}));
  system.fail_server(ServerId{2});
  system.add_server(ServerId{2});
  const Measure before = system.regions().share(ServerId{2});
  (void)system.reconfigure(reports_of({0.1, 0.1, 5.0, 0.1}));
  EXPECT_LT(system.regions().share(ServerId{2}), before);
}

TEST(PairwiseTuner, AbsentServerKeepsItsRememberedLatency) {
  // Servers 2 and 3 sit out round 2 (a two-server map, reports for 0
  // and 1 only). In round 3 server 2 reports 5.0, below its remembered
  // 10.0, so it is still draining and must not shed. A tuner that
  // forgot server 2 during the gap makes it shed: the matching is the
  // same, because both tuners are at the same round.
  const RegionMap four = equal_map(4);
  const RegionMap two = equal_map(2);
  const auto run = [&](bool forget_during_gap) {
    PairwiseTuner tuner{PairwiseConfig{}};
    (void)tuner.retune(reports_of({0.1, 0.1, 10.0, 0.1}), four);
    (void)tuner.retune(reports_of({0.1, 0.1}), two);
    if (forget_during_gap) tuner.forget(ServerId{2});
    const TuneDecision d =
        tuner.retune(reports_of({0.1, 0.1, 5.0, 0.1}), four);
    for (const auto& [id, target] : d.targets) {
      if (id == ServerId{2}) return target;
    }
    return Measure{0};
  };
  EXPECT_EQ(run(false), four.share(ServerId{2}));
  EXPECT_LT(run(true), four.share(ServerId{2}));
}

TEST(PairwiseTuner, NoCentralStateAcrossInstances) {
  // Two tuner instances given the same inputs at the same round produce
  // identical decisions: the protocol has no hidden coordinator state.
  const RegionMap map = equal_map(4);
  PairwiseTuner a{PairwiseConfig{}};
  PairwiseTuner b{PairwiseConfig{}};
  const auto reports = reports_of({0.3, 0.01, 0.15, 0.02});
  const TuneDecision da = a.retune(reports, map);
  const TuneDecision db = b.retune(reports, map);
  ASSERT_EQ(da.targets.size(), db.targets.size());
  for (std::size_t i = 0; i < da.targets.size(); ++i) {
    EXPECT_EQ(da.targets[i], db.targets[i]);
  }
}

TEST(PairwiseTuner, LastOfDuplicateReportsWins) {
  // Server 1 holds no measure, so no round-1 pairing can move any: the
  // duplicates only decide which latency server 1 remembers. In round 2
  // the cold side refuses while its latency rises above that memory.
  RegionMap map = RegionMap::for_servers(2);
  map.add_server(ServerId{0});
  map.add_server(ServerId{1});
  map.resize(ServerId{0}, kHalfInterval);
  const auto remembered_as = [&](double first, double last) {
    PairwiseTuner tuner{PairwiseConfig{}};
    const TuneDecision round1 = tuner.retune(
        {{ServerId{1}, first, 10}, {ServerId{0}, 0.010, 10},
         {ServerId{1}, last, 10}},
        map);
    EXPECT_FALSE(round1.acted);
    EXPECT_EQ(round1.targets.size(), 3u);
    return tuner.retune({{ServerId{0}, 0.100, 10}, {ServerId{1}, 0.007, 10}},
                        map);
  };
  // Remembered 0.006: 0.007 is rising, so the exchange is refused.
  EXPECT_FALSE(remembered_as(0.050, 0.006).acted);
  // Remembered 0.050: 0.007 is falling, so server 0 sheds to server 1.
  const TuneDecision shed = remembered_as(0.006, 0.050);
  EXPECT_TRUE(shed.acted);
  EXPECT_LT(shed.targets[0].second, kHalfInterval);
}

}  // namespace
}  // namespace anufs::core
