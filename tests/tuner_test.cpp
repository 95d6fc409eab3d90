// Tests for the latency tuner and the three over-tuning heuristics.
#include "core/tuner.h"

#include <gtest/gtest.h>

#include <vector>

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

std::vector<ServerReport> reports_of(std::vector<double> latencies,
                                     std::uint64_t count = 100) {
  std::vector<ServerReport> out;
  for (std::uint32_t i = 0; i < latencies.size(); ++i) {
    out.push_back(ServerReport{ServerId{i}, latencies[i],
                               latencies[i] > 0 ? count : 0});
  }
  return out;
}

Measure sum_targets(const TuneDecision& d) {
  Measure sum = 0;
  for (const auto& [id, share] : d.targets) sum += share;
  return sum;
}

TunerConfig no_heuristics() {
  TunerConfig config;
  config.thresholding = false;
  config.top_off = false;
  config.divergent = false;
  return config;
}

TEST(SystemAverage, WeightedMeanWeighsByRequests) {
  std::vector<ServerReport> reports{
      {ServerId{0}, 0.100, 100},
      {ServerId{1}, 0.010, 900},
  };
  EXPECT_NEAR(LatencyTuner::system_average(reports,
                                           AverageKind::kWeightedMean),
              0.019, 1e-12);
}

TEST(SystemAverage, WeightedMeanIgnoresIdle) {
  std::vector<ServerReport> reports{
      {ServerId{0}, 0.0, 0},
      {ServerId{1}, 0.040, 100},
  };
  EXPECT_DOUBLE_EQ(LatencyTuner::system_average(
                       reports, AverageKind::kWeightedMean),
                   0.040);
}

TEST(SystemAverage, MedianOddCount) {
  std::vector<ServerReport> reports{
      {ServerId{0}, 0.030, 10},
      {ServerId{1}, 0.010, 10},
      {ServerId{2}, 0.020, 10},
  };
  EXPECT_DOUBLE_EQ(LatencyTuner::system_average(reports,
                                                AverageKind::kMedian),
                   0.020);
}

TEST(SystemAverage, MedianEvenCountAverages) {
  std::vector<ServerReport> reports{
      {ServerId{0}, 0.010, 10},
      {ServerId{1}, 0.030, 10},
  };
  EXPECT_DOUBLE_EQ(LatencyTuner::system_average(reports,
                                                AverageKind::kMedian),
                   0.020);
}

TEST(SystemAverage, MedianExcludesIdleServers) {
  std::vector<ServerReport> reports{
      {ServerId{0}, 0.0, 0},
      {ServerId{1}, 0.0, 0},
      {ServerId{2}, 0.030, 10},
      {ServerId{3}, 0.010, 10},
      {ServerId{4}, 0.020, 10},
  };
  EXPECT_DOUBLE_EQ(LatencyTuner::system_average(reports,
                                                AverageKind::kMedian),
                   0.020);
}

TEST(SystemAverage, AllIdleIsZero) {
  std::vector<ServerReport> reports{
      {ServerId{0}, 0.0, 0},
      {ServerId{1}, 0.0, 0},
  };
  EXPECT_DOUBLE_EQ(LatencyTuner::system_average(
                       reports, AverageKind::kWeightedMean),
                   0.0);
  EXPECT_DOUBLE_EQ(LatencyTuner::system_average(reports,
                                                AverageKind::kMedian),
                   0.0);
}

TEST(Tuner, TargetsAlwaysSumToHalf) {
  const RegionMap map = equal_map(5);
  LatencyTuner tuner{no_heuristics()};
  const TuneDecision d =
      tuner.retune(reports_of({0.5, 0.05, 0.02, 0.01, 0.005}), map);
  EXPECT_EQ(sum_targets(d), kHalfInterval);
}

TEST(Tuner, IdleSystemDoesNothing) {
  const RegionMap map = equal_map(3);
  LatencyTuner tuner{TunerConfig{}};
  const TuneDecision d = tuner.retune(reports_of({0.0, 0.0, 0.0}, 0), map);
  EXPECT_FALSE(d.acted);
  EXPECT_EQ(sum_targets(d), kHalfInterval);
  for (const auto& [id, share] : d.targets) {
    EXPECT_EQ(share, map.share(id));
  }
}

TEST(Tuner, BalancedSystemUntouched) {
  const RegionMap map = equal_map(4);
  LatencyTuner tuner{TunerConfig{}};
  const TuneDecision d =
      tuner.retune(reports_of({0.02, 0.02, 0.02, 0.02}), map);
  EXPECT_FALSE(d.acted);
}

TEST(Tuner, OverloadedServerShrinks) {
  const RegionMap map = equal_map(5);
  LatencyTuner tuner{TunerConfig{}};
  // Server 0 ten times above everyone else.
  const TuneDecision d =
      tuner.retune(reports_of({0.200, 0.020, 0.020, 0.020, 0.020}), map);
  EXPECT_TRUE(d.acted);
  EXPECT_LT(d.targets[0].second, map.share(ServerId{0}));
  // Everyone else grew (implicit top-off growth).
  for (std::size_t i = 1; i < d.targets.size(); ++i) {
    EXPECT_GE(d.targets[i].second, map.share(d.targets[i].first));
  }
}

TEST(Tuner, MaxScaleClampsShrink) {
  const RegionMap map = equal_map(2);
  TunerConfig config = no_heuristics();
  config.max_scale = 2.0;
  LatencyTuner tuner{config};
  // Latency ratio 100x, but the raw shrink factor is clamped at 1/2.
  // Renormalization (the partner also scaled, so the correction spreads
  // over everyone) can push a little further; the share must stay well
  // above the unclamped 1/100 and at or below the clamped half.
  const TuneDecision d = tuner.retune(reports_of({1.0, 0.01}), map);
  const Measure before = map.share(ServerId{0});
  EXPECT_LE(d.targets[0].second, before / 2 + 2);
  EXPECT_GE(d.targets[0].second, before / 4);
}

TEST(Tuner, ThresholdingTolerantBand) {
  const RegionMap map = equal_map(3);
  TunerConfig config = no_heuristics();
  config.thresholding = true;
  config.threshold = 0.5;
  LatencyTuner tuner{config};
  // All within +-50% of the mean: nothing to do.
  const TuneDecision d = tuner.retune(reports_of({0.012, 0.010, 0.009}), map);
  EXPECT_FALSE(d.acted);
}

TEST(Tuner, ThresholdingActsOutsideBand) {
  const RegionMap map = equal_map(3);
  TunerConfig config = no_heuristics();
  config.thresholding = true;
  config.threshold = 0.5;
  LatencyTuner tuner{config};
  const TuneDecision d = tuner.retune(reports_of({0.100, 0.010, 0.010}), map);
  EXPECT_TRUE(d.acted);
  EXPECT_LT(d.targets[0].second, map.share(ServerId{0}));
}

TEST(Tuner, TopOffNeverGrowsExplicitly) {
  const RegionMap map = equal_map(3);
  TunerConfig config = no_heuristics();
  config.top_off = true;
  LatencyTuner tuner{config};
  // Server 2 far below average: without top-off it would be scaled up.
  const TuneDecision d = tuner.retune(reports_of({0.050, 0.050, 0.001}), map);
  // Server 2 must not be in the explicitly-scaled set.
  for (const ServerId id : d.explicitly_scaled) {
    EXPECT_NE(id, ServerId{2});
  }
  // It still gains implicitly through renormalization.
  EXPECT_GT(d.targets[2].second, map.share(ServerId{2}));
}

TEST(Tuner, TopOffAllowsIdleServer) {
  // An idle server (latency 0) must NOT be grown explicitly under
  // top-off: this is how the weakest server is allowed to sit idle.
  const RegionMap map = equal_map(3);
  TunerConfig config = no_heuristics();
  config.top_off = true;
  LatencyTuner tuner{config};
  const TuneDecision d =
      tuner.retune(reports_of({0.0, 0.020, 0.020}), map);
  for (const ServerId id : d.explicitly_scaled) {
    EXPECT_NE(id, ServerId{0});
  }
}

TEST(Tuner, DivergentSkipsConvergingServer) {
  const RegionMap map = equal_map(2);
  TunerConfig config = no_heuristics();
  config.divergent = true;
  LatencyTuner tuner{config};
  // Round 1: server 0 hot and rising (no history -> acts).
  (void)tuner.retune(reports_of({0.100, 0.010}), map);
  // Round 2: server 0 still above average but FALLING: divergent tuning
  // must leave it alone to let the previous correction settle.
  const TuneDecision d2 = tuner.retune(reports_of({0.050, 0.010}), map);
  for (const ServerId id : d2.explicitly_scaled) {
    EXPECT_NE(id, ServerId{0});
  }
}

TEST(Tuner, DivergentActsOnDivergingServer) {
  const RegionMap map = equal_map(2);
  TunerConfig config = no_heuristics();
  config.divergent = true;
  LatencyTuner tuner{config};
  (void)tuner.retune(reports_of({0.100, 0.010}), map);
  // Still above average and RISING: act.
  const TuneDecision d2 = tuner.retune(reports_of({0.200, 0.010}), map);
  bool scaled0 = false;
  for (const ServerId id : d2.explicitly_scaled) {
    if (id == ServerId{0}) scaled0 = true;
  }
  EXPECT_TRUE(scaled0);
}

TEST(Tuner, ResetHistoryDisablesDivergentGatingOnce) {
  const RegionMap map = equal_map(2);
  TunerConfig config = no_heuristics();
  config.divergent = true;
  LatencyTuner tuner{config};
  (void)tuner.retune(reports_of({0.100, 0.010}), map);
  tuner.reset_history();  // delegate failover
  // Converging, but with no history the gate cannot be evaluated: the
  // algorithm falls back to plain scaling (the paper's degraded mode).
  const TuneDecision d = tuner.retune(reports_of({0.050, 0.010}), map);
  bool scaled0 = false;
  for (const ServerId id : d.explicitly_scaled) {
    if (id == ServerId{0}) scaled0 = true;
  }
  EXPECT_TRUE(scaled0);
}

bool scaled(const TuneDecision& d, std::uint32_t id) {
  for (const ServerId s : d.explicitly_scaled) {
    if (s == ServerId{id}) return true;
  }
  return false;
}

TEST(Tuner, SilentServerIsGatedAgainstItsLastReportedLatency) {
  // A report lost in transit (ReportCollector message loss) leaves the
  // server out of one round; its remembered latency must survive that
  // round, so on reappearance divergent gating compares against 0.100.
  const RegionMap map = equal_map(3);
  TunerConfig config = no_heuristics();
  config.divergent = true;
  const auto run = [&](double reappearing) {
    LatencyTuner tuner{config};
    (void)tuner.retune(reports_of({0.100, 0.010, 0.010}), map);
    std::vector<ServerReport> silent0 = reports_of({0.100, 0.010, 0.010});
    silent0.erase(silent0.begin());  // server 0's report is lost
    (void)tuner.retune(silent0, map);
    return tuner.retune(reports_of({reappearing, 0.010, 0.010}), map);
  };
  // Above average but below 0.100: converging, held back.
  EXPECT_FALSE(scaled(run(0.050), 0));
  // Above 0.100: still diverging, scaled.
  EXPECT_TRUE(scaled(run(0.200), 0));
  // A tuner with no history scales the same 0.050 report.
  LatencyTuner fresh{config};
  EXPECT_TRUE(
      scaled(fresh.retune(reports_of({0.050, 0.010, 0.010}), map), 0));
}

TEST(Tuner, ResetHistoryForgetsEveryServer) {
  const RegionMap map = equal_map(3);
  TunerConfig config = no_heuristics();
  config.divergent = true;
  // Round 2 has every server converging: 0 and 1 above average and
  // falling, 2 below average and rising. With history all are held.
  const auto round1 = reports_of({0.200, 0.150, 0.001});
  const auto round2 = reports_of({0.100, 0.080, 0.002});
  LatencyTuner kept{config};
  (void)kept.retune(round1, map);
  EXPECT_TRUE(kept.retune(round2, map).explicitly_scaled.empty());

  LatencyTuner reset{config};
  (void)reset.retune(round1, map);
  reset.reset_history();
  const TuneDecision d = reset.retune(round2, map);
  EXPECT_EQ(d.explicitly_scaled,
            (std::vector<ServerId>{ServerId{0}, ServerId{1}, ServerId{2}}));
}

TEST(Tuner, MinShareFloorRespected) {
  RegionMap map = equal_map(2);
  TunerConfig config = no_heuristics();
  LatencyTuner tuner{config};
  // Hammer server 0 with terrible latency for many rounds: its share
  // decays but never below the floor.
  for (int round = 0; round < 60; ++round) {
    const TuneDecision d = tuner.retune(reports_of({1.0, 0.001}), map);
    map.rebalance_to(d.targets);
  }
  EXPECT_GE(map.share(ServerId{0}), config.min_share);
  EXPECT_EQ(map.total_share(), kHalfInterval);
}

TEST(Tuner, RenormalizationPrefersUnscaledServers) {
  const RegionMap map = equal_map(3);
  TunerConfig config = no_heuristics();
  LatencyTuner tuner{config};
  // Server 0 sheds; servers 1, 2 are in the balanced band under
  // thresholding semantics — here (no thresholding) 1 and 2 both get
  // slight corrections; use thresholding to pin them.
  TunerConfig tconfig = no_heuristics();
  tconfig.thresholding = true;
  tconfig.threshold = 0.5;
  LatencyTuner ttuner{tconfig};
  const TuneDecision d =
      ttuner.retune(reports_of({0.100, 0.011, 0.009}), map);
  // The shed measure went to 1 and 2.
  EXPECT_LT(d.targets[0].second, map.share(ServerId{0}));
  EXPECT_GT(d.targets[1].second, map.share(ServerId{1}));
  EXPECT_GT(d.targets[2].second, map.share(ServerId{2}));
  EXPECT_EQ(sum_targets(d), kHalfInterval);
}

TEST(Tuner, MedianTunerAlsoBalances) {
  RegionMap map = equal_map(2);
  TunerConfig config = no_heuristics();
  config.average = AverageKind::kMedian;
  LatencyTuner tuner{config};
  const TuneDecision d = tuner.retune(reports_of({0.100, 0.010}), map);
  EXPECT_TRUE(d.acted);
  EXPECT_LT(d.targets[0].second, map.share(ServerId{0}));
}

TEST(Tuner, AutoThresholdTracksDeviationQuantile) {
  const RegionMap map = equal_map(5);
  TunerConfig config = no_heuristics();
  config.thresholding = true;
  config.auto_threshold = true;
  config.auto_quantile = 0.95;
  LatencyTuner tuner{config};
  // Deviations around A: one extreme outlier, the rest tight.
  (void)tuner.retune(reports_of({0.010, 0.011, 0.009, 0.010, 0.100}), map);
  // q95 of {~0,~0.5,...} clamps into [auto_min, auto_max].
  EXPECT_GE(tuner.last_threshold(), config.auto_min);
  EXPECT_LE(tuner.last_threshold(), config.auto_max);
}

TEST(Tuner, AutoThresholdSparesTypicalDeviations) {
  const RegionMap map = equal_map(5);
  TunerConfig config = no_heuristics();
  config.thresholding = true;
  config.auto_threshold = true;
  LatencyTuner tuner{config};
  // All five servers within +-20% of the mean: the auto band (floored
  // at auto_min = 0.25) tolerates everyone.
  const TuneDecision d =
      tuner.retune(reports_of({0.010, 0.012, 0.008, 0.011, 0.009}), map);
  EXPECT_FALSE(d.acted);
}

TEST(Tuner, AutoThresholdStillCatchesOutliers) {
  const RegionMap map = equal_map(5);
  TunerConfig config = no_heuristics();
  config.thresholding = true;
  config.auto_threshold = true;
  LatencyTuner tuner{config};
  const TuneDecision d =
      tuner.retune(reports_of({0.010, 0.012, 0.008, 0.011, 0.500}), map);
  EXPECT_TRUE(d.acted);
  // Only the outlier is scaled.
  ASSERT_EQ(d.explicitly_scaled.size(), 1u);
  EXPECT_EQ(d.explicitly_scaled[0], ServerId{4});
}

TEST(Tuner, AutoThresholdDisabledUsesFixedT) {
  const RegionMap map = equal_map(2);
  TunerConfig config = no_heuristics();
  config.thresholding = true;
  config.threshold = 0.5;
  LatencyTuner tuner{config};
  (void)tuner.retune(reports_of({0.010, 0.012}), map);
  EXPECT_DOUBLE_EQ(tuner.last_threshold(), 0.5);
}

// Property sweep: for random report vectors, targets always sum to half
// and respect the floor, under every heuristic combination.
class TunerProperty : public ::testing::TestWithParam<int> {};

TEST_P(TunerProperty, TargetsWellFormedUnderAllHeuristicCombos) {
  const int combo = GetParam();
  TunerConfig config;
  config.thresholding = (combo & 1) != 0;
  config.top_off = (combo & 2) != 0;
  config.divergent = (combo & 4) != 0;
  RegionMap map = equal_map(5);
  LatencyTuner tuner{config};
  std::uint64_t state = 0xC0FFEE + static_cast<std::uint64_t>(combo);
  for (int round = 0; round < 50; ++round) {
    std::vector<double> lat(5);
    for (auto& l : lat) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      l = static_cast<double>(state >> 40) * 1e-9;  // 0 .. ~0.017 s
    }
    const TuneDecision d = tuner.retune(reports_of(lat), map);
    EXPECT_EQ(sum_targets(d), kHalfInterval);
    for (const auto& [id, share] : d.targets) {
      EXPECT_GE(share, config.min_share);
      EXPECT_LE(share, kHalfInterval);
    }
    map.rebalance_to(d.targets);
    map.check_invariants();
  }
}

INSTANTIATE_TEST_SUITE_P(HeuristicCombos, TunerProperty,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace anufs::core
