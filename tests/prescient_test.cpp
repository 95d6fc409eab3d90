// Tests for the prescient bin-packing comparator.
#include "policies/prescient.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "workload/synthetic.h"

namespace anufs::policy {
namespace {

// Build a workload with exactly one request per file set at t = i, each
// carrying the given demand: the per-set "size" the packer sees.
workload::Workload point_workload(const std::vector<double>& demands,
                                  double duration = 1000.0) {
  workload::Workload w;
  w.name = "points";
  w.duration = duration;
  for (std::uint32_t i = 0; i < demands.size(); ++i) {
    w.file_sets.push_back(
        workload::FileSetSpec::make(i, "p" + std::to_string(i), demands[i]));
    w.requests.push_back(
        workload::RequestEvent{static_cast<double>(i), FileSetId{i},
                               demands[i]});
  }
  w.validate();
  return w;
}

PrescientConfig config_for(const std::vector<double>& speeds,
                           PrescientConfig::Mode mode =
                               PrescientConfig::Mode::kStationary) {
  PrescientConfig pc;
  for (std::uint32_t i = 0; i < speeds.size(); ++i) {
    pc.speeds[ServerId{i}] = speeds[i];
  }
  pc.mode = mode;
  return pc;
}

std::vector<ServerId> servers_for(std::size_t n) {
  std::vector<ServerId> out;
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(ServerId{i});
  return out;
}

// Brute force: minimum possible max normalized load over all
// assignments (for small instances).
double brute_force_optimum(const std::vector<double>& demands,
                           const std::vector<double>& speeds) {
  const std::size_t n = speeds.size();
  const std::size_t m = demands.size();
  std::vector<std::size_t> choice(m, 0);
  double best = 1e300;
  while (true) {
    std::vector<double> load(n, 0.0);
    for (std::size_t i = 0; i < m; ++i) load[choice[i]] += demands[i];
    double worst = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      worst = std::max(worst, load[j] / speeds[j]);
    }
    best = std::min(best, worst);
    // Increment the mixed-radix counter.
    std::size_t k = 0;
    while (k < m && ++choice[k] == n) choice[k++] = 0;
    if (k == m) break;
  }
  return best;
}

double achieved_norm(const PrescientPolicy& policy,
                     const std::vector<double>& demands,
                     const std::vector<double>& speeds) {
  std::vector<double> load(speeds.size(), 0.0);
  for (std::uint32_t i = 0; i < demands.size(); ++i) {
    load[policy.owner(FileSetId{i}).value] += demands[i];
  }
  double worst = 0.0;
  for (std::size_t j = 0; j < speeds.size(); ++j) {
    worst = std::max(worst, load[j] / speeds[j]);
  }
  return worst;
}

TEST(Prescient, AssignsEveryFileSet) {
  const std::vector<double> demands{5, 4, 3, 2, 1, 1, 1};
  const std::vector<double> speeds{1, 3, 5};
  const workload::Workload w = point_workload(demands);
  PrescientPolicy policy(config_for(speeds), w);
  policy.initialize(w.file_sets, servers_for(speeds.size()));
  for (std::uint32_t i = 0; i < demands.size(); ++i) {
    EXPECT_LT(policy.owner(FileSetId{i}).value, speeds.size());
  }
}

TEST(Prescient, MatchesBruteForceOnSmallInstances) {
  // Several small instances where exhaustive search is feasible: the
  // packer must be within 10% of the true optimum (it usually IS the
  // optimum; the slack covers the latency-objective second pass).
  const std::vector<std::pair<std::vector<double>, std::vector<double>>>
      instances{
          {{5, 4, 3, 2, 1}, {1, 2}},
          {{9, 7, 5, 3, 1, 1}, {1, 3, 5}},
          {{10, 10, 10}, {1, 1, 1}},
          {{8, 6, 4, 2, 2, 2, 2}, {2, 3}},
          {{100, 1, 1, 1, 1, 1}, {1, 9}},
      };
  for (const auto& [demands, speeds] : instances) {
    const workload::Workload w = point_workload(demands);
    PrescientPolicy policy(config_for(speeds), w);
    policy.initialize(w.file_sets, servers_for(speeds.size()));
    const double achieved = achieved_norm(policy, demands, speeds);
    const double optimum = brute_force_optimum(demands, speeds);
    EXPECT_LE(achieved, optimum * 1.10 + 1e-12)
        << "demands=" << demands.size() << " speeds=" << speeds.size();
  }
}

TEST(Prescient, FavorsFastServersForHeavySets) {
  const std::vector<double> demands{100, 1};
  const std::vector<double> speeds{1, 9};
  const workload::Workload w = point_workload(demands);
  PrescientPolicy policy(config_for(speeds), w);
  policy.initialize(w.file_sets, servers_for(2));
  EXPECT_EQ(policy.owner(FileSetId{0}), ServerId{1});
}

TEST(Prescient, StationaryModeNeverMoves) {
  const workload::Workload w =
      workload::make_synthetic(workload::SyntheticConfig{
          .file_sets = 50, .total_requests = 5000, .duration = 1000.0});
  PrescientPolicy policy(config_for({1, 3, 5, 7, 9}), w);
  policy.initialize(w.file_sets, servers_for(5));
  const std::vector<core::ServerReport> reports{
      {ServerId{0}, 0.5, 100}, {ServerId{1}, 0.01, 100},
      {ServerId{2}, 0.01, 100}, {ServerId{3}, 0.01, 100},
      {ServerId{4}, 0.01, 100}};
  for (double t = 120.0; t < 1000.0; t += 120.0) {
    EXPECT_TRUE(policy.rebalance(t, reports).empty());
  }
}

TEST(Prescient, LookAheadHysteresisAvoidsChurn) {
  // A stationary workload seen through look-ahead windows: after the
  // initial pack, repacking should rarely beat the hysteresis margin.
  const workload::Workload w =
      workload::make_synthetic(workload::SyntheticConfig{
          .file_sets = 100, .total_requests = 20000, .duration = 4000.0});
  PrescientPolicy policy(
      config_for({1, 3, 5, 7, 9}, PrescientConfig::Mode::kLookAhead), w);
  policy.initialize(w.file_sets, servers_for(5));
  std::size_t total_moves = 0;
  for (double t = 120.0; t + 120.0 <= 4000.0; t += 120.0) {
    total_moves += policy.rebalance(t, {}).size();
  }
  // Well under one full reshuffle across the whole run.
  EXPECT_LT(total_moves, w.file_sets.size());
}

TEST(Prescient, FailureRehomesVictims) {
  const std::vector<double> demands{5, 4, 3, 2, 1, 1};
  const std::vector<double> speeds{1, 3, 5};
  const workload::Workload w = point_workload(demands);
  PrescientPolicy policy(config_for(speeds), w);
  policy.initialize(w.file_sets, servers_for(3));
  (void)policy.on_server_failed(ServerId{2});
  for (std::uint32_t i = 0; i < demands.size(); ++i) {
    EXPECT_NE(policy.owner(FileSetId{i}), ServerId{2});
  }
  EXPECT_EQ(policy.servers().size(), 2u);
}

TEST(Prescient, AdditionCanAttractLoad) {
  // One slow server holds everything; adding a 10x faster one should
  // pull the heavy sets over.
  const std::vector<double> demands{50, 40, 30};
  const workload::Workload w = point_workload(demands);
  PrescientConfig pc = config_for({1.0, 10.0});
  PrescientPolicy policy(pc, w);
  policy.initialize(w.file_sets, {ServerId{0}});
  const std::vector<Move> moves = policy.on_server_added(ServerId{1});
  EXPECT_FALSE(moves.empty());
  double fast_load = 0.0;
  for (std::uint32_t i = 0; i < demands.size(); ++i) {
    if (policy.owner(FileSetId{i}) == ServerId{1}) fast_load += demands[i];
  }
  EXPECT_GT(fast_load, 60.0);  // the bulk went to the fast newcomer
}

TEST(Prescient, PackedSkewNearOneOnEasyInstance) {
  // Many small equal sets over homogeneous servers: skew ~ 1.
  std::vector<double> demands(64, 1.0);
  const std::vector<double> speeds{1, 1, 1, 1};
  const workload::Workload w = point_workload(demands);
  PrescientPolicy policy(config_for(speeds), w);
  policy.initialize(w.file_sets, servers_for(4));
  // Skew = the most loaded server over the fair share (64 / 4 = 16).
  std::vector<double> load(speeds.size(), 0.0);
  for (std::uint32_t i = 0; i < demands.size(); ++i) {
    load[policy.owner(FileSetId{i}).value] += demands[i];
  }
  EXPECT_NEAR(*std::max_element(load.begin(), load.end()) / 16.0, 1.0, 0.01);
}

TEST(Prescient, NormalizedLoadWithinSlackOfFairShare) {
  // The packer's hard guarantee: max_j load_j/speed_j stays within
  // load_slack of the fair share. (The latency pass may drain the SLOW
  // servers entirely — with uniform request sizes a weak server only
  // raises the latency ceiling — so per-server proportionality is NOT
  // guaranteed; the normalized-load cap is.)
  std::vector<double> demands(100, 1.0);
  const std::vector<double> speeds{1, 3, 5, 7, 9};  // total 25
  const workload::Workload w = point_workload(demands);
  const PrescientConfig pc = config_for(speeds);
  PrescientPolicy policy(pc, w);
  policy.initialize(w.file_sets, servers_for(5));
  std::vector<double> load(5, 0.0);
  for (std::uint32_t i = 0; i < 100; ++i) {
    load[policy.owner(FileSetId{i}).value] += 1.0;
  }
  const double fair = 100.0 / 25.0;
  for (std::size_t j = 0; j < 5; ++j) {
    // +1 covers discreteness of unit-demand sets.
    EXPECT_LE(load[j] / speeds[j], fair * pc.load_slack + 1.0)
        << "server " << j;
  }
}

}  // namespace
}  // namespace anufs::policy
