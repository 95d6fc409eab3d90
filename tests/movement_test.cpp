// Tests for the file-set movement cost model.
#include "cluster/movement.h"

#include <gtest/gtest.h>

namespace anufs::cluster {
namespace {

TEST(MovementModel, SamplesWithinConfiguredRanges) {
  MovementModel model(MovementConfig{}, /*seed=*/1);
  const MovementConfig& config = model.config();
  for (int i = 0; i < 1000; ++i) {
    const double flush = model.sample_flush();
    EXPECT_GE(flush, config.flush_min);
    EXPECT_LE(flush, config.flush_max);
    const double init = model.sample_init();
    EXPECT_GE(init, config.init_min);
    EXPECT_LE(init, config.init_max);
  }
}

TEST(MovementModel, DeterministicInSeed) {
  MovementModel a(MovementConfig{}, 7);
  MovementModel b(MovementConfig{}, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.sample_flush(), b.sample_flush());
    EXPECT_EQ(a.sample_init(), b.sample_init());
  }
}

TEST(MovementModel, WarmSetCostsNothingExtra) {
  MovementModel model(MovementConfig{}, 1);
  EXPECT_DOUBLE_EQ(model.demand_multiplier(FileSetId{3}), 1.0);
}

TEST(MovementModel, ColdCacheDecaysLinearlyToWarm) {
  MovementConfig config;
  config.cold_factor = 3.0;
  config.cold_requests = 4;
  MovementModel model(config, 1);
  model.on_move(FileSetId{0});
  // Multipliers: 1 + 2*(4/4), 1 + 2*(3/4), ..., then warm.
  EXPECT_DOUBLE_EQ(model.demand_multiplier(FileSetId{0}), 3.0);
  EXPECT_DOUBLE_EQ(model.demand_multiplier(FileSetId{0}), 2.5);
  EXPECT_DOUBLE_EQ(model.demand_multiplier(FileSetId{0}), 2.0);
  EXPECT_DOUBLE_EQ(model.demand_multiplier(FileSetId{0}), 1.5);
  EXPECT_DOUBLE_EQ(model.demand_multiplier(FileSetId{0}), 1.0);  // warm
  EXPECT_EQ(model.cold_sets(), 0u);
}

TEST(MovementModel, MoveResetWarmup) {
  MovementConfig config;
  config.cold_requests = 10;
  MovementModel model(config, 1);
  model.on_move(FileSetId{0});
  (void)model.demand_multiplier(FileSetId{0});
  (void)model.demand_multiplier(FileSetId{0});
  model.on_move(FileSetId{0});  // moved again: fully cold again
  EXPECT_DOUBLE_EQ(model.demand_multiplier(FileSetId{0}),
                   config.cold_factor);
}

TEST(MovementModel, IndependentPerFileSet) {
  MovementModel model(MovementConfig{}, 1);
  model.on_move(FileSetId{0});
  EXPECT_GT(model.demand_multiplier(FileSetId{0}), 1.0);
  EXPECT_DOUBLE_EQ(model.demand_multiplier(FileSetId{1}), 1.0);
  EXPECT_EQ(model.cold_sets(), 1u);
}

TEST(MovementModel, UnityColdFactorDisablesTracking) {
  MovementConfig config;
  config.cold_factor = 1.0;
  MovementModel model(config, 1);
  model.on_move(FileSetId{0});
  EXPECT_EQ(model.cold_sets(), 0u);
  EXPECT_DOUBLE_EQ(model.demand_multiplier(FileSetId{0}), 1.0);
}

TEST(MovementModel, ZeroColdRequestsDisablesTracking) {
  MovementConfig config;
  config.cold_requests = 0;
  MovementModel model(config, 1);
  model.on_move(FileSetId{0});
  EXPECT_EQ(model.cold_sets(), 0u);
}

TEST(MovementModel, MovingAColdSetAgainRestartsItsWarmup) {
  MovementConfig config;
  config.cold_factor = 3.0;
  config.cold_requests = 4;
  MovementModel model(config, 1);
  model.on_move(FileSetId{2});
  (void)model.demand_multiplier(FileSetId{2});
  (void)model.demand_multiplier(FileSetId{2});
  model.on_move(FileSetId{2});  // still cold: counted once, not twice
  EXPECT_EQ(model.cold_sets(), 1u);
  EXPECT_DOUBLE_EQ(model.demand_multiplier(FileSetId{2}), 3.0);
  EXPECT_DOUBLE_EQ(model.demand_multiplier(FileSetId{2}), 2.5);
}

TEST(MovementModel, IdAboveEveryMovedIdIsWarm) {
  MovementModel model(MovementConfig{}, 1);
  model.on_move(FileSetId{1});
  model.on_move(FileSetId{4});
  EXPECT_EQ(model.cold_sets(), 2u);
  EXPECT_DOUBLE_EQ(model.demand_multiplier(FileSetId{5}), 1.0);
  EXPECT_DOUBLE_EQ(model.demand_multiplier(FileSetId{1000000}), 1.0);
  EXPECT_EQ(model.cold_sets(), 2u);
}

TEST(MovementModel, ColdSetCountReturnsToZeroOnceAllWarm) {
  MovementConfig config;
  config.cold_requests = 3;
  MovementModel model(config, 1);
  for (std::uint32_t fs = 0; fs < 5; ++fs) model.on_move(FileSetId{fs});
  EXPECT_EQ(model.cold_sets(), 5u);
  for (int request = 0; request < 3; ++request) {
    for (std::uint32_t fs = 0; fs < 5; ++fs) {
      EXPECT_GT(model.demand_multiplier(FileSetId{fs}), 1.0);
    }
  }
  EXPECT_EQ(model.cold_sets(), 0u);
  EXPECT_DOUBLE_EQ(model.demand_multiplier(FileSetId{3}), 1.0);
  EXPECT_EQ(model.cold_sets(), 0u);
}

}  // namespace
}  // namespace anufs::cluster
