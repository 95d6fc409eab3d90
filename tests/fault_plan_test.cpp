// Fault-plan DSL: parsing, serialization round-trips, validation, and
// the deterministic random-plan generator the property tests build on.
#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "support/random_fault_plan.h"

namespace anufs::fault {
namespace {

TEST(FaultPlanParse, AllDirectiveKinds) {
  const FaultPlan plan = parse_fault_plan_text(
      "# a commented plan\n"
      "crash 300 2\n"
      "\n"
      "recover 600 2   # trailing comment\n"
      "add 700 5 4.5\n"
      "limp 100 250 1 0.25\n"
      "san_slow 50 150 3.0\n"
      "move_flaky 200 400 0.5 2 1.5\n");
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].time, 300.0);
  EXPECT_EQ(plan.crashes[0].server, 2u);
  ASSERT_EQ(plan.recoveries.size(), 1u);
  EXPECT_EQ(plan.recoveries[0].time, 600.0);
  ASSERT_EQ(plan.additions.size(), 1u);
  EXPECT_EQ(plan.additions[0].server, 5u);
  EXPECT_EQ(plan.additions[0].speed, 4.5);
  ASSERT_EQ(plan.limps.size(), 1u);
  EXPECT_EQ(plan.limps[0].begin, 100.0);
  EXPECT_EQ(plan.limps[0].end, 250.0);
  EXPECT_EQ(plan.limps[0].server, 1u);
  EXPECT_EQ(plan.limps[0].factor, 0.25);
  ASSERT_EQ(plan.san_slowdowns.size(), 1u);
  EXPECT_EQ(plan.san_slowdowns[0].factor, 3.0);
  ASSERT_EQ(plan.flaky_moves.size(), 1u);
  EXPECT_EQ(plan.flaky_moves[0].probability, 0.5);
  EXPECT_EQ(plan.flaky_moves[0].max_retries, 2u);
  EXPECT_EQ(plan.flaky_moves[0].backoff, 1.5);
  EXPECT_EQ(plan.event_count(), 6u);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanParse, EmptyAndCommentOnlyPlansAreEmpty) {
  EXPECT_TRUE(parse_fault_plan_text("").empty());
  EXPECT_TRUE(parse_fault_plan_text("# nothing\n\n  # more\n").empty());
}

TEST(FaultPlanParse, MalformedDirectivesAbortWithLineDiagnostic) {
  EXPECT_DEATH((void)parse_fault_plan_text("crash oops 2\n"),
               "<fault-plan>:1: bad time 'oops'");
  EXPECT_DEATH((void)parse_fault_plan_text("# ok\nfrob 1 2\n"),
               "<fault-plan>:2: unknown directive 'frob'");
  EXPECT_DEATH((void)parse_fault_plan_text("crash 300 2 extra\n"),
               "<fault-plan>:1: trailing token 'extra'");
  // Backwards windows parse (they are syntactically fine) but never
  // validate.
  EXPECT_FALSE(
      validate(parse_fault_plan_text("limp 100 50 1 0.5\n"), 5).empty());
}

// Numbers are whole finite tokens and server ids fit in 32 bits: each
// bad token is named at its own line (line 2, after a comment).
TEST(FaultPlanParseDeathTest, MalformedNumbersNamedAtTheirLine) {
  const struct {
    const char* directive;
    const char* diagnostic;
  } cases[] = {
      {"crash 300x 2", "bad time '300x'"},
      {"crash 300 4294967298", "bad server '4294967298'"},
      {"crash nan 2", "bad time 'nan'"},
      {"crash inf 2", "bad time 'inf'"},
      {"crash 300 -1", "bad server '-1'"},
      {"add 100 7 2.5junk", "bad speed '2.5junk'"},
      {"limp 10 20 1 0.5e", "bad factor '0.5e'"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.directive);
    EXPECT_DEATH(
        (void)parse_fault_plan_text(std::string("# plan\n") + c.directive +
                                    "\n"),
        std::string("anufs-fault-plan: <fault-plan>:2: ") + c.diagnostic);
  }
}

TEST(FaultPlanParse, LoadFromFile) {
  const std::string path = testing::TempDir() + "/plan.flt";
  {
    std::ofstream out(path);
    out << "crash 10 0\nrecover 50 0\n";
  }
  const FaultPlan plan = load_fault_plan(path);
  EXPECT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.recoveries.size(), 1u);
  EXPECT_DEATH((void)load_fault_plan(path + ".does-not-exist"), "open");
}

TEST(FaultPlanText, RoundTripIsCanonical) {
  // Directives given out of time order serialize sorted, and a second
  // round-trip is a fixed point.
  const FaultPlan plan = parse_fault_plan_text(
      "crash 900 1\n"
      "crash 300 2\n"
      "recover 600 2\n"
      "limp 500 700 0 0.5\n"
      "limp 100 200 0 0.5\n");
  const std::string text = to_text(plan);
  EXPECT_LT(text.find("crash 300"), text.find("crash 900"));
  EXPECT_LT(text.find("limp 100"), text.find("limp 500"));
  EXPECT_EQ(to_text(parse_fault_plan_text(text)), text);
}

TEST(FaultPlanValidate, AcceptsWellFormedSchedules) {
  const FaultPlan plan = parse_fault_plan_text(
      "crash 300 2\n"
      "recover 600 2\n"
      "crash 800 2\n"          // crash again after recovering: fine
      "add 100 5 2.0\n"
      "limp 100 200 1 0.5\n"
      "limp 300 400 1 0.5\n"   // second window, disjoint: fine
      "san_slow 50 150 2.0\n"
      "move_flaky 200 400 0.5 2 1.0\n");
  EXPECT_TRUE(validate(plan, 5).empty());
}

TEST(FaultPlanValidate, RejectsBrokenMembershipSchedules) {
  // Unknown server.
  EXPECT_FALSE(validate(parse_fault_plan_text("crash 10 9\n"), 5).empty());
  // Crash while already crashed.
  EXPECT_FALSE(
      validate(parse_fault_plan_text("crash 10 2\ncrash 20 2\n"), 5).empty());
  // Recover while alive.
  EXPECT_FALSE(validate(parse_fault_plan_text("recover 10 2\n"), 5).empty());
  // Adding an id that already exists.
  EXPECT_FALSE(validate(parse_fault_plan_text("add 10 4 2.0\n"), 5).empty());
  // Limping a server before it is commissioned.
  EXPECT_FALSE(
      validate(parse_fault_plan_text("add 100 5 2.0\nlimp 10 50 5 0.5\n"), 5)
          .empty());
  // Overlapping limp windows on the same server.
  EXPECT_FALSE(
      validate(parse_fault_plan_text("limp 10 50 2 0.5\nlimp 40 80 2 0.5\n"),
               5)
          .empty());
  // Out-of-range knobs.
  EXPECT_FALSE(
      validate(parse_fault_plan_text("move_flaky 0 10 1.5 2 1\n"), 5).empty());
  EXPECT_FALSE(
      validate(parse_fault_plan_text("san_slow 0 10 0\n"), 5).empty());
}

TEST(FaultPlanValidate, AddedIdsStayInTheDenseRange) {
  // Four initial servers plus one addition: the added id must be 4.
  EXPECT_TRUE(validate(parse_fault_plan_text("add 10 4 1.0\n"), 4).empty());
  const std::vector<std::string> high =
      validate(parse_fault_plan_text("add 10 5 1.0\n"), 4);
  ASSERT_EQ(high.size(), 1u);
  EXPECT_NE(high[0].find("server id 5 outside"), std::string::npos)
      << high[0];
  const std::vector<std::string> wrapped =
      validate(parse_fault_plan_text("add 10 4294967295 1.0\n"), 4);
  ASSERT_FALSE(wrapped.empty());
  EXPECT_NE(wrapped[0].find("server id 4294967295"), std::string::npos)
      << wrapped[0];
  // Two additions widen the range by two.
  EXPECT_TRUE(
      validate(parse_fault_plan_text("add 10 5 1.0\nadd 20 4 1.0\n"), 4)
          .empty());
}

TEST(FaultPlanValidate, EnforcesMinimumAliveServers) {
  const FaultPlan plan = parse_fault_plan_text(
      "crash 10 0\n"
      "crash 20 1\n"
      "crash 30 2\n");
  EXPECT_TRUE(validate(plan, 5, /*min_alive=*/2).empty());
  EXPECT_FALSE(validate(plan, 5, /*min_alive=*/3).empty());
  // A recovery frees up headroom for the next crash.
  const FaultPlan churn = parse_fault_plan_text(
      "crash 10 0\n"
      "crash 20 1\n"
      "recover 25 0\n"
      "crash 30 2\n");
  EXPECT_TRUE(validate(churn, 5, /*min_alive=*/3).empty());
}

TEST(FaultPlanRandom, GeneratedPlansAlwaysValidate) {
  RandomPlanConfig config;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const FaultPlan plan = make_random_plan(config, seed);
    const std::vector<std::string> problems =
        validate(plan, config.n_servers, config.min_alive);
    EXPECT_TRUE(problems.empty())
        << "seed " << seed << ": " << problems.front();
  }
}

TEST(FaultPlanRandom, DeterministicInSeedAndNotDegenerate) {
  const RandomPlanConfig config;
  EXPECT_EQ(to_text(make_random_plan(config, 7)),
            to_text(make_random_plan(config, 7)));
  // Across a seed range the generator exercises every directive kind.
  std::size_t crashes = 0, limps = 0, sans = 0, flaky = 0, adds = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const FaultPlan plan = make_random_plan(config, seed);
    crashes += plan.crashes.size();
    limps += plan.limps.size();
    sans += plan.san_slowdowns.size();
    flaky += plan.flaky_moves.size();
    adds += plan.additions.size();
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(limps, 0u);
  EXPECT_GT(sans, 0u);
  EXPECT_GT(flaky, 0u);
  EXPECT_GT(adds, 0u);
}

TEST(FaultPlanRandom, RespectsRecoverGapFloor) {
  RandomPlanConfig config;
  config.min_recover_gap = 40.0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const FaultPlan plan = make_random_plan(config, seed);
    for (const RecoverEvent& r : plan.recoveries) {
      double crash_time = -1.0;
      for (const CrashEvent& c : plan.crashes) {
        if (c.server == r.server && c.time < r.time &&
            c.time > crash_time) {
          crash_time = c.time;
        }
      }
      ASSERT_GE(crash_time, 0.0) << "recovery without a crash";
      EXPECT_GE(r.time - crash_time, config.min_recover_gap);
    }
  }
}

}  // namespace
}  // namespace anufs::fault
