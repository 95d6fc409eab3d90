// Tests for the scenario driver: config parsing and end-to-end runs.
#include "driver/scenario.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "policies/registry.h"

namespace anufs::driver {
namespace {

TEST(ScenarioParse, Defaults) {
  const ScenarioConfig c = parse_scenario_text("");
  EXPECT_EQ(c.workload, "synthetic");
  EXPECT_EQ(c.policy, "anu");
  EXPECT_EQ(c.cluster.server_speeds.size(), 5u);
  EXPECT_FALSE(c.emit_series);
}

TEST(ScenarioParse, FullConfig) {
  const ScenarioConfig c = parse_scenario_text(R"(
# a comment
workload dfstrace
policy prescient
servers 2,4,8
period 60
duration 1800
requests 50000
file_sets 21
seed 7
san on
detector on
routing_delay 10
movement off
threshold 0.75
max_scale 3.0
average median
fail 600 2
recover 900 2
add 1200 3 8.0
emit series
)");
  EXPECT_EQ(c.workload, "dfstrace");
  EXPECT_EQ(c.policy, "prescient");
  EXPECT_EQ(c.cluster.server_speeds, (std::vector<double>{2, 4, 8}));
  EXPECT_EQ(c.cluster.reconfig_period, 60.0);
  EXPECT_EQ(c.duration, 1800.0);
  EXPECT_EQ(c.requests, 50000u);
  EXPECT_EQ(c.file_sets, 21u);
  EXPECT_EQ(c.seed, 7u);
  EXPECT_TRUE(c.cluster.san.enabled);
  EXPECT_TRUE(c.cluster.detector.enabled);
  EXPECT_EQ(c.cluster.routing.distribution_delay, 10.0);
  EXPECT_FALSE(c.cluster.movement.enabled);
  EXPECT_EQ(c.threshold, 0.75);
  EXPECT_EQ(c.max_scale, 3.0);
  EXPECT_TRUE(c.median_average);
  ASSERT_EQ(c.events.size(), 3u);
  EXPECT_EQ(c.events[0].kind, MembershipEvent::Kind::kFail);
  EXPECT_EQ(c.events[2].kind, MembershipEvent::Kind::kAdd);
  EXPECT_EQ(c.events[2].speed, 8.0);
  EXPECT_TRUE(c.emit_series);
}

TEST(ScenarioParse, ServingKeys) {
  const ScenarioConfig off = parse_scenario_text("");
  EXPECT_EQ(off.serve_threads, 0u);  // serving phase defaults to off
  const ScenarioConfig c = parse_scenario_text(R"(
serve_threads 8
serve_seconds 0.25
)");
  EXPECT_EQ(c.serve_threads, 8u);
  EXPECT_EQ(c.serve_seconds, 0.25);
}

TEST(ScenarioParseDeathTest, ServeSecondsMustBePositive) {
  EXPECT_DEATH((void)parse_scenario_text("serve_seconds 0\n"),
               "serve_seconds must be > 0");
}

TEST(ScenarioRun, ServingPhaseRunsAndPrintsEquivalence) {
  const ScenarioConfig c = parse_scenario_text(R"(
workload synthetic
policy anu
requests 2000
duration 400
file_sets 64
seed 5
serve_threads 2
serve_seconds 0.2
)");
  std::ostringstream os;
  const cluster::RunResult r = run_scenario(c, os);
  EXPECT_GT(r.completed, 1000u);
  EXPECT_NE(os.str().find("serving 2 threads"), std::string::npos);
  EXPECT_NE(os.str().find("serving equivalence OK"), std::string::npos);
}

TEST(ScenarioParse, InlineFaultDirectives) {
  const ScenarioConfig c = parse_scenario_text(
      "fault crash 12.5 3\n"
      "fault limp 1 2 0 0.5\n");
  ASSERT_EQ(c.faults.crashes.size(), 1u);
  EXPECT_EQ(c.faults.crashes[0].time, 12.5);
  EXPECT_EQ(c.faults.crashes[0].server, 3u);
  ASSERT_EQ(c.faults.limps.size(), 1u);
  EXPECT_EQ(c.faults.limps[0].factor, 0.5);
  EXPECT_EQ(c.faults.event_count(), 2u);
}

TEST(ScenarioParse, FaultsFileAndInlineFaultsCompose) {
  const std::string path = testing::TempDir() + "/scenario_plan.flt";
  {
    std::ofstream out(path);
    out << "crash 10 0\nsan_slow 5 15 2.0\n";
  }
  const ScenarioConfig c = parse_scenario_text("fault crash 20 1\nfaults " +
                                               path + "\nfault recover 30 0\n");
  ASSERT_EQ(c.faults.crashes.size(), 2u);
  EXPECT_EQ(c.faults.crashes[0].server, 1u);  // inline line 1
  EXPECT_EQ(c.faults.crashes[1].server, 0u);  // from the file
  EXPECT_EQ(c.faults.san_slowdowns.size(), 1u);
  EXPECT_EQ(c.faults.recoveries.size(), 1u);
  EXPECT_EQ(c.faults.event_count(), 4u);
}

// Inline fault directives and scenario keys share one reader: a bad
// token is named at the scenario's own source and line (line 3 here,
// after two good lines).
TEST(ScenarioParseDeathTest, MalformedLinesNamedAtTheirLine) {
  const struct {
    const char* line;
    const char* diagnostic;
  } cases[] = {
      {"fault crash 300x 2", "bad time '300x'"},
      {"fault add 100 7 2.5junk", "bad speed '2.5junk'"},
      {"fault frob 1 2", "unknown directive 'frob'"},
      {"fault", "missing fault directive"},
      {"period 60 extra", "trailing token 'extra'"},
      {"servers 1,3x,5", "bad speed '3x'"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.line);
    EXPECT_DEATH((void)parse_scenario_text(
                     std::string("policy anu\nseed 1\n") + c.line + "\n"),
                 std::string("anufs-scenario: <inline>:3: ") + c.diagnostic);
  }
}

TEST(ScenarioParseDeathTest, AddedIdOutsideTheDenseRange) {
  // Two initial servers and one `add`: only id 2 is free, and the
  // diagnostic names the line of the offending `add`.
  EXPECT_DEATH((void)parse_scenario_text("add 100 3 1.0\nservers 1,2\n"),
               "anufs-scenario: <inline>:1: add: server id 3 outside");
  EXPECT_DEATH(
      (void)parse_scenario_text("servers 1,2\nadd 100 4294967295 1.0\n"),
      "<inline>:2: add: server id 4294967295 outside");
}

TEST(ScenarioParseDeathTest, UnknownKey) {
  EXPECT_DEATH((void)parse_scenario_text("frobnicate 1\n"), "unknown key");
}

TEST(ScenarioParseDeathTest, BadOnOff) {
  EXPECT_DEATH((void)parse_scenario_text("san maybe\n"), "on.off");
}

TEST(ScenarioParseDeathTest, MissingValue) {
  EXPECT_DEATH((void)parse_scenario_text("period\n"), "missing");
}

TEST(ScenarioRun, SmallAnuRun) {
  const ScenarioConfig c = parse_scenario_text(R"(
workload synthetic
policy anu
requests 4000
duration 600
file_sets 40
seed 3
)");
  std::ostringstream os;
  const cluster::RunResult r = run_scenario(c, os);
  EXPECT_GT(r.completed, 3000u);
  EXPECT_NE(os.str().find("run-mean latency"), std::string::npos);
}

TEST(ScenarioRun, EveryPolicyRuns) {
  // Enumerated from the registry: a policy registered there is runnable
  // from a scenario by definition, with no list here to update.
  for (const std::string& policy : policy::registered_policy_names()) {
    const ScenarioConfig c = parse_scenario_text(
        "workload synthetic\nrequests 2000\nduration 400\n"
        "file_sets 20\npolicy " +
        policy + "\n");
    std::ostringstream os;
    const cluster::RunResult r = run_scenario(c, os);
    EXPECT_GT(r.completed, 1000u) << policy;
  }
}

TEST(ScenarioParseDeathTest, UnknownPolicyListsRegisteredNames) {
  // The diagnostic must carry source:line and the full registry, so a
  // typo'd scenario tells the operator what IS available.
  EXPECT_DEATH((void)parse_scenario_text("policy frobnicate\n"),
               "<inline>:1: unknown policy 'frobnicate' \\(registered: anu");
}

TEST(ScenarioParseDeathTest, PowDZeroRejected) {
  EXPECT_DEATH((void)parse_scenario_text("pow_d 0\n"), "pow_d must be >= 1");
}

TEST(ScenarioParseDeathTest, NegativeThresholdRejected) {
  // A negative band would otherwise fall through make_anu_config's
  // "<0 = default" sentinel and run silently with the default width.
  EXPECT_DEATH((void)parse_scenario_text("policy anu\nthreshold -0.5\n"),
               "<inline>:2: threshold must be >= 0");
}

TEST(ScenarioParseDeathTest, MaxScaleAtOrBelowOneRejected) {
  // Negative values used to be swallowed by the sentinel; (0, 1] used to
  // abort on the tuner's own precondition with no scenario location.
  for (const char* v : {"-3", "0.5", "1"}) {
    EXPECT_DEATH(
        (void)parse_scenario_text(std::string("max_scale ") + v + "\n"),
        "<inline>:1: max_scale must be > 1")
        << v;
  }
}

TEST(ScenarioParseDeathTest, ReportLossOutsideUnitIntervalRejected) {
  // Out-of-range losses used to run silently: negative as lossless,
  // above 1 as losing every report.
  for (const char* v : {"-0.5", "1.5"}) {
    EXPECT_DEATH(
        (void)parse_scenario_text(std::string("report_loss ") + v + "\n"),
        "<inline>:1: report_loss must be in \\[0, 1\\]")
        << v;
  }
}

TEST(ScenarioParseDeathTest, NegativeRoutingDelayRejected) {
  // Used to switch the staleness model off without a word.
  EXPECT_DEATH((void)parse_scenario_text("routing_delay -3\n"),
               "<inline>:1: routing_delay must be >= 0");
}

TEST(ScenarioParseDeathTest, NonPositiveDurationRejected) {
  // A negative duration used to fall back to the workload's default.
  for (const char* v : {"0", "-10"}) {
    EXPECT_DEATH(
        (void)parse_scenario_text(std::string("duration ") + v + "\n"),
        "<inline>:1: duration must be > 0")
        << v;
  }
}

TEST(ScenarioParseDeathTest, NonPositivePeriodRejected) {
  // Used to abort in the ClusterSim constructor with no scenario
  // location, after the workload was already built.
  for (const char* v : {"0", "-5"}) {
    EXPECT_DEATH(
        (void)parse_scenario_text(std::string("period ") + v + "\n"),
        "<inline>:1: period must be > 0")
        << v;
  }
}

TEST(ScenarioParse, PowDParsesAndClampsToClusterSize) {
  const ScenarioConfig c =
      parse_scenario_text("policy pow-d\nservers 1,3,5,7,9\npow_d 3\n");
  EXPECT_EQ(c.pow_d, 3u);
  // More choices than servers is well-defined (probe everyone) but
  // clamps with a warning rather than carrying a lie forward.
  const ScenarioConfig clamped =
      parse_scenario_text("policy jiq\nservers 1,3\npow_d 64\n");
  EXPECT_EQ(clamped.pow_d, 2u);
}

TEST(ScenarioRun, MembershipScriptExecutes) {
  const ScenarioConfig c = parse_scenario_text(R"(
workload synthetic
policy anu
requests 4000
duration 800
file_sets 40
fail 200 4
recover 500 4
add 600 5 9.0
)");
  std::ostringstream os;
  const cluster::RunResult r = run_scenario(c, os);
  // Six servers by the end (the added one included in accounting).
  EXPECT_TRUE(r.server_completed.contains(5));
}

TEST(ScenarioRun, OpmixWorkloadRuns) {
  const ScenarioConfig c = parse_scenario_text(R"(
workload opmix
policy anu
requests 3000
duration 500
file_sets 20
)");
  std::ostringstream os;
  const cluster::RunResult r = run_scenario(c, os);
  EXPECT_GT(r.completed, 2000u);
}

TEST(ScenarioRun, SeriesEmissionContainsHeader) {
  const ScenarioConfig c = parse_scenario_text(R"(
workload synthetic
requests 2000
duration 400
file_sets 20
emit series
)");
  std::ostringstream os;
  (void)run_scenario(c, os);
  EXPECT_NE(os.str().find("# time_min"), std::string::npos);
}

TEST(ScenarioRun, SanMetricsEmittedWhenEnabled) {
  const ScenarioConfig c = parse_scenario_text(R"(
workload synthetic
requests 2000
duration 400
file_sets 20
san on
)");
  std::ostringstream os;
  (void)run_scenario(c, os);
  EXPECT_NE(os.str().find("san busy"), std::string::npos);
}

}  // namespace
}  // namespace anufs::driver
