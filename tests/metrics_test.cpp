// Tests for the metrics module: series, summaries, emitters.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>
#include <vector>

#include "metrics/emit.h"
#include "metrics/series.h"
#include "metrics/summary.h"

namespace anufs::metrics {
namespace {

TEST(Series, AppendAndRead) {
  Series s;
  s.append(0.0, 1.0);
  s.append(60.0, 2.0);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.points()[1], (std::pair<double, double>{60.0, 2.0}));
}

TEST(Series, TailMean) {
  Series s;
  for (int i = 0; i < 10; ++i) s.append(i, i);  // 0..9
  EXPECT_DOUBLE_EQ(s.tail_mean(0.0), 4.5);
  EXPECT_DOUBLE_EQ(s.tail_mean(0.5), 7.0);  // mean of 5..9
  EXPECT_DOUBLE_EQ(s.tail_mean(1.0), 9.0);  // clamps to last sample
}

TEST(SeriesDeathTest, RejectsTimeRegression) {
  Series s;
  s.append(5.0, 1.0);
  EXPECT_DEATH(s.append(4.0, 1.0), "precondition");
}

TEST(SeriesBundle, LabelsSortedDeterministically) {
  SeriesBundle bundle;
  bundle.at("server2").append(0, 1);
  bundle.at("server0").append(0, 1);
  bundle.at("server1").append(0, 1);
  EXPECT_EQ(bundle.labels(),
            (std::vector<std::string>{"server0", "server1", "server2"}));
  EXPECT_TRUE(bundle.contains("server1"));
  EXPECT_FALSE(bundle.contains("server9"));
}

TEST(Summary, BasicStatistics) {
  const Summary s = summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.0), 1e-12);
}

TEST(Summary, EvenCountMedian) {
  EXPECT_DOUBLE_EQ(summarize({1, 2, 3, 4}).median, 2.5);
}

TEST(Summary, EmptyIsZeros) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(Summary, Percentiles) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  const Summary s = summarize(values);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
  EXPECT_DOUBLE_EQ(percentile(values, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(percentile(values, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), 1.0);
}

// percentile_in_place selects with nth_element instead of sorting a
// copy; it must pick the same element as percentile() for every q,
// including on a vector a previous call already reordered.
TEST(Summary, PercentileInPlaceMatchesPercentile) {
  std::mt19937_64 rng(17);
  for (const std::size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 4096u}) {
    for (const bool few_values : {false, true}) {
      std::vector<double> values(n);
      for (double& v : values) {
        // Drawing from 5 values forces long runs of duplicates.
        v = static_cast<double>(few_values ? rng() % 5 : rng() % 1000000);
      }
      for (const double q : {0.0, 0.01, 0.25, 0.5, 0.99, 1.0}) {
        std::vector<double> copy = values;
        EXPECT_EQ(percentile_in_place(copy, q), percentile(values, q))
            << "n " << n << " q " << q;
      }
      std::vector<double> twice = values;
      const double p50 = percentile_in_place(twice, 0.50);
      const double p99 = percentile_in_place(twice, 0.99);
      EXPECT_EQ(p50, percentile(values, 0.50)) << "n " << n;
      EXPECT_EQ(p99, percentile(values, 0.99)) << "n " << n;
    }
  }
  std::vector<double> empty;
  EXPECT_EQ(percentile_in_place(empty, 0.5), 0.0);
}

TEST(Summary, CvZeroWhenUniform) {
  EXPECT_DOUBLE_EQ(summarize({4, 4, 4, 4}).cv(), 0.0);
}

// Load skew (Table A) is read off a Summary of per-server loads:
// max/mean, min/mean and cv().
TEST(Skew, PerfectBalance) {
  const Summary s = summarize({10, 10, 10});
  EXPECT_DOUBLE_EQ(s.max / s.mean, 1.0);
  EXPECT_DOUBLE_EQ(s.min / s.mean, 1.0);
  EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(Summary, DetectsImbalance) {
  const Summary s = summarize({30, 10, 20});
  EXPECT_DOUBLE_EQ(s.max / s.mean, 1.5);
  EXPECT_DOUBLE_EQ(s.min / s.mean, 0.5);
  EXPECT_GT(s.cv(), 0.0);
  EXPECT_DOUBLE_EQ(s.max, 30.0);
  EXPECT_DOUBLE_EQ(s.mean, 20.0);
}

TEST(Skew, EmptyIsZeros) {
  const Summary s = summarize({});
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(Emit, BundleFormat) {
  SeriesBundle bundle;
  bundle.at("a").append(60.0, 1.234);
  bundle.at("b").append(60.0, 5.678);
  bundle.at("a").append(120.0, 2.0);
  bundle.at("b").append(120.0, 6.0);
  std::ostringstream os;
  emit_bundle(os, "test title", bundle, 60.0, "min", 2);
  const std::string expected =
      "# test title\n"
      "# time_min a b\n"
      "1.00 1.23 5.68\n"
      "2.00 2.00 6.00\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(Emit, EmptyBundleHeaderOnly) {
  SeriesBundle bundle;
  std::ostringstream os;
  emit_bundle(os, "empty", bundle);
  EXPECT_EQ(os.str(), "# empty\n# time_min\n");
}

TEST(Emit, TableRowsAligned) {
  std::ostringstream os;
  TableEmitter table(os, {"name", "value"});
  table.header("title");
  table.row({"x", "1.00"});
  const std::string out = os.str();
  EXPECT_NE(out.find("# title"), std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("x"), std::string::npos);
}

TEST(Emit, NumFormatsFixed) {
  EXPECT_EQ(TableEmitter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TableEmitter::num(2.0, 0), "2");
  EXPECT_EQ(TableEmitter::num(0.000015, 6), "0.000015");
}

}  // namespace
}  // namespace anufs::metrics
