// Tests for the synthetic and DFSTrace-equivalent workload generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "workload/dfstrace_like.h"
#include "workload/synthetic.h"

namespace anufs::workload {
namespace {

TEST(Synthetic, MatchesConfiguredShape) {
  SyntheticConfig config;
  config.file_sets = 100;
  config.total_requests = 20000;
  config.duration = 2000.0;
  const Workload w = make_synthetic(config);
  EXPECT_EQ(w.file_sets.size(), 100u);
  EXPECT_EQ(w.duration, 2000.0);
  // Poisson totals: within 5 sigma of the target.
  EXPECT_NEAR(static_cast<double>(w.request_count()), 20000.0,
              5.0 * std::sqrt(20000.0));
}

TEST(Synthetic, RequestsSortedAndValid) {
  const Workload w = make_synthetic(SyntheticConfig{
      .file_sets = 50, .total_requests = 5000, .duration = 500.0});
  w.validate();  // aborts on any malformation
  EXPECT_TRUE(std::is_sorted(
      w.requests.begin(), w.requests.end(),
      [](const RequestEvent& a, const RequestEvent& b) {
        return a.time < b.time;
      }));
}

TEST(Synthetic, DeterministicInSeed) {
  const Workload a = make_synthetic(SyntheticConfig{
      .file_sets = 30, .total_requests = 3000, .duration = 300.0, .seed = 5});
  const Workload b = make_synthetic(SyntheticConfig{
      .file_sets = 30, .total_requests = 3000, .duration = 300.0, .seed = 5});
  ASSERT_EQ(a.request_count(), b.request_count());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].time, b.requests[i].time);
    EXPECT_EQ(a.requests[i].file_set, b.requests[i].file_set);
    EXPECT_EQ(a.requests[i].demand, b.requests[i].demand);
  }
}

TEST(Synthetic, SeedChangesWorkload) {
  const Workload a = make_synthetic(SyntheticConfig{
      .file_sets = 30, .total_requests = 3000, .duration = 300.0, .seed = 5});
  const Workload b = make_synthetic(SyntheticConfig{
      .file_sets = 30, .total_requests = 3000, .duration = 300.0, .seed = 6});
  EXPECT_NE(a.request_count(), b.request_count());
}

TEST(Synthetic, PaperScaleDefaults) {
  const Workload w = make_synthetic(SyntheticConfig{});
  EXPECT_EQ(w.file_sets.size(), 500u);
  EXPECT_EQ(w.duration, 10000.0);
  EXPECT_NEAR(static_cast<double>(w.request_count()), 100000.0, 2000.0);
}

TEST(Synthetic, RequestStreamIsAllocatedOnce) {
  // The arrival count is Poisson with mean total_requests, and the
  // generator reserves the mean plus 4 sigma up front, so the stream's
  // capacity sits within that margin of its size instead of at the next
  // power of two of a doubling vector.
  const SyntheticConfig config;
  const Workload w = make_synthetic(config);
  const double mean = static_cast<double>(config.total_requests);
  const double margin = 4.0 * std::ceil(std::sqrt(mean));
  EXPECT_GE(w.requests.capacity(), w.requests.size());
  EXPECT_LE(static_cast<double>(w.requests.capacity()),
            static_cast<double>(w.requests.size()) + 2.0 * margin);
}

TEST(Synthetic, ActivityIsHeterogeneous) {
  // The paper's headline: >100x spread between busiest and quietest.
  const Workload w = make_synthetic(SyntheticConfig{});
  EXPECT_GT(w.activity_skew(), 100.0);
}

TEST(Synthetic, WeightsSpanConfiguredDecades) {
  const Workload w = make_synthetic(SyntheticConfig{});
  double lo = 1e300;
  double hi = 0.0;
  for (const FileSetSpec& fs : w.file_sets) {
    lo = std::min(lo, fs.weight);
    hi = std::max(hi, fs.weight);
  }
  EXPECT_GE(lo, 1.0);
  EXPECT_LT(hi, 100.0);
  EXPECT_GT(hi / lo, 50.0);
}

TEST(Synthetic, PerSetDemandHeterogeneous) {
  // Mean request demand differs by more than 5x across sets.
  const Workload w = make_synthetic(SyntheticConfig{});
  const std::vector<std::uint64_t> counts = w.per_set_counts();
  std::vector<double> demand(w.file_sets.size(), 0.0);
  for (const RequestEvent& r : w.requests) demand[r.file_set.value] += r.demand;
  double lo = 1e300;
  double hi = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] < 20) continue;  // too noisy
    const double mean = demand[i] / static_cast<double>(counts[i]);
    lo = std::min(lo, mean);
    hi = std::max(hi, mean);
  }
  EXPECT_GT(hi / lo, 5.0);
}

TEST(Synthetic, UniqueNamesAndDenseIds) {
  const Workload w = make_synthetic(SyntheticConfig{
      .file_sets = 64, .total_requests = 1000, .duration = 100.0});
  for (std::uint32_t i = 0; i < w.file_sets.size(); ++i) {
    EXPECT_EQ(w.file_sets[i].id.value, i);
    for (std::uint32_t j = i + 1; j < w.file_sets.size(); ++j) {
      EXPECT_NE(w.file_sets[i].name, w.file_sets[j].name);
      EXPECT_NE(w.file_sets[i].fingerprint, w.file_sets[j].fingerprint);
    }
  }
}

TEST(DfsTraceLike, MatchesPaperShape) {
  const Workload w = make_dfstrace_like(DfsTraceLikeConfig{});
  EXPECT_EQ(w.file_sets.size(), 21u);           // 21 file sets
  EXPECT_EQ(w.duration, 3600.0);                // one hour
  EXPECT_NEAR(static_cast<double>(w.request_count()), 112590.0,
              2500.0);                          // 112,590 requests
  EXPECT_GT(w.activity_skew(), 80.0);           // >100x nominal skew
}

TEST(DfsTraceLike, Deterministic) {
  const Workload a = make_dfstrace_like(DfsTraceLikeConfig{});
  const Workload b = make_dfstrace_like(DfsTraceLikeConfig{});
  ASSERT_EQ(a.request_count(), b.request_count());
  EXPECT_EQ(a.requests[100].time, b.requests[100].time);
}

TEST(DfsTraceLike, SortedAndValid) {
  const Workload w = make_dfstrace_like(DfsTraceLikeConfig{});
  w.validate();
}

TEST(DfsTraceLike, HeadSetDominates) {
  const Workload w = make_dfstrace_like(DfsTraceLikeConfig{});
  const std::vector<std::uint64_t> counts = w.per_set_counts();
  const std::uint64_t head = counts[0];
  for (std::size_t i = 1; i < counts.size(); ++i) {
    EXPECT_GT(head, counts[i]);
  }
}

TEST(DfsTraceLike, BurstsCreateNonStationarity) {
  // Some epoch of some set must carry well above its stationary share:
  // compare per-epoch counts of a bursty set against uniformity.
  DfsTraceLikeConfig config;
  config.seed = 7;
  const Workload w = make_dfstrace_like(config);
  const auto epochs =
      static_cast<std::size_t>(w.duration / config.epoch_seconds);
  std::vector<std::vector<int>> per_epoch(
      w.file_sets.size(), std::vector<int>(epochs, 0));
  for (const RequestEvent& r : w.requests) {
    const auto e = std::min(
        epochs - 1,
        static_cast<std::size_t>(r.time / config.epoch_seconds));
    ++per_epoch[r.file_set.value][e];
  }
  double worst_ratio = 0.0;
  for (std::size_t i = 0; i < w.file_sets.size(); ++i) {
    double mean = 0.0;
    int peak = 0;
    for (const int c : per_epoch[i]) {
      mean += c;
      peak = std::max(peak, c);
    }
    mean /= static_cast<double>(epochs);
    if (mean > 20.0) {
      worst_ratio = std::max(worst_ratio, peak / mean);
    }
  }
  EXPECT_GT(worst_ratio, 1.5);  // at least one real burst
}

TEST(DfsTraceLike, ExemptTopSetsDoNotBurst) {
  // The head set's epoch counts stay within Poisson noise of its mean.
  DfsTraceLikeConfig config;
  const Workload w = make_dfstrace_like(config);
  const auto epochs =
      static_cast<std::size_t>(w.duration / config.epoch_seconds);
  std::vector<int> head(epochs, 0);
  for (const RequestEvent& r : w.requests) {
    if (r.file_set.value != 0) continue;
    const auto e = std::min(
        epochs - 1,
        static_cast<std::size_t>(r.time / config.epoch_seconds));
    ++head[e];
  }
  double mean = 0.0;
  for (const int c : head) mean += c;
  mean /= static_cast<double>(epochs);
  for (const int c : head) {
    EXPECT_LT(std::abs(c - mean), 6.0 * std::sqrt(mean));
  }
}

TEST(WorkloadSpec, PerSetAccountingConsistent) {
  const Workload w = make_synthetic(SyntheticConfig{
      .file_sets = 20, .total_requests = 2000, .duration = 200.0});
  const std::vector<std::uint64_t> counts = w.per_set_counts();
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  EXPECT_EQ(total, w.request_count());
}

}  // namespace
}  // namespace anufs::workload
