// Run-level metrics registry: counters, gauges, and fixed-bucket
// log-scale histograms under one naming surface.
//
// The simulator's subsystems keep their zero-overhead collection
// structs (sim::Scheduler::Stats, core::ControlPlaneStats, the
// RunResult counters) — those are plain fields on the hot path and the
// tests read them directly. What used to be ad hoc is the EXPORT side:
// every binary formatted its own subset by hand. The registry is the
// uniform representation those stats are published into at harvest
// time (driver/run_metrics.h), and obs/export.h renders one snapshot
// format (JSON) for all of them — appended next to the trace files and
// under results/.
//
// Thread ownership: a Registry belongs to one run/one thread, like
// every other per-run object. Deterministic: iteration is in name
// order, so two identical runs serialize byte-identically.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"

namespace anufs::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  void set(std::uint64_t v) noexcept { value_ = v; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Log-scale histogram with FIXED bucket boundaries, so histograms from
/// different runs (or seeds of a sweep) are mergeable bucket-by-bucket.
///
/// Layout for `bucket_count` buckets over base `b`:
///   bucket 0:              [0, b)            (underflow; also v < 0)
///   bucket i, 1..n-2:      [b*2^(i-1), b*2^i)
///   bucket n-1:            [b*2^(n-2), inf)  (overflow)
///
/// The boundaries are exact powers of two times the base, computed with
/// integer exponent extraction (std::ilogb), so a value equal to a
/// boundary always lands in the bucket the boundary opens — no
/// float-log rounding ambiguity (tests/trace_test.cpp pins this down).
class Histogram {
 public:
  explicit Histogram(double base = 1e-3, std::size_t bucket_count = 40);

  void record(double v);

  /// Fold another histogram with IDENTICAL bucketing (same base, same
  /// bucket count — aborts otherwise) into this one, bucket-by-bucket.
  /// This is the mergeability the fixed boundaries exist for: per-thread
  /// histograms (serving-mode readers) and per-seed histograms (sweeps)
  /// combine into one distribution without re-recording any value.
  void merge(const Histogram& other);

  /// Inclusive lower bound of bucket `i` (0 for the underflow bucket).
  [[nodiscard]] double lower_bound(std::size_t i) const;

  [[nodiscard]] std::size_t bucket_index(double v) const;

  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept {
    return counts_;
  }
  [[nodiscard]] double base() const noexcept { return base_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

 private:
  double base_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Name -> metric, created on first use. Names are stable identifiers
/// (snake_case, unit-suffixed: "run_mean_latency_ms").
class Registry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name, double base = 1e-3,
                       std::size_t bucket_count = 40);

  [[nodiscard]] const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace anufs::obs
