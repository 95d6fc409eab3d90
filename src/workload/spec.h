// Workload representation: file sets and their metadata request streams.
//
// A file set is the indivisible unit of placement (a subtree of the
// global namespace in Storage Tank). A workload is a time-ordered stream
// of metadata requests, each belonging to one file set and carrying a
// service demand expressed in unit-speed seconds (a server of power p
// completes it in demand/p).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "hash/mix64.h"
#include "sim/time.h"

namespace anufs::workload {

/// Static description of one file set.
struct FileSetSpec {
  FileSetId id;
  std::string name;           ///< administrator-assigned unique name
  std::uint64_t fingerprint;  ///< hash::fingerprint(name), cached
  double weight = 1.0;        ///< relative workload intensity (rate share)

  [[nodiscard]] static FileSetSpec make(std::uint32_t index,
                                        std::string name, double weight) {
    FileSetSpec s;
    s.id = FileSetId{index};
    s.fingerprint = hash::fingerprint(name);
    s.name = std::move(name);
    s.weight = weight;
    return s;
  }
};

/// One metadata request.
struct RequestEvent {
  sim::SimTime time = 0.0;
  FileSetId file_set;
  double demand = 0.0;  ///< unit-speed service seconds
};

/// A complete, replayable workload.
struct Workload {
  std::string name;
  std::vector<FileSetSpec> file_sets;   ///< indexed by FileSetId
  std::vector<RequestEvent> requests;   ///< sorted by time
  sim::SimTime duration = 0.0;

  [[nodiscard]] std::size_t request_count() const noexcept {
    return requests.size();
  }

  /// Requests per file set (index == FileSetId).
  [[nodiscard]] std::vector<std::uint64_t> per_set_counts() const;

  /// Ratio of the busiest to the quietest (nonzero) file set by request
  /// count — the heterogeneity headline the paper quotes (>100x).
  [[nodiscard]] double activity_skew() const;

  /// Abort if requests are unsorted, reference unknown file sets, exceed
  /// the duration, or have non-positive demand.
  void validate() const;
};

/// Put `requests` in arrival order: by time, then file set, then demand.
/// The order is total, so the result is unique; for a generator that
/// emits its sets in id order, each with rising times, it is also
/// generation order. Every time must lie in [0, duration].
///
/// An in-place two-level distribution sort, linear for times spread
/// evenly over [0, duration] (a superposition of Poisson streams). A
/// coarse pass permutes the records into ~n/1024 equal-width buckets
/// with American-flag cycle-leader swaps; a fine pass splits each bucket
/// into one sub-bucket per record through one small scratch buffer and
/// finishes with an insertion sort. A bucket above a fixed cap falls
/// back to std::sort, so clustered times stay O(n log n). Extra memory
/// is O(n/1024) counters and the scratch buffer, never a second copy of
/// the stream.
void sort_by_time(std::vector<RequestEvent>& requests, sim::SimTime duration);

}  // namespace anufs::workload
