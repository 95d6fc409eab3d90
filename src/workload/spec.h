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

}  // namespace anufs::workload
