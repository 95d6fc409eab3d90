// Report collection under message loss.
//
// The paper's delegate "examines all latencies" each period — but on a
// real network a report can be delayed or lost without the server being
// dead. Expelling a member on one missing report would make every
// dropped packet a fake failure; never expelling would mask real
// crashes. This collector implements the standard compromise: tune with
// whatever reports arrived, and declare a server failed only after K
// consecutive silent rounds. Every reconfiguration round, lossless or
// not, takes this one O(members + arrived) path.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "core/tuner.h"

namespace anufs::core {

struct CollectionConfig {
  /// Consecutive rounds of silence before a member is declared failed.
  std::uint32_t miss_threshold = 3;
};

class ReportCollector {
 public:
  explicit ReportCollector(CollectionConfig config) : config_(config) {
    ANUFS_EXPECTS(config.miss_threshold >= 1);
  }

  /// Close one collection round. `members` is the current alive set;
  /// `arrived` the reports that made it to the delegate in time (a
  /// non-member's is stale and ignored). A silent member accumulates a
  /// miss, an arrived report clears it; returns the members whose
  /// silence crossed the threshold (counters cleared): declare them failed.
  [[nodiscard]] std::vector<ServerId> close_round(
      const std::vector<ServerId>& members,
      const std::vector<ServerReport>& arrived);

  /// The last round's report of each of `members`, in order; a lost one
  /// is "no data" ({id, 0.0, 0}), which every averaging mode ignores and
  /// top-off never grows explicitly.
  [[nodiscard]] std::vector<ServerReport> padded(
      const std::vector<ServerId>& members) const;

  /// A server (re)joined: it starts with no misses.
  void forget(ServerId id) {
    if (id.value < slots_.size()) slots_[id.value].misses = 0;
  }

 private:
  struct Slot {
    std::uint32_t misses = 0;
    std::uint64_t heard_in = 0;  // the round `report` arrived in
    ServerReport report;
  };
  CollectionConfig config_;
  std::vector<Slot> slots_;  // index == ServerId.value
  std::uint64_t round_ = 0;  // rounds closed so far
};

}  // namespace anufs::core
