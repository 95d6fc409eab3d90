// Executing-server backing: the REAL metadata implementation the cluster
// simulator delegates to instead of the parametric demand model. Each
// file set is a JournaledFileSet (live namespace + WAL + shared-disk
// image).
//
// With a backing attached (ClusterSim::attach_backing):
//  * a request's service demand is whatever executing its typed
//    operation actually costs, computed when service starts;
//  * a file-set move charges the shedding server the real flush cost
//    (proportional to its dirty journal) and the acquiring server the
//    real initialization/recovery cost (proportional to the disk
//    image);
//  * a server crash loses each owned file set's volatile journal tail,
//    and the next owner pays for — and performs — the recovery replay.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "disk/shared_disk.h"
#include "workload/op_workload.h"

namespace anufs::cluster {

struct FsmetaBackingConfig {
  /// Flush stall: base seek/sync plus per-dirty-record write time.
  /// Bases match the parametric MovementConfig CPU stalls so the two
  /// models differ only in the state-dependent parts.
  double flush_base = 0.2;
  double flush_per_record = 0.01;
  /// Acquisition stall: base open plus per-journal-record replay plus
  /// per-KiB checkpoint read.
  double acquire_base = 0.2;
  double acquire_per_record = 0.005;
  double acquire_per_kib = 0.001;
  /// Background checkpoint once this many records are in the journal
  /// (keeps acquisition costs bounded; charged to nobody, like a real
  /// background compactor).
  std::size_t checkpoint_threshold = 256;
  /// Background writeback: flush once this many mutations are dirty
  /// (group commit). Bounds the updates a crash can lose per file set.
  std::size_t sync_interval = 32;
  fsmeta::CostModel cost;
};

class FsmetaBacking {
 public:
  /// `generated` must outlive the backing (ops and request->file-set
  /// mapping are read from it during the run).
  FsmetaBacking(const workload::OpWorkloadResult& generated,
                FsmetaBackingConfig config = {});

  /// Execute the workload's op at `op_index` against its file set's
  /// live state; returns the unit-speed demand it cost. Called exactly
  /// once per request, at service start, in service order.
  double execute_op(std::size_t op_index);

  /// Flush the file set's dirty journal to stable storage (shedding
  /// side of a move); returns the wall-seconds of stall it costs.
  double flush_cost(FileSetId fs);

  /// Initialize/recover the file set on the acquiring server; returns
  /// the wall-seconds of stall it costs. Performs crash recovery if the
  /// previous owner died.
  double acquire_cost(FileSetId fs);

  /// The file set's serving node crashed: its volatile journal tail is
  /// lost now; recovery happens at the next acquire_cost call.
  void on_owner_crashed(FileSetId fs);

  // ---- post-run accounting ----------------------------------------------

  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }
  [[nodiscard]] std::uint64_t op_failures() const noexcept {
    return failures_;
  }
  /// Mutations that were executed but lost to crashes before flushing.
  [[nodiscard]] std::uint64_t lost_updates() const noexcept {
    return lost_updates_;
  }
  [[nodiscard]] std::uint64_t flushes() const noexcept { return flushes_; }
  [[nodiscard]] std::uint64_t recoveries() const noexcept {
    return recoveries_;
  }
  [[nodiscard]] std::uint64_t checkpoints() const noexcept {
    return checkpoints_;
  }

  [[nodiscard]] const disk::JournaledFileSet& file_set(FileSetId fs) const {
    ANUFS_EXPECTS(fs.value < sets_.size());
    return *sets_[fs.value];
  }

  /// Every live namespace and lock table is structurally consistent.
  void check_consistency() const;

 private:
  const workload::OpWorkloadResult& generated_;
  FsmetaBackingConfig config_;
  std::vector<std::unique_ptr<disk::JournaledFileSet>> sets_;
  std::uint64_t executed_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t lost_updates_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t checkpoints_ = 0;
};

}  // namespace anufs::cluster
