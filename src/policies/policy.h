// Placement policy interface: how file sets map to servers and how the
// mapping reacts to latency reports and membership changes.
//
// Four implementations reproduce the paper's comparison:
//   simple randomization | round-robin | dynamic prescient | ANU
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/attributes.h"
#include "common/check.h"
#include "common/ids.h"
#include "core/tuner.h"  // core::ServerReport is the latency report type
#include "sim/time.h"
#include "workload/spec.h"

namespace anufs::policy {

/// One file-set relocation decided by a policy.
struct Move {
  FileSetId file_set;
  ServerId from;
  ServerId to;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Establish the initial assignment. Called once before the first
  /// request; no movement cost applies.
  virtual void initialize(const std::vector<workload::FileSetSpec>& file_sets,
                          const std::vector<ServerId>& servers) = 0;

  /// Current owner of a file set (request routing).
  [[nodiscard]] virtual ServerId owner(FileSetId fs) const = 0;

  /// Periodic reconfiguration with this interval's latency reports.
  /// Returns the moves performed (the internal assignment is already
  /// updated when this returns). Static policies return {}.
  virtual std::vector<Move> rebalance(
      sim::SimTime now, const std::vector<core::ServerReport>& reports) = 0;

  /// Server failure/decommission: the policy must re-home the victim's
  /// file sets. Returns those (and only those... for ANU, plus any
  /// half-occupancy ripple) moves.
  virtual std::vector<Move> on_server_failed(ServerId id) = 0;

  /// Server recovery/commission.
  virtual std::vector<Move> on_server_added(ServerId id) = 0;

  /// Alive servers in id order.
  [[nodiscard]] virtual std::vector<ServerId> servers() const = 0;
};

/// Shared bookkeeping: ONE dense fs -> server table indexed by
/// FileSetId.value, which is both what routing reads and what moves are
/// recorded against. begin_initialize() requires a dense population
/// (file_sets[i].id.value == i, as every workload source guarantees), so
/// the table can never have a hole. After assign_initial(), every write
/// goes through reassign(), which appends a Move exactly when the owner
/// changes; policies write in ascending id order, so a call's moves are
/// the before/after owner diff in id order.
class AssignmentPolicyBase : public PlacementPolicy {
 public:
  [[nodiscard]] ANUFS_HOT ServerId owner(FileSetId fs) const final {
    // The request hot path: O(1) with one cache line touched.
    const auto idx = static_cast<std::size_t>(fs.value);
    ANUFS_EXPECTS(idx < owners_.size());
    return owners_[idx];
  }

  [[nodiscard]] std::vector<ServerId> servers() const final {
    return servers_;
  }

 protected:
  /// Common initialize() prologue: adopt the (dense) file-set population
  /// and the initial server list.
  void begin_initialize(const std::vector<workload::FileSetSpec>& file_sets,
                        const std::vector<ServerId>& servers);

  /// Install the initial assignment (no moves): `owner_of(i)` is called
  /// once per file set, in id order.
  template <typename OwnerOf>
  void assign_initial(OwnerOf&& owner_of) {
    owners_.clear();
    owners_.reserve(file_sets_.size());
    for (std::size_t i = 0; i < file_sets_.size(); ++i) {
      const ServerId to = owner_of(i);
      ANUFS_ENSURES(to != kInvalidServer);
      owners_.push_back(to);
    }
  }

  /// The single post-initialize write path: give `fs` to `to`, recording
  /// a Move in `moves` when the owner changes. A policy must never
  /// publish an unassigned file set — routing answers from this table —
  /// so `to` must be a real server.
  void reassign(FileSetId fs, ServerId to, std::vector<Move>& moves);

  /// Adopt a whole re-derived assignment: reassign every file set to
  /// `owner_of(i)` in id order and trace the commit.
  template <typename OwnerOf>
  std::vector<Move> reassign_all(OwnerOf&& owner_of) {
    std::vector<Move> moves;
    for (std::size_t i = 0; i < owners_.size(); ++i) {
      reassign(FileSetId{static_cast<std::uint32_t>(i)}, owner_of(i), moves);
    }
    trace_commit(moves.size());
    return moves;
  }

  /// reassign_all() from a computed table (`next[i]` owns file set i).
  std::vector<Move> adopt(const std::vector<ServerId>& next) {
    ANUFS_EXPECTS(next.size() == owners_.size());
    return reassign_all([&](std::size_t i) { return next[i]; });
  }

  /// Exact re-homing: give each of `victim`'s file sets, in id order, to
  /// `pick()`; nothing else moves.
  template <typename Pick>
  std::vector<Move> rehome(ServerId victim, Pick&& pick) {
    std::vector<Move> moves;
    for (std::size_t i = 0; i < owners_.size(); ++i) {
      if (owners_[i] != victim) continue;
      reassign(FileSetId{static_cast<std::uint32_t>(i)}, pick(), moves);
    }
    return moves;
  }

  /// The current assignment, index == FileSetId.value.
  [[nodiscard]] const std::vector<ServerId>& owners() const noexcept {
    return owners_;
  }

  void add_server_id(ServerId id);
  void remove_server_id(ServerId id);

  std::vector<ServerId> servers_;  // sorted
  std::vector<workload::FileSetSpec> file_sets_;

 private:
  void trace_commit(std::size_t moved) const;

  std::vector<ServerId> owners_;  // index == FileSetId.value
};

}  // namespace anufs::policy
