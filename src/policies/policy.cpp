#include "policies/policy.h"

#include <algorithm>

#include "obs/trace.h"

namespace anufs::policy {

void AssignmentPolicyBase::begin_initialize(
    const std::vector<workload::FileSetSpec>& file_sets,
    const std::vector<ServerId>& servers) {
  ANUFS_EXPECTS(!servers.empty());
  for (std::size_t i = 0; i < file_sets.size(); ++i) {
    // Dense ids are what make the owner table hole-free: every FileSetId
    // a request can carry indexes a slot assign_initial() fills.
    ANUFS_EXPECTS(file_sets[i].id.value == i);
  }
  file_sets_ = file_sets;
  servers_ = servers;
  std::sort(servers_.begin(), servers_.end());
}

void AssignmentPolicyBase::reassign(FileSetId fs, ServerId to,
                                    std::vector<Move>& moves) {
  ANUFS_EXPECTS(fs.value < owners_.size());
  ANUFS_ENSURES(to != kInvalidServer);
  ServerId& slot = owners_[fs.value];
  if (slot == to) return;
  moves.push_back(Move{fs, slot, to});
  slot = to;
}

void AssignmentPolicyBase::trace_commit(std::size_t moved) const {
  ANUFS_TRACE(obs::Category::kMove, "assignment_commit",
              {"file_sets", owners_.size()}, {"moved", moved});
}

void AssignmentPolicyBase::add_server_id(ServerId id) {
  ANUFS_EXPECTS(std::find(servers_.begin(), servers_.end(), id) ==
                servers_.end());
  servers_.push_back(id);
  std::sort(servers_.begin(), servers_.end());
}

void AssignmentPolicyBase::remove_server_id(ServerId id) {
  const auto it = std::find(servers_.begin(), servers_.end(), id);
  ANUFS_EXPECTS(it != servers_.end());
  servers_.erase(it);
}

}  // namespace anufs::policy
