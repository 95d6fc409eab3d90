#include "policies/round_robin.h"

namespace anufs::policy {

void RoundRobinPolicy::initialize(
    const std::vector<workload::FileSetSpec>& file_sets,
    const std::vector<ServerId>& servers) {
  begin_initialize(file_sets, servers);
  assign_initial(
      [this](std::size_t i) { return servers_[i % servers_.size()]; });
}

std::vector<Move> RoundRobinPolicy::on_server_failed(ServerId id) {
  remove_server_id(id);
  ANUFS_EXPECTS(!servers_.empty());
  // Deal the victim's file sets around the survivors, preserving the
  // equal-count property as closely as possible.
  return rehome(id, [this] { return servers_[next_rr_++ % servers_.size()]; });
}

std::vector<Move> RoundRobinPolicy::on_server_added(ServerId id) {
  add_server_id(id);
  return {};  // static: existing assignment is kept
}

}  // namespace anufs::policy
