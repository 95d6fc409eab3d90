#include "policies/simple_random.h"

#include "sim/random.h"

namespace anufs::policy {

void SimpleRandomPolicy::initialize(
    const std::vector<workload::FileSetSpec>& file_sets,
    const std::vector<ServerId>& servers) {
  begin_initialize(file_sets, servers);
  sim::Xoshiro256 rng = sim::make_stream(seed_, "simple-random", draws_++);
  assign_initial([&](std::size_t) {
    return servers_[rng.next_below(servers_.size())];
  });
}

std::vector<Move> SimpleRandomPolicy::on_server_failed(ServerId id) {
  remove_server_id(id);
  ANUFS_EXPECTS(!servers_.empty());
  // Only the victim's file sets re-roll; survivors keep their sets.
  sim::Xoshiro256 rng = sim::make_stream(seed_, "simple-random", draws_++);
  return rehome(id, [&] { return servers_[rng.next_below(servers_.size())]; });
}

std::vector<Move> SimpleRandomPolicy::on_server_added(ServerId id) {
  add_server_id(id);
  // Static randomization has no rebalancing story for additions: each
  // existing file set stays put (moving them all would defeat the
  // policy's zero-knowledge premise). The newcomer only receives load
  // from future failures/initializations.
  return {};
}

}  // namespace anufs::policy
