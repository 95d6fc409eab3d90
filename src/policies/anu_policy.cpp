#include "policies/anu_policy.h"

namespace anufs::policy {

std::vector<Move> AnuPolicy::rederive() {
  // Batched re-derivation: one locate_many sweep (SoA probe rounds over
  // the whole working set) replaces chasing each file set's probe chain
  // to completion, with answers bit-identical to the scalar loop.
  system_->locate_many(fingerprints_, located_);
  return reassign_all([this](std::size_t i) { return located_[i].server; });
}

void AnuPolicy::initialize(
    const std::vector<workload::FileSetSpec>& file_sets,
    const std::vector<ServerId>& servers) {
  begin_initialize(file_sets, servers);
  system_ = std::make_unique<core::AnuSystem>(config_, servers_);
  fingerprints_.clear();
  for (const workload::FileSetSpec& fs : file_sets_) {
    fingerprints_.push_back(fs.fingerprint);
  }
  located_.resize(fingerprints_.size());
  system_->locate_many(fingerprints_, located_);
  assign_initial([this](std::size_t i) { return located_[i].server; });
}

std::vector<Move> AnuPolicy::rebalance(
    sim::SimTime /*now*/, const std::vector<core::ServerReport>& reports) {
  const core::TuneDecision decision = system_->reconfigure(reports);
  if (!decision.acted) return {};
  return rederive();
}

std::vector<Move> AnuPolicy::on_server_failed(ServerId id) {
  remove_server_id(id);
  system_->fail_server(id);
  return rederive();
}

std::vector<Move> AnuPolicy::on_server_added(ServerId id) {
  add_server_id(id);
  system_->add_server(id);
  return rederive();
}

}  // namespace anufs::policy
