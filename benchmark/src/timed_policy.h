// A PlacementPolicy decorator for the traced simulator run: it forwards
// every call to the wrapped policy unchanged, times the control-plane
// calls, counts owner() calls, and records the control-plane op log
// (latency reports verbatim) so the serving layers can replay it.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.h"
#include "policies/anu_policy.h"
#include "policies/policy.h"
#include "serve/lookup_service.h"

namespace anufs::bench {

class TimedPolicy final : public policy::PlacementPolicy {
 public:
  struct Stats {
    double initialize_s = 0.0;
    std::vector<double> rebalance_ms;  ///< one entry per rebalance() call
    std::uint64_t rebalance_moves = 0;
    std::uint64_t membership_calls = 0;
    double membership_s = 0.0;
    std::uint64_t membership_moves = 0;
    std::uint64_t owner_calls = 0;
  };

  /// Adds into `stats`, so one Stats can total several runs. `anu` is the
  /// wrapped policy when it is ANU (nullptr otherwise); the recorded ops
  /// then carry the map generation each call left behind.
  TimedPolicy(policy::PlacementPolicy& inner, const policy::AnuPolicy* anu,
              Stats& stats)
      : inner_(inner), anu_(anu), stats_(stats) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }

  void initialize(const std::vector<workload::FileSetSpec>& file_sets,
                  const std::vector<ServerId>& servers) override {
    const std::uint64_t t = now_ns();
    inner_.initialize(file_sets, servers);
    stats_.initialize_s += seconds_since(t);
    initial_servers_ = servers;
  }

  [[nodiscard]] ServerId owner(FileSetId fs) const override {
    ++stats_.owner_calls;
    return inner_.owner(fs);
  }

  std::vector<policy::Move> rebalance(
      sim::SimTime now,
      const std::vector<core::ServerReport>& reports) override {
    const std::uint64_t t = now_ns();
    std::vector<policy::Move> moves = inner_.rebalance(now, reports);
    stats_.rebalance_ms.push_back(seconds_since(t) * 1e3);
    stats_.rebalance_moves += moves.size();
    serve::WriterOp op;
    op.reports = reports;
    record(std::move(op));
    return moves;
  }

  std::vector<policy::Move> on_server_failed(ServerId id) override {
    return membership(id, serve::WriterOp::Kind::kFail);
  }

  std::vector<policy::Move> on_server_added(ServerId id) override {
    return membership(id, serve::WriterOp::Kind::kAdd);
  }

  [[nodiscard]] std::vector<ServerId> servers() const override {
    return inner_.servers();
  }

  [[nodiscard]] const std::vector<serve::WriterOp>& ops() const noexcept {
    return ops_;
  }
  [[nodiscard]] const std::vector<ServerId>& initial_servers() const noexcept {
    return initial_servers_;
  }

 private:
  std::vector<policy::Move> membership(ServerId id,
                                       serve::WriterOp::Kind kind) {
    const std::uint64_t t = now_ns();
    std::vector<policy::Move> moves =
        kind == serve::WriterOp::Kind::kFail ? inner_.on_server_failed(id)
                                             : inner_.on_server_added(id);
    stats_.membership_s += seconds_since(t);
    ++stats_.membership_calls;
    stats_.membership_moves += moves.size();
    serve::WriterOp op;
    op.kind = kind;
    op.server = id;
    record(std::move(op));
    return moves;
  }

  void record(serve::WriterOp op) {
    if (anu_ != nullptr) {
      op.generation_after = anu_->system().regions().generation();
    }
    ops_.push_back(std::move(op));
  }

  policy::PlacementPolicy& inner_;
  const policy::AnuPolicy* anu_;
  Stats& stats_;  // not owned: a const owner() still counts into it
  std::vector<serve::WriterOp> ops_;
  std::vector<ServerId> initial_servers_;
};

}  // namespace anufs::bench
