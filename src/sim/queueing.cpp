#include "sim/queueing.h"

#include <utility>

namespace anufs::sim {

void FifoServer::submit(double demand, std::uint64_t tag,
                        std::optional<SimTime> arrival) {
  ANUFS_EXPECTS(demand > 0.0);
  const SimTime when = arrival.value_or(sched_.now());
  ANUFS_EXPECTS(when <= sched_.now());
  jobs_.push_back(Job{demand, when, tag, Kind::kRequest});
  maybe_start();
}

void FifoServer::submit_deferred(DemandFn demand_fn, std::uint64_t tag,
                                 std::optional<SimTime> arrival) {
  ANUFS_EXPECTS(demand_fn != nullptr);
  const SimTime when = arrival.value_or(sched_.now());
  ANUFS_EXPECTS(when <= sched_.now());
  demand_fns_.push_back(std::move(demand_fn));
  jobs_.push_back(Job{0.0, when, tag, Kind::kDeferred});
  maybe_start();
}

void FifoServer::occupy(SimDuration duration, DoneFn done) {
  ANUFS_EXPECTS(duration >= 0.0);
  Kind kind = Kind::kStall;
  if (done) {
    stall_dones_.push_back(std::move(done));
    kind = Kind::kStallDone;
  }
  jobs_.push_back(Job{duration, sched_.now(), 0, kind});
  maybe_start();
}

void FifoServer::maybe_start() {
  if (in_service_ || jobs_.empty()) return;
  in_service_ = true;
  if (jobs_.front().kind == Kind::kDeferred) {
    // Executing-server mode: the cost is real. Pop the function before
    // calling it and re-read the front after, so a demand function that
    // submits to this server (growing the rings) leaves no dangling
    // reference.
    const DemandFn demand_fn = std::move(demand_fns_.front());
    demand_fns_.pop_front();
    const double demand = demand_fn();
    ANUFS_EXPECTS(demand > 0.0);
    jobs_.front().demand = demand;
  }
  const Job& job = jobs_.front();
  service_start_ = sched_.now();
  const bool stall = job.kind == Kind::kStall || job.kind == Kind::kStallDone;
  const SimDuration service = stall ? job.demand : job.demand / speed_;
  busy_time_ += service;
  const std::uint64_t epoch = epoch_;
  // Two words of capture: std::function stores it inline, so starting a
  // service allocates nothing.
  sched_.schedule_in(service, [this, epoch] { finish(epoch); });
}

void FifoServer::finish(std::uint64_t epoch) {
  // First, before any member is read: a stale completion (the job was
  // lost to a reset() crash) must not see a later job's service_start_.
  if (epoch != epoch_) return;
  ANUFS_ENSURES(in_service_ && !jobs_.empty());
  const Job job = jobs_.front();
  jobs_.pop_front();
  in_service_ = false;
  switch (job.kind) {
    case Kind::kStall:
      break;
    case Kind::kStallDone: {
      const DoneFn done = std::move(stall_dones_.front());
      stall_dones_.pop_front();
      done();
      break;
    }
    case Kind::kRequest:
    case Kind::kDeferred:
      ++completed_;
      if (on_complete_) {
        on_complete_(JobCompletion{job.arrival, service_start_, sched_.now(),
                                   job.demand, job.tag});
      }
      break;
  }
  maybe_start();
}

std::size_t FifoServer::reset() {
  std::size_t lost = 0;
  for (; !jobs_.empty(); jobs_.pop_front()) {
    const Kind kind = jobs_.front().kind;
    if (kind == Kind::kRequest || kind == Kind::kDeferred) ++lost;
  }
  demand_fns_.clear();
  stall_dones_.clear();
  in_service_ = false;
  ++epoch_;  // orphan the pending completion event, if any
  return lost;
}

}  // namespace anufs::sim
