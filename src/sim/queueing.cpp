#include "sim/queueing.h"

#include <utility>

namespace anufs::sim {

void FifoServer::submit(double demand, std::uint64_t tag,
                        CompletionFn on_complete,
                        std::optional<SimTime> arrival) {
  ANUFS_EXPECTS(demand > 0.0);
  const SimTime when = arrival.value_or(sched_.now());
  ANUFS_EXPECTS(when <= sched_.now());
  queue_.push_back(Job{/*is_stall=*/false, demand, when, tag,
                       std::move(on_complete), {}, {}});
  backlog_ += demand;
  maybe_start();
}

void FifoServer::submit_deferred(DemandFn demand_fn, std::uint64_t tag,
                                 CompletionFn on_complete,
                                 std::optional<SimTime> arrival) {
  ANUFS_EXPECTS(demand_fn != nullptr);
  const SimTime when = arrival.value_or(sched_.now());
  ANUFS_EXPECTS(when <= sched_.now());
  queue_.push_back(Job{/*is_stall=*/false, 0.0, when, tag,
                       std::move(on_complete), {}, std::move(demand_fn)});
  maybe_start();
}

void FifoServer::occupy(SimDuration duration, DoneFn done) {
  ANUFS_EXPECTS(duration >= 0.0);
  queue_.push_back(Job{/*is_stall=*/true, duration, sched_.now(), 0, {},
                       std::move(done), {}});
  maybe_start();
}

void FifoServer::maybe_start() {
  if (in_service_ || queue_.empty()) return;
  in_service_ = true;
  Job& job = queue_.front();
  if (job.demand_fn) {
    job.demand = job.demand_fn();  // executing-server mode: cost is real
    ANUFS_EXPECTS(job.demand > 0.0);
    job.demand_fn = nullptr;
    backlog_ += job.demand;
  }
  service_start_ = sched_.now();
  const SimDuration service =
      job.is_stall ? job.demand : job.demand / speed_;
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
  ANUFS_ENSURES(in_service_ && !queue_.empty());
  Job job = std::move(queue_.front());
  queue_.pop_front();
  in_service_ = false;
  if (job.is_stall) {
    if (job.done) job.done();
  } else {
    backlog_ -= job.demand;
    ++completed_;
    if (job.on_complete) {
      job.on_complete(JobCompletion{job.arrival, service_start_, sched_.now(),
                                    job.demand, job.tag});
    }
  }
  maybe_start();
}

std::size_t FifoServer::reset() {
  std::size_t lost = 0;
  for (const Job& job : queue_) {
    if (!job.is_stall) ++lost;
  }
  queue_.clear();
  backlog_ = 0.0;
  in_service_ = false;
  ++epoch_;  // orphan the pending completion event, if any
  return lost;
}

}  // namespace anufs::sim
