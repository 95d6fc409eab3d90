#include "policies/prescient.h"

#include <algorithm>
#include <limits>

namespace anufs::policy {

namespace {

/// "No file set chosen" sentinel for the local search.
constexpr std::size_t kNone = ~std::size_t{0};

/// Estimated mean latency of one server from its aggregate window
/// knowledge: mean service time inflated by an M/M/1-style queueing
/// factor, clamped near saturation so an overloaded server is simply
/// "very bad" rather than infinite (keeps the search landscape smooth).
double estimate_latency(double demand_sum, double count, double seconds,
                        double speed) {
  if (count <= 0.0) return 0.0;
  const double mean_service = demand_sum / count / speed;
  const double utilization = demand_sum / seconds / speed;
  const double headroom = std::max(1.0 - utilization, 0.02);
  return mean_service / headroom;
}

}  // namespace

PrescientPolicy::PrescientPolicy(PrescientConfig config,
                                 const workload::Workload& workload)
    : config_(std::move(config)) {
  ANUFS_EXPECTS(!config_.speeds.empty());
  ANUFS_EXPECTS(config_.period > 0.0);
  duration_ = workload.duration;
  set_times_.resize(workload.file_sets.size());
  set_prefix_.resize(workload.file_sets.size());
  for (const workload::RequestEvent& r : workload.requests) {
    auto& times = set_times_[r.file_set.value];
    auto& prefix = set_prefix_[r.file_set.value];
    times.push_back(r.time);
    prefix.push_back((prefix.empty() ? 0.0 : prefix.back()) + r.demand);
  }
}

double PrescientPolicy::speed_of(ServerId id) const {
  const auto it = config_.speeds.find(id);
  ANUFS_EXPECTS(it != config_.speeds.end());
  return it->second;
}

PrescientPolicy::WindowLoad PrescientPolicy::window_load(double from,
                                                         double to) const {
  WindowLoad load;
  load.seconds = std::max(to - from, 1e-9);
  load.demand.assign(set_times_.size(), 0.0);
  load.count.assign(set_times_.size(), 0.0);
  for (std::size_t i = 0; i < set_times_.size(); ++i) {
    const auto& times = set_times_[i];
    const auto& prefix = set_prefix_[i];
    if (times.empty()) continue;
    const auto lo = static_cast<std::size_t>(
        std::lower_bound(times.begin(), times.end(), from) - times.begin());
    const auto hi = static_cast<std::size_t>(
        std::lower_bound(times.begin(), times.end(), to) - times.begin());
    if (hi == lo) continue;
    load.demand[i] = prefix[hi - 1] - (lo == 0 ? 0.0 : prefix[lo - 1]);
    load.count[i] = static_cast<double>(hi - lo);
  }
  return load;
}

PrescientPolicy::WindowLoad PrescientPolicy::total_load() const {
  return window_load(0.0, duration_);
}

double PrescientPolicy::server_score(double demand, double count,
                                     double seconds, double speed,
                                     double norm_cap) const {
  const double norm = demand / speed;
  if (norm_cap == std::numeric_limits<double>::infinity()) {
    return norm;  // pass 1: pure load skew
  }
  // Pass 2: latency, with an overwhelming penalty for breaking the
  // load-balance achieved by pass 1.
  const double penalty = norm > norm_cap ? 1e9 * (1.0 + norm) : 0.0;
  return estimate_latency(demand, count, seconds, speed) + penalty;
}

PrescientPolicy::ServerLoads PrescientPolicy::per_server(
    const std::vector<ServerId>& assignment, const WindowLoad& load) const {
  ServerLoads per;
  for (const ServerId id : servers_) per[id] = {0.0, 0.0};
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    per[assignment[i]].first += load.demand[i];
    per[assignment[i]].second += load.count[i];
  }
  return per;
}

ServerId PrescientPolicy::least_loaded(const std::map<ServerId, double>& acc,
                                       double demand) const {
  ServerId best = servers_.front();
  double best_norm = std::numeric_limits<double>::infinity();
  for (const ServerId id : servers_) {
    const double norm = (acc.at(id) + demand) / speed_of(id);
    if (norm < best_norm) {
      best_norm = norm;
      best = id;
    }
  }
  return best;
}

double PrescientPolicy::objective(
    const std::vector<ServerId>& assignment, const WindowLoad& load,
    double norm_cap) const {
  double worst = 0.0;
  for (const auto& [id, dc] : per_server(assignment, load)) {
    worst = std::max(worst, server_score(dc.first, dc.second, load.seconds,
                                         speed_of(id), norm_cap));
  }
  return worst;
}

std::vector<ServerId> PrescientPolicy::pack_lpt(
    const WindowLoad& load) const {
  std::vector<std::size_t> order(load.demand.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (load.demand[a] != load.demand[b]) {
      return load.demand[a] > load.demand[b];
    }
    return a < b;  // deterministic tiebreak
  });

  std::map<ServerId, double> acc;
  for (const ServerId id : servers_) acc[id] = 0.0;

  std::vector<ServerId> next(order.size(), kInvalidServer);
  for (const std::size_t i : order) {
    const ServerId best = least_loaded(acc, load.demand[i]);
    next[i] = best;
    acc[best] += load.demand[i];
  }
  return next;
}

std::vector<ServerId> PrescientPolicy::search_pass(
    std::vector<ServerId> assignment, const WindowLoad& load,
    double norm_cap) const {
  // Per-server aggregates and scores, maintained incrementally.
  ServerLoads per = per_server(assignment, load);
  const auto est = [&](ServerId id) {
    const auto& dc = per.at(id);
    return server_score(dc.first, dc.second, load.seconds, speed_of(id),
                        norm_cap);
  };
  const auto global_max = [&] {
    double worst = 0.0;
    for (const ServerId id : servers_) worst = std::max(worst, est(id));
    return worst;
  };

  for (std::uint32_t round = 0; round < config_.max_search_rounds; ++round) {
    // The bottleneck server this round.
    ServerId hot = servers_.front();
    double hot_est = -1.0;
    for (const ServerId id : servers_) {
      const double e = est(id);
      if (e > hot_est) {
        hot_est = e;
        hot = id;
      }
    }
    if (hot_est == 0.0) break;
    const double current = global_max();

    // Best single-set move off the bottleneck.
    double best_obj = current;
    std::size_t best_fs = kNone;
    ServerId best_to = kInvalidServer;
    for (std::size_t fs = 0; fs < assignment.size(); ++fs) {
      if (assignment[fs] != hot || load.count[fs] == 0.0) continue;
      const double d = load.demand[fs];
      const double c = load.count[fs];
      per[hot].first -= d;
      per[hot].second -= c;
      for (const ServerId to : servers_) {
        if (to == hot) continue;
        per[to].first += d;
        per[to].second += c;
        const double obj = global_max();
        per[to].first -= d;
        per[to].second -= c;
        if (obj < best_obj * (1.0 - 1e-12)) {
          best_obj = obj;
          best_fs = fs;
          best_to = to;
        }
      }
      per[hot].first += d;
      per[hot].second += c;
    }
    if (best_fs != kNone) {
      per[hot].first -= load.demand[best_fs];
      per[hot].second -= load.count[best_fs];
      per[best_to].first += load.demand[best_fs];
      per[best_to].second += load.count[best_fs];
      assignment[best_fs] = best_to;
      continue;
    }

    // Pairwise swaps between the bottleneck and any other server.
    double best_swap_obj = current;
    std::size_t swap_a = kNone;
    std::size_t swap_b = kNone;
    for (std::size_t fa = 0; fa < assignment.size(); ++fa) {
      if (assignment[fa] != hot) continue;
      const double da = load.demand[fa];
      const double ca = load.count[fa];
      if (ca == 0.0) continue;
      for (std::size_t fb = 0; fb < assignment.size(); ++fb) {
        const ServerId ob = assignment[fb];
        if (ob == hot) continue;
        const double db = load.demand[fb];
        const double cb = load.count[fb];
        per[hot].first += db - da;
        per[hot].second += cb - ca;
        per[ob].first += da - db;
        per[ob].second += ca - cb;
        const double obj = global_max();
        per[hot].first -= db - da;
        per[hot].second -= cb - ca;
        per[ob].first -= da - db;
        per[ob].second -= ca - cb;
        if (obj < best_swap_obj * (1.0 - 1e-12)) {
          best_swap_obj = obj;
          swap_a = fa;
          swap_b = fb;
        }
      }
    }
    if (swap_a == kNone) break;  // local optimum
    const ServerId other = assignment[swap_b];
    per[hot].first += load.demand[swap_b] - load.demand[swap_a];
    per[hot].second += load.count[swap_b] - load.count[swap_a];
    per[other].first += load.demand[swap_a] - load.demand[swap_b];
    per[other].second += load.count[swap_a] - load.count[swap_b];
    assignment[swap_a] = other;
    assignment[swap_b] = hot;
  }
  return assignment;
}

std::vector<ServerId> PrescientPolicy::refine(
    std::vector<ServerId> assignment, const WindowLoad& load) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Pass 1: minimize load skew.
  assignment = search_pass(std::move(assignment), load, kInf);
  // Pass 2: minimize estimated latency while keeping normalized load
  // within load_slack of the pass-1 optimum.
  const double best_norm = objective(assignment, load, kInf);
  const double cap = best_norm * config_.load_slack + 1e-12;
  return search_pass(std::move(assignment), load, cap);
}

void PrescientPolicy::initialize(
    const std::vector<workload::FileSetSpec>& file_sets,
    const std::vector<ServerId>& servers) {
  begin_initialize(file_sets, servers);
  ANUFS_EXPECTS(file_sets_.size() == set_times_.size());
  // "Having perfect knowledge, the prescient algorithm begins in a
  // load-balanced state at time 0": pack for the opening window.
  const WindowLoad load = config_.mode == PrescientConfig::Mode::kStationary
                              ? total_load()
                              : window_load(0.0, config_.period);
  const std::vector<ServerId> packed = refine(pack_lpt(load), load);
  assign_initial([&](std::size_t i) { return packed[i]; });
}

std::vector<Move> PrescientPolicy::rebalance(
    sim::SimTime now,
    const std::vector<core::ServerReport>& /*reports*/) {
  // Reports are ignored by design: prescience, not measurement.
  if (config_.mode == PrescientConfig::Mode::kStationary) return {};
  const WindowLoad load =
      window_load(now, std::min(now + config_.period, duration_));
  // Improvement-only refinement from the current assignment, adopted
  // only when it beats the status quo by the hysteresis margin (moves
  // are expensive: 5-10 s of per-set unavailability). Lexicographic
  // comparison matches the packer: load skew first, then latency.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double cur_norm = objective(owners(), load, kInf);
  const std::vector<ServerId> candidate = refine(owners(), load);
  const double cand_norm = objective(candidate, load, kInf);
  const double cap = std::max(cur_norm, cand_norm) * config_.load_slack;
  const bool better_load = cand_norm < cur_norm * config_.improvement_factor;
  const bool better_latency =
      cand_norm <= cur_norm &&
      objective(candidate, load, cap) <
          objective(owners(), load, cap) * config_.improvement_factor;
  if (!better_load && !better_latency) return {};
  return adopt(candidate);
}

std::vector<Move> PrescientPolicy::on_server_failed(ServerId id) {
  remove_server_id(id);
  ANUFS_EXPECTS(!servers_.empty());
  const WindowLoad load = total_load();
  // Re-home the victim's sets greedily by normalized load, then refine
  // globally against the latency objective.
  std::vector<ServerId> next = owners();
  std::map<ServerId, double> acc;
  for (const ServerId s : servers_) acc[s] = 0.0;
  for (std::size_t fs = 0; fs < next.size(); ++fs) {
    if (next[fs] != id) acc[next[fs]] += load.demand[fs];
  }
  for (std::size_t fs = 0; fs < next.size(); ++fs) {
    if (next[fs] != id) continue;
    const ServerId best = least_loaded(acc, load.demand[fs]);
    next[fs] = best;
    acc[best] += load.demand[fs];
  }
  return adopt(refine(std::move(next), load));
}

std::vector<Move> PrescientPolicy::on_server_added(ServerId id) {
  ANUFS_EXPECTS(config_.speeds.contains(id));
  add_server_id(id);
  return adopt(refine(owners(), total_load()));
}

}  // namespace anufs::policy
