#include "policies/pow_d.h"

#include <algorithm>

namespace anufs::policy {

namespace {

/// Latency placeholder for a server that has never reported. Any real
/// report replaces it; until then the server scores as "fast", so
/// sampling explores newcomers instead of starving them.
constexpr double kUnknownLatency = -1.0;

/// Floor under effective latencies so a zero/unknown report still
/// yields a positive, count-sensitive score.
constexpr double kLatencyFloor = 1e-6;

}  // namespace

double round_average(const std::vector<core::ServerReport>& reports) {
  double weighted = 0.0;
  double total = 0.0;
  for (const core::ServerReport& r : reports) {
    if (r.requests == 0) continue;
    weighted += r.mean_latency * static_cast<double>(r.requests);
    total += static_cast<double>(r.requests);
  }
  return total > 0.0 ? weighted / total : 0.0;
}

// ---- DChoiceTable ---------------------------------------------------------

std::size_t DChoiceTable::index_of(ServerId id) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  ANUFS_EXPECTS(it != ids_.end() && *it == id);
  return static_cast<std::size_t>(it - ids_.begin());
}

void DChoiceTable::reset(const std::vector<ServerId>& servers) {
  ids_ = servers;
  ANUFS_EXPECTS(std::is_sorted(ids_.begin(), ids_.end()));
  latency_.assign(ids_.size(), kUnknownLatency);
  sets_.assign(ids_.size(), 0);
}

void DChoiceTable::add(ServerId id) {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  ANUFS_EXPECTS(it == ids_.end() || *it != id);
  const auto idx = static_cast<std::size_t>(it - ids_.begin());
  ids_.insert(it, id);
  latency_.insert(latency_.begin() + static_cast<std::ptrdiff_t>(idx),
                  kUnknownLatency);
  sets_.insert(sets_.begin() + static_cast<std::ptrdiff_t>(idx), 0);
}

void DChoiceTable::remove(ServerId id) {
  const std::size_t idx = index_of(id);
  ids_.erase(ids_.begin() + static_cast<std::ptrdiff_t>(idx));
  latency_.erase(latency_.begin() + static_cast<std::ptrdiff_t>(idx));
  sets_.erase(sets_.begin() + static_cast<std::ptrdiff_t>(idx));
}

void DChoiceTable::credit(ServerId id, std::int32_t delta) {
  const std::size_t idx = index_of(id);
  const auto count = static_cast<std::int64_t>(sets_[idx]) + delta;
  ANUFS_EXPECTS(count >= 0);
  sets_[idx] = static_cast<std::uint32_t>(count);
}

void DChoiceTable::observe(const std::vector<core::ServerReport>& reports,
                           double smoothing) {
  ANUFS_EXPECTS(smoothing > 0.0 && smoothing <= 1.0);
  for (const core::ServerReport& r : reports) {
    if (r.requests == 0) continue;  // idle interval: no latency signal
    // Reports can mention servers that crashed undetected this round;
    // they are no longer choosable, so drop their sample.
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), r.id);
    if (it == ids_.end() || *it != r.id) continue;
    const auto idx = static_cast<std::size_t>(it - ids_.begin());
    latency_[idx] = latency_[idx] == kUnknownLatency
                        ? r.mean_latency
                        : (1.0 - smoothing) * latency_[idx] +
                              smoothing * r.mean_latency;
  }
}

double DChoiceTable::effective_latency(ServerId id) const {
  const double lat = latency_[index_of(id)];
  return std::max(lat, kLatencyFloor);
}

std::uint32_t DChoiceTable::sets_of(ServerId id) const {
  return sets_[index_of(id)];
}

bool DChoiceTable::contains(ServerId id) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  return it != ids_.end() && *it == id;
}

double DChoiceTable::score_at(std::size_t idx) const {
  const double lat = std::max(latency_[idx], kLatencyFloor);
  return static_cast<double>(sets_[idx] + 1) * lat;
}

ServerId DChoiceTable::choose(sim::Xoshiro256& rng, std::uint32_t d) const {
  const std::size_t n = ids_.size();
  ANUFS_EXPECTS(n > 0);
  // Clamp both degenerate ends: d = 0 probes one server, d > n probes
  // everyone. Neither can index outside the table.
  const std::size_t k = std::min<std::size_t>(std::max<std::uint32_t>(d, 1), n);
  scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch_[i] = static_cast<std::uint32_t>(i);
  }
  std::size_t best = n;  // sentinel: no candidate yet
  double best_score = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    // Partial Fisher-Yates: k distinct indices in k draws.
    const std::size_t j = i + static_cast<std::size_t>(rng.next_below(
                                  static_cast<std::uint64_t>(n - i)));
    std::swap(scratch_[i], scratch_[j]);
    const std::size_t cand = scratch_[i];
    const double score = score_at(cand);
    if (best == n || score < best_score ||
        (score == best_score && ids_[cand] < ids_[best])) {
      best = cand;
      best_score = score;
    }
  }
  return ids_[best];
}

// ---- PowerOfDChoicesPolicy ------------------------------------------------

PowerOfDChoicesPolicy::PowerOfDChoicesPolicy(PowDConfig config)
    : config_(config) {
  ANUFS_EXPECTS(config_.d >= 1);
  ANUFS_EXPECTS(config_.overload_factor > 1.0);
  ANUFS_EXPECTS(config_.shed_fraction > 0.0 && config_.shed_fraction <= 1.0);
}

void PowerOfDChoicesPolicy::initialize(
    const std::vector<workload::FileSetSpec>& file_sets,
    const std::vector<ServerId>& servers) {
  begin_initialize(file_sets, servers);
  table_.reset(servers_);
  sim::Xoshiro256 rng = sim::make_stream(config_.seed, "pow-d", draws_++);
  // No latency reports exist yet, so scores reduce to set counts and the
  // initial spread is a balanced d-choice allocation.
  assign_initial([&](std::size_t) { return place(rng); });
}

ServerId PowerOfDChoicesPolicy::place(sim::Xoshiro256& rng) {
  const ServerId to = table_.choose(rng, config_.d);
  table_.credit(to, +1);
  return to;
}

std::vector<Move> PowerOfDChoicesPolicy::rebalance(
    sim::SimTime /*now*/, const std::vector<core::ServerReport>& reports) {
  table_.observe(reports, /*smoothing=*/0.5);
  const double average = round_average(reports);
  if (average <= 0.0) return {};  // idle round: nothing to react to
  sim::Xoshiro256 rng = sim::make_stream(config_.seed, "pow-d", draws_++);
  const std::vector<ServerId> next = shed_overloaded(
      reports, average, config_.overload_factor, config_.shed_fraction,
      owners(), table_, [&] { return table_.choose(rng, config_.d); });
  if (next.empty()) return {};
  return adopt(next);
}

std::vector<Move> PowerOfDChoicesPolicy::on_server_failed(ServerId id) {
  remove_server_id(id);
  ANUFS_EXPECTS(!servers_.empty());
  table_.remove(id);
  // Exactly the victim's sets re-home, each by a fresh d-choice over
  // the survivors; survivors keep their sets.
  sim::Xoshiro256 rng = sim::make_stream(config_.seed, "pow-d", draws_++);
  return rehome(id, [&] { return place(rng); });
}

std::vector<Move> PowerOfDChoicesPolicy::on_server_added(ServerId id) {
  add_server_id(id);
  table_.add(id);
  // The newcomer starts empty and latency-unknown, so it wins every
  // sample it appears in until load and reports even it out — no
  // eager reshuffle needed.
  return {};
}

}  // namespace anufs::policy
