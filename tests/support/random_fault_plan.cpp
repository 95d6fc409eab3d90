#include "support/random_fault_plan.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "common/check.h"
#include "sim/random.h"

namespace anufs::fault {

std::string to_text(const FaultPlan& plan) {
  // Emit each group sorted by time so the output is canonical: parsing
  // it back yields a plan with identical semantics.
  const auto by_time = [](const auto& a, const auto& b) {
    return a.time < b.time;
  };
  const auto by_begin = [](const auto& a, const auto& b) {
    return a.begin < b.begin;
  };
  FaultPlan p = plan;
  std::stable_sort(p.crashes.begin(), p.crashes.end(), by_time);
  std::stable_sort(p.recoveries.begin(), p.recoveries.end(), by_time);
  std::stable_sort(p.additions.begin(), p.additions.end(), by_time);
  std::stable_sort(p.limps.begin(), p.limps.end(), by_begin);
  std::stable_sort(p.san_slowdowns.begin(), p.san_slowdowns.end(), by_begin);
  std::stable_sort(p.flaky_moves.begin(), p.flaky_moves.end(), by_begin);

  std::ostringstream os;
  for (const CrashEvent& e : p.crashes) {
    os << "crash " << e.time << " " << e.server << "\n";
  }
  for (const RecoverEvent& e : p.recoveries) {
    os << "recover " << e.time << " " << e.server << "\n";
  }
  for (const AddEvent& e : p.additions) {
    os << "add " << e.time << " " << e.server << " " << e.speed << "\n";
  }
  for (const LimpWindow& w : p.limps) {
    os << "limp " << w.begin << " " << w.end << " " << w.server << " "
       << w.factor << "\n";
  }
  for (const SanSlowWindow& w : p.san_slowdowns) {
    os << "san_slow " << w.begin << " " << w.end << " " << w.factor << "\n";
  }
  for (const MoveFlakyWindow& w : p.flaky_moves) {
    os << "move_flaky " << w.begin << " " << w.end << " " << w.probability
       << " " << w.max_retries << " " << w.backoff << "\n";
  }
  return os.str();
}

FaultPlan make_random_plan(const RandomPlanConfig& config,
                           std::uint64_t seed) {
  ANUFS_EXPECTS(config.duration > 0.0 && config.n_servers >= 1);
  ANUFS_EXPECTS(config.min_alive >= 1);
  sim::Xoshiro256 rng = sim::make_stream(seed, "fault-plan");
  FaultPlan plan;
  const double d = config.duration;
  const auto uniform = [&rng](double lo, double hi) {
    return lo + (hi - lo) * rng.next_double();
  };

  // Crash/recover pairs, simulated over a little timeline so the plan
  // never dips below min_alive and never double-crashes a server.
  std::set<std::uint32_t> alive;
  for (std::uint32_t i = 0; i < config.n_servers; ++i) alive.insert(i);
  std::vector<std::pair<double, std::uint32_t>> pending_recoveries;
  const std::uint64_t n_crashes =
      config.max_crashes == 0 ? 0 : rng.next_below(config.max_crashes + 1);
  std::vector<double> crash_times;
  for (std::uint64_t i = 0; i < n_crashes; ++i) {
    crash_times.push_back(uniform(0.05 * d, 0.7 * d));
  }
  std::sort(crash_times.begin(), crash_times.end());
  for (const double t : crash_times) {
    // Recoveries scheduled before this crash have happened by now.
    for (auto it = pending_recoveries.begin();
         it != pending_recoveries.end();) {
      if (it->first <= t) {
        alive.insert(it->second);
        it = pending_recoveries.erase(it);
      } else {
        ++it;
      }
    }
    if (alive.size() <= config.min_alive) continue;
    const auto victim_it =
        std::next(alive.begin(),
                  static_cast<std::ptrdiff_t>(rng.next_below(alive.size())));
    const std::uint32_t victim = *victim_it;
    alive.erase(victim_it);
    plan.crashes.push_back({t, victim});
    // Most crashed servers come back after the recover gap; some stay
    // dead for the rest of the run.
    const double recover_at = t + config.min_recover_gap + uniform(0.0, d / 4);
    if (rng.next_double() < 0.75 && recover_at < 0.95 * d) {
      plan.recoveries.push_back({recover_at, victim});
      pending_recoveries.emplace_back(recover_at, victim);
    }
  }

  const std::uint64_t n_adds =
      config.max_additions == 0 ? 0 : rng.next_below(config.max_additions + 1);
  for (std::uint64_t i = 0; i < n_adds; ++i) {
    plan.additions.push_back(
        {uniform(0.1 * d, 0.8 * d),
         config.n_servers + static_cast<std::uint32_t>(i),
         uniform(1.0, 9.0)});
  }

  // Limp windows on distinct initial servers (distinctness sidesteps
  // per-server overlap).
  const std::uint64_t n_limps =
      config.max_limps == 0
          ? 0
          : rng.next_below(
                std::min<std::uint64_t>(config.max_limps, config.n_servers) +
                1);
  std::vector<std::uint32_t> limp_pool;
  for (std::uint32_t i = 0; i < config.n_servers; ++i) limp_pool.push_back(i);
  for (std::uint64_t i = 0; i < n_limps; ++i) {
    const std::uint64_t pick = rng.next_below(limp_pool.size());
    const std::uint32_t server = limp_pool[pick];
    limp_pool.erase(limp_pool.begin() + static_cast<std::ptrdiff_t>(pick));
    const double begin = uniform(0.05 * d, 0.75 * d);
    plan.limps.push_back(
        {begin, begin + uniform(0.05 * d, 0.2 * d), server,
         uniform(0.2, 0.9)});
  }

  if (config.max_san_slowdowns > 0 && rng.next_below(2) == 1) {
    const double begin = uniform(0.05 * d, 0.7 * d);
    plan.san_slowdowns.push_back(
        {begin, begin + uniform(0.05 * d, 0.25 * d), uniform(1.5, 4.0)});
  }

  if (config.max_flaky_windows > 0 && rng.next_below(2) == 1) {
    const double begin = uniform(0.0, 0.5 * d);
    plan.flaky_moves.push_back(
        {begin, begin + uniform(0.2 * d, 0.5 * d), uniform(0.2, 0.8),
         1 + static_cast<std::uint32_t>(rng.next_below(4)), uniform(0.5, 3.0)});
  }

  ANUFS_ENSURES(
      validate(plan, config.n_servers, config.min_alive).empty());
  return plan;
}

}  // namespace anufs::fault
