#include "fault/fault_plan.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/line_reader.h"

namespace anufs::fault {

void parse_fault_directive(LineReader& in, FaultPlan& plan) {
  const std::string kind = in.word("fault directive");
  if (kind == "crash") {
    CrashEvent e;
    e.time = in.number("time");
    e.server = in.u32("server");
    plan.crashes.push_back(e);
  } else if (kind == "recover") {
    RecoverEvent e;
    e.time = in.number("time");
    e.server = in.u32("server");
    plan.recoveries.push_back(e);
  } else if (kind == "add") {
    AddEvent e;
    e.time = in.number("time");
    e.server = in.u32("server");
    e.speed = in.number("speed");
    plan.additions.push_back(e);
  } else if (kind == "limp") {
    LimpWindow w;
    w.begin = in.number("begin");
    w.end = in.number("end");
    w.server = in.u32("server");
    w.factor = in.number("factor");
    plan.limps.push_back(w);
  } else if (kind == "san_slow") {
    SanSlowWindow w;
    w.begin = in.number("begin");
    w.end = in.number("end");
    w.factor = in.number("factor");
    plan.san_slowdowns.push_back(w);
  } else if (kind == "move_flaky") {
    MoveFlakyWindow w;
    w.begin = in.number("begin");
    w.end = in.number("end");
    w.probability = in.number("probability");
    w.max_retries = in.u32("max_retries");
    w.backoff = in.number("backoff");
    plan.flaky_moves.push_back(w);
  } else {
    in.fail("unknown directive '" + kind + "'");
  }
  in.end();
}

constexpr const char* kTool = "anufs-fault-plan";

FaultPlan parse_fault_plan_text(const std::string& text) {
  std::istringstream is(text);
  LineReader in(is, kTool, "<fault-plan>");
  FaultPlan plan;
  while (in.next()) parse_fault_directive(in, plan);
  return plan;
}

void load_fault_plan(const std::string& path, FaultPlan& plan) {
  std::ifstream file = open_input(kTool, path);
  LineReader in(file, kTool, path);
  while (in.next()) parse_fault_directive(in, plan);
}

FaultPlan load_fault_plan(const std::string& path) {
  FaultPlan plan;
  load_fault_plan(path, plan);
  return plan;
}

namespace {

/// One membership transition on the validation timeline. Same-instant
/// ties process recover/add before crash — the order the injector
/// installs them — so "recover 100 2" + "crash 100 2" is legal and
/// means "bounced at t=100".
struct Transition {
  double time = 0.0;
  enum class Kind { kRecover = 0, kAdd = 1, kCrash = 2 } kind = Kind::kCrash;
  std::uint32_t server = 0;
  double speed = 1.0;
};

std::vector<Transition> membership_timeline(const FaultPlan& plan) {
  std::vector<Transition> timeline;
  for (const RecoverEvent& e : plan.recoveries) {
    timeline.push_back({e.time, Transition::Kind::kRecover, e.server, 1.0});
  }
  for (const AddEvent& e : plan.additions) {
    timeline.push_back({e.time, Transition::Kind::kAdd, e.server, e.speed});
  }
  for (const CrashEvent& e : plan.crashes) {
    timeline.push_back({e.time, Transition::Kind::kCrash, e.server, 1.0});
  }
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const Transition& a, const Transition& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return static_cast<int>(a.kind) <
                            static_cast<int>(b.kind);
                   });
  return timeline;
}

template <typename Window>
void check_windows(std::vector<Window> windows, const char* what,
                   std::vector<std::string>& problems) {
  std::stable_sort(windows.begin(), windows.end(),
                   [](const Window& a, const Window& b) {
                     return a.begin < b.begin;
                   });
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (!(windows[i].begin >= 0.0 && windows[i].begin < windows[i].end)) {
      problems.push_back(std::string(what) + " window [" +
                         std::to_string(windows[i].begin) + ", " +
                         std::to_string(windows[i].end) +
                         ") is not a forward interval");
    }
    if (i > 0 && windows[i].begin < windows[i - 1].end) {
      problems.push_back(std::string(what) + " windows overlap at t=" +
                         std::to_string(windows[i].begin));
    }
  }
}

}  // namespace

std::vector<std::string> validate(const FaultPlan& plan,
                                  std::uint32_t n_initial_servers,
                                  std::uint32_t min_alive) {
  std::vector<std::string> problems;
  const auto note = [&problems](std::string p) {
    problems.push_back(std::move(p));
  };

  // ServerIds are dense (common/ids.h): the plan's additions take the
  // ids that follow the initial servers.
  const std::uint64_t id_bound =
      std::uint64_t{n_initial_servers} + plan.additions.size();
  std::set<std::uint32_t> alive;
  std::set<std::uint32_t> known;
  // Commission time per server: initial servers exist from t=0; added
  // servers only from their add time (limp windows must not start
  // before the server exists).
  std::map<std::uint32_t, double> commissioned_at;
  for (std::uint32_t i = 0; i < n_initial_servers; ++i) {
    alive.insert(i);
    known.insert(i);
    commissioned_at[i] = 0.0;
  }

  for (const Transition& t : membership_timeline(plan)) {
    switch (t.kind) {
      case Transition::Kind::kCrash:
        if (t.time < 0.0) note("crash at negative time");
        if (!known.contains(t.server)) {
          note("crash of unknown server " + std::to_string(t.server));
        } else if (!alive.contains(t.server)) {
          note("crash of already-crashed server " + std::to_string(t.server) +
               " at t=" + std::to_string(t.time));
        } else if (alive.size() <= min_alive) {
          note("crash at t=" + std::to_string(t.time) + " would leave " +
               std::to_string(alive.size() - 1) + " alive servers (< " +
               std::to_string(min_alive) + " required)");
        } else {
          alive.erase(t.server);
        }
        break;
      case Transition::Kind::kRecover:
        if (!known.contains(t.server)) {
          note("recovery of unknown server " + std::to_string(t.server));
        } else if (alive.contains(t.server)) {
          note("recovery of alive server " + std::to_string(t.server) +
               " at t=" + std::to_string(t.time));
        } else {
          alive.insert(t.server);
        }
        break;
      case Transition::Kind::kAdd:
        if (t.server >= id_bound) {
          note("addition of server id " + std::to_string(t.server) +
               " outside the dense id range 0.." +
               std::to_string(id_bound - 1));
        } else if (known.contains(t.server)) {
          note("addition reuses existing server id " +
               std::to_string(t.server) + " (use recover instead)");
        } else {
          known.insert(t.server);
          alive.insert(t.server);
          commissioned_at[t.server] = t.time;
        }
        if (t.speed <= 0.0) note("added server with non-positive speed");
        break;
    }
  }

  // Limp windows: per-server, ordered, on servers that exist by then.
  std::map<std::uint32_t, std::vector<LimpWindow>> limps_by_server;
  for (const LimpWindow& w : plan.limps) {
    if (w.factor <= 0.0) {
      note("limp factor must be > 0, got " + std::to_string(w.factor));
    }
    if (!known.contains(w.server)) {
      note("limp window on unknown server " + std::to_string(w.server));
    } else if (w.begin < commissioned_at[w.server]) {
      note("limp window on server " + std::to_string(w.server) +
           " begins before the server is commissioned");
    }
    limps_by_server[w.server].push_back(w);
  }
  for (auto& [server, windows] : limps_by_server) {
    check_windows(std::move(windows),
                  ("limp(server " + std::to_string(server) + ")").c_str(),
                  problems);
  }

  for (const SanSlowWindow& w : plan.san_slowdowns) {
    if (w.factor <= 0.0) {
      note("san_slow factor must be > 0, got " + std::to_string(w.factor));
    }
  }
  check_windows(plan.san_slowdowns, "san_slow", problems);

  for (const MoveFlakyWindow& w : plan.flaky_moves) {
    if (w.probability < 0.0 || w.probability > 1.0) {
      note("move_flaky probability must be in [0, 1], got " +
           std::to_string(w.probability));
    }
    if (w.backoff < 0.0) note("move_flaky backoff must be >= 0");
  }
  check_windows(plan.flaky_moves, "move_flaky", problems);

  return problems;
}

void validate_or_die(const FaultPlan& plan, std::uint32_t n_initial_servers,
                     std::uint32_t min_alive) {
  const std::vector<std::string> problems =
      validate(plan, n_initial_servers, min_alive);
  if (problems.empty()) return;
  std::fprintf(stderr, "anufs-fault-plan: invalid plan:\n");
  for (const std::string& p : problems) {
    std::fprintf(stderr, "  - %s\n", p.c_str());
  }
  std::abort();
}

}  // namespace anufs::fault
