#include "fault/fault_plan.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <map>
#include <set>
#include <sstream>

#include "common/check.h"

namespace anufs::fault {

namespace {

[[noreturn]] void plan_failure(std::size_t line_no, const std::string& what) {
  std::fprintf(stderr, "anufs-fault-plan: line %zu: %s\n", line_no,
               what.c_str());
  std::abort();
}

double want_double(std::istringstream& ss, std::size_t line_no,
                   const char* what) {
  std::string token;
  if (!(ss >> token)) plan_failure(line_no, std::string("missing ") + what);
  try {
    return std::stod(token);
  } catch (...) {
    plan_failure(line_no, std::string("bad ") + what + " '" + token + "'");
  }
}

std::uint32_t want_u32(std::istringstream& ss, std::size_t line_no,
                       const char* what) {
  std::string token;
  if (!(ss >> token)) plan_failure(line_no, std::string("missing ") + what);
  try {
    return static_cast<std::uint32_t>(std::stoul(token));
  } catch (...) {
    plan_failure(line_no, std::string("bad ") + what + " '" + token + "'");
  }
}

void expect_end(std::istringstream& ss, std::size_t line_no) {
  std::string extra;
  if (ss >> extra) plan_failure(line_no, "trailing token '" + extra + "'");
}

void parse_line(const std::string& raw, std::size_t line_no,
                FaultPlan& plan) {
  std::string line = raw;
  if (const auto hash_pos = line.find('#'); hash_pos != std::string::npos) {
    line.resize(hash_pos);
  }
  std::istringstream ss(line);
  std::string key;
  if (!(ss >> key)) return;
  if (key == "crash") {
    CrashEvent e;
    e.time = want_double(ss, line_no, "time");
    e.server = want_u32(ss, line_no, "server");
    plan.crashes.push_back(e);
  } else if (key == "recover") {
    RecoverEvent e;
    e.time = want_double(ss, line_no, "time");
    e.server = want_u32(ss, line_no, "server");
    plan.recoveries.push_back(e);
  } else if (key == "add") {
    AddEvent e;
    e.time = want_double(ss, line_no, "time");
    e.server = want_u32(ss, line_no, "server");
    e.speed = want_double(ss, line_no, "speed");
    plan.additions.push_back(e);
  } else if (key == "limp") {
    LimpWindow w;
    w.begin = want_double(ss, line_no, "begin");
    w.end = want_double(ss, line_no, "end");
    w.server = want_u32(ss, line_no, "server");
    w.factor = want_double(ss, line_no, "factor");
    plan.limps.push_back(w);
  } else if (key == "san_slow") {
    SanSlowWindow w;
    w.begin = want_double(ss, line_no, "begin");
    w.end = want_double(ss, line_no, "end");
    w.factor = want_double(ss, line_no, "factor");
    plan.san_slowdowns.push_back(w);
  } else if (key == "move_flaky") {
    MoveFlakyWindow w;
    w.begin = want_double(ss, line_no, "begin");
    w.end = want_double(ss, line_no, "end");
    w.probability = want_double(ss, line_no, "probability");
    w.max_retries = want_u32(ss, line_no, "max_retries");
    w.backoff = want_double(ss, line_no, "backoff");
    plan.flaky_moves.push_back(w);
  } else {
    plan_failure(line_no, "unknown directive '" + key + "'");
  }
  expect_end(ss, line_no);
}

}  // namespace

FaultPlan parse_fault_plan(std::istream& is) {
  FaultPlan plan;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    parse_line(line, line_no, plan);
  }
  return plan;
}

FaultPlan parse_fault_plan_text(const std::string& text) {
  std::istringstream is(text);
  return parse_fault_plan(is);
}

void parse_fault_directive(const std::string& line, FaultPlan& plan) {
  parse_line(line, /*line_no=*/1, plan);
}

FaultPlan load_fault_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "anufs-fault-plan: cannot open %s\n", path.c_str());
    std::abort();
  }
  return parse_fault_plan(in);
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
        if (known.contains(t.server)) {
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
