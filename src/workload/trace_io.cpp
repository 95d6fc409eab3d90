#include "workload/trace_io.h"

#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/check.h"

namespace anufs::workload {

namespace {

[[noreturn]] void parse_failure(std::size_t line_no, const std::string& what) {
  std::fprintf(stderr, "anufs-trace: parse error at line %zu: %s\n", line_no,
               what.c_str());
  std::abort();
}

}  // namespace

void write_trace(std::ostream& os, const Workload& workload) {
  os << "# anufs-trace v1\n";
  os << std::setprecision(17);
  os << "duration " << workload.duration << "\n";
  for (const FileSetSpec& fs : workload.file_sets) {
    os << "fileset " << fs.id.value << ' ' << fs.name << ' ' << fs.weight
       << "\n";
  }
  for (const RequestEvent& r : workload.requests) {
    os << "req " << r.time << ' ' << r.file_set.value << ' ' << r.demand
       << "\n";
  }
}

Workload read_trace(std::istream& is) {
  Workload w;
  w.name = "trace";
  std::string line;
  std::size_t line_no = 0;

  if (!std::getline(is, line) || line.rfind("# anufs-trace v1", 0) != 0) {
    parse_failure(1, "missing '# anufs-trace v1' magic");
  }
  ++line_no;

  bool saw_duration = false;
  std::size_t last_req_line = 0;
  while (std::getline(is, line)) {
    ++line_no;
    // Strip comments and blank lines.
    if (const auto hash_pos = line.find('#'); hash_pos != std::string::npos) {
      line.resize(hash_pos);
    }
    std::istringstream ss(line);
    std::string kind;
    if (!(ss >> kind)) continue;

    if (kind == "duration") {
      if (!(ss >> w.duration) || w.duration <= 0.0) {
        parse_failure(line_no, "bad duration");
      }
      saw_duration = true;
    } else if (kind == "fileset") {
      std::uint32_t id = 0;
      std::string name;
      double weight = 0.0;
      if (!(ss >> id >> name >> weight)) {
        parse_failure(line_no, "bad fileset record");
      }
      if (id != w.file_sets.size()) {
        parse_failure(line_no, "fileset ids must be dense from 0");
      }
      if (!(weight > 0.0)) parse_failure(line_no, "fileset weight must be > 0");
      w.file_sets.push_back(FileSetSpec::make(id, std::move(name), weight));
    } else if (kind == "req") {
      double time = 0.0;
      std::uint32_t fs = 0;
      double demand = 0.0;
      if (!(ss >> time >> fs >> demand)) {
        parse_failure(line_no, "bad req record");
      }
      if (fs >= w.file_sets.size()) {
        parse_failure(line_no, "req references undeclared fileset");
      }
      if (!(time >= 0.0)) parse_failure(line_no, "req time must be >= 0");
      if (saw_duration && time > w.duration) {
        parse_failure(line_no, "req time beyond the duration");
      }
      if (!(demand > 0.0)) parse_failure(line_no, "req demand must be > 0");
      if (!w.requests.empty() && time < w.requests.back().time) {
        parse_failure(line_no, "requests out of time order");
      }
      w.requests.push_back(RequestEvent{time, FileSetId{fs}, demand});
      last_req_line = line_no;
    } else {
      parse_failure(line_no, "unknown record kind '" + kind + "'");
    }
  }
  if (!saw_duration) parse_failure(line_no, "missing duration record");
  // A duration read after the requests: they are in time order, so the
  // last one is the latest.
  if (!w.requests.empty() && w.requests.back().time > w.duration) {
    parse_failure(last_req_line, "req time beyond the duration");
  }
  w.validate();
  return w;
}

void save_trace(const std::string& path, const Workload& workload) {
  std::ofstream out(path);
  ANUFS_EXPECTS(out.good());
  write_trace(out, workload);
  ANUFS_ENSURES(out.good());
}

Workload load_trace(const std::string& path) {
  std::ifstream in(path);
  ANUFS_EXPECTS(in.good());
  return read_trace(in);
}

}  // namespace anufs::workload
