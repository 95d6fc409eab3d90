#include "workload/trace_io.h"

#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>

#include "common/check.h"
#include "common/line_reader.h"

namespace anufs::workload {

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

namespace {

constexpr const char* kTool = "anufs-trace";

Workload read_trace_from(std::istream& is, const std::string& source) {
  Workload w;
  w.name = "trace";
  std::string magic;
  const bool has_magic = static_cast<bool>(std::getline(is, magic)) &&
                         magic.rfind("# anufs-trace v1", 0) == 0;
  LineReader in(is, kTool, source, /*lines_read=*/1);
  if (!has_magic) in.fail("missing '# anufs-trace v1' magic");

  bool saw_duration = false;
  std::size_t last_req_line = 0;
  while (in.next()) {
    const std::string kind = in.word("record kind");
    if (kind == "duration") {
      w.duration = in.number("duration");
      if (w.duration <= 0.0) in.fail("bad duration (must be > 0)");
      saw_duration = true;
    } else if (kind == "fileset") {
      const std::uint32_t id = in.u32("fileset id");
      std::string name = in.word("fileset name");
      const double weight = in.number("fileset weight");
      if (id != w.file_sets.size()) {
        in.fail("fileset ids must be dense from 0");
      }
      if (!(weight > 0.0)) in.fail("fileset weight must be > 0");
      w.file_sets.push_back(FileSetSpec::make(id, std::move(name), weight));
    } else if (kind == "req") {
      const double time = in.number("req time");
      const std::uint32_t fs = in.u32("req fileset id");
      const double demand = in.number("req demand");
      if (fs >= w.file_sets.size()) {
        in.fail("req references undeclared fileset");
      }
      if (!(time >= 0.0)) in.fail("req time must be >= 0");
      if (saw_duration && time > w.duration) {
        in.fail("req time beyond the duration");
      }
      if (!(demand > 0.0)) in.fail("req demand must be > 0");
      if (!w.requests.empty() && time < w.requests.back().time) {
        in.fail("requests out of time order");
      }
      w.requests.push_back(RequestEvent{time, FileSetId{fs}, demand});
      last_req_line = in.line();
    } else {
      in.fail("unknown record kind '" + kind + "'");
    }
    in.end();
  }
  if (!saw_duration) in.fail("missing duration record");
  // A duration read after the requests: they are in time order, so the
  // last one is the latest.
  if (!w.requests.empty() && w.requests.back().time > w.duration) {
    in.fail_at(last_req_line, "req time beyond the duration");
  }
  w.validate();
  return w;
}

}  // namespace

Workload read_trace(std::istream& is) { return read_trace_from(is, "<trace>"); }

void save_trace(const std::string& path, const Workload& workload) {
  std::ofstream out(path);
  ANUFS_EXPECTS(out.good());
  write_trace(out, workload);
  ANUFS_ENSURES(out.good());
}

Workload load_trace(const std::string& path) {
  std::ifstream in = open_input(kTool, path);
  return read_trace_from(in, path);
}

}  // namespace anufs::workload
