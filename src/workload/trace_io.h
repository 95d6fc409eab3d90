// Trace file format: lets converted real traces (e.g. DFSTrace) drive
// the simulator, and lets generated workloads be archived and diffed.
//
// Text format, line-oriented:
//
//   # anufs-trace v1            <- magic, required first line
//   duration <seconds>
//   fileset <id> <name> <weight>
//   ...
//   req <time> <fileset-id> <demand>
//   ...
//
// Requests must be time-sorted; file sets must be declared before use
// with dense ids starting at 0. Records follow the token grammar of
// common/line_reader.h ('#' comments anywhere, whole-token finite
// numbers, u32 ids, no trailing tokens); a bad one aborts with
// "anufs-trace: <path or <trace>>:<line>: <what>".
#pragma once

#include <iosfwd>
#include <string>

#include "workload/spec.h"

namespace anufs::workload {

/// Serialize a workload. Round-trips exactly with read_trace up to
/// floating-point text precision (17 significant digits are written).
void write_trace(std::ostream& os, const Workload& workload);

/// Parse a workload; aborts with a located diagnostic on malformed input.
[[nodiscard]] Workload read_trace(std::istream& is);

/// Convenience file wrappers (load_trace aborts on an unopenable path).
void save_trace(const std::string& path, const Workload& workload);
[[nodiscard]] Workload load_trace(const std::string& path);

}  // namespace anufs::workload
