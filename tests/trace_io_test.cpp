// Tests for the trace file format: round-trips and malformed input.
#include "workload/trace_io.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "workload/synthetic.h"

namespace anufs::workload {
namespace {

TEST(TraceIo, RoundTripsGeneratedWorkload) {
  const Workload original = make_synthetic(SyntheticConfig{
      .file_sets = 25, .total_requests = 2500, .duration = 250.0});
  std::stringstream buffer;
  write_trace(buffer, original);
  const Workload parsed = read_trace(buffer);

  EXPECT_EQ(parsed.duration, original.duration);
  ASSERT_EQ(parsed.file_sets.size(), original.file_sets.size());
  for (std::size_t i = 0; i < original.file_sets.size(); ++i) {
    EXPECT_EQ(parsed.file_sets[i].name, original.file_sets[i].name);
    EXPECT_EQ(parsed.file_sets[i].weight, original.file_sets[i].weight);
    EXPECT_EQ(parsed.file_sets[i].fingerprint,
              original.file_sets[i].fingerprint);
  }
  ASSERT_EQ(parsed.request_count(), original.request_count());
  for (std::size_t i = 0; i < original.requests.size(); ++i) {
    EXPECT_EQ(parsed.requests[i].time, original.requests[i].time);
    EXPECT_EQ(parsed.requests[i].file_set, original.requests[i].file_set);
    EXPECT_EQ(parsed.requests[i].demand, original.requests[i].demand);
  }
}

TEST(TraceIo, SaveAndLoadFile) {
  const Workload original = make_synthetic(SyntheticConfig{
      .file_sets = 5, .total_requests = 100, .duration = 50.0});
  const std::string path =
      ::testing::TempDir() + "/anufs_trace_io_test.trace";
  save_trace(path, original);
  const Workload loaded = load_trace(path);
  EXPECT_EQ(loaded.request_count(), original.request_count());
  EXPECT_EQ(loaded.file_sets.size(), original.file_sets.size());
}

TEST(TraceIo, ParsesHandWrittenTrace) {
  std::stringstream in(
      "# anufs-trace v1\n"
      "duration 100.0\n"
      "fileset 0 home/alice 2.5\n"
      "fileset 1 home/bob 1.0\n"
      "req 1.5 0 0.02   # a comment\n"
      "\n"
      "req 2.5 1 0.03\n");
  const Workload w = read_trace(in);
  EXPECT_EQ(w.duration, 100.0);
  ASSERT_EQ(w.file_sets.size(), 2u);
  EXPECT_EQ(w.file_sets[0].name, "home/alice");
  EXPECT_EQ(w.file_sets[1].weight, 1.0);
  ASSERT_EQ(w.request_count(), 2u);
  EXPECT_EQ(w.requests[1].file_set, FileSetId{1});
}

TEST(TraceIoDeathTest, RejectsMissingMagic) {
  std::stringstream in("duration 10\n");
  EXPECT_DEATH((void)read_trace(in), "magic");
}

TEST(TraceIoDeathTest, RejectsUnknownRecord) {
  std::stringstream in("# anufs-trace v1\nduration 10\nbogus 1 2 3\n");
  EXPECT_DEATH((void)read_trace(in), "unknown record");
}

TEST(TraceIoDeathTest, RejectsNonDenseFileSetIds) {
  std::stringstream in("# anufs-trace v1\nduration 10\nfileset 5 x 1\n");
  EXPECT_DEATH((void)read_trace(in), "dense");
}

TEST(TraceIoDeathTest, RejectsUndeclaredFileSet) {
  std::stringstream in(
      "# anufs-trace v1\nduration 10\nfileset 0 x 1\nreq 1 7 0.1\n");
  EXPECT_DEATH((void)read_trace(in), "undeclared");
}

TEST(TraceIoDeathTest, RejectsOutOfOrderRequests) {
  std::stringstream in(
      "# anufs-trace v1\nduration 10\nfileset 0 x 1\n"
      "req 5 0 0.1\nreq 1 0 0.1\n");
  EXPECT_DEATH((void)read_trace(in), "order");
}

TEST(TraceIoDeathTest, RejectsMissingDuration) {
  std::stringstream in("# anufs-trace v1\nfileset 0 x 1\n");
  EXPECT_DEATH((void)read_trace(in), "duration");
}

TEST(TraceIoDeathTest, RejectsBadDuration) {
  std::stringstream in("# anufs-trace v1\nduration -5\n");
  EXPECT_DEATH((void)read_trace(in), "bad duration");
}

// Bad values in well-formed records: each is rejected at its own line,
// not later by Workload::validate() without one.

TEST(TraceIoDeathTest, RejectsNegativeRequestTime) {
  std::stringstream in(
      "# anufs-trace v1\nduration 10\nfileset 0 x 1\nreq -1 0 0.1\n");
  EXPECT_DEATH((void)read_trace(in), "<trace>:4: req time must be >= 0");
}

TEST(TraceIoDeathTest, RejectsRequestBeyondDuration) {
  std::stringstream in(
      "# anufs-trace v1\nduration 10\nfileset 0 x 1\nreq 1 0 0.1\n"
      "req 10.5 0 0.1\n");
  EXPECT_DEATH((void)read_trace(in), "<trace>:5: req time beyond the duration");
}

TEST(TraceIoDeathTest, RejectsRequestBeyondLaterDuration) {
  std::stringstream in(
      "# anufs-trace v1\nfileset 0 x 1\nreq 1 0 0.1\nreq 12 0 0.1\n"
      "duration 10\n");
  EXPECT_DEATH((void)read_trace(in), "<trace>:4: req time beyond the duration");
}

TEST(TraceIoDeathTest, RejectsNonPositiveDemand) {
  std::stringstream in(
      "# anufs-trace v1\nduration 10\nfileset 0 x 1\nreq 1 0 0\n");
  EXPECT_DEATH((void)read_trace(in), "<trace>:4: req demand must be > 0");
}

TEST(TraceIoDeathTest, RejectsNonPositiveFileSetWeight) {
  std::stringstream in(
      "# anufs-trace v1\nduration 10\nfileset 0 x 1\nfileset 1 y -2\n");
  EXPECT_DEATH((void)read_trace(in), "<trace>:4: fileset weight must be > 0");
}

// Numbers are whole finite tokens and a record ends at its last field:
// each bad token is named at its own line.
TEST(TraceIoDeathTest, MalformedTokensNamedAtTheirLine) {
  const struct {
    const char* body;  // after the magic line
    const char* diagnostic;
  } cases[] = {
      {"duration 10x\n", "<trace>:2: bad duration '10x'"},
      {"duration 10\nfileset 0 x 1 extra\n",
       "<trace>:3: trailing token 'extra'"},
      {"duration 10\nfileset 0 x 1\nreq 1 0 0.5 junk\n",
       "<trace>:4: trailing token 'junk'"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.body);
    std::stringstream in(std::string("# anufs-trace v1\n") + c.body);
    EXPECT_DEATH((void)read_trace(in),
                 std::string("anufs-trace: ") + c.diagnostic);
  }
}

TEST(TraceIoDeathTest, LoadTraceNamesTheFile) {
  const std::string path = testing::TempDir() + "/bad.trace";
  {
    std::ofstream out(path);
    out << "# anufs-trace v1\nduration 10x\n";
  }
  EXPECT_DEATH((void)load_trace(path), "bad.trace:2: bad duration '10x'");
  EXPECT_DEATH((void)load_trace(path + ".does-not-exist"), "cannot open");
}

}  // namespace
}  // namespace anufs::workload
