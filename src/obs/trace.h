// Structured tracing for simulation runs: the "why did ANU do that"
// layer the aggregate tables cannot answer.
//
// The core decision points — delegate reconfiguration rounds, tuner
// scale changes, file-set moves (with their reason), placement-cache
// invalidations, fault directives firing, scheduler pool growth — emit
// structured events through the ANUFS_TRACE macro. Events land in a
// ring-buffered per-run TraceSink stamped with the run's own simulated
// clock, and are exported after the run as JSONL and Chrome
// `trace_event` JSON (load in chrome://tracing or Perfetto) by
// obs/export.h.
//
// Overhead policy (the invariant the trace tests enforce):
//
//  * DISABLED (no sink installed, the default): every ANUFS_TRACE site
//    compiles to one thread-local load and a predictable null check.
//    No allocation, no formatting, no clock read.
//  * ENABLED: recording appends one POD event to a pre-sized ring
//    buffer (no allocation once constructed; overflow overwrites the
//    oldest event and counts it in dropped()).
//  * In BOTH modes tracing never touches simulation state — no RNG
//    draws, no scheduler events, no ordering influence — so run
//    results are bit-identical with tracing on or off. This is not a
//    best-effort promise: tests/trace_property_test.cpp re-proves it
//    for every build.
//
// Thread ownership: the sink pointer is thread-local, matching the
// one-thread-per-run confinement rule every simulator object already
// follows (sim::Scheduler, core::AnuSystem). A parallel sweep
// installs one sink per worker-thread run; runs without a sink trace
// nothing. Event names and field keys must be string literals (the
// sink stores the pointers, not copies).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/attributes.h"

namespace anufs::obs {

/// Event categories, selectable per sink (--trace-categories a,b).
enum class Category : std::uint32_t {
  kDelegate = 1u << 0,  ///< reconfiguration rounds, failovers, membership
  kTuner = 1u << 1,     ///< per-server explicit scale changes
  kMove = 1u << 2,      ///< file-set relocations, with reason
  kCache = 1u << 3,     ///< placement-cache epoch invalidations
  kFault = 1u << 4,     ///< fault directives firing (crash/limp/...)
  kSched = 1u << 5,     ///< event-engine pool growth
  kControl = 1u << 6,   ///< control-plane cost accounting (touched counts)
};

inline constexpr std::uint32_t kAllCategories = (1u << 7) - 1;

[[nodiscard]] const char* category_name(Category c) noexcept;

/// Parse "delegate,move,..." into a mask; "all" (or "") selects every
/// category. Returns nullopt on an unknown name (caller reports it).
[[nodiscard]] std::optional<std::uint32_t> parse_categories(
    const std::string& csv);

/// One key/value pair of an event. Values are either numeric (stored as
/// double — ids and counts round-trip exactly below 2^53) or a string
/// literal.
struct Field {
  const char* key = nullptr;
  double num = 0.0;
  const char* str = nullptr;  ///< non-null: string-valued field

  template <typename T, typename = std::enable_if_t<std::is_arithmetic_v<T>>>
  constexpr Field(const char* k, T v) noexcept
      : key(k), num(static_cast<double>(v)) {}
  constexpr Field(const char* k, const char* s) noexcept : key(k), str(s) {}
};

/// One recorded event. POD so the ring buffer never allocates.
struct TraceEvent {
  static constexpr std::size_t kMaxFields = 6;
  double time = 0.0;       ///< simulated seconds (sink clock)
  std::uint64_t seq = 0;   ///< per-sink monotone sequence number
  Category category{};
  const char* name = nullptr;
  std::array<Field, kMaxFields> fields{
      Field{nullptr, 0.0}, Field{nullptr, 0.0}, Field{nullptr, 0.0},
      Field{nullptr, 0.0}, Field{nullptr, 0.0}, Field{nullptr, 0.0}};
  std::uint32_t field_count = 0;
};

/// Fixed-capacity ring buffer of TraceEvents for one run.
class TraceSink {
 public:
  explicit TraceSink(std::uint32_t category_mask = kAllCategories,
                     std::size_t capacity = 1u << 16);

  [[nodiscard]] ANUFS_HOT bool wants(Category c) const noexcept {
    return (mask_ & static_cast<std::uint32_t>(c)) != 0;
  }

  /// The clock stamping events: typically [&sched]{ return sched.now(); }.
  /// Before a clock is installed, events are stamped 0.0 (construction
  /// time in simulated terms).
  void set_clock(std::function<double()> clock) { clock_ = std::move(clock); }

  /// Hot by the overhead policy above: appends one POD event to the
  /// pre-sized ring — no allocation, ever (H1-checked).
  ANUFS_HOT void record(Category c, const char* name,
                        std::initializer_list<Field> fields);

  /// Surviving events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  /// Events overwritten by ring wrap-around (recorded - retained).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  [[nodiscard]] std::uint32_t mask() const noexcept { return mask_; }

 private:
  std::uint32_t mask_;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;        ///< ring write cursor
  std::uint64_t recorded_ = 0;  ///< total record() calls accepted
  std::function<double()> clock_;
};

namespace detail {
/// The thread's active sink; null = tracing disabled (the default).
inline thread_local TraceSink* tls_sink = nullptr;
}  // namespace detail

[[nodiscard]] inline TraceSink* current_sink() noexcept {
  return detail::tls_sink;
}

/// RAII installation of a sink as the calling thread's tracer. The
/// previous sink (normally none) is restored on destruction, so nested
/// scopes compose and a sink never outlives its installation.
class ScopedTraceSink {
 public:
  explicit ScopedTraceSink(TraceSink& sink) : previous_(detail::tls_sink) {
    detail::tls_sink = &sink;
  }
  ~ScopedTraceSink() { detail::tls_sink = previous_; }
  ScopedTraceSink(const ScopedTraceSink&) = delete;
  ScopedTraceSink& operator=(const ScopedTraceSink&) = delete;

 private:
  TraceSink* previous_;
};

}  // namespace anufs::obs

// Emit one structured trace event:
//
//   ANUFS_TRACE(anufs::obs::Category::kMove, "fileset_move",
//               {"fs", fs.value}, {"from", from.value},
//               {"reason", "recovery"});
//
// Zero-cost when disabled: a thread-local load and a null check. The
// braces around each field survive macro expansion because __VA_ARGS__
// is re-emitted verbatim into an initializer list.
#define ANUFS_TRACE(category, name, ...)                                  \
  do {                                                                    \
    if (::anufs::obs::TraceSink* anufs_trace_sink_ =                      \
            ::anufs::obs::detail::tls_sink;                               \
        anufs_trace_sink_ != nullptr &&                                   \
        anufs_trace_sink_->wants(category)) {                             \
      anufs_trace_sink_->record(category, name, {__VA_ARGS__});           \
    }                                                                     \
  } while (0)
