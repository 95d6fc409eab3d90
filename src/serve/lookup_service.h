// Serving mode: a concurrent lookup service over a live AnuSystem.
//
// The simulator proves ANU's placement properties in virtual time; the
// LookupService proves the ADDRESSING hot path serves real concurrent
// traffic. One WRITER thread owns the AnuSystem (the project's
// single-thread confinement rule, unchanged) and drives seed-
// deterministic control-plane churn — delegate retunes, server failures,
// commissions — publishing an immutable placement snapshot through a
// SnapshotStore after every mutation. N READER threads calculate every
// lookup against the snapshot they have pinned — no memo, one batched
// locate_many sweep per batch; they never take a lock and never block on
// the control plane, and the control plane never waits for them
// (serve/epoch.h has the reclamation proof, DESIGN.md §6i the prose).
//
// Correctness is checked two ways, both exercised by the test battery:
//
//  * INLINE — each recorded sample is an answer a batch served, checked
//    against the very snapshot it was served from (batch-kernel answer
//    == that snapshot's scalar locate), so a torn or half-published map
//    or a batch/scalar divergence cannot hide;
//  * REPLAY — the writer records every control-plane op verbatim
//    (retune reports included); check_equivalence() replays the log on
//    a fresh AnuSystem and requires every concurrently-served sample to
//    be bit-identical — all four LocateResult fields — to the
//    sequential derivation at the same generation. Concurrency may
//    change timing and throughput, never an answer.
//
// Readers draw fingerprints from a shared immutable working set in two
// passes (the RNG chain writes indices and prefetches their keys, then
// independent loads fetch them), batch their lookups under one epoch pin
// (serve_batch is the ANUFS_HOT kernel; rule H1 statically forbids it
// from allocating, throwing, locking, or sleeping), and keep
// single-writer relaxed-atomic counters so live_stats() can be harvested
// from any thread mid-serve. Every batch is timed; p50/p99 come from a
// bounded strided sample of those timings (serve/timing_reservoir.h),
// and the last batch of every 2^k is also timed phase by phase (pin,
// draw, locate, fold, release), the phases tiling the batch's interval.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

#include "common/attributes.h"
#include "core/anu_system.h"
#include "core/placement_cache.h"
#include "fault/fault_plan.h"
#include "obs/metrics_registry.h"
#include "serve/snapshot.h"
#include "serve/timing_reservoir.h"
#include "sim/random.h"
#include "sim/thread_pool.h"

namespace anufs::serve {

struct ServeConfig {
  /// Reader thread count (each gets its own epoch slot and RNG).
  std::uint32_t threads = 4;
  /// Wall-clock serving window. 0 = run until the writer exhausts
  /// `writer_ops` and every reader has completed `min_batches` (the
  /// deterministic-shape mode the tests use). At most kMaxSeconds.
  double seconds = 1.0;
  /// Longest serving window: half the steady_clock range, so the
  /// deadline (now + seconds, in integer clock ticks) is representable.
  static constexpr double kMaxSeconds =
      std::chrono::duration<double>(
          std::chrono::steady_clock::duration::max())
          .count() /
      2;
  std::uint64_t seed = 42;

  // ---- cluster / placement ----
  std::uint32_t n_servers = 16;  ///< initial servers, ids 0..n-1
  std::uint32_t file_sets = 4096;
  core::AnuConfig anu;  ///< tuner/placement knobs (defaults are fine)

  // ---- writer churn ----
  /// Control-plane ops to apply. 0 = unlimited (churn for the whole
  /// window).
  std::uint64_t writer_ops = 0;
  /// Target control-plane rate; 0 = apply ops back-to-back.
  double writer_ops_per_second = 200.0;
  /// Never fail below this many alive servers.
  std::uint32_t min_alive = 2;
  /// Optional fault plan: its crash/recover/add events are folded into
  /// the churn schedule (in time order) between generated retunes.
  fault::FaultPlan faults;

  // ---- reader shape ----
  std::uint32_t batch_size = 256;  ///< lookups per epoch pin
  /// With seconds == 0: each reader runs at least this many batches.
  std::uint64_t min_batches = 64;
  /// Record one sample every 2^k batches per reader (k = this), from
  /// the last batch of each 2^k: the batch's last served answer,
  /// validated inline against the pinned snapshot's scalar locate when
  /// validate_inline is set. The same batches are timed phase by phase,
  /// also after max_samples_per_reader stops the recording.
  std::uint32_t sample_every_batches_log2 = 2;
  std::size_t max_samples_per_reader = 4096;
  bool validate_inline = true;
  /// Ignored (no reader cache); held for benchmark/ until ROADMAP item 1.
  std::size_t reader_cache_capacity = 0;
};

/// One concurrently-served lookup, replayable: `generation` names the
/// exact published configuration it was answered from.
struct Sample {
  std::uint64_t fingerprint = 0;
  std::uint64_t generation = 0;
  core::LocateResult result;
};

/// One recorded control-plane op. Retune reports are stored verbatim so
/// replay feeds the tuner bit-identical inputs.
struct WriterOp {
  enum class Kind : std::uint8_t { kRetune, kFail, kAdd };
  Kind kind = Kind::kRetune;
  ServerId server;  ///< kFail / kAdd
  std::vector<core::ServerReport> reports;  ///< kRetune
  std::uint64_t generation_after = 0;       ///< map generation post-op
};

/// The phases of one reader batch, in the order they run: epoch pin
/// (acquire), key draw, locate_many sweep, answer fold, and release
/// (plus the sample on batches that record one).
inline constexpr std::size_t kPhaseCount = 5;
inline constexpr std::array<std::string_view, kPhaseCount> kPhaseNames = {
    "pin", "draw", "locate", "fold", "release"};

/// Integer-ns totals over the phase-timed batches. The phases split each
/// timed batch's [t0, t1] with no gap, so `phase_ns` sums to `ns`
/// exactly.
struct PhaseTotals {
  std::uint64_t batches = 0;  ///< batches timed phase by phase
  std::uint64_t ns = 0;       ///< their summed t1 - t0
  std::array<std::uint64_t, kPhaseCount> phase_ns{};
};

/// Any-thread snapshot of serving progress (single-writer atomics).
struct LiveStats {
  std::uint64_t lookups = 0;
  std::uint64_t batches = 0;
};

struct ServeResult {
  std::uint32_t threads = 0;
  double seconds = 0.0;  ///< measured serving wall time
  std::uint64_t lookups = 0;
  double lookups_per_second = 0.0;
  /// Always zero; held for benchmark/ until ROADMAP item 1 deletes it.
  core::PlacementCache::Stats cache;
  /// Per-lookup latency derived from per-batch timing (ns): the mean
  /// over every batch; p50/p99 over a bounded strided sample of the
  /// batches (each reader's TimingReservoir, merged at the readers'
  /// largest stride so every batch weighs alike).
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  /// Per-lookup latency distribution (ns), merged across readers; the
  /// fixed log2 buckets merge again across runs (obs::Histogram::merge).
  obs::Histogram latency_ns{1.0, 40};
  /// Control plane.
  std::uint64_t ops_applied = 0;
  std::uint64_t snapshots_published = 0;
  std::uint64_t snapshots_freed = 0;
  std::size_t snapshots_pending = 0;  ///< retired, not yet reclaimed
  std::uint64_t final_generation = 0;
  /// Fold of every field of every served answer: each batch's two word
  /// sums (fingerprint ^ position; server | probes << 32 | fallback <<
  /// 63) take one mix64 chain step per reader, and the readers' chains
  /// XOR together, so neither the readers' interleaving nor in-batch
  /// order moves it. A checksum of served work, printed by anufs_serve;
  /// answers are proven by the sample checks, not by this.
  std::uint64_t digest = 0;
  std::size_t samples = 0;
  /// In-situ phase timings, summed over readers, and each phase's mean
  /// ns per lookup of the timed batches (kPhaseNames order).
  PhaseTotals phases;
  std::array<double, kPhaseCount> phase_ns{};
};

/// check_equivalence() verdict. ok() is the serving-mode correctness
/// claim: concurrency changed no answer.
struct EquivalenceReport {
  std::size_t samples_checked = 0;
  std::size_t mismatches = 0;
  /// Samples whose generation never appeared at a replayed op boundary
  /// (must be 0: readers can only pin published configurations).
  std::size_t unmatched_generation = 0;
  /// mix64 fold over (fingerprint, generation, result) of every checked
  /// sample, in (generation, fingerprint) order — the serve-smoke gate
  /// logs this as the run's equivalence digest.
  std::uint64_t digest = 0;
  [[nodiscard]] bool ok() const noexcept {
    return mismatches == 0 && unmatched_generation == 0;
  }
};

/// The reader batch kernel, shared by LookupService::run_batch and the
/// micro-benchmark so the two cannot drift: draw fps.size() keys from
/// `keys` along `rng` in two passes (the RNG chain, run on a register
/// copy of `rng` that is written back afterwards, writes each index
/// into `fps` and prefetches its key; independent loads then replace
/// the indices with the keys, so the misses overlap), resolve them with
/// one map.locate_many sweep into `results` (each answer bit-identical
/// to map.locate), and fold the answers into `digest`: two word sums
/// over the batch, then one mix64 chain step over both (see
/// ServeResult::digest). Returns the advanced digest. With `stamps`
/// non-null, the clock is read after the draw, the locate and the fold
/// (stamps[0..2]).
/// Allocation/lock/sleep-free by rule H1 (tools/anufs_lint.py walks its
/// call graph).
ANUFS_HOT std::uint64_t serve_batch(const core::PlacementMap& map,
                                    std::span<const std::uint64_t> keys,
                                    sim::Xoshiro256& rng,
                                    std::span<std::uint64_t> fps,
                                    std::span<core::LocateResult> results,
                                    std::uint64_t digest,
                                    std::uint64_t* stamps);

class LookupService {
 public:
  explicit LookupService(ServeConfig config);
  /// Joins everything if still running.
  ~LookupService();

  LookupService(const LookupService&) = delete;
  LookupService& operator=(const LookupService&) = delete;

  /// Launch the writer and the readers. Idempotent-hostile: once per
  /// service instance.
  void start();

  /// Ask everyone to wind down (readers finish their current batch;
  /// the writer abandons any ops not yet applied) and join. Safe to
  /// call with readers mid-epoch — that is the shutdown the stress
  /// test exercises.
  void stop();

  /// start(), serve for the configured window, stop(), summarize.
  ServeResult run();

  /// Any-thread progress probe; safe while readers are running (the
  /// per-reader counters are single-writer atomics).
  [[nodiscard]] LiveStats live_stats() const;

  [[nodiscard]] bool running() const noexcept {
    return started_ && !joined_;
  }

  /// Post-stop: the recorded control-plane log and served samples.
  [[nodiscard]] const std::vector<WriterOp>& ops() const;
  [[nodiscard]] std::vector<Sample> all_samples() const;
  [[nodiscard]] const ServeResult& result() const;

  /// Post-stop: replay ops() sequentially on a fresh AnuSystem and
  /// check every sample bit-identical at its generation.
  [[nodiscard]] EquivalenceReport check_equivalence() const;

  /// Fold a ServeResult + EquivalenceReport into a metrics registry
  /// (serve_* names; the driver exports it like any run snapshot).
  static void harvest(const ServeResult& result, obs::Registry& registry);

 private:
  /// Everything one reader thread owns, cache-line padded so neighbours
  /// never false-share the hot counters.
  struct alignas(64) ReaderState {
    ReaderState(std::uint64_t stream_seed, std::uint32_t batch_size)
        : rng(stream_seed), batch_fps(batch_size), batch_results(batch_size) {}
    sim::Xoshiro256 rng;
    /// run_batch staging, preallocated so the hot path never allocates
    /// (H1): the batch's drawn fingerprints (key indices between the
    /// draw's two passes) and their batched answers.
    std::vector<std::uint64_t> batch_fps;
    std::vector<core::LocateResult> batch_results;
    std::uint64_t digest = 0;
    std::uint64_t batch_count = 0;
    std::vector<Sample> samples;          ///< reader-confined until join
    /// Per-lookup ns of a strided sample of the batches; emplaced by
    /// reader_loop so construction allocates none of it.
    std::optional<TimingReservoir> batch_ns;
    obs::Histogram latency_ns{1.0, 40};   ///< every batch, mergeable form
    PhaseTotals phases;                   ///< reader-confined until join
    std::atomic<std::uint64_t> lookups{0};   ///< single-writer, any-reader
    std::atomic<std::uint64_t> batches{0};   ///< single-writer, any-reader
  };

  void writer_loop();
  void reader_loop(std::size_t idx);
  /// The serving hot path: serve_batch over the reader's preallocated
  /// staging, its RNG and its digest chain (`stamps` as there).
  ANUFS_HOT void run_batch(ReaderState& r, const core::PlacementMap& map,
                           std::uint32_t n, std::uint64_t* stamps);
  /// Off the hot path: record the batch's last served answer for replay
  /// (no extra lookup), checked inline against the scalar locate.
  ANUFS_COLD void record_sample(ReaderState& r, const Snapshot& snap);

  /// Build (and record) the next churn op; returns false when the op
  /// budget is exhausted.
  bool apply_next_op();
  void apply_op(core::AnuSystem& system, const WriterOp& op) const;

  [[nodiscard]] bool readers_warmed() const;

  ServeConfig config_;
  std::vector<std::uint64_t> fingerprints_;  ///< immutable working set
  std::vector<ServerId> initial_ids_;        ///< replay starts from these
  std::unique_ptr<core::AnuSystem> system_;  ///< writer-confined
  SnapshotStore store_;
  std::vector<std::unique_ptr<ReaderState>> readers_;

  // Writer-confined churn state.
  sim::Xoshiro256 writer_rng_;
  std::vector<WriterOp> ops_;
  /// Fault-plan membership events (true = fail), time-ordered but stored
  /// reversed so consumption is pop_back().
  std::vector<std::pair<bool, ServerId>> plan_events_;
  std::uint32_t next_fresh_server_ = 0;
  std::vector<ServerId> failed_pool_;
  bool map_dirty_ = false;  ///< set by the RegionMap mutation hook

  std::atomic<bool> stop_{false};
  std::atomic<bool> writer_done_{false};
  bool started_ = false;
  bool joined_ = false;
  /// Readers run as long-lived tasks on the project's worker pool (one
  /// per pool thread); the writer gets a dedicated thread so the
  /// control plane never queues behind a reader.
  std::unique_ptr<sim::ThreadPool> pool_;
  std::thread writer_;
  std::uint64_t serve_begin_ns_ = 0;
  ServeResult result_;
};

}  // namespace anufs::serve
