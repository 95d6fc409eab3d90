#include "sim/scheduler.h"

#include <utility>

#include "obs/trace.h"

namespace anufs::sim {

namespace {
// Below this many tombstones a compaction pass costs more than it frees.
constexpr std::size_t kCompactionFloor = 64;
}  // namespace

EventId Scheduler::schedule_at(SimTime at, Handler fn) {
  // Rejects NaN too; `at + 0.0` below turns -0.0 (which passes at t = 0)
  // into +0.0, whose bit pattern ranks first rather than last.
  ANUFS_EXPECTS(at >= now_);
  ANUFS_EXPECTS(fn != nullptr);
  const std::uint64_t seq = next_seq_++;
  ANUFS_EXPECTS(seq < kMaxSeq);
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    ++stats_.pool_recycled;
  } else {
    slot = grow_pool();
  }
  const std::uint64_t key = (seq << kSlotBits) | slot;
  Node& node = nodes_[slot];
  node.fn = std::move(fn);
  node.key = key;
  // anufs-lint: safe(H1) amortized: reserve() pre-sizes to peak pending,
  // steady state stays within capacity.
  heap_.push_back(Entry{at + 0.0, key});
  sift_up(heap_.size() - 1, 0);
  stats_.peak_pending = std::max(stats_.peak_pending, pending());
  return EventId{key};
}

void Scheduler::set_stream(Handler fn) {
  ANUFS_EXPECTS(fn != nullptr);
  ANUFS_EXPECTS(stream_armed() == 0);
  stream_fn_ = std::move(fn);
}

void Scheduler::stream_at(SimTime at) {
  ANUFS_EXPECTS(at >= now_);
  ANUFS_EXPECTS(stream_armed() == 0);
  ANUFS_EXPECTS(stream_fn_ != nullptr);
  const std::uint64_t seq = next_seq_++;
  ANUFS_EXPECTS(seq < kMaxSeq);
  stream_ = Entry{at + 0.0, seq << kSlotBits};
  stats_.peak_pending = std::max(stats_.peak_pending, pending());
}

void Scheduler::sift_up(std::size_t i, std::size_t top) noexcept {
  Entry* const h = heap_.data();
  const Entry e = h[i];
  while (i > top) {
    const std::size_t parent = (i - 1) / 4;
    if (!Later{}(h[parent], e)) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = e;
}

void Scheduler::sift_down(std::size_t i) noexcept {
  Entry* const h = heap_.data();
  const std::size_t n = heap_.size();
  const std::size_t top = i;
  const Entry e = h[i];
  // Bottom-up: walk the hole to a leaf, always promoting the earliest
  // child, without comparing against `e` on the way down...
  while (true) {
    const std::size_t first = i * 4 + 1;
    std::size_t best = first;
    if (first + 4 <= n) {
      // A full node: two independent pairings, then their winners.
      const std::size_t a = Later{}(h[first], h[first + 1]) ? first + 1
                                                              : first;
      const std::size_t b = Later{}(h[first + 2], h[first + 3])
                                ? first + 3
                                : first + 2;
      best = Later{}(h[a], h[b]) ? b : a;
    } else if (first < n) {
      for (std::size_t c = first + 1; c < n; ++c) {
        if (Later{}(h[best], h[c])) best = c;
      }
    } else {
      break;
    }
    h[i] = h[best];
    i = best;
  }
  // ...then let `e` rise back toward `top`. It usually came from the
  // back of the heap (a late event), so it rarely rises far: this saves
  // the per-level comparison against `e` a top-down walk would make.
  h[i] = e;
  sift_up(i, top);
}

void Scheduler::pop_top() noexcept {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

std::uint32_t Scheduler::grow_pool() {
  const auto slot = static_cast<std::uint32_t>(nodes_.size());
  ANUFS_EXPECTS(slot <= kSlotMask);
  nodes_.emplace_back();
  ++stats_.pool_allocated;
  ANUFS_TRACE(obs::Category::kSched, "pool_grow", {"slots", nodes_.size()},
              {"pending", pending()});
  return slot;
}

bool Scheduler::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id.value);
  if (id.value == kNoEvent || slot >= nodes_.size()) return false;
  Node& node = nodes_[slot];
  if (node.key != id.value) return false;  // already fired or cancelled
  // Eager reclaim: the handler and whatever it captured die here, not
  // when the tombstone eventually surfaces (which may be never if the
  // run stops early or the calendar is abandoned). Clearing the slot's
  // key orphans the heap entry and immediately recycles the slot.
  node.fn = nullptr;
  node.key = kNoEvent;
  // anufs-lint: safe(H1) amortized: the free list never outgrows the
  // node pool, whose capacity it shares via reserve().
  free_slots_.push_back(slot);
  ++tombstones_;
  ++stats_.cancelled;
  maybe_compact();
  return true;
}

void Scheduler::maybe_compact() {
  if (tombstones_ < kCompactionFloor) return;
  if (tombstones_ * 2 < heap_.size()) return;
  std::erase_if(heap_, [this](const Entry& e) { return is_tombstone(e); });
  // Bottom-up rebuild: sift down every internal node, last parent first.
  for (std::size_t i = (heap_.size() + 2) / 4; i-- > 0;) sift_down(i);
  tombstones_ = 0;
  heap_.shrink_to_fit();
  ++stats_.compactions;
}

bool Scheduler::skip_cancelled() {
  while (!heap_.empty()) {
    if (!is_tombstone(heap_.front())) return true;
    pop_top();
    --tombstones_;
  }
  return false;
}

const Scheduler::Entry* Scheduler::earliest() {
  const Entry* top = skip_cancelled() ? &heap_.front() : nullptr;
  if (stream_armed() == 0) return top;
  return top == nullptr || Later{}(*top, stream_) ? &stream_ : top;
}

void Scheduler::fire(const Entry* e) {
  ANUFS_ENSURES(e->time >= now_);
  now_ = e->time;
  ++stats_.fired;
  if (e == &stream_) {
    stream_.key = kNoEvent;  // disarm first: the handler may re-arm
    stream_fn_();
    return;
  }
  const std::uint32_t slot = slot_of(e->key);
  pop_top();  // `e` pointed at heap_.front(); it is gone from here on
  Node& node = nodes_[slot];
  ANUFS_ENSURES(node.fn != nullptr);
  Handler fn = std::move(node.fn);
  node.fn = nullptr;  // moved-from state is unspecified; make it empty
  node.key = kNoEvent;
  // Recycle before running: the handler may schedule into this very slot
  // (the common steady-state pattern), reusing it under a new key.
  // NOTE: fn() may grow nodes_, so `node` must not be touched after this.
  // anufs-lint: safe(H1) amortized: the free list never outgrows the
  // node pool, whose capacity it shares via reserve().
  free_slots_.push_back(slot);
  fn();
}

bool Scheduler::step() {
  const Entry* e = earliest();
  if (e == nullptr) return false;
  fire(e);
  return true;
}

void Scheduler::run() {
  while (step()) {
  }
}

void Scheduler::run_until(SimTime horizon) {
  ANUFS_EXPECTS(horizon >= now_);
  for (const Entry* e = earliest(); e != nullptr && e->time <= horizon;
       e = earliest()) {
    fire(e);
  }
  now_ = horizon;
}

}  // namespace anufs::sim
