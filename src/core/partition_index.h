// Hierarchical bitmap over partitions: the control plane's incremental
// index.
//
// The region map's free-partition bookkeeping used to be a
// std::set<uint32_t>, which makes every claim/release an allocating
// red-black-tree operation and every "lowest free partition" query a
// pointer chase — costs that grow with the cluster and dominate retune
// and membership churn at 4096 servers. This index stores one bit per
// partition in a flat word array plus a summary tree (each level-k word
// ORs 64 words below it), the classic segment-tree-over-bits layout:
//
//   * insert/erase: set/clear one bit and propagate at most `levels`
//     words up — O(log64 P), allocation-free after construction;
//   * first(): walk down from the root following the lowest set bit —
//     O(log64 P), independent of how many partitions are free;
//   * size(): a maintained counter, O(1).
//
// first() returns the NUMERICALLY LOWEST member, which preserves the
// region map's deterministic claim order (lowest free partition first)
// bit-for-bit against the old std::set iteration.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace anufs::core {

class PartitionIndex {
 public:
  /// An index over `count` partitions, all initially absent.
  explicit PartitionIndex(std::uint32_t count) { reset(count); }

  /// Re-shape for a new partition count, dropping every member (the
  /// region map re-inserts during repartitioning).
  void reset(std::uint32_t count) {
    count_ = count;
    size_ = 0;
    levels_.clear();
    std::uint32_t words = word_count(count);
    while (true) {
      levels_.emplace_back(words, 0);
      if (words == 1) break;
      words = word_count(words);
    }
  }

  [[nodiscard]] bool contains(std::uint32_t p) const noexcept {
    return (levels_[0][p >> 6] >> (p & 63u) & 1u) != 0;
  }

  void insert(std::uint32_t p) {
    ANUFS_EXPECTS(p < count_);
    if (contains(p)) return;
    ++size_;
    for (auto& level : levels_) {
      std::uint64_t& word = level[p >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (p & 63u);
      const bool was_empty = word == 0;
      word |= bit;
      if (!was_empty) break;  // summary already said "something below"
      p >>= 6;
    }
  }

  void erase(std::uint32_t p) {
    ANUFS_EXPECTS(p < count_);
    if (!contains(p)) return;
    --size_;
    for (auto& level : levels_) {
      std::uint64_t& word = level[p >> 6];
      word &= ~(std::uint64_t{1} << (p & 63u));
      if (word != 0) break;  // summary stays set: siblings remain
      p >>= 6;
    }
  }

  /// Numerically lowest member. Must not be called when empty().
  [[nodiscard]] std::uint32_t first() const {
    ANUFS_EXPECTS(size_ > 0);
    std::uint32_t idx = 0;
    for (std::size_t l = levels_.size(); l-- > 0;) {
      const std::uint64_t word = levels_[l][idx];
      ANUFS_ENSURES(word != 0);
      idx = (idx << 6) + static_cast<std::uint32_t>(std::countr_zero(word));
    }
    return idx;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return count_; }

 private:
  [[nodiscard]] static std::uint32_t word_count(std::uint32_t n) noexcept {
    return (n + 63u) >> 6;
  }

  std::uint32_t count_ = 0;
  std::size_t size_ = 0;
  // levels_[0] is the member bitmap; levels_[k+1] summarizes levels_[k].
  std::vector<std::vector<std::uint64_t>> levels_;
};

}  // namespace anufs::core
