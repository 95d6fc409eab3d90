// A fixed-memory, strided sample of a reader's per-batch timings.
//
// A serving reader times every batch, and a fast one times millions of
// them in a window; keeping each value would let the faster reader's
// timing memory grow with its speed. The reservoir keeps the values
// pushed at positions 0, stride, 2·stride, ... of the push sequence, in
// a buffer of `capacity` entries allocated once (its pages stay
// non-resident until written). When a kept value finds the buffer full,
// every other entry is dropped and the stride doubles, so the kept
// sample is always exactly the multiples of the current stride: uniform
// over the whole window, never biased toward its start or its end. A
// run that pushes no more than `capacity` values keeps all of them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"

namespace anufs::serve {

class TimingReservoir {
 public:
  /// `capacity` must be even and >= 2, so halving keeps the positions
  /// exact multiples of the doubled stride.
  explicit TimingReservoir(std::size_t capacity)
      : values_(std::make_unique_for_overwrite<double[]>(capacity)),
        capacity_(capacity) {
    ANUFS_EXPECTS(capacity >= 2 && capacity % 2 == 0);
  }

  /// Offer the next value of the sequence; kept iff its position is a
  /// multiple of the stride. Never allocates.
  void push(double value) noexcept {
    const std::uint64_t position = pushed_++;
    if ((position & (stride_ - 1)) != 0) return;
    if (size_ == capacity_) {
      // Entry k holds position k·stride: keeping the even k keeps the
      // multiples of 2·stride. The incoming position, capacity·stride,
      // is one of them, so it is always kept below.
      for (std::size_t k = 0; 2 * k < size_; ++k) values_[k] = values_[2 * k];
      size_ /= 2;
      stride_ *= 2;
    }
    values_[size_++] = value;
  }

  /// The values at positions 0, stride, 2·stride, ..., in push order.
  [[nodiscard]] std::span<const double> kept() const noexcept {
    return {values_.get(), size_};
  }
  [[nodiscard]] std::uint64_t stride() const noexcept { return stride_; }

  /// Append the kept values whose positions are multiples of `stride`
  /// (a power of two, at least stride()). Merging several reservoirs at
  /// their largest stride weighs every reader's batches alike.
  void append_at_stride(std::uint64_t stride, std::vector<double>& out) const {
    ANUFS_EXPECTS(stride >= stride_ && (stride & (stride - 1)) == 0);
    const std::uint64_t step = stride / stride_;
    for (std::size_t k = 0; k < size_; k += step) out.push_back(values_[k]);
  }

 private:
  std::unique_ptr<double[]> values_;
  std::size_t capacity_;
  std::size_t size_ = 0;
  std::uint64_t stride_ = 1;  ///< always a power of two
  std::uint64_t pushed_ = 0;
};

}  // namespace anufs::serve
