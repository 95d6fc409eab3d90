// TimingReservoir keeps exactly the pushes at multiples of its stride,
// never more than its capacity, and every push while it has room.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "serve/timing_reservoir.h"

namespace anufs::serve {
namespace {

/// Push positions 0..n-1 (each value is its own position) and check the
/// kept sample is exactly the multiples of the final stride, in order.
void expect_strided(std::size_t capacity, std::uint64_t n) {
  TimingReservoir reservoir(capacity);
  for (std::uint64_t i = 0; i < n; ++i) {
    reservoir.push(static_cast<double>(i));
    ASSERT_LE(reservoir.kept().size(), capacity) << "after " << i + 1;
  }
  const std::uint64_t stride = reservoir.stride();
  EXPECT_EQ(stride & (stride - 1), 0u) << "stride " << stride;
  ASSERT_EQ(reservoir.kept().size(), (n + stride - 1) / stride) << "n " << n;
  for (std::size_t k = 0; k < reservoir.kept().size(); ++k) {
    ASSERT_EQ(reservoir.kept()[k], static_cast<double>(k * stride))
        << "n " << n << ", entry " << k;
  }
  if (n <= capacity) {
    EXPECT_EQ(stride, 1u) << "n " << n;
    EXPECT_EQ(reservoir.kept().size(), n);
  }
}

TEST(TimingReservoirTest, KeepsExactlyTheMultiplesOfItsStride) {
  constexpr std::size_t kCapacity = std::size_t{1} << 16;
  for (const std::uint64_t n :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{kCapacity - 1},
        std::uint64_t{kCapacity}, std::uint64_t{kCapacity + 1},
        std::uint64_t{1'000'000}}) {
    expect_strided(kCapacity, n);
  }
}

TEST(TimingReservoirTest, SmallCapacityHoldsAtEveryLength) {
  for (std::uint64_t n = 0; n <= 200; ++n) expect_strided(4, n);
}

TEST(TimingReservoirTest, AppendAtStrideThinsToTheCommonStride) {
  TimingReservoir fast(8);
  TimingReservoir slow(8);
  for (int i = 0; i < 40; ++i) fast.push(i);  // stride 8: 0, 8, .., 32
  for (int i = 0; i < 10; ++i) slow.push(i);  // stride 2: 0, 2, .., 8
  ASSERT_EQ(fast.stride(), 8u);
  ASSERT_EQ(slow.stride(), 2u);
  std::vector<double> merged;
  fast.append_at_stride(8, merged);
  slow.append_at_stride(8, merged);
  EXPECT_EQ(merged, (std::vector<double>{0, 8, 16, 24, 32, 0, 8}));
}

}  // namespace
}  // namespace anufs::serve
