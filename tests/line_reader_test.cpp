// The shared number converters: the rules every input file and every
// command-line flag (anufs_serve, anufs_sim/anufs_audit --jobs) use.
#include "common/line_reader.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

namespace anufs {
namespace {

// The flag values that used to wrap or truncate: `--threads -1` became
// 4294967295 reader threads and `--servers 4294967296` became 0.
TEST(Converters, RejectMalformedFlagValues) {
  for (const std::string bad : {"-1", "4294967296", "", "3x"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(to_u32(bad).has_value());
  }
  for (const std::string bad : {"-1", "", "3x", "18446744073709551616"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(to_u64(bad).has_value());
  }
  for (const std::string bad : {"", "3x", "nan", "inf", "1e999"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(to_double(bad).has_value());
  }
}

TEST(Converters, AcceptWholeTokens) {
  EXPECT_EQ(to_u32("4294967295"), std::optional<std::uint32_t>(4294967295u));
  EXPECT_EQ(to_u32("0"), std::optional<std::uint32_t>(0u));
  EXPECT_EQ(to_u64("4294967296"),
            std::optional<std::uint64_t>(4294967296ull));
  EXPECT_EQ(to_double("-2.5"), std::optional<double>(-2.5));
  EXPECT_EQ(to_double("1e-3"), std::optional<double>(1e-3));
}

}  // namespace
}  // namespace anufs
