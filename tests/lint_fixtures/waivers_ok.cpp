// Waiver fixture: findings carrying an `anufs-lint: safe(RULE)` proof
// on the same line or the comment block above must be suppressed. This
// file must lint CLEAN. NOT compiled.
#include <cstdint>
#include <cstdlib>
#include <unordered_map>
#include <vector>

#define ANUFS_HOT

namespace fixture {

struct Waived {
  std::unordered_map<std::uint64_t, std::uint64_t> counts_;
  std::vector<std::uint64_t> rows_;

  std::uint64_t order_independent_sum() const {
    std::uint64_t total = 0;
    // anufs-lint: safe(D1) order-independent: commutative sum over
    // values; no output depends on hash order.
    for (const auto& [id, count] : counts_) total += count;
    return total;
  }

  ANUFS_HOT void amortized_append(std::uint64_t v) {
    rows_.push_back(v);  // anufs-lint: safe(H1) amortized: pre-reserved.
  }

  static double environment_knob(const char* text) {
    // anufs-lint: safe(P1) an environment variable, not an input file.
    return std::strtod(text, nullptr);
  }
};

}  // namespace fixture
