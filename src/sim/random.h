// Deterministic random-number substrate.
//
// Every stochastic component of the simulator (arrival processes, service
// demands, hash-fallback choices, failure injection) draws from its own
// named stream, derived from a master seed. Two runs with the same master
// seed are bit-identical; changing one component's draw count never
// perturbs another component's sequence.
#pragma once

#include <cstdint>
#include <string_view>

namespace anufs::sim {

/// SplitMix64: used for seeding and as a cheap stateless mixer.
/// Reference: Steele, Lea & Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 (Blackman & Vigna). Fast, 256-bit state, passes
/// BigCrush; statistically far stronger than what a queueing simulation
/// needs, and cheap enough to ignore.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from `seed` via SplitMix64 (the
  /// initialization the xoshiro authors recommend).
  explicit Xoshiro256(std::uint64_t seed = 0x8A5CD789635D2DFFULL) {
    std::uint64_t sm = seed;
    for (auto& w : s_) w = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1). Uses the top 53 bits.
  double next_double() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) without modulo bias: Lemire, "Fast
  /// random integer generation in an interval" (2019). Multiply-shift
  /// with a rejection step confined to the biased band. Inline so a
  /// caller drawing from a local copy keeps the state in registers.
  std::uint64_t next_below(std::uint64_t bound) {
    if (bound == 0) return 0;
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

/// Derives an independent stream seed from (master seed, component name,
/// index). FNV-1a over the name feeds SplitMix64 so that e.g.
/// ("arrivals", 7) and ("service", 7) are uncorrelated.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t master,
                                        std::string_view component,
                                        std::uint64_t index = 0);

/// Convenience: a named, derived generator.
[[nodiscard]] Xoshiro256 make_stream(std::uint64_t master,
                                     std::string_view component,
                                     std::uint64_t index = 0);

}  // namespace anufs::sim
