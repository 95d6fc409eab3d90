#include "sim/random.h"

namespace anufs::sim {

std::uint64_t derive_seed(std::uint64_t master, std::string_view component,
                          std::uint64_t index) {
  // FNV-1a over the component name, then fold in the index and master
  // seed through two SplitMix64 rounds.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : component) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001B3ULL;
  }
  std::uint64_t state = master ^ h;
  (void)splitmix64(state);
  state ^= index * 0x9E3779B97F4A7C15ULL;
  return splitmix64(state);
}

Xoshiro256 make_stream(std::uint64_t master, std::string_view component,
                       std::uint64_t index) {
  return Xoshiro256{derive_seed(master, component, index)};
}

}  // namespace anufs::sim
