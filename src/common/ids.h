// Strongly-typed identifiers shared across modules.
//
// ServerId and FileSetId are distinct wrapper types so that a file-set
// index can never be passed where a server index is expected (the two are
// both small integers and the bug would otherwise be silent).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>

namespace anufs {

/// Index of a metadata server within a cluster. Dense, assigned at
/// commissioning time, never reused within one simulation.
///
/// The dense-table contract: a cluster of n initial servers that
/// commissions k more uses exactly the ids 0..n+k-1 (fault::validate and
/// the scenario parser reject an added id outside that range). Per-server
/// state is therefore a vector indexed by `value` — RegionMap's regions,
/// the tuners' latency history and report tables, the report collector,
/// pow-d's counts and EWMAs, prescient's speeds and loads — never a tree
/// or a hash map. A table grows to `std::size_t{value} + 1` on first use
/// of an id (64-bit arithmetic, so no id wraps the size to 0) and rejects
/// kInvalidServer up front; a removed id's entry is reset, not erased.
struct ServerId {
  std::uint32_t value = 0;
  friend constexpr auto operator<=>(ServerId, ServerId) = default;
};

/// Index of a file set (the indivisible unit of workload placement).
struct FileSetId {
  std::uint32_t value = 0;
  friend constexpr auto operator<=>(FileSetId, FileSetId) = default;
};

constexpr ServerId kInvalidServer{~std::uint32_t{0}};
constexpr FileSetId kInvalidFileSet{~std::uint32_t{0}};

}  // namespace anufs

template <>
struct std::hash<anufs::ServerId> {
  std::size_t operator()(anufs::ServerId id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value);
  }
};

template <>
struct std::hash<anufs::FileSetId> {
  std::size_t operator()(anufs::FileSetId id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value);
  }
};
