#include "core/invariant_auditor.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "core/anu_system.h"
#include "hash/unit_interval.h"

namespace anufs::core {

namespace {

std::atomic<std::uint64_t> g_audits{0};

bool compute_enabled() {
#ifdef NDEBUG
  bool on = false;
#else
  bool on = true;
#endif
  if (const char* env = std::getenv("ANUFS_AUDIT")) {
    on = !(env[0] == '0' && env[1] == '\0');
  }
  return on;
}

std::atomic<bool> g_enabled{compute_enabled()};

/// printf-lite formatter so violation strings stay one-liners.
template <typename... Args>
std::string fmt(const char* format, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, args...);
  return std::string(buf);
}

}  // namespace

std::string InvariantAuditor::Report::to_string() const {
  if (ok()) return "ok";
  std::ostringstream os;
  os << violations.size() << " violation(s):";
  for (const std::string& v : violations) os << "\n  - " << v;
  return os.str();
}

InvariantAuditor::Report InvariantAuditor::audit_records(
    std::uint32_t n_partitions, const std::vector<ServerId>& servers,
    const std::vector<RegionMap::PartitionRecord>& records,
    const Expectations& expect) {
  g_audits.fetch_add(1, std::memory_order_relaxed);
  Report report;
  const auto fail = [&report](std::string msg) {
    report.violations.push_back(std::move(msg));
  };

  if (n_partitions < 4 || (n_partitions & (n_partitions - 1)) != 0) {
    fail(fmt("partition count %u is not a power of two >= 4", n_partitions));
    return report;  // partition_size() below would be meaningless
  }
  const Measure ps = Measure{1} << (64u - static_cast<unsigned>(
                                              std::countr_zero(n_partitions)));

  // Registered ids as a sorted, deduplicated flat vector (a live map's
  // list is already sorted): owners are looked up by binary search, so
  // no table is sized by an id value.
  std::vector<ServerId> known = servers;
  if (!std::is_sorted(known.begin(), known.end())) {
    std::sort(known.begin(), known.end());
  }
  known.erase(std::unique(known.begin(), known.end()), known.end());
  if (known.size() != servers.size()) {
    fail(fmt("server list contains duplicates (%zu ids, %zu distinct)",
             servers.size(), known.size()));
  }

  // Disjointness: at most one record (hence one owner) per partition.
  std::vector<char> seen(n_partitions, 0);
  std::vector<ServerId> partials;  // one entry per partial partition
  Measure total = 0;
  for (const RegionMap::PartitionRecord& rec : records) {
    if (rec.index >= n_partitions) {
      fail(fmt("record for partition %u but only %u partitions exist",
               rec.index, n_partitions));
      continue;
    }
    if (seen[rec.index]) {
      fail(fmt("partition %u appears in more than one record "
               "(regions overlap)",
               rec.index));
      continue;
    }
    seen[rec.index] = 1;
    if (!std::binary_search(known.begin(), known.end(), rec.owner)) {
      fail(fmt("partition %u owned by unregistered server %u", rec.index,
               rec.owner.value));
    }
    if (rec.fill == 0 || rec.fill > ps) {
      fail(fmt("partition %u fill out of (0, partition_size]", rec.index));
      continue;
    }
    if (rec.fill < ps) partials.push_back(rec.owner);
    total += rec.fill;
  }

  // One-partial: "a server completely occupies all but one sub-region,
  // which may be partially occupied". Sorting groups each owner's
  // partials into one run, in id order.
  std::sort(partials.begin(), partials.end());
  for (auto run = partials.begin(); run != partials.end();) {
    const auto end = std::upper_bound(run, partials.end(), *run);
    if (end - run > 1) {
      fail(fmt("server %u owns %td partial partitions (at most 1 allowed)",
               run->value, end - run));
    }
    run = end;
  }

  if (expect.half_occupancy && total != hash::kHalfInterval) {
    fail(fmt("mapped measure %.17g != 1/2 (half-occupancy violated)",
             hash::to_double(total)));
  }
  const auto n = static_cast<std::uint32_t>(known.size());
  if (expect.partition_bound && n_partitions < 2 * (n + 1)) {
    fail(fmt("P=%u < 2(n+1)=%u for n=%u servers", n_partitions, 2 * (n + 1),
             n));
  }
  return report;
}

InvariantAuditor::Report InvariantAuditor::audit(const RegionMap& map) {
  const std::vector<ServerId> servers = map.server_ids();
  const std::vector<RegionMap::PartitionRecord> records = map.dump();
  Expectations expect;
  expect.half_occupancy = false;  // legitimate mid-setup states hold less
  expect.partition_bound = false;
  Report report =
      audit_records(map.space().count(), servers, records, expect);
  const auto fail = [&report](std::string msg) {
    report.violations.push_back(std::move(msg));
  };

  // Cross-check the record dump against every public query: a map whose
  // internal indexes drifted from its partition table answers these
  // inconsistently even if each view is self-consistent.
  const PartitionSpace& space = map.space();
  const Measure ps = space.partition_size();
  // Fills summed by owner id up to the map's largest registered id (the
  // map holds a table that size already), and the occupied partitions.
  const std::size_t id_bound =
      servers.empty() ? 0 : std::size_t{servers.back().value} + 1;
  std::vector<Measure> fill_by_owner(id_bound, 0);
  std::vector<char> occupied(space.count(), 0);
  Measure total = 0;
  for (const RegionMap::PartitionRecord& rec : records) {
    if (rec.owner.value < id_bound) fill_by_owner[rec.owner.value] += rec.fill;
    if (rec.index < space.count()) occupied[rec.index] = 1;
    total += rec.fill;

    // owner_at must see the prefix [start, start+fill) as rec.owner and
    // the suffix (if any) as unmapped.
    const Pos start = space.partition_start(rec.index);
    const auto front = map.owner_at(start);
    if (!front || *front != rec.owner) {
      fail(fmt("owner_at(start of partition %u) disagrees with dump",
               rec.index));
    }
    const auto last = map.owner_at(start + (rec.fill - 1));
    if (!last || *last != rec.owner) {
      fail(fmt("owner_at(last mapped point of partition %u) disagrees "
               "with dump",
               rec.index));
    }
    if (rec.fill < ps && map.owner_at(start + rec.fill).has_value()) {
      fail(fmt("partition %u: point just past fill is mapped", rec.index));
    }
  }
  if (total != map.total_share()) {
    fail(fmt("dump sums to %.17g but total_share() reports %.17g",
             hash::to_double(total), hash::to_double(map.total_share())));
  }
  const auto free_expected = static_cast<std::uint32_t>(
      std::count(occupied.begin(), occupied.end(), char{0}));
  if (map.free_partition_count() != free_expected) {
    fail(fmt("free_partition_count()=%u but dump leaves %u unowned",
             map.free_partition_count(), free_expected));
  }
  // Unmapped partitions really answer "nobody".
  for (std::uint32_t p = 0; p < space.count(); ++p) {
    if (occupied[p] == 0 &&
        map.owner_at(space.partition_start(p)).has_value()) {
      fail(fmt("partition %u absent from dump but owner_at sees an owner",
               p));
    }
  }
  // share() and segments() agree with the records, and each server's
  // segments are sorted, non-empty, and pairwise disjoint.
  for (const ServerId id : servers) {
    const Measure expected = fill_by_owner[id.value];
    if (map.share(id) != expected) {
      fail(fmt("server %u: share() != sum of its dumped fills", id.value));
    }
    Measure seg_total = 0;
    Pos prev_end = 0;
    bool first = true;
    for (const Segment& seg : map.segments(id)) {
      if (seg.measure() == 0) {
        fail(fmt("server %u: empty segment reported", id.value));
      }
      // end may wrap to 0 only for a segment touching the interval top,
      // which is necessarily the last one; begin ordering still holds.
      if (!first && seg.begin < prev_end) {
        fail(fmt("server %u: segments out of order or overlapping",
                 id.value));
      }
      seg_total += seg.measure();
      prev_end = seg.end;
      first = false;
    }
    if (seg_total != expected) {
      fail(fmt("server %u: segments sum != dumped fills", id.value));
    }
  }
  return report;
}

InvariantAuditor::Report InvariantAuditor::audit(const AnuSystem& system) {
  const RegionMap& map = system.regions();
  Report report = audit(map);
  const auto fail = [&report](std::string msg) {
    report.violations.push_back(std::move(msg));
  };

  if (map.total_share() != hash::kHalfInterval) {
    fail(fmt("system mapped measure %.17g != 1/2 (half-occupancy)",
             hash::to_double(map.total_share())));
  }
  if (!map.space().sufficient_for(map.server_count())) {
    fail(fmt("P=%u < 2(n+1)=%u (partition bound)", map.space().count(),
             2 * (map.server_count() + 1)));
  }
  // The constructive consequence the paper relies on: at half occupancy
  // with the bound satisfied, a wholly free partition must exist for the
  // next recovering server.
  if (report.ok() && map.free_partition_count() == 0) {
    fail("no free partition despite half-occupancy and P >= 2(n+1)");
  }
  return report;
}

void InvariantAuditor::enforce(const RegionMap& map) {
  const Report report = audit(map);
  if (report.ok()) return;
  std::fprintf(stderr, "anufs: invariant audit failed (RegionMap): %s\n",
               report.to_string().c_str());
  std::abort();
}

void InvariantAuditor::enforce(const AnuSystem& system) {
  const Report report = audit(system);
  if (report.ok()) return;
  std::fprintf(stderr, "anufs: invariant audit failed (AnuSystem): %s\n",
               report.to_string().c_str());
  std::abort();
}

bool InvariantAuditor::enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

void InvariantAuditor::refresh_enabled() {
  g_enabled.store(compute_enabled(), std::memory_order_relaxed);
}

std::uint64_t InvariantAuditor::audits_performed() noexcept {
  return g_audits.load(std::memory_order_relaxed);
}

namespace detail {

void maybe_audit(const RegionMap& map) {
  if (InvariantAuditor::enabled()) InvariantAuditor::enforce(map);
}

void maybe_audit(const AnuSystem& system) {
  if (InvariantAuditor::enabled()) InvariantAuditor::enforce(system);
}

}  // namespace detail

}  // namespace anufs::core
