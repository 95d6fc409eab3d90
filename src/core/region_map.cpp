#include "core/region_map.h"

#include <algorithm>

#include "core/invariant_auditor.h"

namespace anufs::core {

RegionMap::RegionMap(std::uint32_t n_partitions)
    : space_(n_partitions), free_(space_.count()) {
  part_owners_.assign(space_.count(), kInvalidServer);
  part_fills_.assign(space_.count(), 0);
  part_stamps_.assign(space_.count(), 0);
  for (std::uint32_t p = 0; p < space_.count(); ++p) free_.insert(p);
}

// anufs-lint: safe(G1) accessor: hands out a mutable alias without
// changing state itself; every mutating caller stamps what it touches.
RegionMap::ServerRegions& RegionMap::regions_of(ServerId id) {
  const std::uint32_t slot = slot_of(id);
  ANUFS_EXPECTS(slot != kNoSlot);
  return slots_[slot];
}

const RegionMap::ServerRegions& RegionMap::regions_of(ServerId id) const {
  const std::uint32_t slot = slot_of(id);
  ANUFS_EXPECTS(slot != kNoSlot);
  return slots_[slot];
}

void RegionMap::add_server(ServerId id) {
  ANUFS_EXPECTS(!has_server(id));
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = ServerRegions{};
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  if (id.value >= id_to_slot_.size()) {
    id_to_slot_.resize(id.value + 1, kNoSlot);
  }
  id_to_slot_[id.value] = slot;
  alive_ids_.insert(
      std::upper_bound(alive_ids_.begin(), alive_ids_.end(), id), id);
  ++generation_;
  membership_stamp_ = generation_;
  detail::maybe_audit(*this);
  notify_mutation();
}

void RegionMap::remove_server(ServerId id) {
  const std::uint32_t slot = slot_of(id);
  ANUFS_EXPECTS(slot != kNoSlot);
  ++generation_;
  membership_stamp_ = generation_;
  ServerRegions& sr = slots_[slot];
  for (const std::uint32_t p : sr.full) release_partition(p);
  if (sr.partial) release_partition(*sr.partial);
  total_ -= sr.share;
  sr = ServerRegions{};
  id_to_slot_[id.value] = kNoSlot;
  free_slots_.push_back(slot);
  alive_ids_.erase(
      std::find(alive_ids_.begin(), alive_ids_.end(), id));
  detail::maybe_audit(*this);
  notify_mutation();
}

std::vector<ServerId> RegionMap::server_ids() const { return alive_ids_; }

void RegionMap::release_partition(std::uint32_t p) {
  part_owners_[p] = kInvalidServer;
  part_fills_[p] = 0;
  free_.insert(p);
  touch(p);
}

void RegionMap::claim_free(ServerId id, ServerRegions& sr, Measure fill) {
  ANUFS_EXPECTS(fill > 0 && fill <= part_size());
  ANUFS_ENSURES(!free_.empty());  // guaranteed by P >= 2(n+1), see header
  const std::uint32_t p = free_.first();
  free_.erase(p);
  part_owners_[p] = id;
  part_fills_[p] = fill;
  touch(p);
  if (fill == part_size()) {
    sr.full.insert(
        std::lower_bound(sr.full.begin(), sr.full.end(), p), p);
  } else {
    ANUFS_ENSURES(!sr.partial.has_value());
    sr.partial = p;
  }
}

void RegionMap::grow(ServerId id, ServerRegions& sr, Measure delta) {
  const Measure ps = part_size();
  // 1. Top up the existing partial partition in place.
  if (delta > 0 && sr.partial) {
    const std::uint32_t p = *sr.partial;
    const Measure headroom = ps - part_fills_[p];
    const Measure take = std::min(delta, headroom);
    part_fills_[p] += take;
    touch(p);
    delta -= take;
    if (part_fills_[p] == ps) {
      sr.full.insert(
          std::lower_bound(sr.full.begin(), sr.full.end(), p), p);
      sr.partial.reset();
    }
  }
  // 2. Claim whole free partitions.
  while (delta >= ps) {
    claim_free(id, sr, ps);
    delta -= ps;
  }
  // 3. Start a fresh partial for the remainder.
  if (delta > 0) claim_free(id, sr, delta);
}

void RegionMap::shrink(ServerRegions& sr, Measure delta) {
  const Measure ps = part_size();
  // 1. Trim the partial partition first (it is the region's "top").
  if (delta > 0 && sr.partial) {
    const std::uint32_t p = *sr.partial;
    const Measure take = std::min(delta, part_fills_[p]);
    part_fills_[p] -= take;
    touch(p);
    delta -= take;
    if (part_fills_[p] == 0) {
      release_partition(p);
      sr.partial.reset();
    }
  }
  // 2. Release whole full partitions (highest-numbered first, so a
  //    server's low partitions stay put across repeated reshaping).
  while (delta >= ps) {
    ANUFS_ENSURES(!sr.full.empty());
    release_partition(sr.full.back());
    sr.full.pop_back();
    delta -= ps;
  }
  // 3. Convert one full partition into the new partial.
  if (delta > 0) {
    ANUFS_ENSURES(!sr.full.empty() && !sr.partial.has_value());
    const std::uint32_t p = sr.full.back();
    sr.full.pop_back();
    part_fills_[p] = ps - delta;
    touch(p);
    sr.partial = p;
  }
}

void RegionMap::resize_step(ServerId id, Measure target) {
  ServerRegions& sr = regions_of(id);
  if (target == sr.share) return;  // nothing to touch, no new epoch
  ++generation_;
  if (target > sr.share) {
    const Measure delta = target - sr.share;
    grow(id, sr, delta);
    total_ += delta;
  } else {
    const Measure delta = sr.share - target;
    shrink(sr, delta);
    total_ -= delta;
  }
  sr.share = target;
}

void RegionMap::resize(ServerId id, Measure target) {
  resize_step(id, target);
  detail::maybe_audit(*this);
  notify_mutation();
}

std::uint32_t RegionMap::rebalance_to(
    const std::vector<std::pair<ServerId, Measure>>& targets) {
  // Shrinks first: frees the measure the grows will claim. Both passes
  // iterate in ServerId order for determinism; the sort (and its copy)
  // is skipped entirely when the caller already hands us sorted targets
  // — every in-tree caller does.
  std::vector<std::pair<ServerId, Measure>> scratch;
  const std::vector<std::pair<ServerId, Measure>>* ordered = &targets;
  if (!std::is_sorted(targets.begin(), targets.end())) {
    scratch = targets;
    std::sort(scratch.begin(), scratch.end());
    ordered = &scratch;
  }
  std::uint32_t touched = 0;
  for (const auto& [id, target] : *ordered) {
    if (target < share(id)) {
      resize_step(id, target);
      ++touched;
    }
  }
  for (const auto& [id, target] : *ordered) {
    if (target > share(id)) {
      resize_step(id, target);
      ++touched;
    }
  }
  ANUFS_ENSURES(total_ <= hash::kHalfInterval);
  detail::maybe_audit(*this);
  // One notification per batch, not per member: the hook observes op
  // boundaries (valid configurations), never mid-rebalance states.
  notify_mutation();
  return touched;
}

void RegionMap::repartition_double() {
  ++generation_;
  space_.double_count();
  const Measure new_ps = space_.partition_size();
  const auto old_count = static_cast<std::uint32_t>(part_fills_.size());
  std::vector<ServerId> next_owners(std::size_t{2} * old_count,
                                    kInvalidServer);
  std::vector<Measure> next_fills(std::size_t{2} * old_count, 0);
  std::vector<std::uint64_t> next_stamps(std::size_t{2} * old_count);
  for (std::uint32_t p = 0; p < old_count; ++p) {
    const Measure fill = part_fills_[p];
    // Children inherit the parent's stamp: no boundary moves and no
    // placement answer changes, so derived state stays valid across a
    // repartition — exactly the paper's "no load moves" claim, carried
    // through to the caches.
    next_stamps[2 * p] = part_stamps_[p];
    next_stamps[2 * p + 1] = part_stamps_[p];
    if (fill == 0) continue;
    // Split the prefix [0, fill) across the two children.
    next_owners[2 * p] = part_owners_[p];
    next_fills[2 * p] = std::min(fill, new_ps);
    if (fill > new_ps) {
      next_owners[2 * p + 1] = part_owners_[p];
      next_fills[2 * p + 1] = fill - new_ps;
    }
  }
  part_owners_ = std::move(next_owners);
  part_fills_ = std::move(next_fills);
  part_stamps_ = std::move(next_stamps);
  // Rebuild the per-server and free-list indexes; shares are unchanged.
  free_.reset(static_cast<std::uint32_t>(part_fills_.size()));
  for (const ServerId id : alive_ids_) {
    ServerRegions& sr = regions_of(id);
    sr.full.clear();
    sr.partial.reset();
  }
  for (std::uint32_t p = 0; p < part_fills_.size(); ++p) {
    const Measure fill = part_fills_[p];
    if (fill == 0) {
      free_.insert(p);
    } else if (fill == new_ps) {
      regions_of(part_owners_[p]).full.push_back(p);  // ascending: sorted
    } else {
      ServerRegions& sr = regions_of(part_owners_[p]);
      ANUFS_ENSURES(!sr.partial.has_value());
      sr.partial = p;
    }
  }
  detail::maybe_audit(*this);
  notify_mutation();
}

std::optional<ServerId> RegionMap::owner_at(Pos x) const {
  // One probe through the same SoA view the batched path uses; a free
  // partition stores fill 0, which no offset is ever below.
  ServerId owner;
  if (owner_table().probe(x, owner)) return owner;
  return std::nullopt;
}

Measure RegionMap::share(ServerId id) const { return regions_of(id).share; }

std::vector<Segment> RegionMap::segments(ServerId id) const {
  const ServerRegions& sr = regions_of(id);
  std::vector<std::uint32_t> owned = sr.full;  // already sorted
  if (sr.partial) {
    owned.insert(
        std::lower_bound(owned.begin(), owned.end(), *sr.partial),
        *sr.partial);
  }

  std::vector<Segment> out;
  for (const std::uint32_t p : owned) {
    const Pos begin = space_.partition_start(p);
    const Pos end = begin + part_fills_[p];  // may wrap to 0 at the top
    if (!out.empty() && out.back().end == begin &&
        space_.offset_in_partition(out.back().end) == 0) {
      out.back().end = end;  // merge with a preceding full partition
    } else {
      out.push_back(Segment{begin, end});
    }
  }
  return out;
}

std::vector<RegionMap::PartitionRecord> RegionMap::dump() const {
  std::vector<PartitionRecord> records;
  for (std::uint32_t p = 0; p < part_fills_.size(); ++p) {
    if (part_fills_[p] == 0) continue;
    records.push_back(
        PartitionRecord{p, part_owners_[p], part_fills_[p]});
  }
  return records;
}

void RegionMap::check_invariants() const {
  const Measure ps = part_size();
  // Partition-level consistency.
  Measure fill_total = 0;
  std::uint32_t free_seen = 0;
  ANUFS_ENSURES(part_owners_.size() == part_fills_.size());
  for (std::uint32_t p = 0; p < part_fills_.size(); ++p) {
    const Measure fill = part_fills_[p];
    ANUFS_ENSURES(fill <= ps);
    if (fill == 0) {
      ANUFS_ENSURES(free_.contains(p));
      ANUFS_ENSURES(part_owners_[p] == kInvalidServer);
      ++free_seen;
    } else {
      ANUFS_ENSURES(!free_.contains(p));
      ANUFS_ENSURES(has_server(part_owners_[p]));
    }
    fill_total += fill;
  }
  ANUFS_ENSURES(free_seen == free_.size());
  ANUFS_ENSURES(fill_total == total_);

  // Server-level consistency: share accounting, the one-partial rule,
  // and the dense id->slot table agreeing with the alive list.
  Measure share_total = 0;
  for (const ServerId id : alive_ids_) {
    const std::uint32_t slot = slot_of(id);
    ANUFS_ENSURES(slot != kNoSlot && slot < slots_.size());
    const ServerRegions& sr = slots_[slot];
    ANUFS_ENSURES(std::is_sorted(sr.full.begin(), sr.full.end()));
    Measure s = 0;
    for (const std::uint32_t p : sr.full) {
      ANUFS_ENSURES(part_owners_[p] == id && part_fills_[p] == ps);
      s += ps;
    }
    if (sr.partial) {
      const std::uint32_t p = *sr.partial;
      ANUFS_ENSURES(part_owners_[p] == id);
      ANUFS_ENSURES(part_fills_[p] > 0 && part_fills_[p] < ps);
      s += part_fills_[p];
    }
    ANUFS_ENSURES(s == sr.share);
    share_total += s;
  }
  ANUFS_ENSURES(share_total == total_);
  ANUFS_ENSURES(alive_ids_.size() + free_slots_.size() == slots_.size());

  // Free-partition guarantee (paper Section 4): at half occupancy with
  // P >= 2(n+1) there is always somewhere to put a recovered server.
  if (total_ == hash::kHalfInterval && space_.sufficient_for(server_count())) {
    ANUFS_ENSURES(!free_.empty());
  }
}

}  // namespace anufs::core
