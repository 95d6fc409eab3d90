#include "core/placement.h"

#include <algorithm>
#include <atomic>
#include <cstddef>

namespace anufs::core {

namespace {

// Set only by testing::force_portable_locate.
std::atomic<bool> g_force_portable{false};

// The owner table leaves L1 once the partition count clears ~4096
// (32 KiB of fills + 16 KiB of owners). Below that every probe is an
// L1 hit and a prefetch pass is pure issue-port overhead; above it the
// gathers/loads stall and hinting the lines one pass ahead pays.
[[nodiscard]] constexpr bool table_exceeds_l1(
    const RegionMap::OwnerTable& table) {
  return (64u - table.shift) >= 12u;
}

}  // namespace

void testing::force_portable_locate(bool on) noexcept {
  g_force_portable.store(on, std::memory_order_relaxed);
}

// Probe-round core shared by the scalar and batched paths. Lane state is
// kept as parallel stack arrays (fingerprint, original index, probe
// position): round r mixes every still-unresolved lane with one
// multi-lane finalizer pass, then probes and compacts. A lane that
// resolves at round r is compacted out before round r+1, so it cannot
// perturb the later rounds of other lanes — surviving lanes see exactly
// the probe sequence the scalar loop would have given them.
//
// The per-lane result write is unconditional (branchless): a lane that
// missed writes garbage, but a missing lane stays live and is either
// overwritten by its first hitting round or by the fallback sweep. Once
// a lane hits it leaves the live set, so its result is never touched
// again — this is what makes each out[i] bit-identical to locate(fps[i]).
// (A conditional store would be cheaper in stores but costs a ~50%
// mispredict per lane-round at half occupancy, which is far worse.)
void PlacementMap::locate_chunk(const RegionMap::OwnerTable& table,
                                const std::vector<ServerId>& alive,
                                const std::uint64_t* fps, std::uint32_t n,
                                LocateResult* out) const {
#if ANUFS_MIX64_X8
  static const bool use_x8 = __builtin_cpu_supports("avx512f") &&
                             __builtin_cpu_supports("avx512dq") &&
                             __builtin_cpu_supports("avx512vl");
  if (use_x8 && n >= 8 && !g_force_portable.load(std::memory_order_relaxed)) {
    locate_chunk_x8(table, alive, fps, n, out);
    return;
  }
#endif
  std::uint64_t live_fp[kBatchLanes];
  std::uint32_t live_ix[kBatchLanes];
  hash::Pos pos[kBatchLanes];
  for (std::uint32_t l = 0; l < n; ++l) {
    live_fp[l] = fps[l];
    live_ix[l] = l;
  }
  const bool want_prefetch = table_exceeds_l1(table);
  std::uint32_t live = n;
  for (std::uint32_t round = 0; round < config_.max_rounds && live > 0;
       ++round) {
    family_.probe_many(live_fp, live, round, pos);
    if (want_prefetch) {
      for (std::uint32_t l = 0; l < live; ++l) table.prefetch(pos[l]);
    }
    std::uint32_t kept = 0;
    for (std::uint32_t l = 0; l < live; ++l) {
      ServerId owner;
      const bool hit = table.probe(pos[l], owner);
      const std::uint32_t ix = live_ix[l];
      out[ix] = LocateResult{owner, round + 1, false, pos[l]};
      live_fp[kept] = live_fp[l];
      live_ix[kept] = ix;
      kept += static_cast<std::uint32_t>(!hit);
    }
    live = kept;
  }
  // Lanes that exhausted every round take the direct-to-server fallback.
  for (std::uint32_t l = 0; l < live; ++l) {
    out[live_ix[l]] = resolve_fallback(alive, live_fp[l]);
  }
}

#if ANUFS_MIX64_X8
// See mix64.h: the unmasked-shift intrinsics trip a header false
// positive under -Wmaybe-uninitialized.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

// Vector body: the same round-major compacted loop over a whole serving
// batch, restructured so the per-lane work is full-width stores instead
// of struct stores. Round r mixes every live lane with one vpmullq
// finalizer pass (hash::probe_x8) and gathers only the fill column — the
// hit test needs just fills, and the owner is recomputed from the
// winning position in the final sweep with one L1 load, which halves
// the gather traffic (the dominant cost on every x86 core we run on).
// Miss lanes compact in place for the next pass, so gather work stays
// proportional to total probes (~2n at half occupancy), not to lanes x
// rounds. Lane arithmetic is the exact scalar recurrence (same mixer
// constants, shifts, unsigned compare), so out[i] is bit-identical to
// locate(fps[i]) on all four fields.
//
// Answers are staged by lane index, so out[] is written in one
// sequential sweep instead of a scatter. The first pass visits lanes in
// order and stores every lane's blended position and probe count
// straight into the lane-indexed staging (a lane that missed both rounds
// stores garbage there, which a later pass or the tail replaces). Later
// passes see compacted lanes, so their winners append (lane index,
// position, probe count) to compressed streams that are placed by lane
// index once the passes end.
//
// In-place compaction safety: each group is loaded into registers
// before its compressed stores, and the miss write cursor never passes
// the group's read position, so a store only touches consumed lanes.
// The last group of a pass may be ragged; its dead lanes are masked out
// of the loads, the gathers and every compressed stream.
__attribute__((target("avx512f,avx512dq,avx512vl"))) void
PlacementMap::locate_chunk_x8(const RegionMap::OwnerTable& table,
                              const std::vector<ServerId>& alive,
                              const std::uint64_t* fps, std::uint32_t n,
                              LocateResult* out) const {
  // Seven lanes of tail padding: the stream stores below are full
  // 512-bit stores whose cursor is only advanced by popcount, so a store
  // issued at cursor <= kBatchLanes - 1 touches up to 7 slots past the
  // last live entry. The lane-indexed stores start at multiples of 8
  // below n <= kBatchLanes (a multiple of 8), so they stay inside.
  constexpr std::uint32_t kPad = 7;
  static_assert(kBatchLanes % 8 == 0);
  std::uint64_t live_fp[kBatchLanes + kPad];
  std::uint32_t live_ix[kBatchLanes + kPad];
  std::uint64_t pos_stream[kBatchLanes + kPad];
  std::uint64_t meta_stream[kBatchLanes + kPad];  // lane index | probes << 32
  std::uint64_t lane_pos[kBatchLanes];
  std::uint32_t lane_probes[kBatchLanes];
  const __m128i vshift = _mm_cvtsi32_si128(static_cast<int>(table.shift));
  const __m512i voffmask = hash::broadcast_u64(table.offset_mask);
  const __m256i viota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i vone = _mm256_set1_epi32(1);  // first-pass probe counts
  const __m256i vtwo = _mm256_set1_epi32(2);
  std::uint32_t live = n;
  std::uint32_t found = 0;
  std::uint32_t round = 0;
  // Vector passes pay off while there are enough lanes to pipeline
  // independent groups. Each pass runs TWO probe rounds on a group
  // before anything is staged back to memory: the misses of round r
  // remix in-register for round r+1 (the even/odd finalizers are fixed
  // by parity, so round r is always mix64 and r+1 always mix64_v2
  // here), which quarters the surviving set per pass (256 -> ~64 ->
  // ~16 -> ~4 lanes). Once the geometric tail thins past one group,
  // more masked rounds would serialize full mixer->gather->compare
  // latency chains, so the survivors switch to lane-major chasing below.
  for (; round + 2 <= config_.max_rounds && live > 8; round += 2) {
    const __m512i vpk_a =
        hash::broadcast_u64(static_cast<std::uint64_t>(round + 1) << 32);
    const __m512i vpk_b =
        hash::broadcast_u64(static_cast<std::uint64_t>(round + 2) << 32);
    const __m512i vpre_a = hash::broadcast_u64(family_.round_pre(round));
    const __m512i vpre_b = hash::broadcast_u64(family_.round_pre(round + 1));
    // The first pass reads the caller's fingerprints in place,
    // synthesizes lane indices and stages its answers by lane; only its
    // misses land in the compacted arrays.
    const bool first = round == 0;
    const std::uint64_t* const src_fp = first ? fps : live_fp;
    std::uint32_t kept = 0;
    for (std::uint32_t l = 0; l < live; l += 8) {
      const __mmask8 lanes =
          live - l >= 8 ? static_cast<__mmask8>(0xFF)
                        : static_cast<__mmask8>((1u << (live - l)) - 1);
      // Masked load: the last group of a pass may be ragged, and an
      // unmasked load there would read past the caller's span.
      const __m512i fp = _mm512_maskz_loadu_epi64(lanes, src_fp + l);
      const __m256i ix =
          first
              ? _mm256_add_epi32(viota, _mm256_set1_epi32(static_cast<int>(l)))
              : _mm256_maskz_loadu_epi32(lanes, live_ix + l);
      // Subround a (even round): mix64 lane arithmetic.
      const __m512i pos_a = hash::mix64_x8(_mm512_xor_si512(fp, vpre_a));
      const __m512i part_a = _mm512_srl_epi64(pos_a, vshift);
      const __m512i fills_a = _mm512_mask_i64gather_epi64(
          _mm512_setzero_si512(), lanes, part_a, table.fills, 8);
      const __m512i off_a = _mm512_and_si512(pos_a, voffmask);
      const __mmask8 hit_a =
          _mm512_cmp_epu64_mask(off_a, fills_a, _MM_CMPINT_LT);
      // Subround b (odd round): mix64_v2. The gather deliberately runs
      // over ALL in-group lanes, not just round a's misses: every
      // pos>>shift is a valid partition index, so the full-width gather
      // is safe, and masking the hit test afterwards (rather than the
      // gather) keeps the two gathers independent — a gather masked by
      // `open` could not even start until round a's gather, compare and
      // mask-not had retired, serializing two ~20-cycle latency chains
      // per group.
      const __mmask8 open = static_cast<__mmask8>(~hit_a & lanes);
      const __m512i pos_b = hash::mix64_v2_x8(_mm512_xor_si512(fp, vpre_b));
      const __m512i part_b = _mm512_srl_epi64(pos_b, vshift);
      const __m512i fills_b = _mm512_mask_i64gather_epi64(
          _mm512_setzero_si512(), lanes, part_b, table.fills, 8);
      const __m512i off_b = _mm512_and_si512(pos_b, voffmask);
      const __mmask8 hit_b = static_cast<__mmask8>(
          _mm512_cmp_epu64_mask(off_b, fills_b, _MM_CMPINT_LT) & open);
      // hit_a and hit_b are disjoint (b only probed a's misses), so a
      // lane's answer is round a's position and probe count blended with
      // round b's where b hit.
      const __m512i pos_h = _mm512_mask_blend_epi64(hit_b, pos_a, pos_b);
      if (first) {
        _mm512_storeu_si512(static_cast<void*>(lane_pos + l), pos_h);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(lane_probes + l),
                            _mm256_mask_blend_epi32(hit_b, vone, vtwo));
      } else {
        // Winners append as ONE compressed store each for position and
        // for (index, probes), packed into a single 64-bit lane. Stream
        // order within a group is irrelevant because every staged index
        // is distinct. Compress in REGISTERS and store full width rather
        // than using vpcompressstore: a plain store forwards and
        // disambiguates normally against the loads of the next pass,
        // where a masked compressed store would stall them. The lanes
        // past the popcount are garbage, but every cursor advances by
        // popcount only, so a later store overwrites them and no reader
        // ever passes a cursor; the kPad slack absorbs the final
        // store's overhang.
        const __mmask8 hits = static_cast<__mmask8>(hit_a | hit_b);
        const __m512i meta_h = _mm512_or_si512(
            _mm512_cvtepu32_epi64(ix),
            _mm512_mask_blend_epi64(hit_b, vpk_a, vpk_b));
        _mm512_storeu_si512(static_cast<void*>(pos_stream + found),
                            _mm512_maskz_compress_epi64(hits, pos_h));
        _mm512_storeu_si512(static_cast<void*>(meta_stream + found),
                            _mm512_maskz_compress_epi64(hits, meta_h));
        found += static_cast<std::uint32_t>(
            __builtin_popcount(static_cast<unsigned>(hits)));
      }
      const __mmask8 miss = static_cast<__mmask8>(open & ~hit_b);
      _mm512_storeu_si512(static_cast<void*>(live_fp + kept),
                          _mm512_maskz_compress_epi64(miss, fp));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(live_ix + kept),
                          _mm256_maskz_compress_epi32(miss, ix));
      kept += static_cast<std::uint32_t>(
          __builtin_popcount(static_cast<unsigned>(miss)));
    }
    live = kept;
  }
  // One sequential sweep writes every lane's answer; the later passes'
  // winners are placed by lane index first. The owner is reloaded from
  // the position. Lanes still live here get garbage that the tail
  // overwrites.
  if (round > 0) {
    for (std::uint32_t k = 0; k < found; ++k) {
      const std::uint64_t meta = meta_stream[k];
      const auto ix = static_cast<std::uint32_t>(meta);
      lane_pos[ix] = pos_stream[k];
      lane_probes[ix] = static_cast<std::uint32_t>(meta >> 32);
    }
    // Eight answers per step. A LocateResult is three qwords (server |
    // probes << 32, the fallback byte and padding, position), so a
    // group's 24 qwords are three zero-masked permutes of the (owner,
    // probes) words and the positions, stored in place; a ragged last
    // group masks its loads, gather and stores to the live answers.
    static_assert(sizeof(LocateResult) == 24 &&
                  offsetof(LocateResult, probes) == 4 &&
                  offsetof(LocateResult, fallback) == 8 &&
                  offsetof(LocateResult, position) == 16);
    const __m512i perm0 = _mm512_setr_epi64(0, 0, 8, 1, 0, 9, 2, 0);
    const __m512i perm1 = _mm512_setr_epi64(10, 3, 0, 11, 4, 0, 12, 5);
    const __m512i perm2 = _mm512_setr_epi64(0, 13, 6, 0, 14, 7, 0, 15);
    for (std::uint32_t l = 0; l < n; l += 8) {
      const std::uint32_t count = std::min<std::uint32_t>(n - l, 8);
      const auto lanes = static_cast<__mmask8>((1u << count) - 1);
      const __m512i pos = _mm512_maskz_loadu_epi64(lanes, lane_pos + l);
      const __m256i owner = _mm512_mask_i64gather_epi32(
          _mm256_setzero_si256(), lanes, _mm512_srl_epi64(pos, vshift),
          table.owners, 4);
      const __m256i probes = _mm256_maskz_loadu_epi32(lanes, lane_probes + l);
      const __m512i head = _mm512_or_si512(
          _mm512_cvtepu32_epi64(owner),
          _mm512_slli_epi64(_mm512_cvtepu32_epi64(probes), 32));
      const std::uint32_t qwords = (1u << (3 * count)) - 1;
      auto* const dst = reinterpret_cast<char*>(out + l);
      _mm512_mask_storeu_epi64(
          dst, static_cast<__mmask8>(qwords),
          _mm512_maskz_permutex2var_epi64(0x6D, head, perm0, pos));
      _mm512_mask_storeu_epi64(
          dst + 64, static_cast<__mmask8>(qwords >> 8),
          _mm512_maskz_permutex2var_epi64(0xDB, head, perm1, pos));
      _mm512_mask_storeu_epi64(
          dst + 128, static_cast<__mmask8>(qwords >> 16),
          _mm512_maskz_permutex2var_epi64(0xB6, head, perm2, pos));
    }
  }
  // Lane-major tail: each survivor chases its own probe chain from the
  // round it reached — the chains are data-independent, so the core
  // overlaps them where more masked vector rounds would serialize — and
  // overwrites its lane's answer, fallbacks included. When no vector
  // round ran (n within one group), the survivors are the caller's lanes
  // themselves and the tail writes every answer.
  for (std::uint32_t l = 0; l < live; ++l) {
    const std::uint64_t fp = round == 0 ? fps[l] : live_fp[l];
    const std::uint32_t ix = round == 0 ? l : live_ix[l];
    LocateResult r{};
    bool done = false;
    for (std::uint32_t rr = round; rr < config_.max_rounds && !done; ++rr) {
      const hash::Pos p = family_.probe(fp, rr);
      ServerId owner;
      done = table.probe(p, owner);
      r = LocateResult{owner, rr + 1, false, p};
    }
    out[ix] = done ? r : resolve_fallback(alive, fp);
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // ANUFS_MIX64_X8

LocateResult PlacementMap::resolve_fallback(
    const std::vector<ServerId>& alive, std::uint64_t fp) const {
  const std::uint32_t idx = family_.fallback_server(
      fp, static_cast<std::uint32_t>(alive.size()));
  return LocateResult{alive[idx], config_.max_rounds + 1, /*fallback=*/true,
                      /*position=*/0};
}

LocateResult PlacementMap::locate(std::uint64_t fingerprint) const {
  ANUFS_EXPECTS(regions_.server_count() > 0);
  LocateResult result;
  locate_chunk(regions_.owner_table(), regions_.server_ids_view(),
               &fingerprint, 1, &result);
  return result;
}

void PlacementMap::locate_many(std::span<const std::uint64_t> fps,
                               std::span<LocateResult> out) const {
  ANUFS_EXPECTS(out.size() >= fps.size());
  ANUFS_EXPECTS(regions_.server_count() > 0);
  const RegionMap::OwnerTable table = regions_.owner_table();
  const std::vector<ServerId>& alive = regions_.server_ids_view();
  std::size_t done = 0;
  while (done < fps.size()) {
    const auto n = static_cast<std::uint32_t>(
        std::min<std::size_t>(kBatchLanes, fps.size() - done));
    locate_chunk(table, alive, fps.data() + done, n, out.data() + done);
    done += n;
  }
}

}  // namespace anufs::core
