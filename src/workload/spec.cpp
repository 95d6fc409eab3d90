#include "workload/spec.h"

#include <algorithm>
#include <cstdint>

namespace anufs::workload {

namespace {

/// Records per coarse bucket when times are spread evenly. 1024 records
/// of 24 bytes (24 KB) fit in L1 for the fine pass, and at 1M records
/// the coarse pass writes through ~1000 bucket heads instead of ~3900,
/// few enough for their cache lines and pages to stay resident.
constexpr std::size_t kBucketTarget = 1024;
/// A coarse bucket above this many records goes to std::sort instead.
constexpr std::size_t kBucketCap = 4 * kBucketTarget;
/// How far ahead of a bucket head the coarse pass prefetches, in records
/// (three cache lines): the next visit to that head finds its line ready.
constexpr std::size_t kPrefetchAhead = 8;

bool arrives_before(const RequestEvent& a, const RequestEvent& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.file_set.value != b.file_set.value) {
    return a.file_set.value < b.file_set.value;
  }
  return a.demand < b.demand;
}

/// floor(u) clamped to [0, n). Monotone in u, so bucket order is time
/// order; u >= n (a time equal to the duration) lands in the last bucket.
std::size_t bucket_of(double u, std::size_t n) {
  return u < static_cast<double>(n) ? static_cast<std::size_t>(u) : n - 1;
}

void insertion_sort(RequestEvent* first, RequestEvent* last) {
  for (RequestEvent* i = first + 1; i < last; ++i) {
    if (!arrives_before(*i, i[-1])) continue;
    const RequestEvent r = *i;
    RequestEvent* j = i;
    do {
      *j = j[-1];
      --j;
    } while (j > first && arrives_before(r, j[-1]));
    *j = r;
  }
}

}  // namespace

std::vector<std::uint64_t> Workload::per_set_counts() const {
  std::vector<std::uint64_t> counts(file_sets.size(), 0);
  for (const RequestEvent& r : requests) ++counts[r.file_set.value];
  return counts;
}

double Workload::activity_skew() const {
  const std::vector<std::uint64_t> counts = per_set_counts();
  std::uint64_t mx = 0;
  std::uint64_t mn = ~std::uint64_t{0};
  for (const std::uint64_t c : counts) {
    mx = std::max(mx, c);
    if (c > 0) mn = std::min(mn, c);
  }
  if (mx == 0 || mn == 0 || mn == ~std::uint64_t{0}) return 0.0;
  return static_cast<double>(mx) / static_cast<double>(mn);
}

void Workload::validate() const {
  for (std::size_t i = 0; i < file_sets.size(); ++i) {
    ANUFS_ENSURES(file_sets[i].id.value == i);
    ANUFS_ENSURES(!file_sets[i].name.empty());
  }
  sim::SimTime prev = 0.0;
  for (const RequestEvent& r : requests) {
    ANUFS_ENSURES(r.time >= prev);
    ANUFS_ENSURES(r.time <= duration);
    ANUFS_ENSURES(r.file_set.value < file_sets.size());
    ANUFS_ENSURES(r.demand > 0.0);
    prev = r.time;
  }
}

void sort_by_time(std::vector<RequestEvent>& requests,
                  sim::SimTime duration) {
  ANUFS_EXPECTS(duration > 0.0);
  if (requests.empty()) return;
  const std::size_t n = requests.size();
  const std::size_t buckets = (n + kBucketTarget - 1) / kBucketTarget;
  const double scale = static_cast<double>(buckets) / duration;
  const auto coarse = [&](const RequestEvent& r) {
    return bucket_of(r.time * scale, buckets);
  };

  // Coarse pass: count, prefix-sum, then permute in place. start[b] is
  // the first slot of bucket b; next[b] its first slot not yet filled.
  std::vector<std::size_t> start(buckets + 1, 0);
  for (const RequestEvent& r : requests) {
    ANUFS_EXPECTS(r.time >= 0.0 && r.time <= duration);
    ++start[coarse(r) + 1];
  }
  for (std::size_t b = 0; b < buckets; ++b) start[b + 1] += start[b];
  std::vector<std::size_t> next(start.begin(), start.end() - 1);
  RequestEvent* const a = requests.data();
  for (std::size_t b = 0; b < buckets; ++b) {
    while (next[b] < start[b + 1]) {
      // Carry the record at the fill point to its bucket, taking the
      // record there in exchange, until one belongs in bucket b.
      RequestEvent r = a[next[b]];
      for (std::size_t k = coarse(r); k != b; k = coarse(r)) {
        __builtin_prefetch(a + std::min(next[k] + kPrefetchAhead, n - 1));
        std::swap(r, a[next[k]++]);
      }
      a[next[b]++] = r;
    }
  }

  // Fine pass: one sub-bucket per record, distributed through a reused
  // scratch buffer, then an insertion sort that only moves records
  // sharing a sub-bucket.
  std::vector<RequestEvent> scratch;
  std::vector<std::uint32_t> slot;
  for (std::size_t b = 0; b < buckets; ++b) {
    RequestEvent* const first = a + start[b];
    const std::size_t k = start[b + 1] - start[b];
    if (k < 2) continue;
    if (k > kBucketCap) {
      std::sort(first, first + k, arrives_before);
      continue;
    }
    const double base = static_cast<double>(b);
    const double fine_scale = static_cast<double>(k);
    const auto fine = [&](const RequestEvent& r) {
      return bucket_of((r.time * scale - base) * fine_scale, k);
    };
    slot.assign(k + 1, 0);
    for (std::size_t i = 0; i < k; ++i) ++slot[fine(first[i]) + 1];
    for (std::size_t s = 0; s < k; ++s) slot[s + 1] += slot[s];
    if (scratch.size() < k) scratch.resize(k);
    for (std::size_t i = 0; i < k; ++i) {
      scratch[slot[fine(first[i])]++] = first[i];
    }
    insertion_sort(scratch.data(), scratch.data() + k);
    std::copy_n(scratch.data(), k, first);
  }
}

}  // namespace anufs::workload
