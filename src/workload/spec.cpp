#include "workload/spec.h"

#include <algorithm>

namespace anufs::workload {

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

}  // namespace anufs::workload
