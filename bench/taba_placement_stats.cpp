// Table A (Section 4 claims): placement-probe statistics and load
// balance of ANU randomization vs simple randomization.
//
// Verifies, by direct Monte-Carlo over the placement map:
//  * mean probes per locate ~= 2 at half occupancy ("On average, the
//    system requires two probes to assign a file set");
//  * direct-to-server fallback probability ~= 2^-R;
//  * with equal regions (homogeneous steady state), the max/mean
//    file-set load under ANU region placement vs hashing straight to a
//    server ("server scaling results in better load balance than simple
//    randomization even when all servers and all file sets are
//    homogeneous" — here we show the two mechanisms' raw variance, and
//    that ANU can reshape while simple randomization cannot).
#include <iostream>
#include <vector>

#include "core/anu_system.h"
#include "hash/hash_family.h"
#include "metrics/emit.h"
#include "metrics/summary.h"
#include "sim/random.h"

int main() {
  using namespace anufs;
  metrics::TableEmitter table(
      std::cout, {"servers", "file_sets", "mean_probes", "fallback_frac",
                  "anu_max/mean", "simple_max/mean", "anu_cv", "simple_cv"});
  table.header(
      "Table A: probe statistics and homogeneous load balance, "
      "ANU (equal regions) vs simple randomization");

  for (const std::uint32_t n : {4u, 8u, 16u, 32u, 64u}) {
    for (const std::uint32_t sets_per_server : {10u, 100u}) {
      const std::uint32_t m = n * sets_per_server;
      std::vector<ServerId> servers;
      for (std::uint32_t i = 0; i < n; ++i) servers.push_back(ServerId{i});
      const core::AnuSystem system{core::AnuConfig{}, servers};
      const hash::HashFamily family{core::AnuConfig{}.placement.salt};

      sim::Xoshiro256 rng = sim::make_stream(99, "taba", n * 1000 + m);
      std::vector<double> anu_load(n, 0.0);
      std::vector<double> simple_load(n, 0.0);
      double probes = 0.0;
      double fallbacks = 0.0;
      for (std::uint32_t i = 0; i < m; ++i) {
        const std::uint64_t fp = rng();
        const core::LocateResult loc = system.locate_detailed(fp);
        probes += loc.probes;
        fallbacks += loc.fallback ? 1.0 : 0.0;
        anu_load[loc.server.value] += 1.0;
        simple_load[family.fallback_server(fp, n)] += 1.0;
      }
      const metrics::Summary anu = metrics::summarize(anu_load);
      const metrics::Summary simple = metrics::summarize(simple_load);
      table.row({std::to_string(n), std::to_string(m),
                 metrics::TableEmitter::num(probes / m, 3),
                 metrics::TableEmitter::num(fallbacks / m, 6),
                 metrics::TableEmitter::num(anu.max / anu.mean, 3),
                 metrics::TableEmitter::num(simple.max / simple.mean, 3),
                 metrics::TableEmitter::num(anu.cv(), 3),
                 metrics::TableEmitter::num(simple.cv(), 3)});
    }
  }
  std::cout << "# expected: mean_probes ~2, fallback ~"
            << metrics::TableEmitter::num(
                   1.0 / (1 << core::PlacementConfig{}.max_rounds), 6)
            << " (2^-" << core::PlacementConfig{}.max_rounds << ")\n";
  return 0;
}
