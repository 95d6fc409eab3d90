// anufs_audit: replay a scenario with the invariant auditor forced on.
//
//   ./anufs_audit scenario.conf
//   ./anufs_audit -                  # read the config from stdin
//   ./anufs_audit --sweep seed=1..10 scenario.conf
//   ./anufs_audit --faults plan.flt --policies all scenario.conf
//
// Runs the scenario exactly as anufs_sim would (including sweeps), but
// with ANUFS_AUDIT active: after every RegionMap/AnuSystem mutation the
// placement state is independently re-audited (half-occupancy, the
// at-most-one-partial-partition rule, region disjointness/coverage, and
// P >= 2(n+1)). Any violation aborts with a full report, so a clean exit
// is a machine-checked proof that every placement decision in the replay
// respected the paper's invariants. On success prints the number of
// audit passes performed and a one-line summary per run.
//
// --faults replaces the config's fault plan with the file's, and
// --policies replays the same scenario (and plan) once per named policy
// ("all" = every shipped policy). Only ANU-family policies drive a
// RegionMap, so the zero-audit failure check applies to the whole batch:
// as long as at least one replayed policy audits, static policies ride
// along and are checked for clean completion instead.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/line_reader.h"
#include "core/invariant_auditor.h"
#include "driver/parallel_runner.h"
#include "driver/scenario.h"
#include "fault/fault_plan.h"
#include "policies/registry.h"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--jobs N] [--sweep seed=A..B] [--faults plan] "
               "[--policies p1,p2|all] <scenario.conf | ->\n"
               "registered policies: %s\n",
               argv0, anufs::policy::registered_policy_list().c_str());
  std::exit(2);
}

std::vector<std::string> split_policies(const std::string& spec,
                                        const char* argv0) {
  // "all" means exactly what the registry says it means — no parallel
  // hand-maintained list to fall out of sync.
  if (spec == "all") {
    return anufs::policy::registered_policy_names();
  }
  std::vector<std::string> out;
  for (const std::string& item : anufs::split(spec, ',')) {
    if (item.empty()) continue;
    if (anufs::policy::find_policy(item) == nullptr) {
      std::fprintf(stderr, "unknown policy '%s'\n", item.c_str());
      usage(argv0);
    }
    out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t jobs_override = 0;
  std::string sweep_override;
  std::string faults_override;
  std::string policies_override;
  const char* input = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      if (++i >= argc) usage(argv[0]);
      const std::optional<std::uint64_t> n = anufs::to_u64(argv[i]);
      if (!n.has_value()) usage(argv[0]);
      jobs_override = static_cast<std::size_t>(*n);
    } else if (std::strcmp(argv[i], "--sweep") == 0) {
      if (++i >= argc) usage(argv[0]);
      sweep_override = argv[i];
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      if (++i >= argc) usage(argv[0]);
      faults_override = argv[i];
    } else if (std::strcmp(argv[i], "--policies") == 0) {
      if (++i >= argc) usage(argv[0]);
      policies_override = argv[i];
    } else if (input == nullptr) {
      input = argv[i];
    } else {
      usage(argv[0]);
    }
  }
  if (input == nullptr) usage(argv[0]);

  anufs::driver::ScenarioConfig config = anufs::driver::load_scenario(input);
  if (!sweep_override.empty()) {
    const anufs::driver::ScenarioConfig sweep_config =
        anufs::driver::parse_scenario_text("sweep " + sweep_override + "\n");
    config.sweep_begin = sweep_config.sweep_begin;
    config.sweep_end = sweep_config.sweep_end;
  }
  if (jobs_override > 0) config.jobs = jobs_override;
  if (!faults_override.empty()) {
    config.faults = anufs::fault::load_fault_plan(faults_override);
  }

  std::vector<std::string> policies = {config.policy};
  if (!policies_override.empty()) {
    policies = split_policies(policies_override, argv[0]);
    if (policies.empty()) usage(argv[0]);
  }

  // Force auditing on regardless of build type or inherited environment.
  setenv("ANUFS_AUDIT", "1", /*overwrite=*/1);
  anufs::core::InvariantAuditor::refresh_enabled();

  const std::uint64_t before =
      anufs::core::InvariantAuditor::audits_performed();
  std::vector<anufs::driver::ScenarioConfig> runs;
  for (const std::string& policy : policies) {
    anufs::driver::ScenarioConfig per_policy = config;
    per_policy.policy = policy;
    const std::vector<anufs::driver::ScenarioConfig> expanded =
        anufs::driver::expand_sweep(per_policy);
    runs.insert(runs.end(), expanded.begin(), expanded.end());
  }
  const std::vector<anufs::cluster::RunResult> results =
      anufs::driver::run_parallel(runs, config.jobs);
  const std::uint64_t audits =
      anufs::core::InvariantAuditor::audits_performed() - before;

  for (std::size_t i = 0; i < results.size(); ++i) {
    std::printf("run %zu: policy=%s seed=%llu completed=%llu moves=%llu\n", i,
                runs[i].policy.c_str(),
                static_cast<unsigned long long>(runs[i].seed),
                static_cast<unsigned long long>(results[i].completed),
                static_cast<unsigned long long>(results[i].moves));
  }
  std::printf("audit: %llu invariant audits, 0 violations "
              "(violations abort)\n",
              static_cast<unsigned long long>(audits));
  if (audits == 0) {
    // A zero-audit replay proves nothing; flag it rather than pass.
    std::fprintf(stderr,
                 "audit: no audits ran (policy without a RegionMap?)\n");
    return 1;
  }
  return 0;
}
