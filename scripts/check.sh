#!/usr/bin/env bash
# CI-style gate: build + full test suite under every config, then the
# static-analysis pass.
#
#   default   RelWithDebInfo — the reference build
#   sanitize  ASan + UBSan — guards e.g. the hash::from_double
#             float->int overflow clamp
#   tsan      ThreadSanitizer — guards the run-level parallelism
#             (sim/thread_pool, driver/parallel_runner, bench --jobs);
#             any cross-run data race fails the suite
#   lint      clang-tidy over src/ tools/ bench/ tests/ (skips when
#             clang-tidy is not installed)
#   static    project-invariant analysis (scripts/static.sh): anufs_lint
#             D1/H1/T1/G1 over src/, P1 over src/ and tools/, the
#             lint-fixture proof, and — when
#             clang++ exists — the thread-safety capability-analysis
#             build of the `clang` preset; each sub-stage skips when its
#             toolchain is missing
#
# A skipped stage or sub-stage is never silent: the closing line names
# every one of them.
#   trace-smoke  run anufs_sim --trace on a tiny scenario (default
#             preset's build) and validate the exported JSONL against
#             scripts/check_trace_schema.py; then the same for a lossy-
#             report SAN run that must fence servers (its trace has to
#             carry `fenced` events, and the run its SAN ledger check)
#   retune-smoke  replay the 64-server control-plane churn property
#             (every tuning round keeps the tuner's contract, auditor
#             forced on) from the default preset's build — a fast
#             tripwire for anyone touching the tuner or region map
#             without running the full property suite
#   batch-smoke  replay the locate_many churn interleavings against a
#             standalone PlacementCache per twin system (batched answers
#             bit-identical to the scalar sequence, exact hit/miss
#             counts, auditor forced on) from the default preset's
#             build — the tripwire for anyone touching the mixers,
#             the owner-table layout, or the batch cache path
#   serve-smoke  a 2-thread 1-second anufs_serve run (default preset's
#             build) with --check: readers under live control-plane
#             churn, every sample replayed sequentially; fails on zero
#             throughput or any equivalence mismatch and logs the run's
#             equivalence digest
#   policy-smoke  replay one short seeded crash/recover scenario under
#             the invariant auditor for EVERY policy in the registry
#             (anufs_audit --policies all) — the tripwire for anyone
#             adding a policy that runs in tests but breaks under the
#             auditor, or that falls out of the registry wiring
#   e2e-smoke  `benchmark/run.sh --quick`: builds the end-to-end
#             benchmark (its own CMake project, which no ctest builds)
#             and runs every workload once at tiny sizes with its
#             correctness gate — the tripwire for a library change that
#             breaks the benchmark's use of the public APIs
#   reach     opt-in, never in the default list: scripts/reach.sh, the
#             census that fails when a src/ function is reached by no
#             tool, bench, example or anufs_e2e and is not on
#             scripts/reach.allow (header-only and inline code escapes
#             it)
#
# Tests carry ctest labels (unit | property | golden | stress |
# bench-smoke | lint; see tests/CMakeLists.txt). default and sanitize
# run every label; the tsan preset excludes only `bench-smoke` (timing
# under TSan is meaningless) — golden byte-diffs, the fault property
# suite, and the serving-mode concurrency battery all must stay
# race-clean and bit-identical under TSan too.
#
#   ./scripts/check.sh                # all of the above
#   ./scripts/check.sh default        # one preset
#   ./scripts/check.sh tsan lint      # any subset, in order
#   ./scripts/check.sh --bench        # all of the above + quick bench
#                                     # trajectory (scripts/bench.sh);
#                                     # opt-in, never part of the default
#                                     # gate — timing is machine-local
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

JOBS="${ANUFS_JOBS:-$(nproc 2>/dev/null || echo 2)}"
RUN_BENCH=0
STAGES=()
for arg in "$@"; do
  if [ "$arg" = --bench ] || [ "$arg" = bench ]; then
    RUN_BENCH=1
  else
    STAGES+=("$arg")
  fi
done
if [ ${#STAGES[@]} -eq 0 ]; then
  STAGES=(default trace-smoke retune-smoke batch-smoke serve-smoke policy-smoke e2e-smoke static sanitize tsan lint)
fi

# Exit code the lint/static scripts return for "toolchain missing".
SKIP_CODE=77
SKIPPED=()

# Run a skippable gate: record it in SKIPPED on SKIP_CODE, fail on any
# other non-zero exit.
run_skippable() {
  local name="$1" rc=0
  shift
  "$@" --skip-exit-code "$SKIP_CODE" || rc=$?
  if [ "$rc" -eq "$SKIP_CODE" ]; then
    SKIPPED+=("$name")
  elif [ "$rc" -ne 0 ]; then
    exit "$rc"
  fi
}

for stage in "${STAGES[@]}"; do
  if [ "$stage" = lint ]; then
    echo "== lint"
    run_skippable lint ./scripts/lint.sh
    continue
  fi
  if [ "$stage" = static ]; then
    echo "== static"
    for sub in lint fixtures thread-safety; do
      run_skippable "static:$sub" ./scripts/static.sh --jobs "$JOBS" "$sub"
    done
    continue
  fi
  if [ "$stage" = reach ]; then
    echo "== reach"
    ./scripts/reach.sh
    continue
  fi
  if [ "$stage" = e2e-smoke ]; then
    echo "== e2e-smoke"
    bash benchmark/run.sh --quick
    continue
  fi
  if [ "$stage" = trace-smoke ]; then
    # Needs the default preset built (runs after `default` in the full
    # gate; standalone invocations build it on demand).
    echo "== trace-smoke"
    if [ ! -x build/tools/anufs_sim ]; then
      cmake --preset default
      cmake --build --preset default -j "$JOBS" --target anufs_sim_cli
    fi
    TRACE_OUT="$(mktemp -d)/smoke.jsonl"
    printf 'workload synthetic\npolicy anu\nservers 1,3,5,7,9\nperiod 60\nduration 300\nrequests 2000\nfile_sets 40\nseed 7\nfail 120 4\nrecover 240 4\n' \
      | build/tools/anufs_sim --trace "$TRACE_OUT" - > /dev/null
    python3 scripts/check_trace_schema.py "$TRACE_OUT"
    # The Chrome export must at least be valid JSON for Perfetto.
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$TRACE_OUT.chrome.json"
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$TRACE_OUT.metrics.json"
    # Lossy reports with the SAN model on: fencing drops queued work, and
    # the end-of-run SAN ledger check aborts if a dropped request left
    # its client blocked.
    FENCE_OUT="$(dirname "$TRACE_OUT")/fence.jsonl"
    printf 'workload synthetic\npolicy anu\nservers 1,3,5,7,9\nseed 2\nsan on\nreport_loss 0.7\nduration 3600\nrequests 50000\nfile_sets 40\n' \
      | build/tools/anufs_sim --trace "$FENCE_OUT" - > /dev/null
    python3 scripts/check_trace_schema.py "$FENCE_OUT"
    if ! grep -q '"name":"fenced"' "$FENCE_OUT"; then
      echo "trace-smoke: no fenced events in $FENCE_OUT" >&2
      exit 1
    fi
    rm -rf "$(dirname "$TRACE_OUT")"
    continue
  fi
  if [ "$stage" = retune-smoke ]; then
    # Needs the default preset built (runs after `default` in the full
    # gate; standalone invocations build the one test on demand).
    echo "== retune-smoke"
    if [ ! -x build/tests/control_plane_churn_test ]; then
      cmake --preset default
      cmake --build --preset default -j "$JOBS" \
        --target control_plane_churn_test
    fi
    ANUFS_AUDIT=1 build/tests/control_plane_churn_test \
      --gtest_filter='ControlPlaneChurn.AuditedChurnAt64'
    continue
  fi
  if [ "$stage" = batch-smoke ]; then
    # Needs the default preset built (runs after `default` in the full
    # gate; standalone invocations build the one test on demand).
    echo "== batch-smoke"
    if [ ! -x build/tests/locate_batch_test ]; then
      cmake --preset default
      cmake --build --preset default -j "$JOBS" \
        --target locate_batch_test
    fi
    ANUFS_AUDIT=1 build/tests/locate_batch_test \
      --gtest_filter='LocateBatch.BatchedMatchesScalarUnderRandomInterleavings'
    continue
  fi
  if [ "$stage" = serve-smoke ]; then
    # Needs the default preset built (runs after `default` in the full
    # gate; standalone invocations build the one tool on demand).
    echo "== serve-smoke"
    if [ ! -x build/tools/anufs_serve ]; then
      cmake --preset default
      cmake --build --preset default -j "$JOBS" --target anufs_serve_cli
    fi
    SERVE_OUT="$(build/tools/anufs_serve --threads 2 --seconds 1 --check)"
    echo "$SERVE_OUT"
    # --check already fails the stage on any equivalence mismatch
    # (non-zero exit); additionally require real throughput — a serve
    # run that completed zero lookups is a hang or a dead reader pool,
    # not a pass.
    echo "$SERVE_OUT" | grep -Eq 'serve: 2 threads, [0-9.]+ s, [1-9][0-9]* lookups' \
      || { echo "serve-smoke: no lookups served" >&2; exit 1; }
    echo "$SERVE_OUT" | grep -Eq 'equivalence: .* digest [0-9a-f]+ -> OK' \
      || { echo "serve-smoke: missing equivalence digest" >&2; exit 1; }
    continue
  fi
  if [ "$stage" = policy-smoke ]; then
    # Needs the default preset built (runs after `default` in the full
    # gate; standalone invocations build the one tool on demand).
    echo "== policy-smoke"
    if [ ! -x build/tools/anufs_audit ]; then
      cmake --preset default
      cmake --build --preset default -j "$JOBS" --target anufs_audit_cli
    fi
    POLICY_OUT="$(printf 'workload synthetic\nservers 1,3,5,7,9\nperiod 60\nduration 300\nrequests 2000\nfile_sets 40\nseed 7\nmovement on\nfail 120 4\nrecover 240 4\n' \
      | build/tools/anufs_audit --policies all -)"
    echo "$POLICY_OUT"
    # Every registered policy must appear in the batch (pow-d and jiq
    # named explicitly: they are the newest and easiest to lose), and
    # the batch must have actually audited something.
    for p in pow-d jiq anu; do
      echo "$POLICY_OUT" | grep -q "policy=$p " \
        || { echo "policy-smoke: policy $p missing from --policies all" >&2; exit 1; }
    done
    continue
  fi
  echo "== configure: $stage"
  cmake --preset "$stage"
  echo "== build: $stage"
  cmake --build --preset "$stage" -j "$JOBS"
  echo "== test: $stage"
  ctest --preset "$stage" -j "$JOBS"
done

if [ "$RUN_BENCH" -eq 1 ]; then
  echo "== bench (quick trajectory)"
  ./scripts/bench.sh --quick --out "${ANUFS_BENCH_OUT:-/tmp/BENCH_core.quick.json}"
fi

if [ ${#SKIPPED[@]} -eq 0 ]; then
  echo "check.sh: all stages green"
else
  echo "check.sh: all stages that ran are green; SKIPPED: ${SKIPPED[*]}"
fi
