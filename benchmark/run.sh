#!/usr/bin/env bash
# End-to-end benchmark: builds benchmark/ (Release, into benchmark/build/)
# and runs its workloads, each in its own process.
#
# One workload, one mode (the result object is the last stdout line):
#   bash benchmark/run.sh --workload sim-paper --seed 7 --seconds 10 --trace 0
# A full pass, every workload untraced then traced:
#   bash benchmark/run.sh [--seed S] [--seconds T] [--quick] [--out F]
#
# A full pass prints "workload metric value unit" lines, appends one JSON
# record per run to F (default benchmark/build/last_pass.jsonl, read by
# benchmark/compare.py), and exits non-zero if any check failed.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"
BUILD="benchmark/build"
WORKLOADS=(sim-paper sim-scale serve-hot serve-cold)

WORKLOAD=""
SEED=1
SECONDS_ARG=""
TRACE=""
QUICK=0
OUT=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) WORKLOAD="$2"; shift 2 ;;
    --seed) SEED="$2"; shift 2 ;;
    --seconds) SECONDS_ARG="$2"; shift 2 ;;
    --trace) TRACE="$2"; shift 2 ;;
    --quick) QUICK=1; shift ;;
    --out) OUT="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done

build() {
  mkdir -p "$BUILD"
  local log="$BUILD/build.log"
  if { [ -f "$BUILD/Makefile" ] ||
       cmake -S benchmark -B "$BUILD" -DCMAKE_BUILD_TYPE=Release \
         >"$log" 2>&1; } &&
     cmake --build "$BUILD" --target anufs_e2e -j "${ANUFS_JOBS:-4}" \
       >>"$log" 2>&1; then
    return 0
  fi
  tail -n 40 "$log" >&2
  echo "run.sh: build failed (full log: $log)" >&2
  return 1
}

build
BIN="$BUILD/anufs_e2e"
# The ceiling keeps git from searching directories above the checkout.
COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$ROOT")" \
  git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
COMMON=(--digests benchmark/digests.txt --commit "$COMMIT")
[ "$QUICK" -eq 1 ] && COMMON+=(--quick)

if [ -n "$WORKLOAD" ]; then
  ARGS=(--workload "$WORKLOAD" --seed "$SEED" --trace "${TRACE:-0}")
  [ -n "$SECONDS_ARG" ] && ARGS+=(--seconds "$SECONDS_ARG")
  [ -n "$OUT" ] && ARGS+=(--out "$OUT")
  "$BIN" "${ARGS[@]}" "${COMMON[@]}"
  exit 0
fi

if [ -z "$SECONDS_ARG" ]; then
  if [ "$QUICK" -eq 1 ]; then SECONDS_ARG=1; else SECONDS_ARG=10; fi
fi
OUT="${OUT:-$BUILD/last_pass.jsonl}"
: >"$OUT"
FAILED=0
for workload in "${WORKLOADS[@]}"; do
  for trace in 0 1; do
    rc=0
    "$BIN" --workload "$workload" --seed "$SEED" --seconds "$SECONDS_ARG" \
      --trace "$trace" --out "$OUT" "${COMMON[@]}" >"$BUILD/run.out" || rc=$?
    grep -v '^{' "$BUILD/run.out" || true
    if [ "$rc" -ne 0 ]; then
      echo "run.sh: $workload --trace $trace FAILED" >&2
      FAILED=1
    fi
  done
done

# The printed metric set must match BENCHMARK.json's lists exactly.
if ! python3 - "$OUT" <<'EOF'
import json, sys
spec = json.load(open("BENCHMARK.json"))
want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
bad = 0
for line in open(sys.argv[1]):
    rec = json.loads(line)
    got = {k: v["unit"] for k, v in rec["metrics"].items()}
    if got != want[rec["trace"]]:
        print(f"run.sh: {rec['workload']} trace {rec['trace']}: metrics differ "
              f"from BENCHMARK.json", file=sys.stderr)
        bad = 1
sys.exit(bad)
EOF
then
  FAILED=1
fi

if [ "$FAILED" -ne 0 ]; then
  echo "run.sh: FAILED (results in $OUT)" >&2
  exit 1
fi
echo "run.sh: all checks passed (results in $OUT)"
