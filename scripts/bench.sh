#!/usr/bin/env bash
# Recorded performance trajectory for the event engine and the request
# hot path. Produces BENCH_core.json at the repo root: one snapshot of
#
#   * the core microbenchmarks (google-benchmark JSON, bench/micro_core):
#     hash probe, cache-miss / cached / uncached locate, retune,
#     scheduler throughput
#   * an end-to-end multi-seed sweep (tools/anufs_sim --sweep) wall clock
#   * optionally, the same sweep on a pre-change binary for a recorded
#     before/after speedup (--baseline-bin)
#
# Usage:
#   ./scripts/bench.sh                          # measure, write BENCH_core.json
#   ./scripts/bench.sh --out /tmp/b.json        # alternate output path
#   ./scripts/bench.sh --baseline-bin OLD_SIM   # also record sweep speedup
#   ./scripts/bench.sh --quick                  # smoke settings (CI)
#   ./scripts/bench.sh --control-plane          # re-measure only the
#                                               # control-plane group
#                                               # (BM_Retune/{64,512,4096},
#                                               # BM_RetuneChanged, rebalance,
#                                               # churn) and merge it into an
#                                               # existing BENCH_core.json
#                                               # without re-running the sweep
#   ./scripts/bench.sh --batch                  # re-measure only the locate
#                                               # group (BM_LocateBatch,
#                                               # BM_LocateBatchCached,
#                                               # BM_ServeLocateBatch + their
#                                               # scalar baselines and
#                                               # BM_LocateCacheMiss) and
#                                               # merge it as the `batch`
#                                               # group (plus the derived
#                                               # cached speedup) into an
#                                               # existing BENCH_core.json,
#                                               # replacing every stored
#                                               # BM_Locate*/BM_ServeLocate*
#                                               # entry
#   ./scripts/bench.sh --policies               # re-measure only the policy-
#                                               # zoo decision paths
#                                               # (BM_PowDChoose,
#                                               # BM_PowDRebalance,
#                                               # BM_JiqRebalance,
#                                               # BM_AnuRebalance) and merge
#                                               # them as the `policies` group
#                                               # into an existing
#                                               # BENCH_core.json
#
# The sweep scenario is fixed (synthetic workload, 5 heterogeneous
# servers, membership churn, 30 seeds, --jobs 1) so successive snapshots
# are comparable; the engine's events/sec line printed by anufs_sim is
# captured as a cross-check. Numbers are machine-dependent: compare
# trajectories recorded on the same machine.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

OUT="$ROOT/BENCH_core.json"
BASELINE_BIN=""
MIN_TIME=0.5
SWEEP="seed=1..30"
CONTROL_ONLY=0
BATCH_ONLY=0
POLICIES_ONLY=0
while [ $# -gt 0 ]; do
  case "$1" in
    --out) OUT="$2"; shift 2 ;;
    --baseline-bin) BASELINE_BIN="$2"; shift 2 ;;
    --quick) MIN_TIME=0.05; SWEEP="seed=1..5"; shift ;;
    --control-plane) CONTROL_ONLY=1; shift ;;
    --batch) BATCH_ONLY=1; shift ;;
    --policies) POLICIES_ONLY=1; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

# jq fragment shared by both modes: google-benchmark JSON -> name-keyed
# map, plus the control-plane summary group. BM_Retune is the
# steady-state (unchanged-round) path, BM_RetuneChanged the forced full
# recompute; the 512/64 ratio is the scaling check — the old full walk
# put it near 20x (tree constants on top of 8x servers), the memo's
# bitwise compare keeps it at the ~6-7x of pure memory bandwidth.
JQ_BENCH='
  ($micro[0].benchmarks | map({(.name): {time_ns: .real_time,
                                         cpu_ns: .cpu_time,
                                         hit_rate: (.hit_rate // null)}})
     | add) as $bench |
  {
    retune_ns: {
      "64":   $bench["BM_Retune/64"].time_ns,
      "512":  $bench["BM_Retune/512"].time_ns,
      "4096": $bench["BM_Retune/4096"].time_ns
    },
    retune_changed_ns: {
      "64":   $bench["BM_RetuneChanged/64"].time_ns,
      "512":  $bench["BM_RetuneChanged/512"].time_ns,
      "4096": $bench["BM_RetuneChanged/4096"].time_ns
    },
    retune_512_over_64:
      (if $bench["BM_Retune/64"] then
         ($bench["BM_Retune/512"].time_ns / $bench["BM_Retune/64"].time_ns)
       else null end),
    membership_churn_ns: {
      "5":  $bench["BM_MembershipChurn/5"].time_ns,
      "64": $bench["BM_MembershipChurn/64"].time_ns
    }
  } as $control |
'

if [ "$CONTROL_ONLY" -eq 1 ]; then
  echo "== build: default (micro_core only)"
  cmake --preset default >/dev/null
  cmake --build --preset default \
    -j "${ANUFS_JOBS:-$(nproc 2>/dev/null || echo 2)}" \
    --target micro_core >/dev/null
  MICRO="$ROOT/build/bench/micro_core"
  echo "== micro (control-plane group): $MICRO (min_time=${MIN_TIME}s)"
  MICRO_JSON="$(mktemp)"
  "$MICRO" --benchmark_format=json --benchmark_min_time="$MIN_TIME" \
    --benchmark_filter='BM_Retune|BM_RetuneChanged|BM_Rebalance|BM_MembershipChurn' \
    >"$MICRO_JSON" 2>/dev/null
  BASE='{"schema":"anufs-bench-v1"}'
  if [ -f "$OUT" ]; then BASE="$(cat "$OUT")"; fi
  TMP="$(mktemp)"
  jq -n \
    --slurpfile micro "$MICRO_JSON" \
    --argjson base "$BASE" \
    --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --arg commit "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    "$JQ_BENCH"'
    $base * {
      recorded_at: $date,
      commit: $commit,
      micro: (($base.micro // {}) + $bench),
      control_plane: $control
    }' >"$TMP"
  mv "$TMP" "$OUT"
  rm -f "$MICRO_JSON"
  echo "== merged control-plane group into $OUT"
  jq '.control_plane' "$OUT"
  exit 0
fi

# jq fragment for the batched-locate group: per-element costs (the
# benchmark's real_time is per whole batch) plus the headline speedup —
# uncached batch/64 against the scalar uncached probe chain at the same
# 64-server cluster. The acceptance bar for the batched path is >= 4x.
JQ_BATCH='
  ($micro[0].benchmarks | map({(.name): {time_ns: .real_time,
                                         cpu_ns: .cpu_time,
                                         hit_rate: (.hit_rate // null)}})
     | add) as $bench |
  {
    locate_batch_per_elem_ns: {
      "1":    ($bench["BM_LocateBatch/1"].time_ns / 1),
      "8":    ($bench["BM_LocateBatch/8"].time_ns / 8),
      "64":   ($bench["BM_LocateBatch/64"].time_ns / 64),
      "1024": ($bench["BM_LocateBatch/1024"].time_ns / 1024)
    },
    locate_batch_cached_per_elem_ns: {
      "1":    ($bench["BM_LocateBatchCached/1"].time_ns / 1),
      "8":    ($bench["BM_LocateBatchCached/8"].time_ns / 8),
      "64":   ($bench["BM_LocateBatchCached/64"].time_ns / 64),
      "1024": ($bench["BM_LocateBatchCached/1024"].time_ns / 1024)
    },
    serve_locate_batch_per_elem_ns: {
      "1":   ($bench["BM_ServeLocateBatch/1"].time_ns / 1),
      "64":  ($bench["BM_ServeLocateBatch/64"].time_ns / 64),
      "256": ($bench["BM_ServeLocateBatch/256"].time_ns / 256)
    },
    scalar_locate_uncached_ns_64: $bench["BM_LocateUncached/64"].time_ns,
    scalar_serve_locate_per_elem_ns_64:
      ($bench["BM_ServeLocate/64"].time_ns / 64),
    batch64_uncached_speedup_vs_scalar:
      ($bench["BM_LocateUncached/64"].time_ns /
       ($bench["BM_LocateBatch/64"].time_ns / 64))
  } as $batch |
  ($bench["BM_LocateUncached/64"].time_ns /
   $bench["BM_LocateCached/64"].time_ns) as $cached_speedup |
'

if [ "$BATCH_ONLY" -eq 1 ]; then
  echo "== build: default (micro_core only)"
  cmake --preset default >/dev/null
  cmake --build --preset default \
    -j "${ANUFS_JOBS:-$(nproc 2>/dev/null || echo 2)}" \
    --target micro_core >/dev/null
  MICRO="$ROOT/build/bench/micro_core"
  echo "== micro (batch group): $MICRO (min_time=${MIN_TIME}s)"
  MICRO_JSON="$(mktemp)"
  "$MICRO" --benchmark_format=json --benchmark_min_time="$MIN_TIME" \
    --benchmark_filter='BM_Locate|BM_ServeLocate' \
    >"$MICRO_JSON" 2>/dev/null
  BASE='{"schema":"anufs-bench-v1"}'
  if [ -f "$OUT" ]; then BASE="$(cat "$OUT")"; fi
  TMP="$(mktemp)"
  jq -n \
    --slurpfile micro "$MICRO_JSON" \
    --argjson base "$BASE" \
    --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --arg commit "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    "$JQ_BATCH"'
    ($micro[0].benchmarks | map({(.name): {time_ns: .real_time,
                                           cpu_ns: .cpu_time,
                                           hit_rate: (.hit_rate // null)}})
       | add) as $bench |
    ($base.micro // {}
       | with_entries(select(.key | test("^BM_(Locate|ServeLocate)")
                               | not))) as $kept |
    ($base * {
      recorded_at: $date,
      commit: $commit,
      batch: $batch,
      derived: {locate_cached_speedup_64: $cached_speedup}
    }) | .micro = ($kept + $bench)' >"$TMP"
  mv "$TMP" "$OUT"
  rm -f "$MICRO_JSON"
  echo "== merged batch group into $OUT"
  jq '.batch' "$OUT"
  exit 0
fi

# jq fragment for the policy-zoo group: the pow-d sampling kernel at
# three cluster sizes, plus a full rebalance round (reports -> EWMA ->
# shed -> fresh placement draw) for each zoo policy at 5 and 64
# servers, and an ANU round (retune + whole-table re-derive and diff) at
# 500 / 50k / 1M file sets. choose() is the per-placement inner loop, so
# it carries the latency budget; the rebalance rounds are control-plane
# work and only need to stay far under the reconfiguration period.
JQ_POLICIES='
  ($micro[0].benchmarks | map({(.name): {time_ns: .real_time,
                                         cpu_ns: .cpu_time,
                                         hit_rate: (.hit_rate // null)}})
     | add) as $bench |
  {
    powd_choose_ns: {
      "5":   $bench["BM_PowDChoose/5"].time_ns,
      "64":  $bench["BM_PowDChoose/64"].time_ns,
      "512": $bench["BM_PowDChoose/512"].time_ns
    },
    powd_rebalance_ns: {
      "5":  $bench["BM_PowDRebalance/5"].time_ns,
      "64": $bench["BM_PowDRebalance/64"].time_ns
    },
    jiq_rebalance_ns: {
      "5":  $bench["BM_JiqRebalance/5"].time_ns,
      "64": $bench["BM_JiqRebalance/64"].time_ns
    },
    anu_rebalance_ns: {
      "500":     $bench["BM_AnuRebalance/500"].time_ns,
      "50000":   $bench["BM_AnuRebalance/50000"].time_ns,
      "1000000": $bench["BM_AnuRebalance/1000000"].time_ns
    }
  } as $policies |
'

if [ "$POLICIES_ONLY" -eq 1 ]; then
  echo "== build: default (micro_core only)"
  cmake --preset default >/dev/null
  cmake --build --preset default \
    -j "${ANUFS_JOBS:-$(nproc 2>/dev/null || echo 2)}" \
    --target micro_core >/dev/null
  MICRO="$ROOT/build/bench/micro_core"
  echo "== micro (policy-zoo group): $MICRO (min_time=${MIN_TIME}s)"
  MICRO_JSON="$(mktemp)"
  "$MICRO" --benchmark_format=json --benchmark_min_time="$MIN_TIME" \
    --benchmark_filter='BM_PowD|BM_Jiq|BM_AnuRebalance' \
    >"$MICRO_JSON" 2>/dev/null
  BASE='{"schema":"anufs-bench-v1"}'
  if [ -f "$OUT" ]; then BASE="$(cat "$OUT")"; fi
  TMP="$(mktemp)"
  jq -n \
    --slurpfile micro "$MICRO_JSON" \
    --argjson base "$BASE" \
    --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --arg commit "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    "$JQ_POLICIES"'
    $base * {
      recorded_at: $date,
      commit: $commit,
      micro: (($base.micro // {}) + $bench),
      policies: $policies
    }' >"$TMP"
  mv "$TMP" "$OUT"
  rm -f "$MICRO_JSON"
  echo "== merged policy-zoo group into $OUT"
  jq '.policies' "$OUT"
  exit 0
fi

echo "== build: default"
cmake --preset default >/dev/null
cmake --build --preset default -j "${ANUFS_JOBS:-$(nproc 2>/dev/null || echo 2)}" \
  --target micro_core anufs_sim_cli >/dev/null

MICRO="$ROOT/build/bench/micro_core"
SIM="$ROOT/build/tools/anufs_sim"

echo "== micro: $MICRO (min_time=${MIN_TIME}s)"
MICRO_JSON="$(mktemp)"
"$MICRO" --benchmark_format=json --benchmark_min_time="$MIN_TIME" \
  >"$MICRO_JSON" 2>/dev/null

SCENARIO="$(mktemp)"
cat >"$SCENARIO" <<'EOF'
workload synthetic
policy anu
servers 1,3,5,7,9
period 120
seed 42
san off
detector off
movement on
fail 1200 4
recover 2400 4
add 3600 5 9.0
emit summary
EOF

# Wall-clock a sweep binary; echoes "<seconds> <engine line>".
time_sweep() {
  local bin="$1" out elapsed start end
  start=$(date +%s%N)
  out="$("$bin" --jobs 1 --sweep "$SWEEP" "$SCENARIO")"
  end=$(date +%s%N)
  elapsed=$(awk -v s="$start" -v e="$end" 'BEGIN { printf "%.3f", (e - s) / 1e9 }')
  echo "$elapsed"
  echo "$out" | grep '^engine' || true
}

echo "== sweep: $SIM --jobs 1 --sweep $SWEEP"
mapfile -t SWEEP_RESULT < <(time_sweep "$SIM")
SWEEP_SECONDS="${SWEEP_RESULT[0]}"
SWEEP_ENGINE="${SWEEP_RESULT[1]:-}"
echo "   ${SWEEP_SECONDS}s | ${SWEEP_ENGINE}"

BASELINE_SECONDS=null
BASELINE_ENGINE=""
if [ -n "$BASELINE_BIN" ]; then
  echo "== sweep (baseline): $BASELINE_BIN"
  mapfile -t BASE_RESULT < <(time_sweep "$BASELINE_BIN")
  BASELINE_SECONDS="${BASE_RESULT[0]}"
  BASELINE_ENGINE="${BASE_RESULT[1]:-}"
  echo "   ${BASELINE_SECONDS}s | ${BASELINE_ENGINE}"
fi

jq -n \
  --slurpfile micro "$MICRO_JSON" \
  --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
  --arg commit "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
  --arg host "$(uname -sr)" \
  --arg sweep "$SWEEP" \
  --arg sweep_engine "$SWEEP_ENGINE" \
  --arg baseline_engine "$BASELINE_ENGINE" \
  --argjson sweep_seconds "$SWEEP_SECONDS" \
  --argjson baseline_seconds "$BASELINE_SECONDS" \
  "$JQ_BENCH""$JQ_BATCH""$JQ_POLICIES"'
  {
    schema: "anufs-bench-v1",
    recorded_at: $date,
    commit: $commit,
    host: $host,
    micro: $bench,
    derived: {
      locate_cached_speedup_64: $cached_speedup,
      scheduler_events_per_sec: (
        1e9 / $bench["BM_SchedulerThroughput"].time_ns)
    },
    control_plane: $control,
    batch: $batch,
    policies: $policies,
    sweep: {
      scenario: "synthetic anu 5-server churn",
      sweep: $sweep,
      jobs: 1,
      seconds: $sweep_seconds,
      engine: $sweep_engine,
      baseline_seconds: $baseline_seconds,
      baseline_engine: (if $baseline_engine == "" then null
                        else $baseline_engine end),
      speedup_vs_baseline: (if $baseline_seconds == null then null
                            else ($baseline_seconds / $sweep_seconds) end)
    }
  }' >"$OUT"

rm -f "$MICRO_JSON" "$SCENARIO"
echo "== wrote $OUT"
jq '.derived, .sweep.seconds, .sweep.speedup_vs_baseline' "$OUT"
