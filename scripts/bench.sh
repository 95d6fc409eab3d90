#!/usr/bin/env bash
# Recorded performance trajectory for the event engine and the request
# hot path. Produces BENCH_core.json at the repo root: one snapshot of
#
#   * the core microbenchmarks (google-benchmark JSON, bench/micro_core):
#     hash probe, cache-miss / cached / uncached locate, retune,
#     scheduler throughput (in-order and random-delay), FIFO-server
#     throughput, workload generation and the arrival sort
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
#                                               # (BM_Retune, rebalance,
#                                               # churn, BM_CloseRound)
#                                               # and merge it into an
#                                               # existing BENCH_core.json
#                                               # without re-running the sweep
#   ./scripts/bench.sh --batch                  # re-measure only the locate
#                                               # group (BM_LocateBatch,
#                                               # BM_LocateBatchCached,
#                                               # BM_ServeLocateBatch in
#                                               # serve-hot's shape and
#                                               # BM_ServeLocateBatchCold in
#                                               # serve-cold's + their
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
#   ./scripts/bench.sh --workload               # re-measure only workload
#                                               # generation and the arrival
#                                               # sort (BM_MakeSynthetic,
#                                               # BM_MakeDfsTraceLike,
#                                               # BM_SortByTime,
#                                               # BM_StdSortByTime) and merge
#                                               # them as the `workload` group
#                                               # into an existing
#                                               # BENCH_core.json
#
# The sweep scenario is fixed (synthetic workload, 5 heterogeneous
# servers, membership churn, 30 seeds, --jobs 1) so successive snapshots
# are comparable; the engine's events/sec line printed by anufs_sim is
# captured as a cross-check. Numbers are machine-dependent: compare
# trajectories recorded on the same machine. Every mode, merges
# included, rewrites `commit` and `host` ({uname, cores, isa}), so the
# file always names the one host its newest numbers came from.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

# The recording host, spelled like anufs_e2e's "# host" line.
ISA=no-avx512f
if grep -qw avx512f /proc/cpuinfo 2>/dev/null; then ISA=avx512f; fi
HOST_JSON="$(jq -cn --arg uname "$(uname -sr)" \
  --argjson cores "$(nproc 2>/dev/null || echo 1)" --arg isa "$ISA" \
  '{uname: $uname, cores: $cores, isa: $isa}')"

OUT="$ROOT/BENCH_core.json"
BASELINE_BIN=""
MIN_TIME=0.5
SWEEP="seed=1..30"
CONTROL_ONLY=0
BATCH_ONLY=0
POLICIES_ONLY=0
WORKLOAD_ONLY=0
while [ $# -gt 0 ]; do
  case "$1" in
    --out) OUT="$2"; shift 2 ;;
    --baseline-bin) BASELINE_BIN="$2"; shift 2 ;;
    --quick) MIN_TIME=0.05; SWEEP="seed=1..5"; shift ;;
    --control-plane) CONTROL_ONLY=1; shift ;;
    --batch) BATCH_ONLY=1; shift ;;
    --policies) POLICIES_ONLY=1; shift ;;
    --workload) WORKLOAD_ONLY=1; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

# The merge modes below re-measure one group of micro_core benchmarks:
# build micro_core, run the benchmarks matching $2 into $MICRO_JSON, and
# load the snapshot they merge into as $BASE.
measure_group() {
  echo "== build: default (micro_core only)"
  cmake --preset default >/dev/null
  cmake --build --preset default \
    -j "${ANUFS_JOBS:-$(nproc 2>/dev/null || echo 2)}" \
    --target micro_core >/dev/null
  MICRO="$ROOT/build/bench/micro_core"
  echo "== micro ($1 group): $MICRO (min_time=${MIN_TIME}s)"
  MICRO_JSON="$(mktemp)"
  "$MICRO" --benchmark_format=json --benchmark_min_time="$MIN_TIME" \
    --benchmark_filter="$2" >"$MICRO_JSON" 2>/dev/null
  BASE='{"schema":"anufs-bench-v1"}'
  if [ -f "$OUT" ]; then BASE="$(cat "$OUT")"; fi
}

# jq fragment shared by both modes: google-benchmark JSON -> name-keyed
# map, plus the control-plane summary group. BM_Retune is one tuning
# round over fresh reports; the 512/64 ratio is the scaling check (8x
# the servers should cost no more than ~8x). BM_CloseRound is one
# report-collection round with padding; its 4096/1024 ratio is the
# same check (4x the members, ~4x the time).
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
    retune_512_over_64:
      (if $bench["BM_Retune/64"] then
         ($bench["BM_Retune/512"].time_ns / $bench["BM_Retune/64"].time_ns)
       else null end),
    membership_churn_ns: {
      "5":  $bench["BM_MembershipChurn/5"].time_ns,
      "64": $bench["BM_MembershipChurn/64"].time_ns
    },
    close_round_ns: {
      "64":   $bench["BM_CloseRound/64"].time_ns,
      "1024": $bench["BM_CloseRound/1024"].time_ns,
      "4096": $bench["BM_CloseRound/4096"].time_ns
    },
    close_round_4096_over_1024:
      (if $bench["BM_CloseRound/1024"] then
         ($bench["BM_CloseRound/4096"].time_ns /
          $bench["BM_CloseRound/1024"].time_ns)
       else null end)
  } as $control |
'

if [ "$CONTROL_ONLY" -eq 1 ]; then
  measure_group control-plane \
    'BM_Retune|BM_Rebalance|BM_MembershipChurn|BM_CloseRound'
  TMP="$(mktemp)"
  jq -n \
    --slurpfile micro "$MICRO_JSON" \
    --argjson base "$BASE" \
    --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --arg commit "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    --argjson host "$HOST_JSON" \
    "$JQ_BENCH"'
    # The re-measured group replaces its old entries outright (`*`
    # would merge recursively and keep keys a bench no longer emits).
    $base * {recorded_at: $date, commit: $commit, host: $host}
    | .micro = (($base.micro // {})
                | with_entries(select(.key
                    | test("^BM_(Retune|Rebalance|MembershipChurn|CloseRound)")
                    | not))
               ) + $bench
    | .control_plane = $control' >"$TMP"
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
      "256": ($bench["BM_ServeLocateBatch/256"].time_ns / 256),
      cold_256: ($bench["BM_ServeLocateBatchCold/256"].time_ns / 256)
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
  measure_group batch 'BM_Locate|BM_ServeLocate'
  TMP="$(mktemp)"
  jq -n \
    --slurpfile micro "$MICRO_JSON" \
    --argjson base "$BASE" \
    --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --arg commit "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    --argjson host "$HOST_JSON" \
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
      host: $host,
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
  measure_group policy-zoo 'BM_PowD|BM_Jiq|BM_AnuRebalance'
  TMP="$(mktemp)"
  jq -n \
    --slurpfile micro "$MICRO_JSON" \
    --argjson base "$BASE" \
    --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --arg commit "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    --argjson host "$HOST_JSON" \
    "$JQ_POLICIES"'
    $base * {
      recorded_at: $date,
      commit: $commit,
      host: $host,
      micro: (($base.micro // {}) + $bench),
      policies: $policies
    }' >"$TMP"
  mv "$TMP" "$OUT"
  rm -f "$MICRO_JSON"
  echo "== merged policy-zoo group into $OUT"
  jq '.policies' "$OUT"
  exit 0
fi

# jq fragment for the workload group: synthetic generation at the
# sim-paper (Arg 0) and sim-scale (Arg 1) shapes, the DFSTrace-like
# generator, and the arrival sort alone against the std::sort it
# replaced, on the same generation-order streams.
JQ_WORKLOAD='
  ($micro[0].benchmarks | map({(.name): {time_ns: .real_time,
                                         cpu_ns: .cpu_time,
                                         hit_rate: (.hit_rate // null)}})
     | add) as $bench |
  {
    make_synthetic_ns: {
      paper: $bench["BM_MakeSynthetic/0"].time_ns,
      scale: $bench["BM_MakeSynthetic/1"].time_ns
    },
    make_dfstrace_like_ns: $bench["BM_MakeDfsTraceLike"].time_ns,
    sort_by_time_ns: {
      paper: $bench["BM_SortByTime/0"].time_ns,
      scale: $bench["BM_SortByTime/1"].time_ns
    },
    std_sort_by_time_ns: {
      paper: $bench["BM_StdSortByTime/0"].time_ns,
      scale: $bench["BM_StdSortByTime/1"].time_ns
    },
    sort_speedup_vs_std: {
      paper: ($bench["BM_StdSortByTime/0"].time_ns /
              $bench["BM_SortByTime/0"].time_ns),
      scale: ($bench["BM_StdSortByTime/1"].time_ns /
              $bench["BM_SortByTime/1"].time_ns)
    }
  } as $workload |
'

if [ "$WORKLOAD_ONLY" -eq 1 ]; then
  measure_group workload 'BM_MakeSynthetic|BM_MakeDfsTraceLike|SortByTime'
  TMP="$(mktemp)"
  jq -n \
    --slurpfile micro "$MICRO_JSON" \
    --argjson base "$BASE" \
    --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --arg commit "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    --argjson host "$HOST_JSON" \
    "$JQ_WORKLOAD"'
    $base * {
      recorded_at: $date,
      commit: $commit,
      host: $host,
      micro: (($base.micro // {}) + $bench),
      workload: $workload
    }' >"$TMP"
  mv "$TMP" "$OUT"
  rm -f "$MICRO_JSON"
  echo "== merged workload group into $OUT"
  jq '.workload' "$OUT"
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
  --argjson host "$HOST_JSON" \
  --arg sweep "$SWEEP" \
  --arg sweep_engine "$SWEEP_ENGINE" \
  --arg baseline_engine "$BASELINE_ENGINE" \
  --argjson sweep_seconds "$SWEEP_SECONDS" \
  --argjson baseline_seconds "$BASELINE_SECONDS" \
  "$JQ_BENCH""$JQ_BATCH""$JQ_POLICIES""$JQ_WORKLOAD"'
  {
    schema: "anufs-bench-v1",
    recorded_at: $date,
    commit: $commit,
    host: $host,
    micro: $bench,
    derived: {
      locate_cached_speedup_64: $cached_speedup,
      # The deepest calendar: sim-scale runs with ~42k events pending.
      scheduler_events_per_sec: (
        1e9 / $bench["BM_SchedulerThroughput/65536"].time_ns),
      # The same depth with exponential delays: new entries land anywhere
      # in the heap, so every sift level pays the (time, seq) comparison.
      scheduler_random_events_per_sec: (
        1e9 / $bench["BM_SchedulerRandomDelay/65536"].time_ns),
      # Submit -> complete cycles with 16 jobs at the server.
      fifo_jobs_per_sec: (
        1e9 / $bench["BM_FifoServerThroughput/16"].time_ns)
    },
    control_plane: $control,
    batch: $batch,
    policies: $policies,
    workload: $workload,
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
