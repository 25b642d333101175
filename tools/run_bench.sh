#!/usr/bin/env bash
# Perf-tracking bench runner: builds Release, runs the pinned quick bench
# suite with fixed seeds/reps, and writes the results as machine-readable
# BENCH JSON — the per-PR perf trajectory CI guards.
#
#   tools/run_bench.sh [--pr=N] [--out=FILE] [--build-dir=DIR]
#
#   --pr=N         PR number for the default output name BENCH_pr<N>.json.
#                  Default: $BENCH_PR, else the CHANGES.md line count
#                  (one line per landed PR).
#   --out=FILE     output path (overrides the derived name)
#   --build-dir=D  defaults to "build-bench" (kept separate from the
#                  tier-1 RelWithAsserts tree: benches run -O2 -DNDEBUG)
#
# Environment:
#   JOBS           build parallelism (default: nproc)
#   BENCH_THREADS  dispatch workers for the serve bench (default: 2)
#
# Pinned suite (fixed seeds, fixed workloads — comparable across PRs):
#   bench_batch_shared     --csv --scale=0.1 --seed=1
#   bench_serve_throughput --csv --scale=0.1 --seed=1 --rounds=8, run 3×
#                          with per-series best-of (max qps, min p95) —
#                          the short burst traces are scheduler-noise
#                          dominated, and best-of is the stable signal
#   bench_serve_throughput --obs-overhead, same pinning, run 3× — the
#                          obs/<dataset>/overhead_pct series: what the
#                          metrics registry costs when recording vs
#                          gated off (check_bench.sh warns above 2%)
#   bench_landmark_serve   --csv --scale=0.1 --seed=1 --queries=512, run 3×
#                          best-of like serve_throughput — the landmark/
#                          series whose landmark-vs-off throughput ratio
#                          is a PR acceptance gate
#   bench_net_throughput   --csv --scale=0.1 --seed=1 --rounds=4, run 3×
#                          best-of — in-process vs loopback 2-shard+router
#                          serving on one Zipf trace; emits the
#                          net/<dataset>/<mode>/{throughput_qps,p95_ms}
#                          series (p95 hard-gated like swap_ms)
#   bench_dyn_update       --csv --scale=0.1 --seed=1 --rounds=2
#   bench_epoch_swap       --csv --scale=0.1 --seed=1 --rounds=3 — the
#                          dyn/*/swap_ms (lower-better) and swap_speedup
#                          series behind the incremental-epoch gate
#   bench_micro_estimators (google-benchmark; skipped when the system
#                           libbenchmark is absent — builds stay offline)
#
# tools/check_bench.sh consumes consecutive BENCH files and gates CI on
# throughput regressions.
#
# Output: a JSON array of {"method", "metric", "value", "threads"}
# objects. Metric names are hierarchical ("serve/<dataset>/<mode>/
# throughput_qps"), so a trajectory plot can select one series across
# BENCH_pr*.json files.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
BENCH_THREADS="${BENCH_THREADS:-2}"

PR="${BENCH_PR:-}"
OUT=""
BUILD_DIR="build-bench"
for arg in "$@"; do
  case "$arg" in
    --pr=*) PR="${arg#--pr=}" ;;
    --out=*) OUT="${arg#--out=}" ;;
    --build-dir=*) BUILD_DIR="${arg#--build-dir=}" ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

cd "$REPO_ROOT"
if [[ -z "$PR" ]]; then
  PR="$(wc -l < CHANGES.md | tr -d ' ')"
fi
OUT="${OUT:-BENCH_pr${PR}.json}"

CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=Release)
if command -v ccache >/dev/null 2>&1; then
  CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

echo "== bench: configure + build (${BUILD_DIR}, Release) =="
cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}" >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" \
    --target bench_batch_shared bench_serve_throughput bench_landmark_serve \
    bench_net_throughput bench_dyn_update bench_epoch_swap \
    >/dev/null
HAVE_MICRO=0
if cmake --build "$BUILD_DIR" -j "$JOBS" \
    --target bench_micro_estimators >/dev/null 2>&1; then
  HAVE_MICRO=1
else
  echo "== bench: libbenchmark absent, skipping micro_estimators =="
fi

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

echo "== bench: batch_shared =="
"$BUILD_DIR/bench_batch_shared" --csv --scale=0.1 --seed=1 \
    > "$TMP_DIR/batch_shared.csv"

# best_of_3 NAME CMD...: runs one serving bench 3× into
# $TMP_DIR/NAME_rep{1,2,3}.csv and folds the reps into $TMP_DIR/NAME.csv
# — the short burst traces are scheduler-noise dominated, and best-of is
# the stable signal. The input rows are method,dataset,epsilon,mode,
# queries,throughput_qps,p50_ms,p95_ms,p99_ms,<col 10>,ms_per_q; the
# output has one row per (method,dataset,epsilon,mode) series, in
# first-appearance order, with the max throughput (col 6), the min p95
# (col 8) and the first rep's col 10 (landmark_serve's hit rate, which
# is deterministic across reps). Every other column is zeroed.
best_of_3() {
  local name="$1"
  shift
  for rep in 1 2 3; do
    "$@" > "$TMP_DIR/${name}_rep${rep}.csv"
  done
  awk -F, 'FNR == 1 { header = $0; next }
    {
      key = $1 FS $2 FS $3 FS $4
      if (!(key in qps) || $6 + 0 > qps[key] + 0) qps[key] = $6
      if (!(key in p95) || $8 + 0 < p95[key] + 0) p95[key] = $8
      if (!(key in col10)) col10[key] = $10
      if (!(key in seen)) { order[++rows] = key; seen[key] = 1 }
    }
    END {
      print header
      for (r = 1; r <= rows; ++r) {
        key = order[r]
        printf "%s,0,%s,0,%s,0,%s,0\n", key, qps[key], p95[key], col10[key]
      }
    }' "$TMP_DIR/${name}"_rep*.csv > "$TMP_DIR/${name}.csv"
}

echo "== bench: serve_throughput (threads=${BENCH_THREADS}, best of 3) =="
best_of_3 serve "$BUILD_DIR/bench_serve_throughput" --csv --scale=0.1 \
    --seed=1 --rounds=8 --threads="$BENCH_THREADS"

echo "== bench: obs overhead (threads=${BENCH_THREADS}, best of 3) =="
best_of_3 obs_ab "$BUILD_DIR/bench_serve_throughput" --obs-overhead --csv \
    --scale=0.1 --seed=1 --rounds=8 --threads="$BENCH_THREADS"
# The percentage the metrics registry costs when recording, from the
# best-of qps: (off - on) / off * 100.
awk -F, 'FNR == 1 { next }
  { qps[$1 FS $2 FS $3 FS $4] = $6 }
  END {
    print "method,dataset,overhead_pct"
    for (key in qps) {
      split(key, f, FS)
      if (f[4] == "obs_off") {
        on_key = f[1] FS f[2] FS f[3] FS "obs_on"
        if (on_key in qps && qps[key] + 0 > 0) {
          printf "%s,%s,%.4f\n", f[1], f[2],
                 (qps[key] - qps[on_key]) / qps[key] * 100
        }
      }
    }
  }' "$TMP_DIR/obs_ab.csv" > "$TMP_DIR/obs.csv"

echo "== bench: landmark_serve (threads=${BENCH_THREADS}, best of 3) =="
best_of_3 landmark "$BUILD_DIR/bench_landmark_serve" --csv --scale=0.1 \
    --seed=1 --queries=512 --threads="$BENCH_THREADS"

# Loopback RPC latency is scheduler-noise dominated exactly like the
# serve bench.
echo "== bench: net_throughput (threads=${BENCH_THREADS}, best of 3) =="
best_of_3 net "$BUILD_DIR/bench_net_throughput" --csv --scale=0.1 --seed=1 \
    --rounds=4 --threads="$BENCH_THREADS" --clients=4

echo "== bench: dyn_update =="
"$BUILD_DIR/bench_dyn_update" --csv --scale=0.1 --seed=1 --rounds=2 \
    > "$TMP_DIR/dyn.csv"

echo "== bench: epoch_swap =="
"$BUILD_DIR/bench_epoch_swap" --csv --scale=0.1 --seed=1 --rounds=3 \
    > "$TMP_DIR/swap.csv"

if [[ "$HAVE_MICRO" == 1 ]]; then
  echo "== bench: micro_estimators (pinned subset) =="
  "$BUILD_DIR/bench_micro_estimators" \
      --benchmark_filter='BM_(Geer|Amc|Smm)/10$|BM_(TpScaled|TpcScaled)/2$|BM_Cg$' \
      --benchmark_format=csv --benchmark_repetitions=1 \
      > "$TMP_DIR/micro.csv" 2>/dev/null
fi

# --- CSV -> BENCH JSON (awk only: no jq/python dependency) -----------------

ENTRIES="$TMP_DIR/entries"
: > "$ENTRIES"

# batch_shared: method,dataset,epsilon,mode,queries,walks_per_q,
#               walk_steps_per_q,spmv_per_q,ms_per_q
awk -F, 'NR > 1 {
  printf "{\"method\": \"%s\", \"metric\": \"batch_shared/%s/eps%s/%s/ms_per_q\", \"value\": %s, \"threads\": 1}\n",
         $1, $2, $3, $4, $9
}' "$TMP_DIR/batch_shared.csv" >> "$ENTRIES"

# serve_throughput: method,dataset,epsilon,mode,queries,throughput_qps,
#                   p50_ms,p95_ms,p99_ms,avg_batch,ms_per_q
awk -F, -v threads="$BENCH_THREADS" 'NR > 1 {
  printf "{\"method\": \"%s\", \"metric\": \"serve/%s/%s/throughput_qps\", \"value\": %s, \"threads\": %s}\n",
         $1, $2, $4, $6, threads
  printf "{\"method\": \"%s\", \"metric\": \"serve/%s/%s/p95_ms\", \"value\": %s, \"threads\": %s}\n",
         $1, $2, $4, $8, threads
}' "$TMP_DIR/serve.csv" >> "$ENTRIES"

# obs overhead: method,dataset,overhead_pct — what the always-on metrics
# registry costs relative to gated-off, in percent of qps (signed: noise
# can make it slightly negative). check_bench.sh warns when it exceeds
# 2% and keeps it out of the relative-change gates (it is already a
# bounded ratio, not a trajectory).
awk -F, -v threads="$BENCH_THREADS" 'NR > 1 {
  printf "{\"method\": \"%s\", \"metric\": \"obs/%s/overhead_pct\", \"value\": %s, \"threads\": %s}\n",
         $1, $2, $3, threads
}' "$TMP_DIR/obs.csv" >> "$ENTRIES"

# landmark_serve: method,dataset,epsilon,mode,queries,throughput_qps,
#                 p50_ms,p95_ms,p99_ms,hit_rate,ms_per_q — the landmark/
#                 trajectory CI gates (throughput per mode + hit rate).
awk -F, -v threads="$BENCH_THREADS" 'NR > 1 {
  printf "{\"method\": \"%s\", \"metric\": \"landmark/%s/%s/throughput_qps\", \"value\": %s, \"threads\": %s}\n",
         $1, $2, $4, $6, threads
  printf "{\"method\": \"%s\", \"metric\": \"landmark/%s/%s/p95_ms\", \"value\": %s, \"threads\": %s}\n",
         $1, $2, $4, $8, threads
  if ($4 != "off") {
    printf "{\"method\": \"%s\", \"metric\": \"landmark/%s/%s/hit_rate\", \"value\": %s, \"threads\": %s}\n",
           $1, $2, $4, $10, threads
  }
}' "$TMP_DIR/landmark.csv" >> "$ENTRIES"

# net_throughput: method,dataset,epsilon,mode,queries,throughput_qps,
#                 p50_ms,p95_ms,p99_ms,avg_batch,ms_per_q — in-process vs
#                 networked serving on the same trace. check_bench.sh
#                 hard-gates the net p95_ms series (latency regressions
#                 in the wire path fail CI, not just warn).
awk -F, -v threads="$BENCH_THREADS" 'NR > 1 {
  printf "{\"method\": \"%s\", \"metric\": \"net/%s/%s/throughput_qps\", \"value\": %s, \"threads\": %s}\n",
         $1, $2, $4, $6, threads
  printf "{\"method\": \"%s\", \"metric\": \"net/%s/%s/p95_ms\", \"value\": %s, \"threads\": %s}\n",
         $1, $2, $4, $8, threads
}' "$TMP_DIR/net.csv" >> "$ENTRIES"

# dyn_update: metric,dataset,param,value — commit vs rebuild timings and
# session retention ("dyn/<dataset>/<param>/<metric>"). check_bench.sh
# treats the speedup/retention series as higher-is-better.
awk -F, 'NR > 1 {
  printf "{\"method\": \"DYN\", \"metric\": \"dyn/%s/%s/%s\", \"value\": %s, \"threads\": 1}\n",
         $2, $3, $1, $4
}' "$TMP_DIR/dyn.csv" >> "$ENTRIES"

# epoch_swap: metric,dataset,param,value — full-rebuild vs incremental
# RebindGraph latency ("dyn/<dataset>/<param>/swap_ms", lower is better;
# "swap_speedup", higher is better). check_bench.sh hard-gates the
# swap_ms series.
awk -F, 'NR > 1 {
  printf "{\"method\": \"DYN\", \"metric\": \"dyn/%s/%s/%s\", \"value\": %s, \"threads\": 1}\n",
         $2, $3, $1, $4
}' "$TMP_DIR/swap.csv" >> "$ENTRIES"

# micro_estimators (google-benchmark CSV): name,iterations,real_time,
# cpu_time,time_unit,...  Rows have the quoted bench name in column 1.
if [[ "$HAVE_MICRO" == 1 ]]; then
  awk -F, '/^"BM_/ {
    name = $1; gsub(/"/, "", name)
    method = name; sub(/\/.*$/, "", method); sub(/^BM_/, "", method)
    map["Geer"] = "GEER"; map["Amc"] = "AMC"; map["Smm"] = "SMM"
    map["TpScaled"] = "TP"; map["TpcScaled"] = "TPC"; map["Cg"] = "CG"
    if (method in map) method = map[method]
    printf "{\"method\": \"%s\", \"metric\": \"micro/%s/cpu_%s\", \"value\": %s, \"threads\": 1}\n",
           method, name, $5, $4
  }' "$TMP_DIR/micro.csv" >> "$ENTRIES"
fi

# Join the entry lines into one JSON array.
mkdir -p "$(dirname "$OUT")"
awk 'BEGIN { print "[" } { printf "%s%s\n", (NR > 1 ? "," : " "), $0 }
     END { print "]" }' "$ENTRIES" > "$OUT"

if command -v jq >/dev/null 2>&1; then
  jq empty "$OUT"  # fail loudly on malformed JSON
fi
echo "== bench: wrote $(grep -c '"metric"' "$OUT") entries to ${OUT} =="
