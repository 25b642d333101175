#!/usr/bin/env bash
# End-to-end smoke for the networked serving tier: launches two shard
# servers (full replicas of the same dataset) on ephemeral loopback
# ports, a router over both, then drives a closed-loop Zipf client
# through `geer_cli net client`, scrapes cluster-wide metrics with
# `geer_cli net stats` (router fans the kStats frame out to every shard
# and merges the snapshots), and finally tears the whole deployment
# down with a --shutdown client (router propagates kShutdown to every
# shard). Asserts: the client answers every query and exits 0, the
# merged stats carry shards=2 + the served-query counters (submitted
# equal to answered) + latency quantiles, and the router and both shards exit on their own after
# shutdown propagation.
#
# Registered in CMakeLists.txt as test net_cluster_smoke with the
# binaries passed in:  $1=geer_shard_server  $2=geer_router  $3=geer_cli
# Every server carries --timeout-seconds as a watchdog so a wedged
# process can never outlive the ctest timeout. Any failure, a timed-out
# port file included, prints every server's log before exiting.

set -euo pipefail

SHARD_BIN="${1:?usage: net_smoke_test.sh <geer_shard_server> <geer_router> <geer_cli>}"
ROUTER_BIN="${2:?missing geer_router path}"
CLI_BIN="${3:?missing geer_cli path}"
for bin in "$SHARD_BIN" "$ROUTER_BIN" "$CLI_BIN"; do
  [[ -x "$bin" ]] || { echo "missing binary: $bin" >&2; exit 2; }
done

TMP="$(mktemp -d)"
PIDS=()
dump_logs() {
  local log
  for log in "$TMP"/*.log; do
    [[ -f "$log" ]] || continue
    echo "-- $log"
    sed 's/^/    /' "$log"
  done
}
# Every non-zero exit, whichever check or wait failed, prints every
# server log before the temporary directory goes away.
cleanup() {
  local status=$? pid
  if (( status != 0 )); then
    echo "net_smoke_test: exit status $status; server logs:" >&2
    dump_logs >&2
  fi
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

wait_for_port_file() {  # wait_for_port_file <file> — prints the port
  local file="$1" i
  for i in $(seq 1 200); do
    if [[ -s "$file" ]]; then cat "$file"; return 0; fi
    sleep 0.1
  done
  echo "timed out waiting for $file" >&2
  return 1
}

DATASET_ARGS=(--dataset=facebook --scale=0.05 --method=GEER
              --epsilon=0.25 --seed=7 --threads=2)

# Two full replicas; shard-id/num-shards only set the routing affinity.
"$SHARD_BIN" "${DATASET_ARGS[@]}" --shard-id=0 --num-shards=2 --port=0 \
    --port-file="$TMP/s0.port" --timeout-seconds=120 \
    > "$TMP/s0.log" 2>&1 &
PIDS+=($!)
"$SHARD_BIN" "${DATASET_ARGS[@]}" --shard-id=1 --num-shards=2 --port=0 \
    --port-file="$TMP/s1.port" --timeout-seconds=120 \
    > "$TMP/s1.log" 2>&1 &
PIDS+=($!)

P0="$(wait_for_port_file "$TMP/s0.port")"
P1="$(wait_for_port_file "$TMP/s1.port")"

"$ROUTER_BIN" --shards="127.0.0.1:$P0,127.0.0.1:$P1" --strategy=range \
    --port=0 --port-file="$TMP/r.port" --timeout-seconds=120 \
    > "$TMP/r.log" 2>&1 &
PIDS+=($!)
RP="$(wait_for_port_file "$TMP/r.port")"

# Closed-loop Zipf workload; the cluster stays up for the stats scrape.
CLIENT_OUT="$("$CLI_BIN" net client --connect="127.0.0.1:$RP" \
    --clients=3 --queries=40 --zipf-exp=0.8 --seed=5 2>&1)" || {
  echo "client failed:"; echo "$CLIENT_OUT" | sed 's/^/    /'
  exit 1
}
echo "$CLIENT_OUT"

grep -q "shards=2" <<< "$CLIENT_OUT" \
    || { echo "FAIL: client banner lacks shards=2" >&2; exit 1; }
grep -q "40/40 answered" <<< "$CLIENT_OUT" \
    || { echo "FAIL: client did not answer 40/40" >&2; exit 1; }

# Cluster-wide stats scrape through the router: the reply must merge
# both shards (shards=2 in the banner), carry the served-query counters
# the workload just generated, and render latency quantiles.
STATS_OUT="$("$CLI_BIN" net stats --connect="127.0.0.1:$RP" 2>&1)" || {
  echo "stats scrape failed:"; echo "$STATS_OUT" | sed 's/^/    /'
  exit 1
}
echo "$STATS_OUT" | head -n 20

grep -q "shards=2" <<< "$STATS_OUT" \
    || { echo "FAIL: stats banner lacks shards=2" >&2; exit 1; }
grep -q "geer_serve_answered_total" <<< "$STATS_OUT" \
    || { echo "FAIL: stats lack geer_serve_answered_total" >&2; exit 1; }
grep -q "p95=" <<< "$STATS_OUT" \
    || { echo "FAIL: stats lack histogram quantile summaries" >&2; exit 1; }
ANSWERED_SUM="$(awk '/^geer_serve_answered_total/ { s += $NF } END { print s+0 }' \
    <<< "$STATS_OUT")"
(( ANSWERED_SUM >= 40 )) \
    || { echo "FAIL: merged answered_total $ANSWERED_SUM < 40" >&2; exit 1; }
# Every query the shards accepted was answered: an event counted zero
# times or twice on either side breaks the equality.
SUBMITTED_SUM="$(awk '/^geer_serve_submitted_total/ { s += $NF } END { print s+0 }' \
    <<< "$STATS_OUT")"
(( SUBMITTED_SUM == ANSWERED_SUM )) \
    || { echo "FAIL: merged submitted_total $SUBMITTED_SUM != answered_total $ANSWERED_SUM" >&2; exit 1; }

# Second (tiny) client run tears the deployment down via --shutdown.
SHUTDOWN_OUT="$("$CLI_BIN" net client --connect="127.0.0.1:$RP" \
    --clients=1 --queries=2 --zipf-exp=0.8 --seed=6 --shutdown 2>&1)" || {
  echo "shutdown client failed:"; echo "$SHUTDOWN_OUT" | sed 's/^/    /'
  exit 1
}

# Shutdown must propagate: every server exits by itself (no kill).
deadline=$((SECONDS + 30))
for pid in "${PIDS[@]}"; do
  while kill -0 "$pid" 2>/dev/null; do
    if (( SECONDS >= deadline )); then
      echo "FAIL: pid $pid still alive 30s after --shutdown" >&2
          exit 1
    fi
    sleep 0.1
  done
done
PIDS=()  # all exited; nothing for the trap to kill

echo "== net_smoke_test: cluster served, shut down cleanly =="
