#!/usr/bin/env bash
# End-to-end smoke test of the CLI tools:
#   sc_tracegen -> sc_simulate (offline path, --metrics-out JSON)
#   sc_origin + 2x sc_proxy + sc_replay (live path, summary mode), then
#   GET /__metrics is checked against the access log and the SIGTERM
#   --metrics-out dump is validated.
# Invoked by ctest with the five binary paths as arguments.
set -euo pipefail

TRACEGEN=$1 SIMULATE=$2 ORIGIN=$3 PROXY=$4 REPLAY=$5
WORK=$(mktemp -d)
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $1" >&2; exit 1; }

# Pick a port block unlikely to collide (derived from our PID), below
# Linux's ephemeral range (32768+): the suite's keep-alive scale test leaves
# thousands of client ports there in TIME-WAIT, and sc_origin's bind fails
# on any of them.
BASE=$(( 20000 + ($$ % 12000) ))
P_ORIGIN=$((BASE)) P1_HTTP=$((BASE+1)) P1_ICP=$((BASE+2)) P2_HTTP=$((BASE+3)) P2_ICP=$((BASE+4))

# --- offline path -----------------------------------------------------------
"$TRACEGEN" --trace upisa --scale 0.01 --out "$WORK/trace.csv" --quiet
[ -s "$WORK/trace.csv" ] || fail "tracegen produced no output"
head -1 "$WORK/trace.csv" | grep -q "timestamp,client,url,size,version" \
    || fail "tracegen csv header wrong"

"$SIMULATE" --in "$WORK/trace.csv" --proxies 8 --cache-mb 4 \
    --protocol summary --batch 350 --metrics-out "$WORK/sim_metrics.json" > "$WORK/sim.txt"
grep -q "total hit ratio" "$WORK/sim.txt" || fail "simulate printed no report"
grep -q "messages/request" "$WORK/sim.txt" || fail "simulate printed no message stats"
[ -s "$WORK/sim_metrics.json" ] || fail "simulate wrote no --metrics-out file"
grep -q '"sc_sim_requests_total"' "$WORK/sim_metrics.json" \
    || fail "simulate metrics JSON lacks sc_sim_requests_total"
# The JSON counter must equal the request count the report is based on.
sim_requests=$(grep -cve '^\s*$' "$WORK/trace.csv")
sim_requests=$((sim_requests - 1))  # header line
json_requests=$(sed -n \
    's/.*"sc_sim_requests_total"[^{]*{[^}]*},"value":\([0-9]*\).*/\1/p' \
    "$WORK/sim_metrics.json")
[ "${json_requests:-x}" = "$sim_requests" ] \
    || fail "sc_sim_requests_total=$json_requests != trace requests=$sim_requests"

# --- live path ---------------------------------------------------------------
"$ORIGIN" --port "$P_ORIGIN" --delay-ms 1 > "$WORK/origin.log" 2>&1 &
PIDS+=($!)
# Proxy 1 runs the serial default (--workers 1: replay counters must be
# byte-identical to the pre-pool behavior) on the portable poll backend;
# proxy 2 runs a 4-worker pool on the platform-default backend (epoll on
# Linux), so one federation exercises both readiness implementations.
"$PROXY" --id 1 --http-port "$P1_HTTP" --icp-port "$P1_ICP" --origin "$P_ORIGIN" \
    --sibling "2:$P2_HTTP:$P2_ICP" --mode summary --threshold 0 --workers 1 \
    --event-backend poll \
    --access-log "$WORK/p1_access.log" \
    > "$WORK/p1.log" 2>&1 &
PIDS+=($!)
"$PROXY" --id 2 --http-port "$P2_HTTP" --icp-port "$P2_ICP" --origin "$P_ORIGIN" \
    --sibling "1:$P1_HTTP:$P1_ICP" --mode summary --threshold 0 --workers 4 \
    --metrics-out "$WORK/p2_metrics.json" \
    > "$WORK/p2.log" 2>&1 &
P2_PID=$!
PIDS+=($P2_PID)

# Wait for all three to come up.
for log in origin.log p1.log p2.log; do
    for _ in $(seq 1 50); do
        grep -qE "listening|HTTP" "$WORK/$log" && break
        sleep 0.1
    done
    grep -qE "listening|HTTP" "$WORK/$log" || fail "$log never came up"
done
grep -q "backend=poll" "$WORK/p1.log" || fail "proxy 1 did not honor --event-backend poll"
# Proxy 2 resolves SC_EVENT_BACKEND (CI's poll rerun sets it), else the
# platform default; only Linux has a known default worth asserting.
P2_BACKEND=${SC_EVENT_BACKEND:-epoll}
if [ "$(uname -s)" = "Linux" ]; then
    grep -q "backend=$P2_BACKEND" "$WORK/p2.log" \
        || fail "proxy 2 did not resolve to the $P2_BACKEND backend"
fi

"$TRACEGEN" --trace nlanr --requests 400 --scale 0.01 --out "$WORK/live.csv" --quiet
"$REPLAY" --in "$WORK/live.csv" --proxies "$P1_HTTP,$P2_HTTP" > "$WORK/replay.txt"
grep -q "errors *0" "$WORK/replay.txt" || fail "replay reported errors"
grep -q "requests *400" "$WORK/replay.txt" || fail "replay lost requests"
# With a shared NLANR-style workload some sharing must occur.
hits=$(grep -oE "remote hits +[0-9]+" "$WORK/replay.txt" | grep -oE "[0-9]+")
[ "${hits:-0}" -gt 0 ] || fail "no remote hits through the live federation"

# --- observability ------------------------------------------------------------
# GET /__metrics must return valid Prometheus text whose hit/miss counters
# match proxy 1's access log for the same run.
curl -sf --max-time 5 "http://127.0.0.1:$P1_HTTP/__metrics" > "$WORK/p1_metrics.prom" \
    || fail "GET /__metrics failed"
grep -q '^# TYPE sc_cache_hits_total counter$' "$WORK/p1_metrics.prom" \
    || fail "/__metrics is not Prometheus exposition text"
log_hits=$(grep -c " LOCAL_HIT " "$WORK/p1_access.log" || true)
log_total=$(grep -cve '^\s*$' "$WORK/p1_access.log")
log_misses=$((log_total - log_hits))
prom_hits=$(sed -n 's/^sc_cache_hits_total{[^}]*} \([0-9]*\)$/\1/p' "$WORK/p1_metrics.prom")
prom_misses=$(sed -n 's/^sc_cache_misses_total{[^}]*} \([0-9]*\)$/\1/p' "$WORK/p1_metrics.prom")
[ "${prom_hits:-x}" = "$log_hits" ] \
    || fail "sc_cache_hits_total=$prom_hits != access-log LOCAL_HIT lines=$log_hits"
[ "${prom_misses:-x}" = "$log_misses" ] \
    || fail "sc_cache_misses_total=$prom_misses != access-log misses=$log_misses"
# Worker-pool gauges exist and are quiescent (nothing in flight post-replay).
queue_depth=$(sed -n 's/^sc_proxy_worker_queue_depth{[^}]*} \([0-9.]*\)$/\1/p' \
    "$WORK/p1_metrics.prom")
[ "${queue_depth:-x}" = "0" ] \
    || fail "sc_proxy_worker_queue_depth=$queue_depth (want 0 when idle)"

# GET /__trace returns a JSON array of protocol events.
curl -sf --max-time 5 "http://127.0.0.1:$P1_HTTP/__trace" > "$WORK/p1_trace.json" \
    || fail "GET /__trace failed"
head -c1 "$WORK/p1_trace.json" | grep -q '\[' || fail "/__trace is not a JSON array"

# SIGTERM proxy 2: it must exit cleanly and dump --metrics-out JSON.
kill -TERM "$P2_PID"
for _ in $(seq 1 50); do
    kill -0 "$P2_PID" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$P2_PID" 2>/dev/null && fail "proxy 2 ignored SIGTERM"
wait "$P2_PID" 2>/dev/null || true
[ -s "$WORK/p2_metrics.json" ] || fail "proxy 2 wrote no --metrics-out file"
grep -q '"sc_proxy_requests_total"' "$WORK/p2_metrics.json" \
    || fail "proxy metrics JSON lacks sc_proxy_requests_total"

# --- warm restart (disk tier) -------------------------------------------------
# A proxy with --disk-dir populated over HTTP, SIGTERMed, and restarted on
# the same directory must recover its document directory from the segment
# log and serve the same workload as local hits.
P3_HTTP=$((BASE+5)) P3_ICP=$((BASE+6))
"$PROXY" --id 3 --http-port "$P3_HTTP" --icp-port "$P3_ICP" --origin "$P_ORIGIN" \
    --mode summary --threshold 0 \
    --disk-dir "$WORK/p3_disk" --disk-capacity-mb 64 \
    > "$WORK/p3.log" 2>&1 &
P3_PID=$!
PIDS+=($P3_PID)
for _ in $(seq 1 50); do
    grep -qE "listening|HTTP" "$WORK/p3.log" && break
    sleep 0.1
done
grep -qE "listening|HTTP" "$WORK/p3.log" || fail "disk-tier proxy never came up"

"$REPLAY" --in "$WORK/live.csv" --proxies "$P3_HTTP" > "$WORK/replay_p3.txt"
grep -q "errors *0" "$WORK/replay_p3.txt" || fail "disk-tier replay reported errors"
ls "$WORK/p3_disk"/seg-*.log >/dev/null 2>&1 || fail "disk tier wrote no segment files"

kill -TERM "$P3_PID"
for _ in $(seq 1 50); do
    kill -0 "$P3_PID" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$P3_PID" 2>/dev/null && fail "disk-tier proxy ignored SIGTERM"
wait "$P3_PID" 2>/dev/null || true

"$PROXY" --id 3 --http-port "$P3_HTTP" --icp-port "$P3_ICP" --origin "$P_ORIGIN" \
    --mode summary --threshold 0 \
    --disk-dir "$WORK/p3_disk" --disk-capacity-mb 64 \
    > "$WORK/p3b.log" 2>&1 &
PIDS+=($!)
for _ in $(seq 1 50); do
    grep -qE "listening|HTTP" "$WORK/p3b.log" && break
    sleep 0.1
done
grep -qE "listening|HTTP" "$WORK/p3b.log" || fail "restarted disk-tier proxy never came up"

"$REPLAY" --in "$WORK/live.csv" --proxies "$P3_HTTP" > "$WORK/replay_p3b.txt"
grep -q "errors *0" "$WORK/replay_p3b.txt" || fail "post-restart replay reported errors"
warm_hits=$(grep -oE "local hits +[0-9]+" "$WORK/replay_p3b.txt" | grep -oE "[0-9]+")
[ "${warm_hits:-0}" -gt 0 ] || fail "no local hits after warm restart"

curl -sf --max-time 5 "http://127.0.0.1:$P3_HTTP/__metrics" > "$WORK/p3_metrics.prom" \
    || fail "GET /__metrics on restarted proxy failed"
recovered=$(sed -n 's/^sc_store_recovered_entries_total{[^}]*} \([0-9]*\)$/\1/p' \
    "$WORK/p3_metrics.prom")
[ "${recovered:-0}" -gt 0 ] \
    || fail "sc_store_recovered_entries_total=$recovered (want > 0 after warm restart)"

echo "tools smoke OK (remote hits: $hits, p1 hits/misses: $log_hits/$log_misses, warm-restart recovered: $recovered, warm hits: $warm_hits)"
