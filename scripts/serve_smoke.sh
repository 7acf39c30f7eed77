#!/bin/sh
# serve_smoke.sh — end-to-end check of the factorization service.
#
# Starts qrserve with two launched agent processes, submits three
# concurrent jobs over HTTP, verifies each completes with a passing
# residual, checks the metrics counters agree, runs one uploaded job
# across the three processes, and shuts down cleanly.
#
# Usage: scripts/serve_smoke.sh [path-to-bin-dir]   (default: ./bin)
set -eu

BIN=${1:-bin}
WORK=$(mktemp -d)
SERVE_PID=

cleanup() {
    status=$?
    if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
        kill -TERM "$SERVE_PID" 2>/dev/null || true
        wait "$SERVE_PID" 2>/dev/null || true
    fi
    if [ "$status" -ne 0 ]; then
        echo "--- qrserve log ---"
        cat "$WORK/serve.log" 2>/dev/null || true
    fi
    rm -rf "$WORK"
    exit "$status"
}
trap cleanup EXIT INT TERM

[ -x "$BIN/qrserve" ] || {
    echo "serve-smoke: $BIN/qrserve missing (run: make build)" >&2
    exit 1
}

"$BIN/qrserve" -listen 127.0.0.1:0 -portfile "$WORK/port" \
    -launch 2 -threads 2 >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!

# Wait for the HTTP listener (the portfile appears once it is bound).
i=0
until [ -s "$WORK/port" ]; do
    i=$((i + 1))
    if [ "$i" -gt 300 ] || ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "serve-smoke: qrserve did not come up" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$WORK/port")
echo "serve-smoke: qrserve up at $ADDR"

curl -sf "http://$ADDR/healthz" | grep -q '"ranks":3' || {
    echo "serve-smoke: expected a 3-rank fleet" >&2
    exit 1
}

# Three concurrent jobs, distinct shapes and reduction trees.
curl -sf "http://$ADDR/v1/factorize" \
    -d '{"m":1024,"n":256,"seed":11,"wait":true}' >"$WORK/job1" &
P1=$!
curl -sf "http://$ADDR/v1/factorize" \
    -d '{"m":768,"n":192,"seed":12,"tree":"flat","wait":true}' >"$WORK/job2" &
P2=$!
curl -sf "http://$ADDR/v1/factorize" \
    -d '{"m":512,"n":128,"seed":13,"tree":"binary","wait":true}' >"$WORK/job3" &
P3=$!
wait "$P1" && wait "$P2" && wait "$P3" || {
    echo "serve-smoke: a submit request failed" >&2
    exit 1
}

for j in 1 2 3; do
    grep -q '"status":"done"' "$WORK/job$j" && grep -q '"ok":true' "$WORK/job$j" || {
        echo "serve-smoke: job $j did not complete cleanly:" >&2
        cat "$WORK/job$j" >&2
        exit 1
    }
done
echo "serve-smoke: 3 concurrent jobs done, residuals within tolerance"

curl -sf "http://$ADDR/metrics" >"$WORK/metrics"
grep -q '^qrserve_jobs_completed_total 3$' "$WORK/metrics" || {
    echo "serve-smoke: metrics disagree (want 3 completed):" >&2
    grep '^qrserve_jobs' "$WORK/metrics" >&2 || true
    exit 1
}
grep -q '^qrserve_job_latency_seconds_count 3$' "$WORK/metrics" || {
    echo "serve-smoke: latency histogram count != 3" >&2
    exit 1
}
echo "serve-smoke: metrics agree (3 completed, histogram count 3)"

# Transport telemetry: the fleet run must have moved bytes over both
# agent links and counted post-run barriers.
grep -q '^qrserve_link_sent_bytes_total{peer="1"} [1-9]' "$WORK/metrics" &&
    grep -q '^qrserve_link_sent_bytes_total{peer="2"} [1-9]' "$WORK/metrics" || {
    echo "serve-smoke: no link byte counters for the agents:" >&2
    grep '^qrserve_link' "$WORK/metrics" >&2 || true
    exit 1
}
# Per-job barriers run over the mux, not the root endpoint, so the root
# counter may be 0 — but the series must be exported.
grep -q '^qrserve_transport_barriers_total ' "$WORK/metrics" || {
    echo "serve-smoke: barrier counter series missing" >&2
    exit 1
}
grep -q '^qrserve_mux_jobs_open ' "$WORK/metrics" || {
    echo "serve-smoke: mux depth series missing" >&2
    exit 1
}
echo "serve-smoke: transport telemetry moving (link bytes, mux depths)"

# Observability layer: lifecycle spans on the job view, build identity and
# span histograms on /metrics, the live status snapshot, and a machine
# model the simulator can load.
curl -sf "http://$ADDR/v1/jobs/1" >"$WORK/job1view"
grep -q '"spans"' "$WORK/job1view" && grep -q '"queue_wait_ms"' "$WORK/job1view" &&
    grep -q '"run_ms"' "$WORK/job1view" || {
    echo "serve-smoke: job view carries no lifecycle spans:" >&2
    cat "$WORK/job1view" >&2
    exit 1
}
grep -q '^qrserve_build_info{' "$WORK/metrics" || {
    echo "serve-smoke: build-info gauge missing" >&2
    exit 1
}
grep -q '^qrserve_mux_barriers_total ' "$WORK/metrics" || {
    echo "serve-smoke: mux barrier totals missing" >&2
    exit 1
}
grep -q 'qrserve_queue_wait_seconds_bucket' "$WORK/metrics" &&
    grep -q 'qrserve_run_seconds_count{class="job"} 3' "$WORK/metrics" || {
    echo "serve-smoke: lifecycle span histograms missing or miscounted:" >&2
    grep 'qrserve_run_seconds\|qrserve_queue_wait' "$WORK/metrics" >&2 || true
    exit 1
}
curl -sf "http://$ADDR/v1/status" >"$WORK/status"
grep -q '"kernel"' "$WORK/status" && grep -q '"ranks":3' "$WORK/status" &&
    grep -q '"classes"' "$WORK/status" || {
    echo "serve-smoke: /v1/status incomplete:" >&2
    cat "$WORK/status" >&2
    exit 1
}
echo "serve-smoke: spans, status and build info all serving"

# An uploaded matrix the way a curl user sends one — JSON "data", column
# major — at a tile size that gives each of the three processes one tile
# row: text in, then rank 0 deals the rows out to the agents as bits.
curl -sf "http://$ADDR/v1/factorize" \
    -d '{"m":6,"n":2,"nb":2,"ib":2,"data":[1,2,3,4,5,6,2,1,4,3,6,7],"wait":true}' >"$WORK/upload"
grep -q '"status":"done"' "$WORK/upload" && grep -q '"ok":true' "$WORK/upload" || {
    echo "serve-smoke: uploaded job did not complete cleanly:" >&2
    cat "$WORK/upload" >&2
    exit 1
}
echo "serve-smoke: uploaded JSON job scattered across 3 processes, residual within tolerance"

# qrstat renders one snapshot against the live server.
if [ -x "$BIN/qrstat" ]; then
    "$BIN/qrstat" -url "http://$ADDR" >"$WORK/qrstat.out"
    grep -q 'fleet: 3/3 ranks live' "$WORK/qrstat.out" || {
        echo "serve-smoke: qrstat snapshot wrong:" >&2
        cat "$WORK/qrstat.out" >&2
        exit 1
    }
    echo "serve-smoke: qrstat snapshot renders the fleet"
fi

kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || {
    echo "serve-smoke: qrserve exited non-zero on SIGTERM" >&2
    exit 1
}
SERVE_PID=
# Agents are qrserve processes too: what tells one apart is the -rank its
# launcher put on its command line.
if pgrep -f "$BIN/qrserve .*-rank [1-9]" >/dev/null 2>&1; then
    echo "serve-smoke: orphaned qrserve agents left behind" >&2
    pkill -f "$BIN/qrserve .*-rank [1-9]" || true
    exit 1
fi
echo "serve-smoke: clean shutdown, no orphaned agents"
