#!/bin/sh
# plan_smoke.sh — end-to-end check of the trace-driven planner.
#
# Starts qrserve -autotune with two launched agent processes, exercises
# the POST /v1/plan dry-run (computed, then served from the plan cache),
# runs one autotuned job end-to-end and verifies its plan block and the
# qrserve_plan_* metrics, then points qrbench -plan at both a canned
# machine model and the live server's /v1/machine-model.
#
# Usage: scripts/plan_smoke.sh [path-to-bin-dir]   (default: ./bin)
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

[ -x "$BIN/qrserve" ] && [ -x "$BIN/qrbench" ] || {
    echo "plan-smoke: $BIN/qrserve or $BIN/qrbench missing (run: make build)" >&2
    exit 1
}

"$BIN/qrserve" -listen 127.0.0.1:0 -portfile "$WORK/port" \
    -launch 2 -threads 2 -autotune >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!

i=0
until [ -s "$WORK/port" ]; do
    i=$((i + 1))
    if [ "$i" -gt 300 ] || ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "plan-smoke: qrserve did not come up" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$WORK/port")
echo "plan-smoke: qrserve up at $ADDR (fleet-wide -autotune)"

# Dry-run planning commits no job: the full ranked decision comes back
# with the hand-default scored alongside the choice.
curl -sf "http://$ADDR/v1/plan" -d '{"m":4096,"n":256}' >"$WORK/plan1"
grep -q '"choice"' "$WORK/plan1" && grep -q '"default"' "$WORK/plan1" &&
    grep -q '"predicted_ms"' "$WORK/plan1" && grep -q '"rationale"' "$WORK/plan1" || {
    echo "plan-smoke: /v1/plan decision incomplete:" >&2
    cat "$WORK/plan1" >&2
    exit 1
}
grep -q '"from_cache":true' "$WORK/plan1" && {
    echo "plan-smoke: first plan claims a cache hit" >&2
    exit 1
}
echo "plan-smoke: /v1/plan dry-run returns a scored decision"

# The machine the decision was made on is echoed back with exactly one
# measured rate entry: the kernels timed on this host at the library tile
# (qr.DefaultOptions, nb=192 ib=24), the only tile the server ever times.
grep -q '"rates":\[{"nb":192,"ib":24,"gflops":\[[^]]*\]}\]' "$WORK/plan1" || {
    echo "plan-smoke: the planner's machine model does not carry exactly one rate, at 192/24:" >&2
    cat "$WORK/plan1" >&2
    exit 1
}
echo "plan-smoke: machine model carries one measured rate, at the library tile"

# Same shape again must be served from the epoch-keyed plan cache.
curl -sf "http://$ADDR/v1/plan" -d '{"m":4096,"n":256}' >"$WORK/plan2"
grep -q '"from_cache":true' "$WORK/plan2" || {
    echo "plan-smoke: replanning the same shape missed the cache:" >&2
    cat "$WORK/plan2" >&2
    exit 1
}
echo "plan-smoke: repeat plan served from cache"

# One autotuned job end-to-end: under -autotune every job carries its
# plan block on the job view.
curl -sf "http://$ADDR/v1/factorize" \
    -d '{"m":1024,"n":128,"seed":17,"wait":true}' >"$WORK/job1"
grep -q '"status":"done"' "$WORK/job1" && grep -q '"ok":true' "$WORK/job1" || {
    echo "plan-smoke: autotuned job did not complete cleanly:" >&2
    cat "$WORK/job1" >&2
    exit 1
}
grep -q '"plan"' "$WORK/job1" && grep -q '"predicted_ms"' "$WORK/job1" || {
    echo "plan-smoke: job view carries no plan block:" >&2
    cat "$WORK/job1" >&2
    exit 1
}
echo "plan-smoke: autotuned job done, plan block on the job view"

curl -sf "http://$ADDR/metrics" >"$WORK/metrics"
grep -q 'qrserve_plan_total{source="computed"} [1-9]' "$WORK/metrics" &&
    grep -q 'qrserve_plan_total{source="cache"} [1-9]' "$WORK/metrics" || {
    echo "plan-smoke: plan counters missing or zero:" >&2
    grep 'qrserve_plan' "$WORK/metrics" >&2 || true
    exit 1
}
grep -q 'qrserve_plan_seconds_bucket' "$WORK/metrics" || {
    echo "plan-smoke: plan latency histogram missing" >&2
    exit 1
}
grep -q 'qrserve_plan_actual_over_predicted_bucket' "$WORK/metrics" || {
    echo "plan-smoke: calibration-ratio histogram missing" >&2
    exit 1
}
curl -sf "http://$ADDR/v1/status" >"$WORK/status"
grep -q '"planner"' "$WORK/status" && grep -q '"plans"' "$WORK/status" || {
    echo "plan-smoke: /v1/status has no planner block:" >&2
    cat "$WORK/status" >&2
    exit 1
}
echo "plan-smoke: planner metrics and status block exported"

# Offline planner against a canned machine, then against the live
# server's measured /v1/machine-model.
"$BIN/qrbench" -plan -plan-m 2048 -plan-n 256 -plan-machine localhost:2,2 >"$WORK/offline"
grep -q 'chosen' "$WORK/offline" && grep -q 'default' "$WORK/offline" || {
    echo "plan-smoke: qrbench -plan (canned machine) output unexpected:" >&2
    cat "$WORK/offline" >&2
    exit 1
}
"$BIN/qrbench" -plan -plan-m 2048 -plan-n 256 \
    -plan-machine "http://$ADDR" >"$WORK/live"
grep -q 'chosen' "$WORK/live" && grep -q 'measured kernel rates for [1-9]' "$WORK/live" || {
    echo "plan-smoke: qrbench -plan against the live model failed:" >&2
    cat "$WORK/live" >&2
    exit 1
}
echo "plan-smoke: qrbench -plan works offline and against the live model"

kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || {
    echo "plan-smoke: qrserve exited non-zero on SIGTERM" >&2
    exit 1
}
SERVE_PID=
echo "plan-smoke: clean shutdown"
