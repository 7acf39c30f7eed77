#!/bin/sh
# trace_smoke.sh — end-to-end check of distributed tracing.
#
# Runs a 2-process TCP factorization with -trace, verifies rank 0
# gathered one shard per rank, merges the shards with qrtrace -merge,
# and checks the analysis reports a non-empty critical path and emits
# loadable Chrome trace_event JSON.
#
# Usage: scripts/trace_smoke.sh [path-to-bin-dir]   (default: ./bin)
set -eu

BIN=${1:-bin}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

[ -x "$BIN/qrfactor" ] && [ -x "$BIN/qrtrace" ] || {
    echo "trace-smoke: $BIN/{qrfactor,qrtrace} missing (run: make build)" >&2
    exit 1
}

SHARDS="$WORK/shards.jsonl"
"$BIN/qrfactor" -launch 2 -m 1024 -n 128 -nb 32 -ib 8 -check \
    -trace "$SHARDS" >"$WORK/factor.out" 2>&1 || {
    echo "trace-smoke: traced factorization failed:" >&2
    cat "$WORK/factor.out" >&2
    exit 1
}
[ -s "$SHARDS" ] || {
    echo "trace-smoke: no trace file written" >&2
    cat "$WORK/factor.out" >&2
    exit 1
}
nshards=$(grep -c '^{"t":"shard"' "$SHARDS")
[ "$nshards" -eq 2 ] || {
    echo "trace-smoke: $nshards shard headers in $SHARDS, want 2" >&2
    exit 1
}
echo "trace-smoke: 2-rank run gathered both shards ($(wc -l <"$SHARDS") lines)"

"$BIN/qrtrace" -merge "$SHARDS" -chrome "$WORK/trace.json" >"$WORK/merge.out" 2>&1 || {
    echo "trace-smoke: qrtrace -merge failed:" >&2
    cat "$WORK/merge.out" >&2
    exit 1
}
grep -q '^merged 2 shards' "$WORK/merge.out" || {
    echo "trace-smoke: merge did not report 2 shards:" >&2
    cat "$WORK/merge.out" >&2
    exit 1
}
grep -q '^critical path: [1-9]' "$WORK/merge.out" || {
    echo "trace-smoke: no critical path in the analysis:" >&2
    cat "$WORK/merge.out" >&2
    exit 1
}
grep -q '^WARNING' "$WORK/merge.out" && {
    echo "trace-smoke: recorder dropped events on a smoke-sized run:" >&2
    cat "$WORK/merge.out" >&2
    exit 1
}
echo "trace-smoke: merge reports a critical path, no drops"

# Chrome trace_event JSON: an array of complete ("ph":"X") events.
head -c1 "$WORK/trace.json" | grep -q '\[' || {
    echo "trace-smoke: chrome trace is not a JSON array" >&2
    exit 1
}
grep -q '"ph":"X"' "$WORK/trace.json" || {
    echo "trace-smoke: chrome trace has no complete events" >&2
    exit 1
}
echo "trace-smoke: chrome trace JSON looks loadable"
