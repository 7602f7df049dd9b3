#!/usr/bin/env bash
# Result-store smoke tests (docs/robustness.md, "Result store"):
#
#   1. warm-store re-run performs ZERO simulations (trace-asserted);
#   2. an injected torn write degrades exactly one publish and the
#      next run repairs + back-fills it;
#   3. an injected checksum flip is detected on reload and only the
#      damaged cell re-simulates;
#   4. injected lock-acquire failures are retried to success;
#   5. two concurrent processes sharing one store complete the sweep
#      with NO cell simulated twice;
#   6. the same, with one process compacting the store while its peer
#      may still be claiming: still no duplicates, and a final re-run
#      finds every cell and no corruption.
#
# Asserts on the repro CLI's stable summary lines and on the golden
# JSONL trace schema (tests/golden/trace_schema.txt), not on timing.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE=0.004
REPRO=(cargo run --release -q -p ggs-bench --bin repro --)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Number of ok cell_finish events in a JSONL trace.
count_ok() {
    grep -c '"type":"cell_finish".*"status":"ok"' "$1" || true
}
# One "APP/GRAPH/CONFIG" line per ok cell in a JSONL trace (possibly
# none: a late-starting process can find every cell already done).
ok_keys() {
    { grep '"type":"cell_finish"' "$1" || true; } | { grep '"status":"ok"' || true; } \
        | sed -E 's/.*"app":"([^"]*)".*"graph":"([^"]*)".*"config":"([^"]*)".*/\1\/\2\/\3/'
}

echo "=== 1. warm store: re-run simulates nothing ==="
out=$("${REPRO[@]}" study --scale "$SCALE" --store "$WORK/warm.store")
echo "$out" | grep -E "study: [0-9]+ cells — [0-9]+ ok, 0 failed, 0 timeout, 0 skipped"
out=$("${REPRO[@]}" study --scale "$SCALE" --store "$WORK/warm.store" \
      --trace-out "$WORK/warm.jsonl")
echo "$out" | grep -E "study: ([0-9]+) cells — 0 ok, 0 failed, 0 timeout, \1 skipped"
echo "$out" | grep -E "store: [0-9]+ records, 0 corrupt span\(s\) \(0 bytes skipped\)"
test "$(count_ok "$WORK/warm.jsonl")" -eq 0
cells=$(grep -c '"type":"cell_start"' "$WORK/warm.jsonl")
hits=$(grep -c '"type":"store_hit"' "$WORK/warm.jsonl")
test "$hits" -eq "$cells"
echo "ok: $cells cells, $hits store hits, 0 simulations"

echo "=== 2. torn write: detected, repaired, back-filled ==="
out=$("${REPRO[@]}" study --scale "$SCALE" --store "$WORK/torn.store" \
      --inject-store-fault torn)
# The torn publish degrades (cell stays ok, result unpersisted) but
# must not fail the study.
echo "$out" | grep -E "study: [0-9]+ cells — [0-9]+ ok, 0 failed, 0 timeout, 0 skipped"
out=$("${REPRO[@]}" study --scale "$SCALE" --store "$WORK/torn.store" --store-compact)
# Exactly the unpersisted cell re-simulates; the rest are store hits.
echo "$out" | grep -E "study: [0-9]+ cells — 1 ok, 0 failed, 0 timeout, [0-9]+ skipped"
echo "$out" | grep -E "store: [0-9]+ records,"
echo "$out" | grep -E "store compacted: kept [0-9]+ result\(s\),"

echo "=== 3. checksum flip: detected, only the damaged cell re-runs ==="
out=$("${REPRO[@]}" study --scale "$SCALE" --store "$WORK/crc.store" \
      --inject-store-fault crc)
echo "$out" | grep -E "study: [0-9]+ cells — [0-9]+ ok, 0 failed, 0 timeout, 0 skipped"
out=$("${REPRO[@]}" study --scale "$SCALE" --store "$WORK/crc.store")
echo "$out" | grep -E "study: [0-9]+ cells — 1 ok, 0 failed, 0 timeout, [0-9]+ skipped"

echo "=== 4. lock-acquire failures: retried to success ==="
out=$("${REPRO[@]}" study --scale "$SCALE" --store "$WORK/lock.store" \
      --inject-store-fault lock)
echo "$out" | grep -E "study: [0-9]+ cells — [0-9]+ ok, 0 failed, 0 timeout, 0 skipped"

echo "=== 5. two concurrent processes: no cell simulated twice ==="
# A small lease TTL keeps the failsafe wait bounded if one process is
# scheduled away while holding leases.
"${REPRO[@]}" study --scale "$SCALE" --store "$WORK/shared.store" \
    --lease-ttl-ms 2000 --trace-out "$WORK/proc-a.jsonl" &
pid_a=$!
"${REPRO[@]}" study --scale "$SCALE" --store "$WORK/shared.store" \
    --lease-ttl-ms 2000 --trace-out "$WORK/proc-b.jsonl" &
pid_b=$!
wait "$pid_a"
wait "$pid_b"
ok_keys "$WORK/proc-a.jsonl" > "$WORK/keys-a"
ok_keys "$WORK/proc-b.jsonl" > "$WORK/keys-b"
dups=$(sort "$WORK/keys-a" "$WORK/keys-b" | uniq -d)
if [ -n "$dups" ]; then
    echo "cells simulated twice:"
    echo "$dups"
    exit 1
fi
total=$(grep -c '"type":"cell_start"' "$WORK/proc-a.jsonl")
simulated=$(sort -u "$WORK/keys-a" "$WORK/keys-b" | wc -l)
test "$simulated" -eq "$total"
echo "ok: $total cells split across two processes, zero duplicates"

echo "=== 6. compaction racing a peer: no duplicates, nothing lost ==="
# Process A compacts (renames a new file into place) when its sweep
# ends; process B's index must notice the replacement and carry on.
"${REPRO[@]}" study --scale "$SCALE" --store "$WORK/compact.store" \
    --lease-ttl-ms 2000 --store-compact --trace-out "$WORK/comp-a.jsonl" &
pid_a=$!
"${REPRO[@]}" study --scale "$SCALE" --store "$WORK/compact.store" \
    --lease-ttl-ms 2000 --trace-out "$WORK/comp-b.jsonl" &
pid_b=$!
wait "$pid_a"
wait "$pid_b"
ok_keys "$WORK/comp-a.jsonl" > "$WORK/comp-keys-a"
ok_keys "$WORK/comp-b.jsonl" > "$WORK/comp-keys-b"
dups=$(sort "$WORK/comp-keys-a" "$WORK/comp-keys-b" | uniq -d)
if [ -n "$dups" ]; then
    echo "cells simulated twice:"
    echo "$dups"
    exit 1
fi
out=$("${REPRO[@]}" study --scale "$SCALE" --store "$WORK/compact.store")
echo "$out" | grep -E "study: ([0-9]+) cells — 0 ok, 0 failed, 0 timeout, \1 skipped"
echo "$out" | grep -E "store: [0-9]+ records, 0 corrupt span\(s\) \(0 bytes skipped\)"
echo "ok: compaction raced a peer, zero duplicates, nothing lost"

echo "store smoke: all checks passed"
