#!/usr/bin/env bash
# Result-store smoke tests (docs/robustness.md, "Result store"):
#
#   1. warm-store re-run performs ZERO simulations (trace-asserted);
#   2. an injected torn write degrades exactly one publish and the
#      next run repairs + back-fills it;
#   3. an injected checksum flip is detected on reload and only the
#      damaged cell re-simulates;
#   4. a store whose lock another process holds is refused: the second
#      `repro study` exits 2 and leaves the store byte-identical;
#   5. a leftover lock file, whatever it holds, does not block a run.
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

echo "=== 4. a held store is refused and left as it was ==="
"${REPRO[@]}" study --scale "$SCALE" --store "$WORK/held.store" > /dev/null
cp "$WORK/held.store" "$WORK/held.before"
# util-linux flock holds the lock, as a live `repro study` would.
status=0
flock "$WORK/held.store.lock" "${REPRO[@]}" study --scale "$SCALE" \
    --store "$WORK/held.store" > /dev/null 2> "$WORK/held.err" || status=$?
test "$status" -eq 2
grep -F "result store lock unavailable" "$WORK/held.err"
cmp "$WORK/held.store" "$WORK/held.before"
echo "ok: the second opener exited 2, the store is unchanged"

echo "=== 5. a leftover lock file does not block ==="
# Case 4 left its lock file behind; so does every run. An old owner
# record in it means nothing either: only the OS lock counts.
test -e "$WORK/held.store.lock"
out=$("${REPRO[@]}" study --scale "$SCALE" --store "$WORK/held.store")
echo "$out" | grep -E "study: [0-9]+ cells — [0-9]+ ok, 0 failed"
printf '{"pid":999999,"acquired_ms":1}' > "$WORK/held.store.lock"
out=$("${REPRO[@]}" study --scale "$SCALE" --store "$WORK/held.store")
echo "$out" | grep -E "study: [0-9]+ cells — [0-9]+ ok, 0 failed"
echo "ok: leftover lock files did not block"

echo "store smoke: all checks passed"
