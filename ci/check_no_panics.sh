#!/usr/bin/env bash
# Panic hygiene gate for the library crates.
#
# Scans the non-test portion of every source file in the workspace's
# library crates (ggs-graph, ggs-sim, ggs-model, ggs-core, ggs-trace,
# ggs-check, ggs-apps, ggs-verify, ggs-bench) for panic sites
# (`.unwrap()`, `.expect(`, `panic!(`, `unreachable!(`) and for
# unfinished-code markers (`todo!(`, `unimplemented!(`), which are never
# acceptable outside tests. Scanning stops at the first `#[cfg(test` in
# each file, so unit tests may panic freely. Lines that are pure `//`
# comments are ignored, as is anything matching a substring in
# ci/panic-allowlist.txt (internal invariants with descriptive messages
# and the one documented panicking wrapper — see docs/api.md). An
# allowlist entry that matches no scanned site is stale and fails the
# gate too, so removed sites cannot leave cover for new ones.
#
# The vendored shim crates (shim-proptest, shim-rand) are test
# infrastructure by definition and are not scanned.
#
# Bare `assert!`/`assert_eq!` are deliberately allowed: they express
# internal invariants, and converting them would hide bugs, not report
# errors.
set -euo pipefail

cd "$(dirname "$0")/.."
allowlist=ci/panic-allowlist.txt
crates="graph sim model core trace check apps verify bench"

fail=0
all_hits=""
for crate in $crates; do
    for file in $(find "crates/$crate/src" -name '*.rs' | sort); do
        hits=$(awk '
            /#\[cfg\(test/ { exit }
            /^[[:space:]]*\/\// { next }
            /\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(|todo!\(|unimplemented!\(/ {
                printf "%s:%d: %s\n", FILENAME, FNR, $0
            }
        ' "$file")
        [ -z "$hits" ] && continue
        all_hits+="$hits"$'\n'
        while IFS= read -r hit; do
            allowed=0
            while IFS= read -r pat; do
                case "$pat" in ''|'#'*) continue ;; esac
                case "$hit" in *"$pat"*) allowed=1; break ;; esac
            done < "$allowlist"
            if [ "$allowed" -eq 0 ]; then
                echo "PANIC SITE: $hit"
                fail=1
            fi
        done <<< "$hits"
    done
done

stale=0
while IFS= read -r pat; do
    case "$pat" in ''|'#'*) continue ;; esac
    case "$all_hits" in
        *"$pat"*) ;;
        *) echo "STALE ALLOWLIST ENTRY: $pat"; stale=1 ;;
    esac
done < "$allowlist"

if [ "$fail" -ne 0 ]; then
    echo
    echo "Panic sites found outside ci/panic-allowlist.txt." >&2
    echo "Convert them to GgsError (see docs/api.md) or, for genuine" >&2
    echo "internal invariants, add the line's distinctive substring to" >&2
    echo "the allowlist with a justification comment. todo!() and" >&2
    echo "unimplemented!() are never allowed outside tests." >&2
fi
if [ "$stale" -ne 0 ]; then
    echo
    echo "Allowlist entries above match no scanned site; remove them." >&2
fi
if [ "$fail" -ne 0 ] || [ "$stale" -ne 0 ]; then
    exit 1
fi
echo "panic check: clean (crates: $crates)"
