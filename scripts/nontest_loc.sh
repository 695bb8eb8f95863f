#!/usr/bin/env bash
# Non-test lines of code per crate: every line of every `.rs` file under
# each crate's `src` directory except the items gated by `#[cfg(test)]`.
# A gated item runs from the attribute through the first line that starts
# with a `}` at the attribute's indentation, so non-test code after a test
# module still counts. Prints one "<dir> <lines>" row per crate and a
# total. A report, not a gate.
#
# Usage: scripts/nontest_loc.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk '
        skip {
            if (index($0, indent "}") == 1) skip = 0
            next
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ {
            match($0, /^[[:space:]]*/)
            indent = substr($0, 1, RLENGTH)
            skip = 1
            next
        }
        { n++ }
        END { print n + 0 }
    ' "$1"
}

total=0
for dir in crates/*/src src; do
    [ -d "$dir" ] || continue
    lines=0
    while IFS= read -r -d '' f; do
        lines=$((lines + $(count "$f")))
    done < <(find "$dir" -name '*.rs' -print0)
    printf '%s %d\n' "$dir" "$lines"
    total=$((total + lines))
done
printf 'total %d\n' "$total"
