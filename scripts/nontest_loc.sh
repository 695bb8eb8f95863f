#!/usr/bin/env bash
# Non-test lines of code per crate: for every `.rs` file under each crate's
# `src` directory, the lines before its first `#[cfg(test)]` (the whole
# file when it has none). Prints one "<dir> <lines>" row per crate and a
# total. A report, not a gate.
#
# Usage: scripts/nontest_loc.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/src src; do
    [ -d "$dir" ] || continue
    lines=0
    while IFS= read -r -d '' f; do
        n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
        lines=$((lines + n))
    done < <(find "$dir" -name '*.rs' -print0)
    printf '%s %d\n' "$dir" "$lines"
    total=$((total + lines))
done
printf 'total %d\n' "$total"
