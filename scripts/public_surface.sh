#!/usr/bin/env bash
# Public items per library crate: builds each crate's rustdoc JSON with the
# nightly toolchain and counts the index entries that belong to the crate
# itself (`crate_id == 0`) and are `public`. Prints one "<crate> <items>"
# row per crate and a total. A report, not a gate.
#
# Needs a nightly toolchain (`rustup toolchain install nightly`) and jq.
# The JSON lands in target/public-surface, apart from the stable builds.
#
# Usage: scripts/public_surface.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

out=target/public-surface
total=0
for manifest in crates/*/Cargo.toml Cargo.toml; do
    crate=$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -n 1)
    cargo +nightly rustdoc --quiet -p "$crate" --lib --target-dir "$out" \
        -- -Z unstable-options --output-format json
    n=$(jq '[.index[] | select(.crate_id == 0 and .visibility == "public")] | length' \
        "$out/doc/${crate//-/_}.json")
    printf '%s %d\n' "$crate" "$n"
    total=$((total + n))
done
printf 'total %d\n' "$total"
