#!/usr/bin/env sh
# Prints the non-test lines of each crate's `src/`: every `.rs` file
# counted up to its first `#[cfg(test)]` line (the whole file if it has
# none), then a total. Informational; it gates nothing.
# Usage: scripts/loc.sh  (from anywhere inside the repository)
set -eu

cd "$(dirname "$0")/.."

total=0
for src in crates/*/src; do
    n=$(find "$src" -name '*.rs' -exec awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' {} \; |
        awk '{ s += $1 } END { print s + 0 }')
    printf '%6d  %s\n' "$n" "$src"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
