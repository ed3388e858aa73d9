#!/usr/bin/env sh
# Prints the non-test lines of each crate's `src/`: every `.rs` file
# counted up to its first `#[cfg(test)]` line (the whole file if it has
# none), then a total. Informational; it gates nothing.
#
# With a commit REF, prints each crate's lines at REF, at HEAD and the
# difference (HEAD minus REF), then the totals. Both trees are read from
# the repository with `git archive` into a temporary directory, so the
# work tree and its uncommitted changes are left alone.
#
# Usage: scripts/loc.sh [REF]  (from anywhere inside the repository)
set -eu

cd "$(dirname "$0")/.."

# Prints "<lines> <crate src dir>" for each crate under directory $1.
lines_of() {
    (
        cd "$1"
        for src in crates/*/src; do
            n=$(find "$src" -name '*.rs' -exec awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' {} \; |
                awk '{ s += $1 } END { print s + 0 }')
            printf '%s %s\n' "$n" "$src"
        done
    )
}

if [ $# -eq 0 ]; then
    lines_of . | awk '{ printf "%6d  %s\n", $1, $2; t += $1 } END { printf "%6d  total\n", t }'
    exit 0
fi

ref=$1
git rev-parse --verify --quiet "$ref^{commit}" >/dev/null || {
    echo "loc.sh: unknown commit '$ref'" >&2
    exit 2
}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for side in ref head; do
    mkdir "$tmp/$side"
done
git archive "$ref" crates | tar -x -C "$tmp/ref"
git archive HEAD crates | tar -x -C "$tmp/head"
lines_of "$tmp/ref" >"$tmp/ref.txt"
lines_of "$tmp/head" >"$tmp/head.txt"

printf '%6s  %6s  %6s  %s\n' REF HEAD diff "crate (REF = $ref)"
awk '
    FNR == NR { old[$2] = $1; seen[$2] = 1; next }
    { new[$2] = $1; seen[$2] = 1 }
    END { for (src in seen) print old[src] + 0, new[src] + 0, src }
' "$tmp/ref.txt" "$tmp/head.txt" | sort -k 3 | awk '
    { printf "%6d  %6d  %+6d  %s\n", $1, $2, $2 - $1, $3; o += $1; n += $2 }
    END { printf "%6d  %6d  %+6d  total\n", o, n, n - o }
'
