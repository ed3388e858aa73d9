#!/usr/bin/env sh
# Runs the serve test binaries whose assertions wait on other threads
# (wakeup, stats_plane, shard_drain, chaos, collab_differential) and the
# atk-collab lib tests (a replica attaching while another thread
# submits) K times each, in the release profile, beside N busy-loop
# processes that compete for the CPUs, and prints how many runs of each
# test binary failed. Exits 1 if any run failed.
#
# The busy loops are this script's own child processes, stopped however
# it exits; no machine setting is changed.
#
# Usage: scripts/stress.sh [K] [N]   (defaults K=10, N=2; N at most 4)
set -eu

cd "$(dirname "$0")/.."

k=${1:-10}
n=${2:-2}
case "$k$n" in
*[!0-9]*)
    echo "usage: scripts/stress.sh [K] [N]" >&2
    exit 2
    ;;
esac
if [ "$n" -gt 4 ]; then
    echo "stress.sh: at most 4 busy loops (asked for $n)" >&2
    exit 2
fi

tests="wakeup stats_plane shard_drain chaos collab_differential"
log=$(mktemp)
loops=""
trap 'for p in $loops; do kill "$p" 2>/dev/null || true; done; rm -f "$log"' EXIT
trap 'exit 130' INT TERM

# Build first, so the busy loops compete with the tests, not the build.
cargo test -q --release -p atk-serve -p atk-collab --no-run 2>"$log" || {
    cat "$log" >&2
    exit 1
}

i=0
while [ "$i" -lt "$n" ]; do
    sh -c 'while :; do :; done' &
    loops="$loops $!"
    i=$((i + 1))
done

failed=0
# Runs the command after the label K times and counts its failures.
stress() {
    label=$1
    shift
    fails=0
    run=0
    while [ "$run" -lt "$k" ]; do
        if ! "$@" >"$log" 2>&1; then
            fails=$((fails + 1))
            echo "stress: $label failed on run $((run + 1)):" >&2
            tail -n 20 "$log" >&2
        fi
        run=$((run + 1))
    done
    echo "stress: $label: $fails of $k runs failed beside $n busy loops"
    failed=$((failed + fails))
}

for t in $tests; do
    stress "$t" cargo test -q --release -p atk-serve --test "$t"
done
stress atk-collab cargo test -q --release -p atk-collab --lib

[ "$failed" -eq 0 ]
