#!/usr/bin/env sh
# The full local gate, in the order a failure is cheapest to see.
# Usage: scripts/ci.sh  (from anywhere inside the repository)
set -eu

cd "$(dirname "$0")/.."

# Scratch files and the background server of the served smoke, cleaned
# up however the gate exits.
scratch=$(mktemp -d)
served_pid=""
trap 'if [ -n "$served_pid" ]; then kill "$served_pid" 2>/dev/null || true; fi; rm -rf "$scratch"' EXIT

echo "==> cargo build --release"
cargo build --release

echo "==> non-test lines per crate (informational, not a gate)"
sh scripts/loc.sh

echo "==> cargo test -q (temp dir: a scratch dir, left with no atk_* entry)"
# Tests that write message stores, saved documents or snapshots under
# the temp dir must remove them; a leak fails the gate here instead of
# filling the host's temp dir run by run.
tests_tmp="$scratch/tmp"
mkdir "$tests_tmp"
TMPDIR="$tests_tmp" cargo test -q
leaked=$(ls "$tests_tmp" | grep '^atk_' || true)
if [ -n "$leaked" ]; then
    echo "cargo test left these in the temp dir:" >&2
    echo "$leaked" >&2
    exit 1
fi

echo "==> cargo test -q --release -p atk-serve (serve tests at release speed)"
# Races between a shard and its clients show only when the server is
# fast, so the serve tests also run in the release profile.
cargo test -q --release -p atk-serve

echo "==> stress smoke (serve tests that wait on other threads and the collab lib tests, twice each, beside two busy loops)"
# Timing races show when the CPUs are contended; scripts/stress.sh
# starts and stops its own busy loops and fails on any failed run.
sh scripts/stress.sh 2 2

echo "==> runcheck smoke (fixed seed, all oracles)"
cargo run --release -q -p atk-check --bin runcheck -- \
    --seed 42 --steps 500 --scene fig1,fig3,fig5 --oracle all

echo "==> runcheck one-step windows (every oracle after every step, seeds that once diverged)"
# With --window 1 each oracle runs after every step, so a divergence
# that a later step would paint over is still seen. These seeds each
# found one (caret, selection, elevator, inset and layout damage).
for seed in 2 3 8 10 11 12 18 19; do
    cargo run --release -q -p atk-check --bin runcheck -- \
        --seed "$seed" --scene all --oracle all --window 1
done

echo "==> stats-plane smoke (in-process loadgen, SLO watchdog armed, Stats probe, trace)"
# --stats makes loadgen fetch the server-wide snapshot over the wire,
# validate the JSON, and fail unless the stage histograms are non-empty
# and the typing shipped moves (serve.moves > 0). 400 typed steps carry
# the caret past the bottom of fig5's text view, so Returns shift the
# lines below them and later steps scroll the view.
# --trace fails the run unless the Chrome trace parses and carries at
# least one session track.
cargo run --release -q -p atk-serve --bin loadgen -- \
    --sessions 4 --steps 400 --profile typing \
    --slo-us 10000000 --stats --max-drops 0 --trace "$scratch/trace.json"

echo "==> served + loadgen --connect smoke (2 shards, 4 remote sessions)"
# The served binary on an OS-assigned port; loadgen reads the address
# from its "served: listening on ADDR" line and drives it over TCP.
"${CARGO_TARGET_DIR:-target}/release/served" --port 0 --shards 2 >"$scratch/served.out" &
served_pid=$!
addr=""
tries=0
while [ -z "$addr" ] && [ "$tries" -lt 100 ]; do
    sleep 0.1
    addr=$(sed -n 's/^served: listening on \([^ ]*\).*/\1/p' "$scratch/served.out")
    tries=$((tries + 1))
done
if [ -z "$addr" ]; then
    echo "served never printed its listening address" >&2
    exit 1
fi
cargo run --release -q -p atk-serve --bin loadgen -- \
    --connect "$addr" --sessions 4 --steps 20
kill "$served_pid"
wait "$served_pid" 2>/dev/null || true
served_pid=""

echo "==> shard-scale loadgen (512 concurrent sessions, rendezvous)"
# All 512 clients hold a rendezvous barrier until every session is
# admitted, so the shards provably host 512 live sessions at once
# (--min-concurrent fails the run otherwise), then release together.
cargo run --release -q -p atk-serve --bin loadgen -- \
    --sessions 512 --max-sessions 512 --steps 12 --profile typing \
    --rendezvous --min-concurrent 512 --max-drops 0

echo "==> perfbench self-test (the benchmark builds against this tree)"
# perfbench/ is its own workspace, so the root build, tests and clippy
# never compile it; this catches a serve API change that breaks it.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --self-test

echo "==> cargo bench --no-run"
cargo bench --no-run -q

echo "==> e12 quick smoke (incremental layout, capped sample time)"
CRITERION_SAMPLE_MS=50 cargo bench -q -p atk-bench --bench e12_incremental_layout

echo "==> e13 quick smoke (latency attribution, capped sample time)"
CRITERION_SAMPLE_MS=50 cargo bench -q -p atk-bench --bench e13_latency

# e14 runs paint, diff and codec groups; its headline's raw -> encoded
# wire ratio comes from one encoded loadgen run.
echo "==> e14 quick smoke (paint, diff and codec, capped sample time)"
CRITERION_SAMPLE_MS=50 cargo bench -q -p atk-bench --bench e14_paint_wire

echo "==> e15 quick smoke (shard dispatch at 1/2/4/8 shards, capped sample time)"
CRITERION_SAMPLE_MS=50 cargo bench -q -p atk-bench --bench e15_shards

echo "==> e16 quick smoke (replicated-document fanout, capped sample time)"
CRITERION_SAMPLE_MS=50 cargo bench -q -p atk-bench --bench e16_collab

echo "==> e17 quick smoke + bench report (session forking, capped sample time)"
# bench_report.sh runs the e17 bench, captures its BENCH_E17_JSON
# headline into BENCH_e17.json, and fails unless the report parses
# with per-scene cold/fork timings and ramp TTFF percentiles.
CRITERION_SAMPLE_MS=50 scripts/bench_report.sh

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> ci: all green"
