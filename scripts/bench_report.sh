#!/usr/bin/env sh
# Runs the E17 session-forking benchmark and captures its machine-
# readable headline as a JSON report (default: BENCH_e17.json) for
# tracking cold-vs-fork boot cost across commits.
#
# Usage: scripts/bench_report.sh [OUTPUT.json]
#
# Honors CRITERION_SAMPLE_MS (the repo-wide quick-smoke knob) so CI can
# run it capped. Exits 1 if the bench emits no BENCH_E17_JSON line or
# the payload fails the schema sanity check (per-scene cold_us /
# fork_us / speedup plus the forked ramp's wall time and TTFF
# percentiles).
set -eu

cd "$(dirname "$0")/.."

out="${1:-BENCH_e17.json}"
log="$(mktemp)"
trap 'rm -f "$log"' EXIT

cargo bench -q -p atk-bench --bench e17_fork 2>&1 | tee "$log"

line="$(grep '^BENCH_E17_JSON: ' "$log" | tail -n 1 || true)"
if [ -z "$line" ]; then
    echo "bench_report: no BENCH_E17_JSON line in bench output" >&2
    exit 1
fi
printf '%s\n' "${line#BENCH_E17_JSON: }" > "$out"

python3 - "$out" <<'EOF'
import json
import sys

path = sys.argv[1]
doc = json.load(open(path))
assert doc["scenes"], "no scenes in bench report"
for scene, row in doc["scenes"].items():
    for key in ("cold_us", "fork_us", "speedup"):
        assert key in row, f"{scene} missing {key}"
ramp = doc["ramp"]
assert ramp["sessions"] > 0, "ramp ran no sessions"
for key in ("wall_s", "ttff_p50_us", "ttff_p99_us"):
    assert key in ramp["fork"], f"ramp.fork missing {key}"
print(f"bench_report: {path} ok ({len(doc['scenes'])} scenes)")
EOF
