#!/usr/bin/env bash
# Smoke test for the host-cost benchmark (README.md in this directory).
#
#   benchmark/smoke.sh [--quick]
#
# Runs every workload untraced and traced, twice each with one seed, and
# asserts that
#   - the JSON result names exactly the metrics BENCHMARK.json lists for
#     that mode (end_to_end untraced, per_layer traced), and is correct;
#   - the two runs print identical deterministic ("det ") lines;
#   - the --export snapshot passes `vsg_report --validate` (vsg-metrics-v1).
# Runs go through run.sh, so they measure BENCHMARK.json's run_seconds;
# --quick shrinks every unit and measures one second per run (under 60 s
# once built).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
quick=()
if [ "${1:-}" = --quick ]; then
  quick=(--quick --seconds 1)
fi

build="${CARGO_TARGET_DIR:-.bench_build}/vsg_hostbench"
bash benchmark/run.sh --workload steady --seconds 0.01 --quick >/dev/null
cmake --build "$build" --target vsg_report -j 2 >/dev/null
out="$(mktemp -d "$build/smoke.XXXXXX")"
trap 'rm -rf "$out"' EXIT

fail=0
for w in steady saturated churn kv_sharded chaos; do
  for trace in 0 1; do
    for run in a b; do
      if ! bash benchmark/run.sh --workload "$w" --seed 7 --trace "$trace" "${quick[@]}" \
        --export "$out/$w.$trace.json" >"$out/$w.$trace.$run" 2>"$out/stderr"; then
        cat "$out/stderr" >&2
        echo "smoke: $w trace=$trace run $run failed" >&2
        fail=1
      fi
    done
    python3 - "$trace" "$out/$w.$trace.a" <<'EOF' || fail=1
import json, sys
spec = json.load(open("BENCHMARK.json"))
want = [m["name"] for m in spec["per_layer" if sys.argv[1] == "1" else "end_to_end"]]
result = json.loads(open(sys.argv[2]).read().strip().splitlines()[-1])
missing = [n for n in want if n not in result["metrics"]]
extra = [n for n in result["metrics"] if n not in want]
if missing or extra or not result["correct"] or result["failed"] != 0:
    sys.exit(f"{sys.argv[2]}: missing {missing}, extra {extra}, correct "
             f"{result['correct']}, failed {result['failed']}")
EOF
    if ! diff <(grep '^det ' "$out/$w.$trace.a") <(grep '^det ' "$out/$w.$trace.b") >&2; then
      echo "smoke: $w trace=$trace: deterministic results differ between runs" >&2
      fail=1
    fi
    "$build/vsg_report" --validate "$out/$w.$trace.json" >/dev/null || fail=1
    echo "smoke: $w trace=$trace done"
  done
done
if [ "$fail" -ne 0 ]; then
  echo "smoke: FAILED" >&2
  exit 1
fi
echo "smoke: OK"
