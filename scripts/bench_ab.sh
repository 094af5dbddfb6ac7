#!/usr/bin/env bash
# A/B the host-cost benchmark: a git revision against the working tree.
#
#   scripts/bench_ab.sh REV WORKLOAD PAIRS [-- extra run.sh flags]
#
# Exports REV with `git archive` and builds it and the working tree with
# their own CARGO_TARGET_DIRs, then runs `benchmark/run.sh --workload
# WORKLOAD` PAIRS times on each side, alternating which side goes first.
# Prints, for every end-to-end metric of BENCHMARK.json, the median and
# interquartile range on each side, change / parent (the ratio of the
# medians), the median and interquartile range of the per-pair ratios
# change_i / parent_i, and the number of pairs the change wins. The two
# runs of a pair are back to back, so a pair's ratio cancels the host's
# drift between pairs that widens each side's own IQR. Last it diffs the
# `det` lines of one `--quick --seed 7 --seconds 1` run per side: a
# host-only change must leave every line but peak_heap_mb bit-identical.
# Those two runs also export vsg-metrics-v1 snapshots, and `vsg_report
# --diff` (built from the working tree) lists every registry entry that
# moved between them.
#
# Work files (the exported tree, both builds, every run's output) go to
# $BENCH_AB_DIR, default a fresh directory from mktemp; reuse one to skip
# the builds on a second call. Exits 1 when a run fails.
set -euo pipefail

if [ $# -lt 3 ]; then
  sed -n '4p' "$0" >&2
  exit 2
fi
rev="$1" workload="$2" pairs="$3"
shift 3
[ "${1:-}" = -- ] && shift
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dir="${BENCH_AB_DIR:-$(mktemp -d)}"
mkdir -p "$dir/runs"
dir="$(cd "$dir" && pwd)"

parent_src="$dir/parent_src"
if [ ! -f "$parent_src/BENCHMARK.json" ]; then
  mkdir -p "$parent_src"
  git -C "$root" archive "$rev" | tar -x -C "$parent_src"
fi

# run SIDE OUT ARGS...: one benchmark/run.sh call on one side.
run() {
  local side="$1" out="$2"
  shift 2
  local src="$root"
  [ "$side" = parent ] && src="$parent_src"
  (cd "$src" && CARGO_TARGET_DIR="$dir/build_$side" bash benchmark/run.sh "$@") \
    >"$out" 2>"$out.err" || { cat "$out.err" >&2; echo "bench_ab: $side run failed" >&2; exit 1; }
}

for side in parent change; do
  echo "bench_ab: building $side" >&2
  run "$side" "$dir/runs/det_$side" --workload "$workload" --quick --seed 7 --seconds 1 \
    --export "$dir/runs/det_$side.json"
done
echo "bench_ab: building vsg_report" >&2
if [ ! -f "$dir/build_tools/CMakeCache.txt" ]; then
  cmake -S "$root" -B "$dir/build_tools" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$dir/build_tools" --target vsg_report -j 2 >&2

for ((i = 0; i < pairs; ++i)); do
  order=(parent change)
  ((i % 2)) && order=(change parent)
  for side in "${order[@]}"; do
    echo "bench_ab: pair $((i + 1))/$pairs $side" >&2
    run "$side" "$dir/runs/${side}_$i" --workload "$workload" "$@"
  done
done

python3 - "$root/BENCHMARK.json" "$dir/runs" "$pairs" "$rev" "$workload" <<'EOF'
import json, statistics, sys
spec, runs, pairs, rev, workload = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5]

def result(path):
    return json.loads(open(path).read().strip().splitlines()[-1])["metrics"]

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[1], q[2]

side = {s: [result(f"{runs}/{s}_{i}") for i in range(pairs)] for s in ("parent", "change")}
print(f"{workload}: {rev} (parent) vs working tree (change), {pairs} pairs")
print(f"{'metric':<18}{'parent median':>15}{'IQR':>11}{'change median':>15}{'IQR':>11}"
      f"{'change/parent':>15}{'pair ratio':>12}{'IQR':>9}{'wins':>7}")
for m in json.load(open(spec))["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    a = [r[name]["value"] for r in side["parent"]]
    b = [r[name]["value"] for r in side["change"]]
    qa, qb = quartiles(a), quartiles(b)
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    ratio = qb[1] / qa[1] if qa[1] else float("nan")
    pair = [y / x for x, y in zip(a, b) if x]
    qr = quartiles(pair) if pair else [float("nan")] * 3
    print(f"{name:<18}{qa[1]:>15.6g}{qa[2] - qa[0]:>11.3g}{qb[1]:>15.6g}{qb[2] - qb[0]:>11.3g}"
          f"{ratio:>15.4f}{qr[1]:>12.4f}{qr[2] - qr[0]:>9.3g}{wins:>4}/{pairs}")
EOF

echo "det lines (--quick --seed 7 --seconds 1), parent vs change:"
if diff <(grep '^det ' "$dir/runs/det_parent") <(grep '^det ' "$dir/runs/det_change"); then
  echo "  identical"
fi
echo "registry of the same runs, parent vs change (vsg_report --diff):"
status=0
"$dir/build_tools/tools/vsg_report" --diff "$dir/runs/det_parent.json" \
  "$dir/runs/det_change.json" >"$dir/runs/registry_diff" || status=$?
sed 's/^/  /' "$dir/runs/registry_diff"
[ "$status" -le 1 ] || exit 1
