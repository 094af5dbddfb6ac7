#!/usr/bin/env bash
# Builds the host-cost benchmark and runs it (README.md in this directory).
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
#                    [--quick] [--export PATH]
#
# Without --workload every workload runs, each in its own single-threaded
# process. --seconds defaults to run_seconds in BENCHMARK.json. The build goes to $CARGO_TARGET_DIR (default .bench_build) under
# the repository root; build output goes to stderr, so the last line on
# stdout is always the run's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f src/CMakeLists.txt ]; then
  echo "run.sh: library sources not found at $root/src" >&2
  exit 1
fi

# The measuring time defaults to BENCHMARK.json's run_seconds; a --seconds
# given here comes later on the command line and wins.
seconds="$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)"
if [ -z "$seconds" ]; then
  echo "run.sh: no run_seconds in $root/BENCHMARK.json" >&2
  exit 1
fi
workload=""
args=(--seconds "$seconds")
while [ $# -gt 0 ]; do
  case "$1" in
    --workload)
      workload="${2:?--workload needs a name}"
      shift 2
      ;;
    --trace)
      if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then
        args+=(--trace "$2")
        shift 2
      else
        args+=(--trace 1)
        shift
      fi
      ;;
    *)
      args+=("$1")
      shift
      ;;
  esac
done

build="${CARGO_TARGET_DIR:-.bench_build}/vsg_hostbench"
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target vsg_hostbench -j 2 >&2
bin="$build/vsg_hostbench"

if [ -n "$workload" ]; then
  exec "$bin" --workload "$workload" "${args[@]}"
fi
status=0
for w in steady saturated churn kv_sharded chaos; do
  "$bin" --workload "$w" "${args[@]}" || status=1
done
exit "$status"
