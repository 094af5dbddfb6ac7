#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises the spread.

    python3 benchmark/calibrate.py --out FILE [--traced]
    python3 benchmark/calibrate.py --compare A.json B.json

A run set runs every workload of BENCHMARK.json on seeds 1..10 for its
run_seconds and records every seed's end-to-end metrics and its
deterministic ("det ") lines, then the median, quartiles and spread
((q3 - q1) / median, quartiles as statistics.quantiles(values, n=4) gives
them) of each metric. The spread is checked against a third of the metric's
bound in BENCHMARK.json (setup_s excepted: only its median is bounded).
--traced adds one traced run per workload. --compare checks that set B's
medians are within the bounds of set A's and that every deterministic line
of a (workload, seed) pair present in both sets is identical.
Exits 1 when a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    det = dict(line.split(" ", 2)[1:] for line in lines if line.startswith("det "))
    return {"seed": seed, "wall_s": round(wall, 3), "result": result, "det": det}


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def measure(args, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    out = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        runs = [run_once(spec, w, s, seconds, False) for s in SEEDS]
        summary = {}
        for name in bounds:
            summary[name] = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            spread = summary[name]["spread"]
            target = bounds[name] / 3
            flag = "" if name == "setup_s" or spread <= target else "  <-- above bound/3"
            ok = ok and flag == ""
            print(f"{w:11s} {name:16s} median {summary[name]['median']:.6g}  "
                  f"spread {spread:.4f} (bound/3 {target:.4f}){flag}", flush=True)
        entry = {"runs": runs, "summary": summary,
                 "correct": all(r["result"]["correct"] for r in runs),
                 "failed": sum(r["result"]["failed"] for r in runs)}
        ok = ok and entry["correct"] and entry["failed"] == 0
        if args.traced:
            entry["traced"] = run_once(spec, w, SEEDS[0], seconds, True)
            ok = ok and entry["traced"]["result"]["correct"]
        out["workloads"][w] = entry
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return ok


def compare(path_a, path_b, spec):
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    ok = True
    for m in spec["end_to_end"]:
        sign = 1 if m["better"] == "lower" else -1
        for w in sorted(set(a) & set(b)):
            ma = a[w]["summary"][m["name"]]["median"]
            mb = b[w]["summary"][m["name"]]["median"]
            worse = sign * (mb - ma) / ma if ma else 0.0
            flag = "" if worse <= m["bound"] else "  <-- worse than bound"
            ok = ok and flag == ""
            print(f"{w:11s} {m['name']:16s} A {ma:.6g}  B {mb:.6g}  "
                  f"B worse by {worse:+.4f} (bound {m['bound']}){flag}")
    for w in sorted(set(a) & set(b)):
        det_a = {r["seed"]: r["det"] for r in a[w]["runs"]}
        for r in b[w]["runs"]:
            if r["seed"] in det_a and det_a[r["seed"]] != r["det"]:
                ok = False
                print(f"{w} seed {r['seed']}: deterministic results differ")
    print("deterministic results identical" if ok else "sets disagree")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    spec = load_spec()
    if args.compare:
        return 0 if compare(*args.compare, spec) else 1
    if not args.out:
        p.error("--out is required unless --compare is given")
    return 0 if measure(args, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
