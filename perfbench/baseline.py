"""Measure the spread of the end-to-end metrics and write baseline.json.

    python3 perfbench/baseline.py --seeds 10 --sets 2      # about 50 minutes on 2 cores

For every workload it makes ``--sets`` sets of untraced runs, one run per
seed 1..``--seeds`` in each, then one traced run with seed 1. For each
metric it records the median and quartiles of every set, the spread
(q3 - q1) / median as ``statistics.quantiles(n=4)`` gives the quartiles, and
how much worse each later set's median is than the first's, as a share of
the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=HERE.parent)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["summary"] = next((ln for ln in lines if ln.startswith("attempted ")), "")
    result["env"] = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
    return result


def stats(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": round((q3 - q1) / med, 4)}


def worse(first: float, later: float, better: str) -> float:
    return round((later - first) / first if better == "lower" else (first - later) / first, 4)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workload", action="append", help="default: every workload")
    args = ap.parse_args()
    path = HERE / "baseline.json"
    baseline = json.loads(path.read_text()) if path.exists() else {}
    baseline["about"] = (
        f"{args.sets} set(s) of {args.seeds} untraced runs per workload (seeds 1..{args.seeds},"
        f" run_seconds {BENCH['run_seconds']}) and one traced run with seed 1, made by"
        " perfbench/baseline.py. 'spread' is (q3 - q1) / median of a set; 'worse' is how much"
        " worse a later set's median is than the first's, as a share of the first.")
    for wl in args.workload or [w["name"] for w in BENCH["workloads"]]:
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in range(1, args.seeds + 1):
                r = one_run(wl, seed, 0)
                runs.append({"seed": seed, "attempted": r["attempted"], "failed": r["failed"],
                             "summary": r["summary"],
                             "metrics": {k: v["value"] for k, v in r["metrics"].items()}})
                print(wl, f"set {s + 1}", seed, json.dumps(runs[-1]["metrics"]), flush=True)
            sets.append(runs)
        e2e = {}
        for m in BENCH["end_to_end"]:
            per_set = [stats([r["metrics"][m["name"]] for r in runs]) for runs in sets]
            e2e[m["name"]] = {"bound": m["bound"], "sets": per_set,
                              "worse": [worse(per_set[0]["median"], p["median"], m["better"])
                                        for p in per_set[1:]]}
            print(wl, m["name"], json.dumps(e2e[m["name"]]), flush=True)
        traced = one_run(wl, 1, 1)
        baseline.setdefault("workloads", {})[wl] = {
            "end_to_end": e2e, "runs": sets,
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
            "trace_summary": traced["summary"]}
        baseline["env"] = traced["env"]
        path.write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
