"""Rebuild catalog.json: the measured cost of every input the si-sweep,
pipeline-4linked and linkage-queries workloads draw from.

    python3 perfbench/catalog.py                # every section, about 20 minutes on 2 cores
    python3 perfbench/catalog.py si_sweep       # one section

These inputs cost from a millisecond to seconds each, so a plain random
draw of a run's worth of them gives a run time that depends on the seed
more than on the program. The catalog times a fixed set of inputs once on
the program as it is; a workload sorts them by that cost, cuts the sorted
list into as many equal groups as it draws inputs, and draws one input from
each group (``workloads.stratified``). Every seed then gets a set of inputs
with about the same cost at every quantile.

Each input is timed in ``SWEEPS`` sweeps over the whole set and its cost is
the least of its times: a shared machine slows down for a few seconds at a
time, and a sweep takes minutes, so its repeats of one input fall in
different stretches.

- si_sweep, pipeline_4linked: campaign seeds 1..N, each one ``cli_main``
  call of ``samples_per_call`` samples.
- linkage_pool: pool queries 0..POOL_SIZE-1 (``workloads.pool_entry``),
  timed under an alarm at ``LIMIT_CLEARANCE`` times the per-op limit.
  Queries slower than the limit by that factor are the late ones; queries
  within that factor of the limit, on either side, are left out so that no
  op sits near it.
"""

from __future__ import annotations

import json
import math
import signal
import sys
import time

import run
from workloads import (CATALOG, LIMIT_CLEARANCE, PIPELINE_SAMPLES, SI_SAMPLES, WORKLOADS,
                       cli_op, pool_op)

SWEEPS = 3
SI_SEEDS = 120
PIPELINE_SEEDS = 120
POOL_SIZE = 6000


def sweep_costs(kw, ops: list, limit: float, label: str) -> tuple[list, list]:
    """Least time of each op over SWEEPS sweeps (math.inf when late) and the
    checks its first output did not pass."""
    best = [math.inf] * len(ops)
    late = [False] * len(ops)
    failed = []
    for s in range(SWEEPS):
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            if late[i]:
                continue
            t0, t1, is_late, out = run.time_op(kw, op, limit)
            dt = t1 - t0
            if is_late:
                late[i] = True
                continue
            if s == 0:
                verdict = (("wrong", f"raised {out!r}") if isinstance(out, Exception)
                           else op.check(kw, out))
                if verdict is not None:
                    failed.append([i, verdict[1]])
            best[i] = min(best[i], dt)
        print(f"{label}: sweep {s + 1} of {SWEEPS} took {time.perf_counter() - t0:.1f} s",
              file=sys.stderr, flush=True)
    return [math.inf if lt else b for b, lt in zip(best, late)], failed


def campaign_catalog(kw, command: str, samples: int, seeds: int, per_sample: int) -> dict:
    ops = [cli_op(command, ["--samples", str(samples), "--seed", str(cs), "--no-timestamps",
                            command], samples, samples, per_sample)
           for cs in range(1, seeds + 1)]
    costs, failed = sweep_costs(kw, ops, 600.0, command)
    if failed:
        raise SystemExit(f"{command}: checks not passed: {failed}")
    calls = sorted((round(dt, 5), cs) for cs, dt in zip(range(1, seeds + 1), costs))
    return {"samples_per_call": samples, "calls": [[cs, dt] for dt, cs in calls]}


def pool_catalog(kw) -> dict:
    limit = WORKLOADS["linkage-queries"].op_limit_s
    near_lo, near_hi = limit / LIMIT_CLEARANCE, limit * LIMIT_CLEARANCE
    costs, failed = sweep_costs(kw, [pool_op(kw, i) for i in range(POOL_SIZE)], near_hi,
                                "linkage pool")
    kept = sorted((round(dt, 6), i) for i, dt in enumerate(costs) if dt < near_lo)
    return {"size": POOL_SIZE, "limit_s": limit, "clearance": LIMIT_CLEARANCE,
            "late": [i for i, dt in enumerate(costs) if dt == math.inf],
            "left_out_near_limit": [i for i, dt in enumerate(costs) if near_lo <= dt < math.inf],
            "checks_not_passed": failed,
            "kept": [[i, dt] for dt, i in kept]}


SECTIONS = {
    "linkage_pool": pool_catalog,
    "pipeline_4linked": lambda kw: campaign_catalog(kw, "campaign-4linked", PIPELINE_SAMPLES,
                                                    PIPELINE_SEEDS, 2),
    "si_sweep": lambda kw: campaign_catalog(kw, "campaign-si", SI_SAMPLES, SI_SEEDS, 1),
}


def main(argv: list[str]) -> None:
    """Rebuild the named sections (default: all), keeping the others; each
    is written out as soon as it is done."""
    sys.path.insert(0, str(run.SRC))
    kw = run.fresh_import()
    signal.signal(signal.SIGALRM, run.on_alarm)
    catalog = json.loads(CATALOG.read_text()) if CATALOG.exists() else {}
    for name in argv or list(SECTIONS):
        t0 = time.time()
        catalog[name] = SECTIONS[name](kw)
        catalog[name]["built"] = dict(run.environment(), unix=int(t0), sweeps=SWEEPS,
                                      build_s=round(time.time() - t0, 1))
        catalog.pop("reference", None)
        CATALOG.write_text(json.dumps(catalog, indent=0) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
