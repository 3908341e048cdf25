"""knitweave benchmark: four closed-loop, single-process, single-thread
workloads, each checked op by op.

    python3 perfbench/run.py --workload si-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload in turn

Run it from the root of a checkout; the package is imported from ./src.
Inputs follow from --seed alone. Seed 1 is the default; seed 2 is kept as a
second seed to check a claim on that was not used while writing a change.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones:

- ``setup_s``: median over several set-ups of importing the package afresh
  and generating the inputs (for criticality this builds the census);
- ``ops_per_s``: ops completed per second of summed op time;
- ``op_p50_ms`` / ``op_tail_ms``: median and tail op time for the workloads
  that time ops one at a time; the tail is the highest percentile with at
  least ten ops beyond it. The campaign workloads time whole cli_main calls,
  so both report the mean op time there;
- ``peak_rss_mb``: peak resident set of this process;
- ``ok_frac``: 1 - failed/attempted. An op fails when it is late or its
  output does not pass its check.

A run builds one pass of inputs worth about --seconds / passes seconds and
runs it several times, each time in another order; the first output of
every op is checked. Every time (set-ups and ops) is scaled to reference
speed by a probe sampled while it runs (see speed.py), since a shared
machine runs the same code up to 1.7x slower for stretches of seconds to
minutes; the unscaled ops_per_s is printed beside the result. An op's time
is the least of its scaled runs. Every op runs under a fixed per-op limit
on its wall time; an op past it is stopped by SIGALRM, counted late,
charged the limit and not run again.

With ``--trace 1`` every op of one pass runs twice, plain and traced in
alternating order, and the metrics are the per-layer ones (see spans.py) plus the
tracing overhead; the self-time table and the spans are written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import spans as tracing
import speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SECONDS = 15
# set-up runs at least 3 times; a cheap one repeats until it fills 2 s (at
# most 25 times), so that its median is not one noisy import
SETUP_REPEATS = (3, 25)
SETUP_FILL_S = 2.0
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)

# per-layer functions reported by name, and the phase each is measured in
NAMED = {
    "solver.build_configuration": "op",
    "solver.disjoint_paths": "op",
    "solver.max_vertex_disjoint_flow": "op",
    "solver.knit": "op",
    "generators.gen_split_host": "op",
    "campaigns.campaign_lemma_si": "op",
    "campaigns.revalidate_report": "check",
    "structure.is_p_massed": "op",
    "structure.separations_exist": "op",
    "structure.pair_is_knitted": "op",
    "structure.minimize_pair": "op",
    "graphs.enumerate_minors": "op",
    "graphs.canonical_form": "op",
    "graphs.nonisomorphic_graphs": "setup",
    "graphs.max_clique": "op",
    "coloring.chromatic_number": "op",
    "coloring.is_contraction_critical": "op",
    "certify.greedy_link": "op",
    "certify.knitted1_check": "op",
    "formats.write_graph6": "op",
    "cli.cli_main": "op",
}
RATIOS = (
    "campaigns.campaign_lemma_si.hosts_per_sample",
    "solver.max_vertex_disjoint_flow.prune_ratio",
    "structure.pair_is_knitted.knits_per_call",
    "coloring.is_contraction_critical.minors_per_call",
    "graphs.canonical_form.calls_per_minor",
    "certify.greedy_link.success_ratio",
)


class OpLate(BaseException):
    """Raised by the per-op alarm; a BaseException so that no handler in the
    program swallows it."""


def on_alarm(signum, frame):
    raise OpLate()


def fresh_import() -> SimpleNamespace:
    """Import the package as a new process would, caches and all."""
    for name in [n for n in sys.modules if n == "knitweave" or n.startswith("knitweave.")]:
        del sys.modules[name]
    ns = SimpleNamespace(pkg=importlib.import_module("knitweave"))
    for name in tracing.LAYERS + ("errors",):
        setattr(ns, name, importlib.import_module(f"knitweave.{name}"))
    return ns


@dataclass
class Phase:
    times: list = field(default_factory=list)  # seconds per op unit, late ones at the limit
    total_s: float = 0.0
    attempted: int = 0
    late: int = 0
    unconfirmed: int = 0
    wrong: list = field(default_factory=list)  # (ops, message)
    late_families: Counter = field(default_factory=Counter)

    @property
    def failed(self) -> int:
        return self.late + self.unconfirmed + sum(w for w, _ in self.wrong)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.late) / self.total_s

    def record(self, op, dt: float, late: bool, verdict) -> None:
        self.times.append(dt / op.weight)
        self.total_s += dt
        self.attempted += op.weight
        if late:
            self.late += op.weight
            self.late_families[op.family] += op.weight
        elif verdict is not None and verdict[0] == "unconfirmed":
            self.unconfirmed += op.weight
        elif verdict is not None:
            self.wrong.append((op.weight, verdict[1]))

    def merge(self, other: "Phase") -> None:
        """Fold in another phase's counts (its times stay apart)."""
        self.attempted += other.attempted
        self.late += other.late
        self.unconfirmed += other.unconfirmed
        self.wrong += other.wrong
        self.late_families.update(other.late_families)


def time_op(kw, op, limit: float):
    """Run one op under a limit: (start, end, late, output or raised
    exception). A late op is charged the limit."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        t0 = time.perf_counter()
        out = op.run(kw)
        return t0, time.perf_counter(), False, out
    except OpLate:
        return t0, t0 + limit, True, None
    except Exception as exc:  # an op that raises gave a wrong output; keep measuring
        return t0, time.perf_counter(), False, exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


NOT_CHECKED = ("not checked",)


def checked(kw, op, out):
    """The op's check on its output; an op that raised gave a wrong output."""
    if isinstance(out, Exception):
        return ("wrong", f"{op.family} raised {out!r}")
    return op.check(kw, out)


def run_passes(kw, wl, ops, seed: int, sampler) -> tuple[Phase, float]:
    """Run every op ``wl.passes`` times, each pass in its own order, and
    check its first output. An op's time is the least of its runs, each
    scaled to reference speed by ``sampler``. A late op is stopped, charged
    the limit and not run again. Returns the phase and the raw (unscaled)
    seconds of the runs that gave each op its time."""
    best = [math.inf] * len(ops)
    raw = [math.inf] * len(ops)
    late = [False] * len(ops)
    verdicts = [NOT_CHECKED] * len(ops)
    spans = []
    # the inputs live for the whole phase: keep them out of the collector's
    # scans so that its pauses track what the ops allocate
    gc.collect()
    gc.freeze()
    signal.signal(signal.SIGALRM, on_alarm)
    order = list(range(len(ops)))
    for p in range(wl.passes):
        if p:
            random.Random(f"{wl.name}/{seed}/pass{p}").shuffle(order)
        for i in order:
            if late[i]:
                continue
            t0, t1, late[i], out = time_op(kw, ops[i], wl.op_limit_s * ops[i].weight)
            if late[i]:
                best[i] = raw[i] = t1 - t0
                continue
            spans.append((i, t0, t1))
            if verdicts[i] is NOT_CHECKED:
                verdicts[i] = checked(kw, ops[i], out)
            out = None
    gc.unfreeze()
    for i, t0, t1 in spans:
        dt = sampler.scaled(t0, t1)
        if not late[i] and dt < best[i]:
            best[i], raw[i] = dt, t1 - t0
    ph = Phase()
    for op, dt, is_late, verdict in zip(ops, best, late, verdicts):
        ph.record(op, dt, is_late, verdict)
    return ph, sum(raw)


def run_traced(kw, wl, ops, tracer) -> tuple[Phase, Phase]:
    """Run and check every op twice, plain and traced, in alternating
    order, so that drift in machine speed falls on both sides alike;
    returns (plain, traced)."""
    phases = (Phase(), Phase())
    gc.collect()
    gc.freeze()
    signal.signal(signal.SIGALRM, on_alarm)
    for i, op in enumerate(ops):
        for traced in ((False, True), (True, False))[i % 2]:
            if traced:
                tracer.current_op = i
                tracer.install()
            try:
                t0, t1, late, out = time_op(kw, op, wl.op_limit_s * op.weight)
                if traced:
                    tracer.current_op = tracing.CHECK_OP
                verdict = None if late else checked(kw, op, out)
            finally:
                if traced:
                    tracer.uninstall()
            phases[traced].record(op, t1 - t0, late, verdict)
    gc.unfreeze()
    return phases


def tail(times: list) -> tuple[float, float]:
    """(percentile, value) for the highest ladder percentile with at least
    ten samples beyond it; nearest-rank."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50.0, ordered[math.ceil(n / 2) - 1]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "knitweave").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, setups, ph) -> tuple[dict, list[str]]:
    if wl.one_at_a_time:
        p50 = statistics.median(ph.times) * 1000.0
        pct, tail_s = tail(ph.times)
        tail_ms = tail_s * 1000.0
        notes = [f"op_p50_ms over {len(ph.times)} ops",
                 f"op_tail_ms is p{pct:g} of {len(ph.times)} ops"
                 f" ({len(ph.times) - math.ceil(pct / 100.0 * len(ph.times))} beyond)"]
    else:
        p50 = tail_ms = ph.total_s / ph.attempted * 1000.0
        notes = [f"op_p50_ms and op_tail_ms are the mean op time: {ph.attempted} ops"
                 f" in {len(ph.times)} campaign calls"]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(ph.ops_per_s, "1/s"),
        "op_p50_ms": metric(p50, "ms"),
        "op_tail_ms": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "ok_frac": metric((ph.attempted - ph.failed) / ph.attempted, "fraction"),
    }
    return metrics, notes


def per_layer(tracer, plain: Phase, traced: Phase, ops) -> tuple[dict, dict]:
    agg = tracer.aggregate()
    out = {}

    def row(name, phase="op"):
        return agg[phase].get(name, [0, 0.0, 0.0])

    def ratio(a, b):
        return a / b if b else 0.0

    for name, phase in NAMED.items():
        calls, self_s, _ = row(name, phase)
        out[f"{name}.calls"] = metric(calls, "count")
        out[f"{name}.self_s"] = metric(self_s, "s")
    si_samples = sum(op.weight for op in ops if op.family == "campaign-si")
    minors = tracer.yields["op", "graphs.enumerate_minors"]
    values = {
        "campaigns.campaign_lemma_si.hosts_per_sample": ratio(
            tracer.count_children("campaigns.campaign_lemma_si", "solver.build_configuration"),
            si_samples),
        "solver.max_vertex_disjoint_flow.prune_ratio": ratio(
            tracer.hits["op", "solver.max_vertex_disjoint_flow"],
            row("solver.max_vertex_disjoint_flow")[0]),
        "structure.pair_is_knitted.knits_per_call": ratio(
            tracer.count_children("structure.pair_is_knitted", "solver.knit"),
            row("structure.pair_is_knitted")[0]),
        "coloring.is_contraction_critical.minors_per_call": ratio(
            minors, row("coloring.is_contraction_critical")[0]),
        "graphs.canonical_form.calls_per_minor": ratio(row("graphs.canonical_form")[0], minors),
        "certify.greedy_link.success_ratio": ratio(
            tracer.hits["op", "certify.greedy_link"], row("certify.greedy_link")[0]),
    }
    for name in RATIOS:
        out[name] = metric(values[name], "ratio")
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = metric(
            sum(r[1] for n, r in agg["op"].items() if n.startswith(layer + ".")), "s")
    out["trace.overhead_frac"] = metric(1.0 - traced.ops_per_s / plain.ops_per_s, "fraction")
    return out, agg


def self_time_table(wl, agg, plain: Phase, traced: Phase) -> str:
    lines = [f"self time, workload {wl.name} (traced ops; setup and check listed apart)",
             f"tracing overhead: ops_per_s {plain.ops_per_s:.3f} plain,"
             f" {traced.ops_per_s:.3f} traced ({1 - traced.ops_per_s / plain.ops_per_s:+.1%})",
             f"{'phase':6} {'function':45} {'calls':>10} {'self_s':>10} {'total_s':>10}"]
    for phase in ("op", "setup", "check"):
        for name, (calls, self_s, total_s) in sorted(agg[phase].items(), key=lambda kv: -kv[1][1]):
            lines.append(f"{phase:6} {name:45} {calls:10d} {self_s:10.4f} {total_s:10.4f}")
    return "\n".join(lines)


def run_workload(wl, seed: int, seconds: float, traced: bool) -> dict:
    budget_s = seconds / wl.passes
    if not traced:
        setups = []
        with speed.Sampler() as sampler:
            while len(setups) < SETUP_REPEATS[0] or (
                    sum(setups) < SETUP_FILL_S and len(setups) < SETUP_REPEATS[1]):
                kw = ops = None  # let the previous set-up go before the next
                gc.collect()
                t0 = time.perf_counter()
                kw = fresh_import()
                ops, problems = wl.build(kw, seed, budget_s)
                setups.append(sampler.scaled(t0, time.perf_counter()))
            ph, raw_s = run_passes(kw, wl, ops, seed, sampler)
        metrics, notes = end_to_end(wl, setups, ph)
        notes.append(f"setup_s is the median of {len(setups)} set-ups")
        notes.append(f"times are scaled to reference speed; the machine ran at"
                     f" {sampler.mean_speed():.3f}x it ({len(sampler.took)} probes);"
                     f" unscaled ops_per_s {(ph.attempted - ph.late) / raw_s:.4g}")
        return {"phase": ph, "problems": problems, "metrics": metrics, "notes": notes,
                "ops": len(ops), "passes": wl.passes}

    kw = fresh_import()
    tracer = tracing.Tracer(kw)
    tracer.install()
    try:
        ops, problems = wl.build(kw, seed, budget_s)
    finally:
        tracer.uninstall()
    plain, ph = run_traced(kw, wl, ops, tracer)
    metrics, agg = per_layer(tracer, plain, ph, ops)
    OUT.mkdir(exist_ok=True)
    table = self_time_table(wl, agg, plain, ph)
    (OUT / f"selftime-{wl.name}.txt").write_text(table + "\n")
    tracer.write(OUT / f"spans-{wl.name}.tsv.gz")
    ph.merge(plain)
    return {"phase": ph, "problems": problems, "metrics": metrics, "notes": [table],
            "ops": len(ops), "passes": 1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload == "all":
        code = 0
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            print(f"== {name}", flush=True)
            code = max(code, subprocess.run(cmd, check=False).returncode)
        return code

    # the single-thread path is the one measured
    os.environ.pop("KNITWEAVE_THREADS", None)
    if not (SRC / "knitweave" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'knitweave'}; run from a knitweave checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    res = run_workload(wl, args.seed, args.seconds, bool(args.trace))
    ph = res["phase"]
    env = environment()
    correct = not ph.wrong and not res["problems"]
    result = {"correct": correct, "attempted": ph.attempted, "failed": ph.failed,
              "metrics": res["metrics"]}

    print(f"workload {wl.name}: seed {args.seed}, {res['ops']} inputs run {res['passes']}"
          f" time(s) each, op = one {wl.op_unit}, per-op limit {wl.op_limit_s:g} s")
    print("env " + json.dumps(env, sort_keys=True))
    for note in res["notes"]:
        print(note)
    print(f"attempted {ph.attempted}, late {ph.late} {dict(ph.late_families)},"
          f" unconfirmed {ph.unconfirmed}, wrong {sum(w for w, _ in ph.wrong)},"
          f" failed_frac {ph.failed / ph.attempted:.6f}")
    for msg in res["problems"] + [m for _, m in ph.wrong][:20]:
        print(f"WRONG: {msg}")
    for name, m in res["metrics"].items():
        print(f"  {name:55} {m['value']:.6g} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=wl.name, seed=args.seed, trace=args.trace, env=env,
                  late_families=dict(ph.late_families), notes=res["notes"][:2])
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
