"""The four workloads: how each builds its ops from a seed, what one op is,
and how each op's output is checked.

Every op is a closure over generated inputs only. It reaches the library
through the module namespace handed to it at call time (``kw.solver``,
``kw.cli`` ...), so the traced run sees the same calls the plain run makes.

A check returns ``None`` when the output is right, ``("unconfirmed", why)``
when the output cannot be confirmed (the op counts as failed) and
``("wrong", why)`` when the output contradicts a known answer or its own
certificate (the op counts as failed and the run as incorrect).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CATALOG = Path(__file__).with_name("catalog.json")


@dataclass
class Op:
    family: str
    weight: int  # ops this unit counts for; a campaign call holds many
    run: Callable
    check: Callable


def _wrong(msg: str):
    return ("wrong", msg)


# ---------------------------------------------------------------------------
# Campaign workloads: campaign-si and campaign-4linked through cli.cli_main
# ---------------------------------------------------------------------------

def cli_op(family: str, argv: list[str], weight: int, requested: int, per_sample: int) -> Op:
    def run(kw):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = kw.cli.cli_main(argv)
        return code, buf.getvalue()

    def check(kw, out):
        code, text = out
        if code != 0:
            return _wrong(f"{' '.join(argv)} exited with {code}")
        try:
            report = kw.campaigns.load_report(text)
        except (ValueError, kw.errors.KnitweaveError) as exc:
            return _wrong(f"report does not revalidate: {exc}")
        if report["samples_run"] != requested * per_sample:
            return _wrong(f"samples_run {report['samples_run']} != {requested * per_sample}")
        if report["violations"]:
            return _wrong(f"{len(report['violations'])} violations")
        return None

    return Op(family, weight, run, check)


# A group of inputs whose catalog costs span more than this factor gives its
# median input instead of a random one, so that where the cost is steep (the
# slow end, which sets a run's time and the tail) no single draw moves a
# run's figures; the seed varies the inputs everywhere else.
STEEP_GROUP = 1.25


def stratified(rng: random.Random, entries: list, k: int) -> list:
    """Draw k of ``entries`` ([key, cost] sorted by cost): cut the list into
    k groups of near-equal size and draw one key from each."""
    k = min(k, len(entries))
    picks = []
    for g in range(k):
        group = entries[g * len(entries) // k:(g + 1) * len(entries) // k]
        lo, hi = group[0][1], group[-1][1]
        pick = group[len(group) // 2] if hi > STEEP_GROUP * lo else rng.choice(group)
        picks.append(pick[0])
    return picks


def catalog_draw(section: str, seed: int, budget_s: float) -> tuple[list, int]:
    """Catalog keys for one pass of about ``budget_s`` catalog seconds."""
    cat = json.loads(CATALOG.read_text())[section]
    entries = cat["calls"] if "calls" in cat else cat["kept"]
    mean = sum(c for _, c in entries) / len(entries)
    rng = random.Random(f"{section}/{seed}")
    keys = stratified(rng, entries, max(2, round(budget_s / mean)))
    rng.shuffle(keys)
    return keys, cat.get("samples_per_call", 1)


SI_SAMPLES = 2        # per call
PIPELINE_SAMPLES = 2  # per call; campaign-4linked runs two hosts per sample


def campaign_ops(section: str, command: str, per_sample: int):
    def build(kw, seed: int, budget_s: float):
        seeds, samples = catalog_draw(section, seed, budget_s)
        return [cli_op(command, ["--samples", str(samples), "--seed", str(cs), "--no-timestamps",
                                 command], samples * per_sample, samples, per_sample)
                for cs in seeds], []
    return build


# ---------------------------------------------------------------------------
# linkage-queries
# ---------------------------------------------------------------------------

def pool_entry(index: int) -> dict:
    """Parameters of random-host query ``index`` of the fixed pool."""
    rng = random.Random(f"linkage-pool/{index}")
    n = rng.randint(20, 30)
    delta = rng.randint(4, 8)
    k = rng.randint(3, 4)
    kind = rng.choice(("disjoint_paths", "knit"))
    host_seed = rng.getrandbits(32)
    verts = rng.sample(range(n), 2 * k + (kind == "knit"))
    return {"n": n, "delta": delta, "kind": kind, "host_seed": host_seed,
            "pairs": [(verts[2 * i], verts[2 * i + 1]) for i in range(k)],
            "single": verts[-1] if kind == "knit" else None}


LINKABLE_STEP_BUDGET = 200_000


def _linkable(g, pairs, blocked: int):
    """Independent exact linkage test: True, False, or None when the step
    budget runs out. Shares nothing with the solver but the graph.

    It searches induced paths only, pair by pair, fewest free neighbors
    first: shortcutting each path of a linkage to an induced path inside its
    own vertex set keeps the paths disjoint, so nothing is lost. A branch
    ends once some remaining pair is cut apart.
    """
    adj = g.adj
    terms = blocked
    for s, t in pairs:
        terms |= (1 << s) | (1 << t)
    full = (1 << g.n) - 1
    steps = [0]

    def reach(s, allowed):
        seen = frontier = 1 << s
        while frontier:
            nxt = 0
            rest = frontier
            while rest:
                low = rest & -rest
                nxt |= adj[low.bit_length() - 1]
                rest ^= low
            frontier = nxt & allowed & ~seen
            seen |= frontier
        return seen

    def induced_paths(t, allowed, last, body):
        steps[0] += 1
        if steps[0] > LINKABLE_STEP_BUDGET:
            raise TimeoutError
        if (adj[last] >> t) & 1:
            yield body | (1 << t)
            return
        cand = adj[last] & allowed & ~body & ~(1 << t)
        while cand:
            low = cand & -cand
            cand ^= low
            if not adj[low.bit_length() - 1] & body & ~(1 << last):
                yield from induced_paths(t, allowed, low.bit_length() - 1, body | low)

    def rec(remaining, used):
        if not remaining:
            return True
        best = None
        for s, t in remaining:
            allowed = (full & ~used & ~terms) | (1 << s) | (1 << t)
            if not (reach(s, allowed) >> t) & 1:
                return False
            room = min((adj[s] & allowed).bit_count(), (adj[t] & allowed).bit_count())
            if best is None or room < best[0]:
                best = (room, (s, t), allowed)
        _, (s, t), allowed = best
        rest = [p for p in remaining if p != (s, t)]
        return any(rec(rest, used | body) for body in induced_paths(t, allowed, s, 1 << s))

    try:
        return rec([tuple(p) for p in pairs], 0)
    except TimeoutError:
        return None


def pool_op(kw, index: int) -> Op:
    e = pool_entry(index)
    g = kw.generators.gen_min_degree(e["n"], e["delta"], e["host_seed"])
    pairs = tuple(e["pairs"])
    single = e["single"]

    def spec(kw):
        if single is None:
            return kw.solver.pairs_spec(pairs)
        return kw.solver.TerminalSpec(pairs + ((single,),))

    if single is None:
        def run(kw):
            return kw.solver.disjoint_paths(g, spec(kw))
    else:
        def run(kw):
            return kw.solver.knit(g, spec(kw))

    def check(kw, got):
        if got is None:
            independent = _linkable(g, pairs, 0 if single is None else 1 << single)
            if independent is False:
                return None
            if independent:
                return _wrong(f"pool query {index}: answered no, independent search links it")
            return ("unconfirmed", f"pool query {index}: no answer the independent search"
                                   " could not confirm within its budget")
        try:
            got.validate(g, spec(kw))
        except kw.errors.InputError as exc:
            return _wrong(f"pool query {index}: certificate fails validate: {exc}")
        return None

    return Op(f"{e['kind']}", 1, run, check)


# Crossing-corner 2-linkage on a triangulated grid: the four corners lie on
# the outer face in the order TL, TR, BR, BL, so TL-BR and TR-BL cannot be
# linked in the planar host. (rows, cols, copies per pass); 4x6 and 5x5 took
# 7 s and 17 s when the benchmark was defined (2-core x86-64, CPython 3.11)
# and are late ops on purpose.
GRIDS = ((4, 4, 2), (4, 5, 1), (5, 4, 1), (3, 7, 1), (4, 6, 1), (5, 5, 1))


def grid_op(kw, rows: int, cols: int, rng: random.Random) -> Op:
    perm = list(range(rows * cols))
    rng.shuffle(perm)
    at = lambda i, j: perm[i * cols + j]
    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((at(i, j), at(i, j + 1)))
            if i + 1 < rows:
                edges.append((at(i, j), at(i + 1, j)))
            if i + 1 < rows and j + 1 < cols:
                edges.append((at(i, j), at(i + 1, j + 1)))
    g = kw.graphs.Graph.from_edges(rows * cols, edges)
    pairs = ((at(0, 0), at(rows - 1, cols - 1)), (at(0, cols - 1), at(rows - 1, 0)))

    def run(kw):
        return kw.solver.disjoint_paths(g, kw.solver.pairs_spec(pairs))

    def check(kw, got):
        if got is not None:
            return _wrong(f"crossing {rows}x{cols} grid answered yes")
        return None

    return Op(f"grid-{rows}x{cols}", 1, run, check)


KNITTED1_PER_PASS = 12


def knitted1_ops(kw, rng: random.Random, count: int) -> list[Op]:
    """The acceptance-08 family: dense universal-vertex graphs at p = 18."""
    ops = []
    while len(ops) < count:
        s = rng.randrange(1 << 30)
        n = rng.randint(11, 16)
        delta = rng.choice([9, 9, 10])
        if delta >= n:
            continue
        g, _ = kw.generators.gen_universal_vertex(n, delta, s)
        rep = kw.certify.dense_conditions(g, 18)
        low = rep.low_degree_vertices
        if rep.case not in ("ii", "iii") or low.bit_count() > 2:
            continue
        if low.bit_count() == 2 and g.has_edge(*kw.graphs.set_of(low)):
            continue

        def run(kw, g=g, s=s):
            return kw.certify.knitted1_check(g, 18, samples=20, seed=s)

        def check(kw, got):
            if got.status not in ("certified", "sampled-pass"):
                return _wrong(f"knitted1_check status {got.status}")
            return None

        ops.append(Op("knitted1_check", 1, run, check))
    return ops


# Share of a pass's budget spent on random-host pool queries; the grids
# (about 1.5 s a pass), the late ops and the knitted1_check queries take the rest.
POOL_SHARE = 0.2


def linkage_ops(kw, seed: int, budget_s: float):
    indices, _ = catalog_draw("linkage_pool", seed, POOL_SHARE * budget_s)
    rng = random.Random(f"linkage-queries/{seed}")
    ops = [pool_op(kw, index) for index in indices]
    ops.append(pool_op(kw, rng.choice(json.loads(CATALOG.read_text())["linkage_pool"]["late"])))
    for rows, cols, copies in GRIDS:
        ops.extend(grid_op(kw, rows, cols, rng) for _ in range(copies))
    ops.extend(knitted1_ops(kw, rng, KNITTED1_PER_PASS))
    rng.shuffle(ops)
    return ops, []


# ---------------------------------------------------------------------------
# criticality
# ---------------------------------------------------------------------------

CENSUS_SIZES = (1, 1, 2, 4, 11, 34, 156, 1044)  # OEIS A000088, n = 0..7


def criticality_ops(kw, seed: int, budget_s: float):
    census = [kw.graphs.nonisomorphic_graphs(n) for n in range(len(CENSUS_SIZES))]
    problems = []
    sizes = tuple(len(c) for c in census)
    if sizes != CENSUS_SIZES:
        problems.append(f"census sizes {sizes} != {CENSUS_SIZES}")
    graphs = [g for level in census for g in level]

    def make(g) -> Op:
        def run(kw):
            chi = kw.coloring.chromatic_number(g)[0]
            return (chi,) + tuple(kw.coloring.is_contraction_critical(g, chi))

        def check(kw, got):
            # Hadwiger's conjecture holds for k <= 6 (Robertson-Seymour-Thomas),
            # so below 8 vertices the contraction-critical graphs are the
            # complete graphs
            chi, critical, wit = got
            complete = g.edge_count() == g.n * (g.n - 1) // 2
            if critical != complete:
                return _wrong(f"{g!r}: critical={critical}, complete={complete}")
            if not critical:
                if wit is None:
                    return _wrong(f"{g!r}: non-critical verdict without a witness")
                try:
                    wit.validate()
                except kw.errors.InputError as exc:
                    return _wrong(f"{g!r}: witness fails validate: {exc}")
                if kw.coloring.chromatic_number(wit.quotient())[0] < chi:
                    return _wrong(f"{g!r}: witness minor needs fewer than {chi} colors")
            return None

        return Op(f"n{g.n}", 1, run, check)

    random.Random(f"criticality/{seed}").shuffle(graphs)
    return [make(g) for g in graphs], problems


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable         # (kw, seed, budget_s) -> (ops of one pass, problems)
    op_limit_s: float       # per op; a call holding w ops gets w times this
    one_at_a_time: bool     # False: ops are timed per campaign call
    op_unit: str
    passes: int             # each op runs this many times; --seconds / passes is the budget


WORKLOADS = {
    w.name: w
    for w in (
        Workload("si-sweep", campaign_ops("si_sweep", "campaign-si", 1), 5.0, False,
                 "lemma sample", 4),
        Workload("pipeline-4linked", campaign_ops("pipeline_4linked", "campaign-4linked", 2),
                 5.0, False, "pipeline instance", 4),
        Workload("linkage-queries", linkage_ops, 2.0, True, "query", 4),
        # a pass over the census takes about 2.5 s, K7 (late) runs only once
        Workload("criticality", criticality_ops, 3.0, True, "graph verdict", 4),
    )
}

# Pool queries whose reference time lies within this factor of the
# linkage-queries limit are left out, so every op sits well clear of it.
LIMIT_CLEARANCE = 2.5
