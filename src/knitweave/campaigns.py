"""Falsification campaigns: sweep the coverage-score lemmas over sampled
configurations, and replay the dense-graph linkage pipeline end to end.

Reports are self-contained JSON-ready dicts: every instance embeds its graph
as graph6, so a reader can check it without the campaign. Each campaign is a
generator of instances from ``samples`` and ``seed`` alone, and
:func:`revalidate_report` holds a report valid exactly when it equals that
generator's rerun from the report's ``experiment``, ``seed`` and
``samples_requested``, taking only ``wall_ms`` and ``timestamp`` as read.
Every report field therefore has one definition, and rerunning a pipeline
instance validates its linkage certificate again. Revalidation costs about
as much as the campaign did, and never more than the report's own instances
and one more.
"""

from __future__ import annotations

import json
import random
import time

from .certify import find_dense_neighborhood, greedy_link, knitted1_check
from .errors import InputError
from .formats import certificate_to_json, write_graph6
from .generators import complete_minus_matching, gen_min_degree, gen_split_host
from .graphs import (
    Graph,
    bits,
    induced,
    is_connected,
    mask_of,
    max_clique,
    neighbors_closed,
    reachable,
    set_of,
)
from .solver import (
    Configuration,
    Linkage,
    _check_sampling,
    build_configuration,
    disjoint_paths,
    max_vertex_disjoint_flow,
    pairs_spec,
    s_value,
)
from .structure import descend_pair, is_p_massed, pair_is_knitted

SCHEMA = 1
# the pipeline's connectivity threshold: every 30-connected graph is 4-linked
PIPELINE_P = 30


def _now(no_timestamps: bool) -> float | None:
    return None if no_timestamps else time.time()


def _elapsed_ms(t0: float | None) -> float | None:
    return None if t0 is None else round((time.time() - t0) * 1000.0, 3)


def _is_biconnected(g: Graph, domain: int) -> bool:
    """Whether H = G[domain] is 2-connected: at least 3 vertices, and
    connected with any one of them deleted.

    When every vertex has at least |H|/2 neighbors in H, the answer is yes
    without a search (Dirac 1952). In H - x, two non-adjacent vertices u, w
    have at least |H|/2 - 1 neighbors each among the |H| - 3 vertices other
    than x, u and w, so |H| - 2 in all, and therefore a common neighbor;
    so H - x is connected, and so is H, as x has a neighbor. Otherwise one
    search tests H and one each H - x.
    """
    size = domain.bit_count()
    if size < 3:
        return False
    adj = g.adj
    if all(2 * (adj[v] & domain).bit_count() >= size for v in bits(domain)):
        return True
    if not is_connected(g, domain):
        return False
    for v in bits(domain):
        if not is_connected(g, domain & ~(1 << v)):
            return False
    return True


# ---------------------------------------------------------------------------
# Coverage-score lemma campaign
# ---------------------------------------------------------------------------

def _sides(cfg: Configuration, j: int) -> dict | None:
    """The two side forms of pair block ``j``, each as (A, B, whether paired
    draws are allowed): "AB", the components of the block's ends once the
    other block vertices are deleted (paired draws need both biconnected), and
    "AjBj", the ends' neighbors off the blocks. None when the components
    meet, since the setup needs them disjoint."""
    g = cfg.host
    uj, vj = cfg.pairs[j - 1]
    cover = cfg.cover_mask
    dom = g.full_mask & ~(cover & ~mask_of((uj, vj)))
    comp_a = reachable(g.adj, 1 << uj, dom)
    comp_b = reachable(g.adj, 1 << vj, dom)
    if comp_a & comp_b:
        return None
    return {
        "AB": (comp_a, comp_b, _is_biconnected(g, comp_a) and _is_biconnected(g, comp_b)),
        "AjBj": (g.adj[uj] & ~cover, g.adj[vj] & ~cover, True),
    }


def _lemma_record(cfg: Configuration, j: int, form: str, sides: dict, observers: list) -> dict:
    """The lemma-si record of one draw, with every lemma conclusion it breaks.

    ``sides`` is ``_sides(cfg, j)``. ``observers`` is ``[a, b]`` for a lemma
    "si" draw and ``[a, a2, b, b2]`` for a lemma "si2" draw, the a's from the
    pool of side A of ``form`` (A less the block end) and the b's from B's.
    """
    g = cfg.host
    cover = cfg.cover_mask
    amask, bmask, paired = sides[form]
    bad = []
    if len(observers) == 2:
        a, b = observers
        svals = {i: s_value(cfg, a, b, i) for i in range(5) if i != j}
        for i in range(1, 5):
            if i == j:
                continue
            blk = cfg.blocks[i]
            if not cfg.connected[i]:
                if svals[i] > 0:
                    bad.append(f"(a) disconnected block {i} has score {svals[i]} > 0")
                continue
            for x in (a, b):
                row = g.adj[x]
                hits = [pos for pos, w in enumerate(blk) if (row >> w) & 1]
                if any(q - pq > 2 for pq, q in zip(hits, hits[1:])):
                    bad.append(f"(b) vertex {x} has spread neighbors on block {i}")
                if len(hits) > 3:
                    bad.append(f"(b) vertex {x} has {len(hits)} > 3 neighbors on block {i}")
            lo, hi = -len(blk), min(len(blk), 6 - len(blk))
            if not lo <= svals[i] <= hi:
                bad.append(f"(c) score {svals[i]} of block {i} outside [{lo}, {hi}]")
        total = sum(svals.values()) + s_value(cfg, a, b, j)
        # the side remainders are taken outside the block system so the
        # decomposition behind (d) stays disjoint; in the neighborhood form
        # the sets avoid it already
        ta = (amask & ~neighbors_closed(g, a) & ~cover).bit_count()
        tb = (bmask & ~neighbors_closed(g, b) & ~cover).bit_count()
        rhs = g.degree(a) + g.degree(b) - (g.n - 2) + ta + tb
        if total < rhs:
            bad.append(f"(d) total score {total} < bound {rhs}")
        if (
            form == "AB"
            and paired
            and (g.full_mask & ~(amask | bmask)).bit_count() <= g.min_degree() - 2
        ):
            for i in range(1, 5):
                if i != j and cfg.connected[i] and svals[i] == 3:
                    bad.append(f"(e) connected block {i} has score 3")
        return {
            "lemma": "si",
            "j": j,
            "form": form,
            "a": a,
            "b": b,
            "scores": {str(i): v for i, v in svals.items()},
            "violations": bad,
        }

    a, a2, b, b2 = observers
    comp_a, comp_b, _ = sides["AB"]
    pair_scores = {}
    for i in range(5):
        if i == j:
            continue
        si, si2 = sorted((s_value(cfg, a, b, i), s_value(cfg, a2, b2, i)), reverse=True)
        pair_scores[str(i)] = [si, si2]
        if si + si2 < 3:
            continue
        blk = cfg.blocks[i]
        if si + si2 not in (3, 4) or len(blk) not in (2, 3):
            bad.append(f"(a) pair scores {si}+{si2} block size {len(blk)}")
        if len(blk) == 3:
            covered = any(not cfg.block_mask(i) & ~g.adj[x] for x in bits(comp_a))
            if covered and g.adj[blk[1]] & comp_b:
                bad.append(f"(b) covered middle of block {i} sees the far side")
        if si + si2 == 4:
            if si != 2 or si2 != 2:
                bad.append(f"(c) pair scores {si},{si2} not both 2")
            elif any(~g.adj[x] & (1 << blk[0] | 1 << blk[-1]) for x in observers):
                bad.append(f"(c) observers not complete to block {i} ends")
    return {
        "lemma": "si2",
        "j": j,
        "form": form,
        "observers": [a, a2, b, b2],
        "pair_scores": pair_scores,
        "violations": bad,
    }


def _draws(cfg: Configuration, rng: random.Random):
    """Yield the records of the draws on one configuration in order: three
    (a, b) draws per side form of each disconnected pair block with disjoint
    sides, then a paired draw where both pools have two vertices and the
    form allows it."""
    for j in range(1, 5):
        if cfg.connected[j] or (sides := _sides(cfg, j)) is None:
            continue
        uj, vj = cfg.pairs[j - 1]
        for form, (amask, bmask, paired) in sides.items():
            pool_a = set_of(amask & ~(1 << uj))
            pool_b = set_of(bmask & ~(1 << vj))
            if not pool_a or not pool_b:
                continue
            for _ in range(3):
                yield _lemma_record(cfg, j, form, sides, [rng.choice(pool_a), rng.choice(pool_b)])
            # paired draws for the two-observer conclusions
            if len(pool_a) >= 2 and len(pool_b) >= 2 and paired:
                yield _lemma_record(cfg, j, form, sides, rng.sample(pool_a, 2) + rng.sample(pool_b, 2))


def _lemma_instances(samples: int, seed: int):
    """Yield the lemma-si campaign's instances in order, without ``wall_ms``.
    Each samples a configuration and records its draws until ``samples`` are
    made; it is skipped exactly when all four pair blocks are connected,
    since then nothing is drawn."""
    done = 0
    host_idx = 0
    rng = random.Random(seed)
    while done < samples and host_idx < 40 * (samples + 1):
        if host_idx % 5 != 4:
            host = gen_split_host(seed * 1000 + host_idx, blob_size=rng.randint(10, 13))
            g, terminals = host.graph, host.terminals
        else:
            g = gen_min_degree(rng.randint(16, 20), 12, seed * 1000 + host_idx)
            terminals = tuple(rng.sample(range(g.n), 9))
        host_idx += 1
        cfg = build_configuration(g, terminals)
        # zip stops at the range before it asks for a draw past ``samples``
        records = [rec for _, rec in zip(range(samples - done), _draws(cfg, rng))]
        done += len(records)
        yield {
            "graph6": write_graph6(g),
            "terminals": list(terminals),
            "blocks": [list(b) for b in cfg.blocks],
            "samples": records,
            "skipped": cfg.connected_count == 4,
        }


def campaign_lemma_si(samples: int, seed: int, no_timestamps: bool = False) -> dict:
    """Sample configurations and assert the coverage-score conclusions on
    every (a, b) draw whose preconditions hold. Violations are findings."""
    return _campaign("lemma-si", samples, seed, no_timestamps)


# ---------------------------------------------------------------------------
# Pipeline replay campaign
# ---------------------------------------------------------------------------

def _pipeline_stages(g: Graph, pairs: tuple, p: int):
    """Yield the pipeline's stages on one instance in order, up to and
    including the first that is not ok."""
    s = mask_of(x for pr in pairs for x in pr)
    rep = is_p_massed(g, s, p)
    yield {
        "stage": "massed",
        "ok": rep.satisfied,
        "rho": rep.rho_value,
        "outside": (g.full_mask & ~s).bit_count(),
    }
    if not rep.satisfied:
        return

    work, work_s, kept = g, s, range(g.n)  # kept[i]: work's vertex i in g
    if pair_is_knitted(g, s)[0]:
        yield {
            "stage": "minimize",
            "ok": True,
            "outcome": "already-knitted",
        }
    else:
        res = descend_pair(g, s, p)
        work, work_s = res.graph, res.s
        # the trail names deleted vertices in g's labels, and induced keeps
        # the others in order
        gone = mask_of(move[1] for move in res.trail if move[0] == "delete_vertex")
        kept = set_of(g.full_mask & ~gone)
        yield {
            "stage": "minimize",
            "ok": True,
            "outcome": "descended",
            "trail": [list(t) for t in res.trail],
            "graph6": write_graph6(work),
        }

    clique = max_clique(work)
    if clique.bit_count() >= 9:
        cand = mask_of(set_of(clique)[:9])
        yield {
            "stage": "dense-subgraph",
            "ok": True,
            "route": "clique",
            "candidate": sorted(set_of(cand)),
        }
        yield {"stage": "knitted-subgraph", "ok": True, "route": "clique"}
    else:
        hit = find_dense_neighborhood(work, work_s, p)
        if hit is None:
            yield {"stage": "dense-subgraph", "ok": False}
            return
        v, drep = hit
        sub_mask = neighbors_closed(work, v)
        yield {
            "stage": "dense-subgraph",
            "ok": True,
            "route": "neighborhood",
            "vertex": v,
            "case": drep.case,
        }
        sub, vmap = induced(work, sub_mask)
        # a sample can only refute a candidate, never certify one
        verdict = knitted1_check(sub, p, samples=0, seed=0)
        yield {
            "stage": "knitted-subgraph",
            "ok": verdict.status == "certified",
            "route": verdict.route,
            "status": verdict.status,
        }
        if verdict.status == "not-found":
            return
        cand = mask_of(vmap[i] for i in bits(verdict.candidate))

    # route |s| disjoint paths from s into the certified subgraph, read in
    # g's labels, then link the entry points inside it; s-vertices already
    # inside enter trivially
    cand = mask_of(kept[v] for v in bits(cand))
    flow, into, _ = max_vertex_disjoint_flow(
        g.adj, s & ~cand, cand & ~s, g.full_mask & ~cand & ~s, collect=True
    )
    trivial = [(x,) for x in bits(s & cand)]
    into = list(into) + trivial
    ok_flow = len(into) == s.bit_count()
    yield {
        "stage": "paths-into-subgraph",
        "ok": ok_flow,
        "count": len(into),
        "paths": [list(pp) for pp in into],
    }
    if not ok_flow:
        return
    entry = {pp[0]: pp for pp in into}
    end_pairs = []
    for pr in pairs:
        end_pairs.append((entry[pr[0]][-1], entry[pr[1]][-1]))
    sub, vmap = induced(g, cand)
    back = {v: i for i, v in enumerate(vmap)}
    local = [(back[x], back[y]) for x, y in end_pairs]
    # greedy linking needs a vertex beyond the 2k ends; a smaller candidate
    # is linked exactly
    inner = greedy_link(sub, pairs_spec(local)).linkage if sub.n > 2 * len(local) else None
    method = "greedy"
    if inner is None:
        inner = disjoint_paths(sub, pairs_spec(local))
        method = "exact"
    yield {"stage": "link-inside", "ok": inner is not None, "method": method}
    if inner is None:
        return
    full_paths = []
    for pr, link in zip(pairs, inner.paths):
        left = entry[pr[0]]
        right = entry[pr[1]]
        mid = [vmap[i] for i in link]
        if mid and mid[0] != left[-1]:
            mid.reverse()  # solver paths run between sorted endpoints
        path = list(left) + mid[1:] + list(reversed(right))[1:]
        full_paths.append(tuple(path))
    linkage = Linkage(tuple(full_paths))
    linkage.validate(g, pairs_spec(pairs))
    yield {
        "stage": "linkage",
        "ok": True,
        "paths": certificate_to_json(linkage),
    }


def _pipeline_one(g: Graph, pairs: tuple, p: int) -> dict:
    """One pipeline instance without its ``wall_ms``. It is ok exactly when
    its last stage is ok, and only a linkage stage ends ok."""
    stages = list(_pipeline_stages(g, pairs, p))
    return {
        "graph6": write_graph6(g),
        "pairs": [list(pr) for pr in pairs],
        "p": p,
        "stages": stages,
        "ok": stages[-1]["ok"],
    }


def _pipeline_instances(samples: int, seed: int):
    """Yield the pipeline campaign's instances in order, without ``wall_ms``:
    max(1, samples) on K32 and then as many on K33 minus a 16-edge matching,
    each pairing 8 terminals drawn from one ``random.Random(seed)``."""
    rng = random.Random(seed)
    for g in (Graph.complete(32), complete_minus_matching(33, 16)):
        for _ in range(max(1, samples)):
            verts = rng.sample(range(g.n), 8)
            yield _pipeline_one(g, tuple((verts[2 * i], verts[2 * i + 1]) for i in range(4)), PIPELINE_P)


def campaign_pipeline_4linked(samples: int, seed: int, no_timestamps: bool = False) -> dict:
    """Replay the dense-host linkage pipeline on complete and near-complete
    hosts: mass check, minimization, dense-subgraph certificate, and an
    explicit four-pair linkage assembled through it."""
    return _campaign("pipeline-4linked", samples, seed, no_timestamps)


_INSTANCES = {"lemma-si": _lemma_instances, "pipeline-4linked": _pipeline_instances}


def _campaign(experiment: str, samples: int, seed: int, no_timestamps: bool) -> dict:
    """The report of one campaign run, each instance timed in ``wall_ms``."""
    _check_sampling(samples, seed)
    instances = []
    t0 = _now(no_timestamps)
    for inst in _INSTANCES[experiment](samples, seed):
        instances.append({**inst, "wall_ms": _elapsed_ms(t0)})
        t0 = _now(no_timestamps)
    return _report(experiment, seed, samples, _now(no_timestamps), instances)


def _report(experiment: str, seed, samples, timestamp, instances: list) -> dict:
    """A campaign report around its instances, with ``samples_run`` and
    ``violations`` tallied from them: a lemma-si sample is a record and a
    violation when it lists any; a pipeline sample is an instance and a
    violation when it did not finish."""
    if experiment == "lemma-si":
        runs = [(i, rec, rec["violations"]) for i, inst in enumerate(instances) for rec in inst["samples"]]
    else:
        runs = [(i, {"stages": inst["stages"]}, not inst["ok"]) for i, inst in enumerate(instances)]
    return {
        "schema": SCHEMA,
        "experiment": experiment,
        "seed": seed,
        "samples_requested": samples,
        "samples_run": len(runs),
        "timestamp": timestamp,
        "instances": instances,
        "violations": [{"instance": i, **entry} for i, entry, bad in runs if bad],
    }


# ---------------------------------------------------------------------------
# Revalidation
# ---------------------------------------------------------------------------

def _same(a, b) -> bool:
    """Equality of report parts as JSON text, where ``2.0 != 2`` and
    ``True != 1``, unlike Python's ``==``. The text is compact, which
    ``json`` writes in C."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def revalidate_report(report: dict) -> None:
    """Rerun the campaign a report names and raise InputError unless the
    report equals the rerun.

    A report is evidence, not a verdict: it is valid exactly when the
    campaign of its ``experiment``, rerun from its ``seed`` and
    ``samples_requested``, writes the same report, with only ``wall_ms`` and
    ``timestamp`` taken as read. Rerunning a pipeline instance validates its
    linkage again. The rerun is walked lazily and compared instance by
    instance, stopping at the first instance that differs and at the first
    rerun instance the report does not hold, so a huge ``samples_requested``
    costs no more than the report's own instances and one more. Last, the
    report's ``samples_run`` and ``violations`` are compared with the tallies
    of the rerun. Malformed inputs raise InputError too.
    """
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        raise InputError("unknown report schema")
    kind, seed, requested = report.get("experiment"), report.get("seed"), report.get("samples_requested")
    if kind not in _INSTANCES:
        raise InputError(f"unknown experiment kind {kind!r}")
    if type(seed) is not int or type(requested) is not int or requested < 0:
        raise InputError("seed must be an integer and samples_requested a nonnegative one")
    instances = report.get("instances")
    if not (isinstance(instances, list) and all(isinstance(inst, dict) for inst in instances)):
        raise InputError("instances must be a list of objects")
    rerun = _INSTANCES[kind](requested, seed)
    rebuilt = []
    for i, inst in enumerate(instances):
        fresh = next(rerun, None)
        if fresh is None:
            raise InputError(f"the campaign's rerun has no instance {i}")
        rebuilt.append({**fresh, "wall_ms": inst.get("wall_ms")})
        if not _same(inst, rebuilt[-1]):
            raise InputError(f"instance {i} differs from the campaign's rerun")
    if next(rerun, None) is not None:
        raise InputError(f"the report lacks instance {len(instances)} of the campaign's rerun")
    if not _same(report, _report(kind, seed, requested, report.get("timestamp"), rebuilt)):
        raise InputError("samples_run or violations do not match the instances")


def load_report(text: str) -> dict:
    report = json.loads(text)
    revalidate_report(report)
    return report
