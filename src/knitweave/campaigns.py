"""Falsification campaigns: sweep the coverage-score lemmas over sampled
configurations, and replay the dense-graph linkage pipeline end to end.

Reports are self-contained JSON-ready dicts: every instance embeds its graph
as graph6, and :func:`revalidate_report` trusts nothing it reads. It rebuilds
each instance from its embedded inputs with the same builders the campaign
ran and compares the result field by field as JSON text, so every report
field has one definition. Rebuilding a pipeline instance validates its
linkage certificate again. Revalidation therefore costs about as much as the
campaign did.
"""

from __future__ import annotations

import json
import random
import time
from typing import Optional

from .certify import find_dense_neighborhood, greedy_link, knitted1_check
from .errors import InputError
from .formats import parse_graph6, write_graph6, write_json
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


def _now(no_timestamps: bool) -> Optional[float]:
    return None if no_timestamps else time.time()


def _elapsed_ms(t0: Optional[float]) -> Optional[float]:
    return None if t0 is None else round((time.time() - t0) * 1000.0, 3)


def _is_biconnected(g: Graph, domain: int) -> bool:
    if domain.bit_count() < 3 or not is_connected(g, domain):
        return False
    for v in bits(domain):
        if not is_connected(g, domain & ~(1 << v)):
            return False
    return True


# ---------------------------------------------------------------------------
# Coverage-score lemma campaign
# ---------------------------------------------------------------------------

def _sides(cfg: Configuration, j: int) -> Optional[dict]:
    """The two side forms of pair block ``j``, each as (A, B, whether paired
    draws are allowed): "AB", the components of the block's ends once the
    other block vertices are deleted (paired draws need both biconnected), and
    "AjBj", the ends' neighbors off the blocks. None when the components
    meet, since the setup needs them disjoint."""
    g = cfg.host
    uj, vj = cfg.pairs[j - 1]
    cover = cfg.cover_mask
    dom = g.full_mask & ~(cover & ~mask_of((uj, vj)))
    comp_a = reachable(g, 1 << uj, dom)
    comp_b = reachable(g, 1 << vj, dom)
    if comp_a & comp_b:
        return None
    return {
        "AB": (comp_a, comp_b, _is_biconnected(g, comp_a) and _is_biconnected(g, comp_b)),
        "AjBj": (g.adj[uj] & ~cover, g.adj[vj] & ~cover, True),
    }


def _lemma_record(cfg: Configuration, j, form, sides: Optional[dict], observers: list) -> dict:
    """The lemma-si record of one draw, with every lemma conclusion it breaks.

    ``sides`` is ``_sides(cfg, j)``. ``observers`` is ``[a, b]`` for a lemma
    "si" draw and ``[a, a2, b, b2]`` for a lemma "si2" draw, the a's from the
    pool of side A of ``form`` (A less the block end) and the b's from B's.
    Raises InputError for a draw the campaign cannot make.
    """
    g = cfg.host
    if type(j) is not int or not 1 <= j <= 4 or cfg.connected[j] or sides is None:
        raise InputError(f"j = {j!r} is not a disconnected pair block with disjoint sides")
    if not (isinstance(form, str) and form in sides):
        raise InputError(f"unknown side form {form!r}")
    uj, vj = cfg.pairs[j - 1]
    cover = cfg.cover_mask
    amask, bmask, paired = sides[form]
    half = len(observers) // 2
    pools = ((amask & ~(1 << uj), observers[:half]), (bmask & ~(1 << vj), observers[half:]))
    if len(observers) not in (2, 4) or not all(
        type(x) is int and 0 <= x < g.n and (pool >> x) & 1 for pool, xs in pools for x in xs
    ):
        raise InputError(f"observers {observers} are not drawn from the pools of block {j}")
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
                hits = [pos for pos, w in enumerate(blk) if g.has_edge(x, w)]
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

    if len(set(observers)) != 4 or not paired:
        raise InputError(f"paired observers {observers} repeat or come from sides that are not biconnected")
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
            elif not all(g.has_edge(x, e) for x in observers for e in (blk[0], blk[-1])):
                bad.append(f"(c) observers not complete to block {i} ends")
    return {
        "lemma": "si2",
        "j": j,
        "form": form,
        "observers": [a, a2, b, b2],
        "pair_scores": pair_scores,
        "violations": bad,
    }


def campaign_lemma_si(
    samples: int,
    seed: int,
    size_range: tuple[int, int] = (10, 13),
    no_timestamps: bool = False,
) -> dict:
    """Sample configurations and assert the coverage-score conclusions on
    every (a, b) draw whose preconditions hold. Violations are findings."""
    instances = []
    done = 0
    host_idx = 0
    rng = random.Random(seed)
    while done < samples and host_idx < 40 * (samples + 1):
        t0 = _now(no_timestamps)
        if host_idx % 5 != 4:
            host = gen_split_host(seed * 1000 + host_idx, blob_size=rng.randint(*size_range))
            g, terminals = host.graph, host.terminals
        else:
            g = gen_min_degree(rng.randint(16, 20), 12, seed * 1000 + host_idx)
            terminals = tuple(rng.sample(range(g.n), 9))
        host_idx += 1
        cfg = build_configuration(g, terminals)
        djs = [i for i in range(1, 5) if not cfg.connected[i]]
        records = []
        for j in djs:
            if done >= samples:
                break
            sides = _sides(cfg, j)
            if sides is None:
                continue
            uj, vj = cfg.pairs[j - 1]
            for form, (amask, bmask, paired) in sides.items():
                if done >= samples:
                    break
                pool_a = set_of(amask & ~(1 << uj))
                pool_b = set_of(bmask & ~(1 << vj))
                if not pool_a or not pool_b:
                    continue
                for _ in range(3):
                    if done >= samples:
                        break
                    draw = [rng.choice(pool_a), rng.choice(pool_b)]
                    records.append(_lemma_record(cfg, j, form, sides, draw))
                    done += 1
                # paired draws for the two-observer conclusions
                if len(pool_a) >= 2 and len(pool_b) >= 2 and done < samples and paired:
                    draw = rng.sample(pool_a, 2) + rng.sample(pool_b, 2)
                    records.append(_lemma_record(cfg, j, form, sides, draw))
                    done += 1
        instances.append({**_lemma_instance(g, terminals, cfg, records), "wall_ms": _elapsed_ms(t0)})
    return _report("lemma-si", seed, samples, _now(no_timestamps), instances)


def _lemma_instance(g: Graph, terminals, cfg: Configuration, records: list) -> dict:
    """One lemma-si instance without its ``wall_ms``; it is skipped exactly
    when all four pair blocks are connected, since then nothing is drawn."""
    return {
        "graph6": write_graph6(g),
        "terminals": list(terminals),
        "blocks": [list(b) for b in cfg.blocks],
        "samples": records,
        "skipped": cfg.connected_count == 4,
    }


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

    work, work_s = g, s
    if pair_is_knitted(g, s)[0]:
        yield {
            "stage": "minimize",
            "ok": True,
            "outcome": "already-knitted",
        }
    else:
        res = descend_pair(g, s, p)
        work, work_s = res.graph, res.s
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

    # route |s| disjoint paths from s into the certified subgraph, then link
    # the entry points inside it; s-vertices already inside enter trivially
    flow, into = max_vertex_disjoint_flow(
        g, s & ~cand, cand & ~s, g.full_mask & ~cand & ~s, collect=True
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
        "paths": [list(pp) for pp in full_paths],
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


def _pipeline_jobs(samples: int, seed: int) -> list[tuple[Graph, tuple]]:
    """The (host, pairs) jobs of a pipeline campaign: max(1, samples) on K32
    and then as many on K33 minus a 16-edge matching, each pairing 8
    terminals drawn from one ``random.Random(seed)`` in draw order."""
    rng = random.Random(seed)
    jobs = []
    for g in (Graph.complete(32), complete_minus_matching(33, 16)):
        for _ in range(max(1, samples)):
            verts = rng.sample(range(g.n), 8)
            jobs.append((g, tuple((verts[2 * i], verts[2 * i + 1]) for i in range(4))))
    return jobs


def campaign_pipeline_4linked(samples: int, seed: int, no_timestamps: bool = False) -> dict:
    """Replay the dense-host linkage pipeline on complete and near-complete
    hosts: mass check, minimization, dense-subgraph certificate, and an
    explicit four-pair linkage assembled through it."""
    results = []
    for g, pairs in _pipeline_jobs(samples, seed):
        t0 = _now(no_timestamps)
        results.append({**_pipeline_one(g, pairs, PIPELINE_P), "wall_ms": _elapsed_ms(t0)})
    return _report("pipeline-4linked", seed, samples, _now(no_timestamps), results)


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


def _rebuild_lemma(g: Graph, inst: dict) -> dict:
    """The lemma-si instance that ``inst``'s graph and terminals give, with
    each of its sample records recomputed from the record's own draw."""
    terminals, samples = inst.get("terminals"), inst.get("samples")
    if not (isinstance(terminals, list) and all(type(t) is int for t in terminals)):
        raise InputError("terminals must be a list of vertex indices")
    if not (isinstance(samples, list) and all(isinstance(rec, dict) for rec in samples)):
        raise InputError("samples must be a list of records")
    cfg = build_configuration(g, terminals)
    sides = {j: _sides(cfg, j) for j in range(1, 5) if not cfg.connected[j]}
    records = []
    for rec in samples:
        j, lemma = rec.get("j"), rec.get("lemma")
        observers = [rec.get("a"), rec.get("b")] if lemma == "si" else rec.get("observers")
        if not isinstance(observers, list):
            raise InputError(f"sample record {rec} names no observers")
        block_sides = sides.get(j) if type(j) is int else None
        records.append(_lemma_record(cfg, j, rec.get("form"), block_sides, observers))
        if not _same(rec, records[-1]):
            raise InputError(f"sample record {rec} does not recompute")
    return _lemma_instance(g, terminals, cfg, records)


def _rebuild_pipeline(inst: dict, job: tuple) -> dict:
    """The pipeline instance that the campaign's job ``(g, pairs)`` gives at
    the campaign's threshold. ``inst``'s graph and pairs must be the job's,
    and its p the threshold."""
    g, pairs = job
    if not _same([inst["graph6"], inst.get("pairs")], [write_graph6(g), [list(pr) for pr in pairs]]):
        raise InputError("a pipeline instance's graph and pairs are not the campaign's draw")
    p = inst.get("p")
    if type(p) is not int or p != PIPELINE_P:
        raise InputError(f"a pipeline instance runs at p = {PIPELINE_P}, not {p!r}")
    return _pipeline_one(g, pairs, p)


def revalidate_report(report: dict) -> None:
    """Rebuild every instance from its embedded inputs with the builders that
    wrote it, and raise InputError on the first difference.

    A report is evidence, not a verdict: anything it claims must be
    reproducible from the embedded graphs alone. A lemma-si instance is
    rebuilt from its graph and terminals by ``build_configuration``, and each
    sample record from its own draw. A pipeline report must hold exactly the
    jobs that its ``seed`` and ``samples_requested`` draw, in order: each
    instance embeds its job's graph and pairs and is rerun from them, which
    validates its linkage again. ``wall_ms`` and ``timestamp`` are taken as
    read, and so is a lemma-si report's ``seed``, which no rebuilt record
    draws from. The report's ``samples_run`` and
    ``violations`` are then tallied from the rebuilt instances. Inputs are
    checked before they are used, so malformed ones raise InputError too.
    Revalidation costs about as much as running the campaign.
    """
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        raise InputError("unknown report schema")
    kind, seed, requested = report.get("experiment"), report.get("seed"), report.get("samples_requested")
    if kind not in ("lemma-si", "pipeline-4linked"):
        raise InputError(f"unknown experiment kind {kind!r}")
    if type(seed) is not int or type(requested) is not int:
        raise InputError("seed and samples_requested must be integers")
    instances = report.get("instances")
    if not (
        isinstance(instances, list)
        and all(isinstance(inst, dict) and isinstance(inst.get("graph6"), str) for inst in instances)
    ):
        raise InputError("instances must each embed a graph6 string")
    if kind == "pipeline-4linked":
        # counted first, so that a huge request draws nothing
        if len(instances) != 2 * max(1, requested):
            raise InputError("a pipeline report holds max(1, samples_requested) instances per host")
        jobs = _pipeline_jobs(requested, seed)
    rebuilt = []
    for i, inst in enumerate(instances):
        if kind == "lemma-si":
            fresh = _rebuild_lemma(parse_graph6(inst["graph6"]), inst)
        else:
            fresh = _rebuild_pipeline(inst, jobs[i])
        rebuilt.append({**fresh, "wall_ms": inst.get("wall_ms")})
        if not _same(inst, rebuilt[-1]):
            raise InputError(f"instance {i} does not match its rebuild")
    tallied = _report(kind, seed, requested, report.get("timestamp"), rebuilt)
    # a lemma-si campaign stops at the samples requested; a negative request runs none
    if kind == "lemma-si" and tallied["samples_run"] > max(requested, 0):
        raise InputError("samples_run exceeds samples_requested")
    if not _same(report, tallied):
        raise InputError("samples_run or violations do not match the instances")


def report_to_json(report: dict) -> str:
    return write_json(report)


def load_report(text: str) -> dict:
    report = json.loads(text)
    revalidate_report(report)
    return report
