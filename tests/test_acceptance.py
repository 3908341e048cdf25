"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Budgets are asserted where stated. Every expected value is either pinned
arithmetic or checked against an independent oracle inside the test.
"""

import itertools
import random
import time

from knitweave.campaigns import campaign_lemma_si, campaign_pipeline_4linked, revalidate_report
from knitweave.certify import (
    common_neighbor_certificate,
    easy_connectivity_threshold,
    greedy_link,
    knitted1_check,
    mader_threshold,
    main_theorem_table,
)
from knitweave.coloring import chromatic_number, is_contraction_critical
from knitweave.formats import parse_graph6, write_graph6
from knitweave.generators import complete_minus_matching
from knitweave.graphs import Graph
from knitweave.solver import disjoint_paths, is_profile_knitted, pairs_spec, two_pair_obstruction

from conftest import dense_universal_vertex_family, random_graph
from oracles import are_isomorphic, two_pair_systems_solvable


def _report(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok


def test_acceptance_01_k9_profile_knitted():
    t0 = time.time()
    ok, witness = is_profile_knitted(Graph.complete(9), (1 << 9) - 1, (2, 2, 2, 2, 1))
    elapsed = time.time() - t0
    _report(
        1,
        ok and witness is None and elapsed < 10.0,
        f"K9 is (2,2,2,2,1)-knitted over all 945 partitions in {elapsed:.2f}s (< 10s)",
    )


def test_acceptance_02_threshold_pins():
    ok = (
        easy_connectivity_threshold(8) == 18
        and easy_connectivity_threshold(9) == 34
        and easy_connectivity_threshold(10) == 66
        and mader_threshold(7, 5) == 18
        and mader_threshold(8, 6) == 34
        and mader_threshold(9, 7) == 66
        and main_theorem_table(17) == 8
        and main_theorem_table(29) == 9
        and main_theorem_table(41) == 10
        and main_theorem_table(16) == 7
        and main_theorem_table(28) == 8
        and main_theorem_table(40) == 9
        and main_theorem_table(7) == 7
    )
    _report(2, ok, "threshold formulas reproduce 18/34/66 and 17->8, 29->9, 41->10 exactly")


def test_acceptance_03_solver_oracle_census(census7):
    t0 = time.time()
    instances = 0
    disagreements = 0
    certified = 0
    for g in census7:
        if g.n < 4:
            continue
        for verts in itertools.combinations(range(g.n), 4):
            a, b, c, d = verts
            for pairing in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
                spec = pairs_spec(pairing)
                got = disjoint_paths(g, spec)
                truth = two_pair_systems_solvable(g, pairing[0], pairing[1])
                if (got is not None) != truth:
                    disagreements += 1
                elif got is not None:
                    got.validate(g, spec)
                elif not (g.has_edge(*pairing[0]) or g.has_edge(*pairing[1])):
                    two_pair_obstruction(g, spec).validate(g, spec)
                    certified += 1
                instances += 1
    elapsed = time.time() - t0
    _report(
        3,
        disagreements == 0 and elapsed < 600.0 and instances == 117183,
        f"solver agrees with the naive oracle on all {instances} census systems, "
        f"{certified} two-pair noes certified, in {elapsed:.0f}s (< 600s)",
    )


def test_acceptance_04_greedy_linking_500():
    rng = random.Random(2024)
    failures = 0
    runs = 0
    while runs < 500:
        n = rng.randint(11, 14)
        m = rng.randint(3, n // 2)
        g = complete_minus_matching(n, m)
        cert, _ = common_neighbor_certificate(g, 3)
        if not cert:
            continue
        verts = rng.sample(range(n), 6)
        spec = pairs_spec([(verts[0], verts[1]), (verts[2], verts[3]), (verts[4], verts[5])])
        res = greedy_link(g, spec)
        runs += 1
        if res.linkage is None:
            failures += 1
        else:
            res.linkage.validate(g, spec)
    _report(
        4,
        failures == 0,
        f"greedy linking succeeded on {runs}/500 certified k=3 instances (0 failures)",
    )


def test_acceptance_05_contraction_criticality():
    t0 = time.time()
    ok = True
    for k in range(1, 6):
        good, wit = is_contraction_critical(Graph.complete(k), k)
        ok = ok and good and wit is None
    c5_ok, wit = is_contraction_critical(Graph.cycle(5), 3)
    ok = ok and not c5_ok and wit is not None
    if wit is not None:
        wit.validate()
        ok = ok and are_isomorphic(wit.quotient(), Graph.complete(3))
        ok = ok and chromatic_number(wit.quotient())[0] == 3
    elapsed = time.time() - t0
    _report(
        5,
        ok and elapsed < 300.0,
        f"K1..K5 are contraction-critical, C5 is not (validated K3 witness) in {elapsed:.1f}s (< 300s)",
    )


def test_acceptance_07_lemma_sweep_1000():
    t0 = time.time()
    rep = campaign_lemma_si(1000, seed=2026, no_timestamps=True)
    revalidate_report(rep)
    elapsed = time.time() - t0
    _report(
        7,
        rep["samples_run"] == 1000 and len(rep["violations"]) == 0 and elapsed < 20.0,
        f"coverage-score sweep: {rep['samples_run']} samples, "
        f"{len(rep['violations'])} violations (tolerance 0) in {elapsed:.1f}s (< 20s)",
    )


def test_acceptance_08_knitted_subgraph_100():
    family = dense_universal_vertex_family()
    not_found = []
    for seed, g in family:
        verdict = knitted1_check(g, 18, samples=20, seed=seed)
        if verdict.status == "not-found":
            # escalate: record each failing system with the graph
            not_found.append((write_graph6(g), verdict.failures))
    _report(
        8,
        len(family) == 100 and not not_found,
        f"knitted-subgraph search certified on {len(family)}/100 "
        f"dense universal-vertex graphs ({len(not_found)} escalations)",
    )


def test_acceptance_09_pipeline_replay():
    t0 = time.time()
    rep = campaign_pipeline_4linked(2, seed=2027, no_timestamps=True)
    revalidate_report(rep)
    elapsed = time.time() - t0
    all_ok = all(inst["ok"] for inst in rep["instances"])
    stage_sets = {tuple(s["stage"] for s in inst["stages"]) for inst in rep["instances"]}
    complete = all("linkage" in names and "massed" in names for names in stage_sets)
    _report(
        9,
        all_ok and complete and not rep["violations"] and elapsed < 1800.0,
        f"pipeline completed every stage with validating certificates on "
        f"{len(rep['instances'])} dense-host instances in {elapsed:.0f}s (< 1800s)",
    )


def test_acceptance_10_graph6_roundtrip(census7):
    rng = random.Random(55)
    bad = 0
    for _ in range(1000):
        g = random_graph(rng, rng.randint(0, 16), p=rng.random())
        s = write_graph6(g)
        if parse_graph6(s) != g or write_graph6(parse_graph6(s)) != s:
            bad += 1
    for g in census7:
        s = write_graph6(g)
        if parse_graph6(s) != g or write_graph6(parse_graph6(s)) != s:
            bad += 1
    _report(
        10,
        bad == 0,
        f"graph6 round-trip bit-exact on 1000 random graphs and the {len(census7)}-graph census",
    )
