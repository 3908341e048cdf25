import hashlib
import itertools
import json
import random
import time

import pytest

from knitweave import campaigns
from knitweave.campaigns import (
    PIPELINE_P,
    _is_biconnected,
    _lemma_instances,
    _pipeline_one,
    _report,
    campaign_lemma_si,
    campaign_pipeline_4linked,
    load_report,
    revalidate_report,
)
from knitweave.errors import InputError
from knitweave.formats import parse_graph6, write_json
from knitweave.graphs import Graph, bits, is_connected, mask_of
from knitweave.solver import Configuration

from conftest import random_graph
from oracles import biconnected_by_sweep, flow_by_matrix


def test_lemma_si_zero_samples():
    rep = campaign_lemma_si(0, seed=1, no_timestamps=True)
    assert rep["samples_run"] == 0
    assert rep["violations"] == []
    revalidate_report(rep)


@pytest.mark.parametrize("samples", [-2, 2.5, True])
@pytest.mark.parametrize("campaign", [campaign_lemma_si, campaign_pipeline_4linked])
def test_campaigns_reject_samples_that_are_not_a_nonnegative_int(campaign, samples):
    with pytest.raises(InputError, match="nonnegative int"):
        campaign(samples, 1, no_timestamps=True)


@pytest.mark.parametrize("campaign, seed", [(campaign_lemma_si, 2.5), (campaign_pipeline_4linked, True)])
def test_campaigns_reject_a_seed_that_is_not_an_int(campaign, seed):
    # load_report rejects such a seed, so no report is written with one
    with pytest.raises(InputError, match="seed must be an int"):
        campaign(1, seed, no_timestamps=True)


@pytest.mark.parametrize("campaign", [campaign_lemma_si, campaign_pipeline_4linked])
def test_a_report_requesting_negative_samples_fails_revalidation(campaign):
    # the rerun of -2 samples writes the same instances as the rerun of 0
    rep = campaign(0, 1, no_timestamps=True)
    rep["samples_requested"] = -2
    with pytest.raises(InputError, match="nonnegative"):
        load_report(write_json(rep))


def test_lemma_configurations_pass_their_validator():
    # build_configuration does not validate its own output: every
    # configuration the campaign builds, on 300 hosts, must pass
    for seed in (1, 2, 3):
        for inst in itertools.islice(_lemma_instances(10**6, seed), 100):
            g = parse_graph6(inst["graph6"])
            cfg = Configuration(g, inst["terminals"][0], tuple(map(tuple, inst["blocks"])))
            cfg.validate()


def test_is_biconnected():
    assert _is_biconnected(Graph.cycle(4), 0b1111)
    assert not _is_biconnected(Graph.path(3), 0b111)  # vertex 1 is a cut vertex
    assert not _is_biconnected(Graph.complete(4), 0b11)  # fewer than 3 vertices
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not _is_biconnected(two_triangles, two_triangles.full_mask)


def _searches(monkeypatch) -> list:
    """Count the searches ``_is_biconnected`` runs from now on."""
    calls = []

    def counted(g, domain):
        calls.append(domain)
        return is_connected(g, domain)

    monkeypatch.setattr(campaigns, "is_connected", counted)
    return calls


@pytest.mark.parametrize("m", range(2, 7))
def test_is_biconnected_complete_bipartite_is_settled_by_the_degree_bound(m, monkeypatch):
    # every degree is m = |D|/2, so no search runs
    k = Graph.from_edges(2 * m, [(u, m + v) for u in range(m) for v in range(m)])
    searches = _searches(monkeypatch)
    assert _is_biconnected(k, k.full_mask)
    assert searches == []


@pytest.mark.parametrize("m", range(2, 8))
def test_is_biconnected_two_cliques_on_a_cut_vertex(m, monkeypatch):
    # 2 * delta = 2m - 2 = |D| - 1 misses the bound by one, and vertex m - 1
    # is shared, so the sweep finds the cut vertex
    cliques = [(u, v) for u in range(m) for v in range(u + 1, m)]
    g = Graph.from_edges(2 * m - 1, cliques + [(m - 1 + u, m - 1 + v) for u, v in cliques])
    searches = _searches(monkeypatch)
    assert not _is_biconnected(g, g.full_mask)
    assert searches


@pytest.mark.parametrize("g", [
    Graph.from_edges(6, [(0, v) for v in range(1, 6)]),
    Graph.path(6),
    Graph.cycle(6),
], ids=["star", "path", "cycle"])
def test_is_biconnected_low_degree_goes_to_the_sweep(g, monkeypatch):
    searches = _searches(monkeypatch)
    assert _is_biconnected(g, g.full_mask) == (g == Graph.cycle(6))
    assert searches


@pytest.mark.parametrize("domain", [0, 0b1, 0b1000, 0b11, 0b1010])
def test_is_biconnected_below_three_vertices(domain):
    assert not _is_biconnected(Graph.complete(4), domain)


def test_is_biconnected_matches_sweep(census7):
    # every domain of every graph on at most 6 vertices, the whole graph on 7
    for g in census7:
        domains = range(1 << g.n) if g.n <= 6 else [g.full_mask]
        for domain in domains:
            assert _is_biconnected(g, domain) == biconnected_by_sweep(g, domain), (g, domain)
    rng = random.Random(51)
    for _ in range(3000):
        n = rng.randint(8, 20)
        g = random_graph(rng, n, rng.uniform(0.2, 0.9))
        domain = rng.getrandbits(n) | rng.getrandbits(n)
        assert _is_biconnected(g, domain) == biconnected_by_sweep(g, domain), (g, domain)


# sha256 of write_json with no_timestamps: campaign reports are meant to
# stay byte-stable, so a change that alters these bytes must say why and re-pin
PINNED_DIGESTS = {
    ("lemma-si", 1): "e0e0d2f5c49d8c8cb43af16f7ade734de72259e24661d924ba87548de616c606",
    ("lemma-si", 2): "3d7b3eb552838d5280fea81d67b68e169812c4636038dd07a62705d3b7b0a1a0",
    ("lemma-si", 3): "251b5b900e09f78e45391777c1d4f6350259e378c96cea9a1310e98d369f4e2b",
    ("pipeline-4linked", 1): "cbb646480627c75cf59f5dd8e914d398ca67f162d65c4f717e787853f8dd4ed1",
    ("pipeline-4linked", 2): "26be60265b27a39b4af979e161c1c3a3009fb3875267c94a52146277d0c2e04b",
    ("pipeline-4linked", 3): "78878fe9a144a4c043331a3f270decaf02189f1adcd78fae7ce324fd0a4ab895",
}


def test_reports_match_pinned_digests():
    got = {}
    for seed in (1, 2, 3):
        for rep in (
            campaign_lemma_si(30, seed, no_timestamps=True),
            campaign_pipeline_4linked(2, seed, no_timestamps=True),
        ):
            digest = hashlib.sha256(write_json(rep).encode()).hexdigest()
            got[rep["experiment"], seed] = digest
    assert got == PINNED_DIGESTS


def test_lemma_si_runs_clean_and_deterministic():
    rep = campaign_lemma_si(60, seed=9, no_timestamps=True)
    assert rep["samples_run"] == 60
    assert rep["violations"] == []
    rep2 = campaign_lemma_si(60, seed=9, no_timestamps=True)
    assert write_json(rep) == write_json(rep2)
    assert write_json(rep) != write_json(campaign_lemma_si(60, seed=10, no_timestamps=True))
    revalidate_report(rep)
    # both lemma record kinds appear and both side forms get exercised
    kinds = {s["lemma"] for inst in rep["instances"] for s in inst["samples"]}
    forms = {s["form"] for inst in rep["instances"] for s in inst["samples"]}
    assert kinds == {"si", "si2"}
    assert forms == {"AB", "AjBj"}


def test_lemma_si_pair_conclusions_trigger():
    rep = campaign_lemma_si(120, seed=4, no_timestamps=True)
    hot = [
        s
        for inst in rep["instances"]
        for s in inst["samples"]
        if s["lemma"] == "si2" and any(a + b >= 3 for a, b in s["pair_scores"].values())
    ]
    assert hot, "no paired sample ever met the score threshold"
    assert rep["violations"] == []


def test_revalidation_catches_tampering():
    rep = campaign_lemma_si(10, seed=2, no_timestamps=True)
    blob = json.loads(write_json(rep))
    scored = next(
        s for inst in blob["instances"] for s in inst["samples"] if s["lemma"] == "si" and s["scores"]
    )
    scored["scores"][next(iter(scored["scores"]))] += 5
    with pytest.raises(InputError):
        load_report(json.dumps(blob))

    text = write_json(campaign_lemma_si(30, seed=3, no_timestamps=True))
    first = json.loads(text)["instances"][0]
    assert first["blocks"][1:] == [[23, 24], [25, 26], [27, 0, 28], [1, 12]]
    assert first["samples"][0]["j"] == 4
    assert first["samples"][7]["form"] == "AjBj" and first["samples"][7]["observers"] == [7, 10, 15, 16]

    def sample(blob):
        return blob["instances"][0]["samples"][0]

    def faked_violations(blob):
        sample(blob)["violations"] = ["(d) total score 0 < bound 1"]

    def emptied_scores(blob):
        sample(blob)["scores"] = {}

    def unknown_form(blob):
        sample(blob)["form"] = "zz"

    def connected_j(blob):
        sample(blob)["j"] = 1

    def j_out_of_range(blob):
        sample(blob)["j"] = 9

    def flipped_skipped(blob):
        blob["instances"][0]["skipped"] = True

    def samples_run(blob):
        blob["samples_run"] -= 1

    def fake_violation(blob):
        blob["violations"].append({"instance": 0, **sample(blob)})

    def si2_observer_outside_side(blob):
        # 4 lies in the component A of block 4's end 1 but not among the
        # end's neighbors A_j, which is the side of form AjBj
        blob["instances"][0]["samples"][7]["observers"][1] = 4

    def si2_observer_repeated(blob):
        blob["instances"][0]["samples"][3]["observers"][1] = 3  # [3, 2, 19, 16] -> [3, 3, 19, 16]

    def float_score(blob):
        scores = sample(blob)["scores"]
        key = next(k for k, v in scores.items() if v == 2)
        scores[key] = 2.0

    def float_samples_run(blob):
        blob["samples_run"] = float(blob["samples_run"])

    def fewer_requested(blob):
        blob["samples_requested"] = 5  # 30 samples were run

    for tamper in (faked_violations, emptied_scores, unknown_form, connected_j, j_out_of_range,
                   flipped_skipped, samples_run, fake_violation, si2_observer_outside_side,
                   si2_observer_repeated, float_score, float_samples_run, fewer_requested):
        blob = json.loads(text)
        tamper(blob)
        with pytest.raises(InputError):
            load_report(json.dumps(blob))

    def bare_block(blob):
        # a connected block read as its bare pair: a valid configuration on
        # the same terminals, with everything else made to agree, but not the
        # best one
        inst = blob["instances"][0]
        g = parse_graph6(inst["graph6"])
        blocks = [tuple(b) for b in inst["blocks"]]
        i = next(i for i, b in enumerate(blocks) if i and len(b) > 2)
        blocks[i] = (blocks[i][0], blocks[i][-1])
        cfg = Configuration.normal(g, blocks[0][0], blocks[1:])
        inst["blocks"] = [list(b) for b in cfg.blocks]
        inst["skipped"] = cfg.connected_count == 4
        inst["samples"] = []
        blob.update(_report(blob["experiment"], blob["seed"], blob["samples_requested"],
                            blob["timestamp"], blob["instances"]))

    for seed in (1, 2, 3):
        blob = json.loads(write_json(campaign_lemma_si(30, seed, no_timestamps=True)))
        bare_block(blob)
        with pytest.raises(InputError):
            load_report(json.dumps(blob))


def test_revalidation_rejects_malformed_blocks():
    rep = campaign_lemma_si(4, seed=3, no_timestamps=True)
    good = rep["instances"][0]["blocks"]
    assert good[:2] == [[22], [23, 24]]
    n = parse_graph6(rep["instances"][0]["graph6"]).n
    malformed = (
        [good[0], [23]] + good[2:],
        [good[0], []] + good[2:],
        good[:4],
        [[]] + good[1:],
        [],
        [[-1]] + good[1:],
        [[n]] + good[1:],
        [[22.0]] + good[1:],
    )
    for blocks in malformed:
        blob = json.loads(write_json(rep))
        inst = blob["instances"][0]
        inst["blocks"] = blocks
        # no recomputed record can give the tampering away, and the tallies
        # still match the instances
        blob["samples_run"] -= len(inst["samples"])
        inst["samples"] = []
        with pytest.raises(InputError):
            load_report(json.dumps(blob))


def test_revalidation_checks_terminals_against_blocks():
    rep = campaign_lemma_si(4, seed=3, no_timestamps=True)
    inst = rep["instances"][0]
    assert inst["terminals"] == [22, 23, 24, 25, 26, 27, 28, 1, 12]
    swapped = inst["terminals"][:7] + [12, 1]  # block (1, 12) read as (12, 1)
    for terminals in (list(range(9)), swapped, inst["terminals"][:8], [22.0] + inst["terminals"][1:]):
        blob = json.loads(write_json(rep))
        blob["instances"][0]["terminals"] = terminals
        with pytest.raises(InputError):
            load_report(json.dumps(blob))


def test_revalidation_recomputes_pair_scores():
    rep = campaign_lemma_si(4, seed=3, no_timestamps=True)
    blob = json.loads(write_json(rep))
    paired = [s for s in blob["instances"][0]["samples"] if s["lemma"] == "si2"]
    assert paired[0]["pair_scores"]["1"] == [2, 2]
    paired[0]["pair_scores"]["1"] = [9, 9]
    with pytest.raises(InputError):
        load_report(json.dumps(blob))


def test_pipeline_completes_on_both_hosts():
    rep = campaign_pipeline_4linked(1, seed=11, no_timestamps=True)
    assert rep["violations"] == []
    assert len(rep["instances"]) == 2
    for inst in rep["instances"]:
        assert inst["ok"]
        stage_names = [s["stage"] for s in inst["stages"]]
        assert stage_names[0] == "massed"
        assert "linkage" in stage_names
    revalidate_report(rep)


def _linkage_stage(inst):
    return next(st for st in inst["stages"] if st["stage"] == "linkage")


def test_pipeline_tampered_linkage_detected():
    def repeated(inst):
        path = _linkage_stage(inst)["paths"][0]
        path.insert(0, path[0])

    def empty_path(inst):
        _linkage_stage(inst)["paths"][0] = []

    def float_path(inst):
        _linkage_stage(inst)["paths"][0] = [15.0, 1, 3, 18]

    def float_pair(inst):
        inst["pairs"][0] = [15.0, 18]

    def fractional_p(inst):
        inst["p"] = 30.5

    def no_massed(inst):
        inst["stages"] = [st for st in inst["stages"] if st["stage"] != "massed"]

    def one_vertex_pair(inst):
        inst["pairs"][0] = [15]

    def stage(inst, name):
        return next(st for st in inst["stages"] if st["stage"] == name)

    def descended(inst):
        stage(inst, "minimize")["outcome"] = "descended"

    def candidate_off_host(inst):
        # 8 ends no into-path, and K32 has no vertex 40
        stage(inst, "dense-subgraph")["candidate"][8] = 40

    def sampled_route(inst):
        stage(inst, "knitted-subgraph")["route"] = "sampled"

    def exact_method(inst):
        stage(inst, "link-inside")["method"] = "exact"

    def stages_dropped(inst):
        drop = ("minimize", "knitted-subgraph", "link-inside")
        inst["stages"] = [st for st in inst["stages"] if st["stage"] not in drop]

    def float_rho(inst):
        stage(inst, "massed")["rho"] = float(stage(inst, "massed")["rho"])

    def samples_run(blob):
        blob["samples_run"] += 1

    def fake_violation(blob):
        blob["violations"].append({"instance": 0, "stages": blob["instances"][0]["stages"]})

    def flipped_ok(blob):
        # a finished linkage reported as a failure, with the tallies to match
        blob["instances"][0]["ok"] = False
        blob.update(_report(blob["experiment"], blob["seed"], blob["samples_requested"],
                            blob["timestamp"], blob["instances"]))

    texts = {seed: write_json(campaign_pipeline_4linked(1, seed=seed, no_timestamps=True)) for seed in (3, 11)}
    assert _linkage_stage(json.loads(texts[3])["instances"][0])["paths"][0] == [15, 1, 3, 18]
    cases = [(11, repeated)] + [(3, t) for t in (empty_path, float_path, float_pair, fractional_p, no_massed,
                                                 one_vertex_pair, descended, candidate_off_host,
                                                 sampled_route, exact_method, stages_dropped, float_rho)]
    for seed, tamper in cases:
        blob = json.loads(texts[seed])
        tamper(blob["instances"][0])
        with pytest.raises(InputError):
            load_report(json.dumps(blob))
    for tamper in (samples_run, fake_violation, flipped_ok):
        blob = json.loads(texts[3])
        tamper(blob)
        with pytest.raises(InputError):
            load_report(json.dumps(blob))


def _into_stage(inst):
    return next(st for st in inst["stages"] if st["stage"] == "paths-into-subgraph")


def test_pipeline_tampered_into_paths_detected():
    rep = campaign_pipeline_4linked(1, seed=3, no_timestamps=True)
    st = _into_stage(rep["instances"][0])
    assert st["paths"][:2] == [[11, 0], [15, 1]] and st["count"] == 8
    # the second host is K33 minus a matching; 27 lies on no into-path
    assert _into_stage(rep["instances"][1])["paths"][3] == [26, 9]
    assert not parse_graph6(rep["instances"][1]["graph6"]).has_edge(26, 27)

    def all_zero(st):
        st["paths"] = [[0, 0, 0] for _ in st["paths"]]

    def shared(st):
        st["paths"][1] = [15, 0]

    def off_terminal(st):
        st["paths"][0] = [0, 11]

    def miscounted(st):
        st["count"] = 7

    def short(st):
        st["paths"].pop()
        st["count"] = 7

    def non_integer(st):
        st["paths"][0] = [11.0, 0]

    def non_edge(st):
        st["paths"][3] = [26, 27]

    def outside_candidate(st):
        st["paths"][0] = [11, 30]  # the candidate is 0..8; 30 is on no path

    cases = [(0, all_zero), (0, shared), (0, off_terminal), (0, miscounted),
             (0, short), (0, non_integer), (1, non_edge), (0, outside_candidate)]
    for idx, tamper in cases:
        blob = json.loads(write_json(rep))
        tamper(_into_stage(blob["instances"][idx]))
        with pytest.raises(InputError):
            load_report(json.dumps(blob))


def test_pipeline_reports_an_eight_vertex_candidate():
    # Turan T(28, 8): its certified candidate at p = 30 is an 8-clique, one
    # vertex short of greedy linking, so the four pairs are linked exactly
    g = Graph.from_edges(28, [(u, v) for u in range(28) for v in range(u + 1, 28) if u % 8 != v % 8])
    inst = {**_pipeline_one(g, ((20, 12), (25, 6), (3, 15), (0, 26)), PIPELINE_P), "wall_ms": None}
    assert inst["ok"]
    stage = {st["stage"]: st for st in inst["stages"]}
    assert stage["knitted-subgraph"]["route"] == "clique"
    assert stage["link-inside"]["method"] == "exact"
    rep = _report("pipeline-4linked", 0, 1, None, [inst])
    assert json.loads(write_json(rep)) == rep
    # revalidation compares with the campaign's rerun, whose first host is K32
    with pytest.raises(InputError, match="instance 0 differs"):
        load_report(write_json(rep))


def test_pipeline_descends_then_falls_short_of_paths_into_the_candidate():
    # the ten terminals are massed at 22 but not knitted, so the pair is
    # descended; its 9-clique holds the five odd terminals, and the five even
    # ones can enter it only through the four interior vertices
    from test_structure import _massed_unknitted_fixture

    g, s = _massed_unknitted_fixture()
    inst = _pipeline_one(g, tuple((i, i + 1) for i in range(0, 10, 2)), 22)
    assert [(st["stage"], st["ok"]) for st in inst["stages"]] == [
        ("massed", True), ("minimize", True), ("dense-subgraph", True),
        ("knitted-subgraph", True), ("paths-into-subgraph", False),
    ]
    assert not inst["ok"]
    massed, minimize, dense, knitted, into = inst["stages"]
    assert minimize["outcome"] == "descended" and minimize["trail"] == [["delete_edge", 0, 10]]
    assert list(parse_graph6(minimize["graph6"]).edges()) == [e for e in g.edges() if e != (0, 10)]
    assert dense["route"] == knitted["route"] == "clique"
    assert dense["candidate"] == [1, 3, 5, 7, 9, 10, 11, 12, 13]
    assert into["count"] == len(into["paths"]) == 9
    assert into["paths"] == [[0, 10], [2, 11], [4, 12], [6, 13], [1], [3], [5], [7], [9]]


def test_pipeline_routes_into_the_candidate_after_a_descent_deletes_vertices():
    # terminals 0-9 form a clique minus the matching 0-1, ..., 8-9; 11-14 a
    # clique complete to them; 10 sees 11-14 only. The descent deletes 10-13,
    # so the descended graph's vertex 10 is g's 14, and the candidate it
    # names must be routed into in g's labels
    edges = [(u, v) for u, v in itertools.combinations(range(10), 2) if not (u % 2 == 0 and v == u + 1)]
    edges += list(itertools.combinations(range(11, 15), 2))
    edges += [(t, x) for t in range(11) for x in range(11, 15)]
    g = Graph.from_edges(15, edges)
    inst = _pipeline_one(g, tuple((i, i + 1) for i in range(0, 10, 2)), 18)
    massed, minimize, dense, knitted, into = inst["stages"]
    assert minimize["trail"] == [
        ["delete_vertex", 10], ["delete_vertex", 11], ["delete_vertex", 12], ["delete_vertex", 13],
        ["add_edge", 0, 1], ["add_edge", 2, 3], ["add_edge", 4, 5],
    ]
    # printed in the descended graph's labels, as the minimize graph6 reads
    assert dense["candidate"] == [0, 1, 2, 3, 4, 5, 7, 9, 10]
    assert parse_graph6(minimize["graph6"]).n == 11
    cand = {0, 1, 2, 3, 4, 5, 7, 9, 14}
    assert into["paths"] and all(path[-1] in cand for path in into["paths"]), into["paths"]


def test_pipeline_stops_with_no_dense_subgraph_on_a_turan_host():
    # T(40, 8) at p = 30: the pairs are knitted already, the largest clique
    # has eight vertices, and no closed neighbourhood has a dense shape
    g = Graph.from_edges(40, [(u, v) for u in range(40) for v in range(u + 1, 40) if u % 8 != v % 8])
    inst = _pipeline_one(g, ((8, 36), (4, 16), (7, 31), (28, 30)), PIPELINE_P)
    assert PIPELINE_P == 30
    assert inst["stages"][1:] == [
        {"stage": "minimize", "ok": True, "outcome": "already-knitted"},
        {"stage": "dense-subgraph", "ok": False},
    ]
    assert inst["stages"][0]["ok"] and not inst["ok"]


def test_pipeline_p_is_the_campaign_threshold():
    text = write_json(campaign_pipeline_4linked(1, seed=3, no_timestamps=True))
    for p in (0, 1, 8, 29, 31):
        blob = json.loads(text)
        blob["instances"][0]["p"] = p
        blob.update(_report(blob["experiment"], blob["seed"], blob["samples_requested"],
                            blob["timestamp"], blob["instances"]))
        with pytest.raises(InputError, match="instance 0 differs"):
            load_report(json.dumps(blob))


def test_pipeline_report_must_hold_the_campaign_draw():
    """Revalidation redraws the jobs from the report's seed and
    samples_requested, so a dropped instance, an edited request or seed, or
    swapped pairs fail, even with the tallies redone and the instance
    rebuilt from its swapped pairs."""
    text = write_json(campaign_pipeline_4linked(2, seed=1, no_timestamps=True))

    def dropped(blob):
        del blob["instances"][1]

    def fewer_requested(blob):
        blob["samples_requested"] = 1
        blob["instances"] = blob["instances"][::2]

    def more_requested(blob):
        blob["samples_requested"] = 3

    def huge_request(blob):
        blob["samples_requested"] = 10**18

    def other_seed(blob):
        blob["seed"] = 2

    def rerun(blob, i, pairs):
        # instance i rebuilt, as the campaign would write it, from other pairs
        g = parse_graph6(blob["instances"][i]["graph6"])
        blob["instances"][i] = {**_pipeline_one(g, pairs, PIPELINE_P), "wall_ms": None}

    def swapped_pairs(blob):
        p = [tuple(pr) for pr in blob["instances"][0]["pairs"]]
        rerun(blob, 0, (p[1], p[0], p[2], p[3]))

    def swapped_ends(blob):
        p = [tuple(pr) for pr in blob["instances"][2]["pairs"]]
        rerun(blob, 2, (p[0][::-1], p[1], p[2], p[3]))

    cases = [(dropped, "instance 1 differs"), (fewer_requested, "instance 1 differs"),
             (more_requested, "instance 2 differs"), (huge_request, "instance 2 differs"),
             (other_seed, "instance 0 differs"), (swapped_pairs, "instance 0 differs"),
             (swapped_ends, "instance 2 differs")]
    for tamper, message in cases:
        blob = json.loads(text)
        tamper(blob)
        blob.update(_report(blob["experiment"], blob["seed"], blob["samples_requested"],
                            blob["timestamp"], blob["instances"]))
        t0 = time.perf_counter()
        with pytest.raises(InputError, match=message):
            revalidate_report(blob)
        # the rerun stops at the first instance that differs, whatever the request
        assert time.perf_counter() - t0 < 1.0, tamper.__name__


def test_lemma_report_must_hold_the_campaign_draw():
    """A lemma-si report is rerun from its seed and samples_requested, so an
    edited seed or request, or a dropped or appended instance, fails, even
    with the tallies redone; a huge request stops where the report ends."""
    text = write_json(campaign_lemma_si(30, seed=3, no_timestamps=True))

    def other_seed(blob):
        blob["seed"] = 4

    def one_more_requested(blob):
        blob["samples_requested"] = 31

    def huge_request(blob):
        blob["samples_requested"] = 10**18

    def dropped_last(blob):
        blob["instances"].pop()

    def appended(blob):
        blob["instances"].append(blob["instances"][0])

    for tamper in (other_seed, one_more_requested, huge_request, dropped_last, appended):
        blob = json.loads(text)
        tamper(blob)
        blob.update(_report(blob["experiment"], blob["seed"], blob["samples_requested"],
                            blob["timestamp"], blob["instances"]))
        t0 = time.perf_counter()
        with pytest.raises(InputError):
            load_report(json.dumps(blob))
        assert time.perf_counter() - t0 < 1.0, tamper.__name__


def test_timestamped_reports_revalidate():
    for rep in (campaign_lemma_si(30, seed=1), campaign_pipeline_4linked(1, seed=1)):
        assert rep["timestamp"] is not None
        assert all(inst["wall_ms"] is not None for inst in rep["instances"])
        assert load_report(write_json(rep)) == rep


@pytest.mark.parametrize("seed", [1, 2])
def test_pipeline_into_paths_match_matrix_flow(seed):
    # the report embeds the collected flow paths, so their order is schema
    rep = campaign_pipeline_4linked(2, seed=seed, no_timestamps=True)
    for inst in rep["instances"]:
        g = parse_graph6(inst["graph6"])
        s = mask_of(x for pr in inst["pairs"] for x in pr)
        dense = next(st for st in inst["stages"] if st["stage"] == "dense-subgraph")
        assert dense["route"] == "clique"
        cand = mask_of(dense["candidate"])
        _, into, _ = flow_by_matrix(g, s & ~cand, cand & ~s, g.full_mask & ~cand & ~s, collect=True)
        want = [list(p) for p in into] + [[x] for x in bits(s & cand)]
        assert _into_stage(inst)["paths"] == want
