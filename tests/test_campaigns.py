import json

import pytest

from knitweave.campaigns import (
    campaign_lemma_si,
    campaign_pipeline_4linked,
    load_report,
    report_to_json,
    revalidate_report,
)
from knitweave.errors import InputError
from knitweave.formats import parse_graph6
from knitweave.graphs import bits, mask_of

from oracles import flow_by_matrix


def test_lemma_si_zero_samples():
    rep = campaign_lemma_si(0, seed=1, no_timestamps=True)
    assert rep["samples_run"] == 0
    assert rep["violations"] == []
    revalidate_report(rep)


def test_lemma_si_runs_clean_and_deterministic():
    rep = campaign_lemma_si(60, seed=9, no_timestamps=True)
    assert rep["samples_run"] == 60
    assert rep["violations"] == []
    rep2 = campaign_lemma_si(60, seed=9, no_timestamps=True)
    assert report_to_json(rep) == report_to_json(rep2)
    assert report_to_json(rep) != report_to_json(campaign_lemma_si(60, seed=10, no_timestamps=True))
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
    blob = json.loads(report_to_json(rep))
    for inst in blob["instances"]:
        for s in inst["samples"]:
            if s["lemma"] == "si" and s["scores"]:
                key = next(iter(s["scores"]))
                s["scores"][key] += 5
                with pytest.raises(InputError):
                    load_report(json.dumps(blob))
                return
    pytest.skip("no scored sample found")


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
        blob = json.loads(report_to_json(rep))
        inst = blob["instances"][0]
        inst["blocks"] = blocks
        inst["samples"] = []  # no recomputed score can give the tampering away
        with pytest.raises(InputError):
            load_report(json.dumps(blob))


def test_revalidation_checks_terminals_against_blocks():
    rep = campaign_lemma_si(4, seed=3, no_timestamps=True)
    inst = rep["instances"][0]
    assert inst["terminals"] == [22, 23, 24, 25, 26, 27, 28, 1, 12]
    swapped = inst["terminals"][:7] + [12, 1]  # block (1, 12) read as (12, 1)
    for terminals in (list(range(9)), swapped, inst["terminals"][:8]):
        blob = json.loads(report_to_json(rep))
        blob["instances"][0]["terminals"] = terminals
        with pytest.raises(InputError):
            load_report(json.dumps(blob))


def test_revalidation_recomputes_pair_scores():
    rep = campaign_lemma_si(4, seed=3, no_timestamps=True)
    blob = json.loads(report_to_json(rep))
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


def test_pipeline_tampered_linkage_detected():
    rep = campaign_pipeline_4linked(1, seed=11, no_timestamps=True)
    blob = json.loads(report_to_json(rep))
    for st in blob["instances"][0]["stages"]:
        if st["stage"] == "linkage":
            st["paths"][0] = st["paths"][0][:1] + st["paths"][0]
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
        blob = json.loads(report_to_json(rep))
        tamper(_into_stage(blob["instances"][idx]))
        with pytest.raises(InputError):
            load_report(json.dumps(blob))


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
        _, into = flow_by_matrix(g, s & ~cand, cand & ~s, g.full_mask & ~cand & ~s, collect=True)
        want = [list(p) for p in into] + [[x] for x in bits(s & cand)]
        assert _into_stage(inst)["paths"] == want
