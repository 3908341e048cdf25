import hashlib
import io
import itertools
import json
import random
import sys
import time

import pytest

from knitweave import solver
from knitweave.cli import SEPARATIONS_LIMIT, cli_main
from knitweave.formats import certificate_from_json, certificate_to_json, parse_graph6, write_edge_list, write_graph6
from knitweave.generators import complete_minus_matching, gen_universal_vertex
from knitweave.graphs import Graph, mask_of, set_of
from knitweave.solver import PlanarObstruction, TerminalSpec, knit, pairs_spec
from knitweave.structure import Separation

from conftest import crossing_grid


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli_main(argv)
    out = capsys.readouterr().out
    return code, out


def graph_file(tmp_path, g, name="g.g6"):
    path = tmp_path / name
    path.write_text(write_graph6(g) + "\n")
    return str(path)


def test_knit_k9(capsys, tmp_path):
    path = graph_file(tmp_path, Graph.complete(9))
    code, out = run(
        capsys,
        ["--input", path, "knit", "--terminals", "0,1,2,3,4,5,6,7,8", "--profile", "2,2,2,2,1"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["exists"] is True
    assert len(data["subgraphs"]) == 5


def test_knit_profile_must_cover_terminals(capsys, tmp_path):
    path = graph_file(tmp_path, Graph.complete(6))
    for profile in ("2,2", "2,2,2"):
        code, _ = run(
            capsys, ["--input", path, "knit", "--terminals", "0,1,2,3,4", "--profile", profile]
        )
        assert code == 2  # a part would drop or cut short a terminal


def test_critical_c5(capsys, tmp_path):
    path = graph_file(tmp_path, Graph.cycle(5))
    code, out = run(capsys, ["--input", path, "critical", "--k", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["contraction_critical"] is False
    assert len(data["witness_minor"]["branch_sets"]) == 3


def test_convert_identity(capsys, tmp_path, monkeypatch):
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    text = write_edge_list(g)
    code, g6 = run(capsys, ["convert", "--to", "graph6"], stdin=text, monkeypatch=monkeypatch)
    assert code == 0
    code, back = run(capsys, ["convert", "--to", "edges"], stdin=g6, monkeypatch=monkeypatch)
    assert code == 0
    assert back == text


def test_linkage_and_exit_codes(capsys, tmp_path):
    path = graph_file(tmp_path, Graph.cycle(6))
    code, out = run(capsys, ["--input", path, "linkage", "--pairs", "0-3,1-4"])
    assert code == 0
    assert json.loads(out)["exists"] is False
    code, _ = run(capsys, ["--input", path, "linkage", "--pairs", "0-0"])
    assert code == 2  # malformed pair: input error


def test_linkage_prints_a_certificate_for_a_two_pair_no(capsys, tmp_path):
    g = Graph.cycle(6)
    path = graph_file(tmp_path, g)
    code, out = run(capsys, ["--input", path, "linkage", "--pairs", "0-3,1-4"])
    data = json.loads(out)
    assert code == 0 and data["exists"] is False
    certificate_from_json(PlanarObstruction, g, data["certificate"]).validate(g, pairs_spec([(0, 3), (1, 4)]))
    code, out = run(capsys, ["--input", path, "linkage", "--pairs", "0-2,3-5"])
    data = json.loads(out)
    assert data["exists"] is True and data["certificate"] is None


def test_linkage_prints_a_certificate_when_two_pairs_are_unlinked(capsys, tmp_path):
    # three pairs on the crossing 5x5 grid, and the 6x6 grid's corners plus
    # the edge pair 14-21: the corner pairs are unlinked with the other
    # ends deleted, and the certificate checks against the whole spec
    for size, pairs in ((5, "0-24,4-20,7-17"), (6, "0-35,5-30,14-21")):
        g, _ = crossing_grid(size, size)
        path = graph_file(tmp_path, g)
        code, out = run(capsys, ["--input", path, "linkage", "--pairs", pairs])
        data = json.loads(out)
        assert code == 0 and data["exists"] is False
        spec = pairs_spec([tuple(map(int, p.split("-"))) for p in pairs.split(",")])
        certificate_from_json(PlanarObstruction, g, data["certificate"]).validate(g, spec)
    # two K6s joined through 6 and 7: the flow bound shows the "no", and
    # every two of the pairs are linked, so there is no certificate
    edges = [(u, v) for side in (range(6), range(8, 14)) for u, v in itertools.combinations(side, 2)]
    edges += [(w, x) for w in (6, 7) for x in (*range(6), *range(8, 14))]
    path = graph_file(tmp_path, Graph.from_edges(14, edges))
    code, out = run(capsys, ["--input", path, "linkage", "--pairs", "0-8,1-9,2-10"])
    data = json.loads(out)
    assert code == 0 and data["exists"] is False and data["certificate"] is None


# sha256 of the linkage command's standard output: the certificates of the
# crossing 5x5 grid, of the 8x8 grid shuffled by random.Random(8) (the
# pairs as tier1.yml passes them) and of the 5x5 grid's three-pair "no",
# and the witnesses of the 8x8 grid plus the chord 6-55 in both pair orders
PINNED_LINKAGE_STDOUT = {
    "grid5 0-24,4-20": "8022be30e29ee353f7aa3bc5c235d007b190dfa8865089bcd22c7711571e7c91",
    "grid8 48-29,50-2": "ff15d496755f9cde0cb700d63f2a5efa7321078282e702ad7db2c59d9ac1d096",
    "grid5 0-24,4-20,7-17": "08866f4a209c7c53bddb6678ff888b80ed71dc8a59877db1a70799bbaeb00e64",
    "chord 0-63,7-56": "45f5dac825c6387445f967f424005b2bad7727831f19815d03477676a242660c",
    "chord 7-56,0-63": "5c7ddbf18b2b7e38011c5fe2fd949e320c634ee4c58c6c8004bc506f6126af0c",
}


def test_linkage_stdout_matches_pinned_digests(capsys, tmp_path):
    grid8, _ = crossing_grid(8, 8)
    graphs = {
        "grid5": crossing_grid(5, 5)[0],
        "grid8": crossing_grid(8, 8, random.Random(8))[0],
        "chord": Graph.from_edges(64, [*grid8.edges(), (6, 55)]),
    }
    got = {}
    for key in PINNED_LINKAGE_STDOUT:
        name, pairs = key.split()
        code, out = run(capsys, ["--input", graph_file(tmp_path, graphs[name]), "linkage", "--pairs", pairs])
        assert code == 0
        got[key] = hashlib.sha256(out.encode()).hexdigest()
    assert got == PINNED_LINKAGE_STDOUT


def test_usage_error_exit_2(capsys):
    assert cli_main(["frobnicate"]) == 2
    capsys.readouterr()


def test_malformed_edge_list_names_its_own_fault(capsys, monkeypatch):
    for text, fault in (("0 1\n1 x\n", "line 2"), ("3\n0 1\n1 5\n", "outside vertex range")):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert cli_main(["chromatic"]) == 2
        err = capsys.readouterr().err
        assert fault in err and "size character" not in err, err


def test_graph6_header_on_its_own_line_reads(capsys, monkeypatch):
    code, out = run(capsys, ["chromatic"], stdin=">>graph6<<\nD?{\n", monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out)["chromatic_number"] == 2


def test_malformed_vertex_arguments_name_their_token(capsys, tmp_path):
    path = graph_file(tmp_path, Graph.complete(5))
    for argv, fault in (
        (["linkage", "--pairs", "0-1-2"], "'0-1-2'"),
        (["linkage", "--pairs", "0-x"], "'x'"),
        (["linkage", "--pairs", "0-1,2"], "'2'"),
        (["knit", "--terminals", "0,1,y", "--profile", "2,1"], "'y'"),
        (["dense", "--p", "4", "--set", "99"], "vertex 99"),
        (["dense", "--p", "-2"], "nonnegative integer"),
        (["massed", "--p", "4", "--set", "0,-1"], "'-1'"),
    ):
        assert cli_main(["--input", path] + argv) == 2, argv
        err = capsys.readouterr().err
        assert fault in err and not any(bare in err for bare in ("unpack", "base 10", "shift")), (argv, err)


@pytest.mark.parametrize("argv", [
    ["linkage", "--pairs", f"0-{2 ** 70}"],
    ["linkage", "--pairs", "0-64"],
    ["massed", "--p", "4", "--set", f"0,{2 ** 70}"],
    ["knit", "--terminals", f"0,1,{2 ** 70}", "--profile", "2,1"],
    ["knit", "--terminals", "0,1", "--profile", "2", "--forbidden", f"{2 ** 70}"],
])
def test_vertex_arguments_past_the_vertex_limit_are_input_errors(capsys, tmp_path, argv):
    # a vertex past the limit is rejected as it is read, before it is
    # shifted into a mask, so 2**70 raises no OverflowError and does not
    # exit 1, the code of a mathematical finding
    path = graph_file(tmp_path, Graph.complete(5))
    assert cli_main(["--input", path] + argv) == 2
    err = capsys.readouterr().err
    assert "outside 0..63" in err and "Traceback" not in err, err


def test_comment_line_reads_as_the_empty_graph(capsys, monkeypatch):
    code, out = run(capsys, ["chromatic"], stdin="# comment", monkeypatch=monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data["chromatic_number"] == 0 and data["coloring"] == []


def test_removed_options_are_usage_errors(capsys, tmp_path):
    path = graph_file(tmp_path, Graph.complete(12))
    for argv in (["--format", "graph6", "chromatic"],
                 ["minimize", "--set", "0,1,2", "--p", "12", "--limit", "4"]):
        assert cli_main(["--input", path] + argv) == 2, argv
    capsys.readouterr()


def test_minimize_cli_descends_without_a_limit(capsys, tmp_path):
    from test_structure import _massed_unknitted_fixture

    g, s = _massed_unknitted_fixture()
    path = graph_file(tmp_path, g)
    code, out = run(capsys, ["--input", path, "minimize", "--set", ",".join(map(str, set_of(s))), "--p", "22"])
    data = json.loads(out)
    assert code == 0 and data["trail"] == [["delete_edge", 0, 10]] and data["set"] == list(set_of(s))


def test_chromatic_one_based_palette(capsys, tmp_path):
    path = graph_file(tmp_path, Graph.cycle(5))
    code, out = run(capsys, ["--input", path, "chromatic"])
    data = json.loads(out)
    assert code == 0 and data["chromatic_number"] == 3
    assert min(data["coloring"]) >= 1  # display colors are one-based


def test_separations_cli(capsys, tmp_path):
    path = graph_file(tmp_path, Graph.path(5))
    code, out = run(capsys, ["--input", path, "separations", "--set", "0", "--max-order", "1"])
    data = json.loads(out)
    assert code == 0 and data["count"] == 3
    assert {"a": [0, 1], "b": [1, 2, 3, 4], "order": 1} in data["separations"]
    path = graph_file(tmp_path, Graph.complete(6))
    code, out = run(capsys, ["--input", path, "separations", "--set", "0,1,2", "--max-order", "4"])
    assert json.loads(out)["count"] == 0


def test_separations_cli_stops_past_its_limit(capsys, tmp_path):
    # K10 with k pendant vertices on vertex 9: the separator {9} cuts off k
    # pieces, each union of them a separation, 23654 in all for k = 8 and
    # 109633 for k = 10, which the CLI refuses rather than hold
    for k, code in ((8, 0), (10, 2)):
        edges = [*itertools.combinations(range(10), 2), *((9, v) for v in range(10, 10 + k))]
        path = graph_file(tmp_path, Graph.from_edges(10 + k, edges))
        t0 = time.perf_counter()
        assert cli_main(["--input", path, "separations", "--set", "0,1,2,3", "--max-order", "3"]) == code, k
        assert time.perf_counter() - t0 < 5.0, k
        out, err = capsys.readouterr()
        assert json.loads(out)["count"] == 23654 if k == 8 else out == "" and f"more than {SEPARATIONS_LIMIT}" in err


def test_rigid_cli(capsys, tmp_path):
    sides = ["--side-a", "0,1,2", "--side-b", "1,2,3,4"]
    k4_edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (0, 1), (0, 2)]
    path = graph_file(tmp_path, Graph.from_edges(5, k4_edges))
    code, out = run(capsys, ["--input", path, "rigid", *sides])
    assert code == 0 and json.loads(out)["rigid"] is True
    # inside side b the separator vertices 1 and 2 lie on separate branches
    path = graph_file(tmp_path, Graph.from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 4)]))
    code, out = run(capsys, ["--input", path, "rigid", *sides])
    assert code == 0 and json.loads(out)["rigid"] is False
    assert cli_main(["--input", path, "rigid", "--side-a", "0,1", "--side-b", "2,3,4"]) == 2
    assert "edge between the private sides" in capsys.readouterr().err  # the edge 0-2


def test_massed_cli(capsys, tmp_path):
    path = graph_file(tmp_path, Graph.complete(6))
    code, out = run(capsys, ["--input", path, "massed", "--set", "0,1,2", "--p", "4"])
    data = json.loads(out)
    assert code == 0 and data["massed"] is True and data["rho"] == 12
    # K5 with a triangle hanging off vertex 4 by the edge 4-5
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)] + [(4, 5), (5, 6), (5, 7), (6, 7)]
    g = Graph.from_edges(8, edges)
    path = graph_file(tmp_path, g)
    code, out = run(capsys, ["--input", path, "massed", "--set", "0,1,2", "--p", "2"])
    data = json.loads(out)
    assert code == 0 and data["massed"] is False and data["condition_ii"] is False
    sep = data["violating_separation"]
    assert sep == {"a": [0, 1, 2, 3, 4], "b": [0, 4, 5, 6, 7]}
    certificate_from_json(Separation, g, sep).validate(g, 0b111)


def test_gen_deterministic(capsys):
    code, out1 = run(capsys, ["--seed", "5", "gen", "--n", "12", "--delta", "6"])
    code2, out2 = run(capsys, ["--seed", "5", "gen", "--n", "12", "--delta", "6"])
    assert code == code2 == 0
    assert out1 == out2


def test_campaign_cli_deterministic(capsys):
    argv = ["--samples", "8", "--seed", "3", "--no-timestamps", "campaign-si"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


# sha256 of cli_main's standard output with --no-timestamps; PINNED_DIGESTS in
# test_campaigns.py pins write_json of the report, this pins the text the CLI writes
PINNED_STDOUT = {
    ("campaign-4linked", 1): "9f15dfe50614ae3a7de05f34d1e399642ddcc37d427c59ea22d5c794dc333aa9",
    ("campaign-4linked", 2): "21e0342240029b0af7d05da3a7f6b7266ae4a6efd0f81d3900477837c771c29d",
    ("campaign-4linked", 3): "6fd9fd081edbb0c312a0ede34a6b92564042b5fb490395051355419b81bceb4d",
    ("campaign-si", 1): "668534a9a36b1f049f2d6171d5a295e091901f07aa7f37817c43770dd9976be9",
    ("campaign-si", 2): "5c7c6c51f3316c64997505b757eff37ce73f6c9f1065401978316babd1211739",
    ("campaign-si", 3): "ab5ba7e2d7bd005f7c6a075e9930016b1b3a27ac1c180bf09c22dcb621896ce6",
}


def test_campaign_stdout_matches_pinned_digests(capsys):
    got = {}
    for cmd, samples in (("campaign-4linked", 2), ("campaign-si", 30)):
        for seed in (1, 2, 3):
            argv = ["--samples", str(samples), "--seed", str(seed), "--no-timestamps", cmd]
            code, out = run(capsys, argv)
            assert code == 0
            got[cmd, seed] = hashlib.sha256(out.encode()).hexdigest()
    assert got == PINNED_STDOUT


def test_thresholds_cli(capsys):
    code, out = run(capsys, ["thresholds", "--t", "8", "--k", "41"])
    data = json.loads(out)
    assert code == 0
    assert data["easy_connectivity"] == 18 and data["connectivity"] == 10


def test_thresholds_names_the_bound_on_t(capsys):
    for t in ("3", "5"):
        assert cli_main(["thresholds", "--t", t]) == 2
        assert capsys.readouterr().err == "error: t must be at least 6\n"


def test_profile_knitted_cli(capsys, tmp_path):
    path = graph_file(tmp_path, Graph.cycle(6))
    code, out = run(
        capsys,
        ["--input", path, "profile-knitted", "--terminals", "0,1,2,3,4,5", "--profile", "2,2,2"],
    )
    data = json.loads(out)
    assert code == 0 and data["knitted"] is False
    assert data["violating_partition"] == [[0, 1], [2, 4], [3, 5]]


def test_dense_cli(capsys, tmp_path):
    path = graph_file(tmp_path, Graph.complete(18))
    code, out = run(capsys, ["--input", path, "dense", "--p", "18"])
    data = json.loads(out)
    assert code == 0 and data["found"] and data["case"] == "i"
    # every closed neighbourhood of C8 is a 3-vertex path, of minimum degree 1
    code, out = run(capsys, ["--input", graph_file(tmp_path, Graph.cycle(8)), "dense", "--p", "4"])
    assert code == 0 and json.loads(out) == {"found": False, "schema": 1}


def test_gen_universal_cli(capsys):
    code, out = run(capsys, ["--seed", "3", "gen", "--n", "12", "--delta", "5", "--universal"])
    data = json.loads(out)
    g, z = gen_universal_vertex(12, 5, 3)
    assert code == 0 and data["graph6"] == write_graph6(g) and data["universal_vertex"] == z
    assert parse_graph6(data["graph6"]).degree(z) == 11


def test_dirac_cli(capsys, tmp_path):
    # each neighbourhood of C5 is two non-adjacent vertices, of K5 a clique
    for g, k, violations in ((Graph.cycle(5), 4, [0, 1, 2, 3, 4]), (Graph.complete(5), 5, [])):
        code, out = run(capsys, ["--input", graph_file(tmp_path, g), "dirac", "--k", str(k)])
        assert code == 0 and json.loads(out)["violations"] == violations


def test_certify_common_cli(capsys, tmp_path):
    # the pair 0-1 of K9 minus one edge has 7 = 3k - 2 common neighbours for
    # k = 3, one short of the variant's 3k - 1
    path = graph_file(tmp_path, complete_minus_matching(9, 1))
    code, out = run(capsys, ["--input", path, "certify-common", "--k", "3"])
    assert code == 0 and json.loads(out) == {"certified": True, "schema": 1, "violating_pair": None}
    code, out = run(capsys, ["--input", path, "certify-common", "--k", "3", "--knitted-variant"])
    assert code == 0 and json.loads(out) == {"certified": False, "schema": 1, "violating_pair": [0, 1]}


def test_certify_greedy_cli(capsys, tmp_path):
    path = graph_file(tmp_path, complete_minus_matching(11, 5))
    code, out = run(capsys, ["--input", path, "certify-greedy", "--pairs", "0-1,2-3,4-5"])
    data = json.loads(out)
    assert code == 0 and data["linked"] is True


def test_repeated_calls_share_no_state(capsys, tmp_path):
    g = Graph.path(6)  # 0-1-2-3-4-5: the one 0-4 path runs through 2
    path = graph_file(tmp_path, g)
    answers = []
    for forbidden, extra in ((1 << 2, ["--forbidden", "2"]), (0, [])):
        code, out = run(capsys, ["--input", path, "knit", "--pairs", "0-4", "--terminals", "5"] + extra)
        assert code == 0
        want = knit(g, TerminalSpec(((0, 4), (5,)), forbidden))
        data = json.loads(out)
        assert data["exists"] is (want is not None)
        assert data["subgraphs"] == (want and certificate_to_json(want))
        answers.append(data["exists"])
    assert answers == [False, True]


def test_knitted1_prints_failures(capsys, tmp_path, monkeypatch):
    # the graph no certificate covers, from the certify test: its first
    # sample fails, and a 12-vertex candidate is then certified exhaustively
    g, _ = gen_universal_vertex(16, 9, 29)
    path = graph_file(tmp_path, g)
    calls = []
    link = solver._link

    def first_call_fails(sub, pairs, blocked):
        calls.append((pairs, blocked))
        return None if len(calls) == 1 else link(sub, pairs, blocked)

    monkeypatch.setattr("knitweave.solver._link", first_call_fails)
    argv = ["--input", path, "--samples", "20", "--seed", "29", "knitted1", "--p", "18"]
    code, out = run(capsys, argv)
    data = json.loads(out)
    assert code == 0 and data["status"] == "certified" and data["route"] == "exhaustive"
    assert len(data["candidate"]) == 12
    # the first candidate is the whole graph, so local labels are host labels;
    # every drawn vertex is blocked, and the one not in a pair is forbidden
    (failure,) = data["failures"]
    linked, blocked = calls[0]
    assert tuple(tuple(sorted(p)) for p in failure["pairs"]) == linked
    assert failure["forbidden"] == sorted(set_of(blocked & ~mask_of(x for p in linked for x in p)))
    assert len(failure["pairs"]) == 3 and len(failure["forbidden"]) == 1


def test_negative_samples_exit_2(capsys, tmp_path):
    path = graph_file(tmp_path, gen_universal_vertex(16, 9, 29)[0])
    for argv in (
        ["--input", path, "--samples", "-3", "knitted1", "--p", "18"],
        ["--samples", "-2", "--seed", "1", "--no-timestamps", "campaign-si"],
        ["--samples", "-2", "--seed", "1", "--no-timestamps", "campaign-4linked"],
    ):
        assert cli_main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "samples must be a nonnegative int" in err, (argv, err)


def test_k_linked_sampled_prints_null_and_rejects_bad_input(capsys, tmp_path):
    # K11 minus a 4-edge matching: no sample of seed 1 fails, so sampling
    # answers null, where the exhaustive mode prints the violating system
    path = graph_file(tmp_path, complete_minus_matching(11, 4))
    argv = ["--input", path, "--samples", "200", "--seed", "1", "k-linked", "--k", "4", "--mode", "sampled"]
    code, out = run(capsys, argv)
    data = json.loads(out)
    assert code == 0 and data["k_linked"] is None and data["violating_pairs"] is None
    code, out = run(capsys, ["--input", path, "k-linked", "--k", "4"])
    data = json.loads(out)
    assert data["k_linked"] is False and data["violating_pairs"] == [[0, 1], [2, 3], [4, 5], [6, 7]]
    for argv in (["k-linked", "--k", "-1"], ["k-linked", "--k", "0"], ["k-linked", "--k", "2.0"],
                 ["--samples", "-5", "k-linked", "--k", "2", "--mode", "sampled"],
                 ["certify-common", "--k", "-1"], ["certify-common", "--k", "0"]):
        code, _ = run(capsys, ["--input", path] + argv)
        assert code == 2, argv
