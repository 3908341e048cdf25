import io
import itertools
import json
import random
import re
import sys

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from knitweave.campaigns import campaign_lemma_si, campaign_pipeline_4linked
from knitweave.certify import greedy_link
from knitweave.cli import cli_main
from knitweave.coloring import Coloring, chromatic_number, is_contraction_critical
from knitweave.errors import Graph6Error, InputError
from knitweave.formats import (
    certificate_from_json,
    certificate_to_json,
    parse_edge_list,
    parse_graph6,
    parse_graph_auto,
    write_edge_list,
    write_graph6,
    write_json,
)
from knitweave.generators import complete_minus_matching
from knitweave.graphs import Graph, MinorWitness
from knitweave.solver import (
    Knit,
    Linkage,
    PlanarObstruction,
    TerminalSpec,
    disjoint_paths,
    knit,
    pairs_spec,
    two_pair_obstruction,
)
from knitweave.structure import Separation, enumerate_separations, is_p_massed

from conftest import crossing_grid, random_graph
from oracles import graph6_by_bit_lists, graph6_parse_by_bit_lists


def nx_roundtrip(g: Graph) -> str:
    """Reference encoding through networkx for cross-checking."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.to_graph6_bytes(h, header=False).decode().strip()


def test_trivial_strings():
    assert write_graph6(Graph.complete(1)) == "@"
    assert write_graph6(Graph.empty(2)) == "A?"
    assert parse_graph6("@") == Graph.complete(1)


def test_five_vertex_strings_roundtrip():
    for text in ("D?{", "DQo", "D~{"):
        g = parse_graph6(text)
        assert g.n == 5
        assert write_graph6(g) == text


def test_matches_networkx_reference():
    rng = random.Random(2)
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 12))
        assert write_graph6(g) == nx_roundtrip(g)


def test_matches_previous_encoder_and_networkx_up_to_64():
    """The same text as the previous bit-list encoder and as networkx on
    every order up to 64, the extended header (n >= 63) included."""
    rng = random.Random(19)
    orders = [n for n in range(65) for _ in range(3)] + [62, 63, 64] * 20
    for n in orders:
        g = random_graph(rng, n, rng.random())
        text = write_graph6(g)
        assert text == graph6_by_bit_lists(g) == nx_roundtrip(g), n
        assert parse_graph6(text) == g
    for n in (62, 63, 64):
        for g in (Graph.complete(n), Graph.empty(n)):
            assert write_graph6(g) == graph6_by_bit_lists(g) == nx_roundtrip(g)


def _decoded(parse, text):
    try:
        return parse(text)
    except Graph6Error as exc:
        return str(exc), exc.offset


def test_parse_matches_previous_decoder_up_to_64():
    """The same graph as the previous bit-list decoder on every order up to
    64, and the same error message and position on truncated and over-long
    strings, bad size characters, bad data characters and nonzero padding."""
    rng = random.Random(23)
    texts = ["", "~", "~~", "~?", "~??", "~?~~", "~??~", "~?@@", chr(62), chr(126), chr(127), " ", ">>graph6<<"]
    for n in [n for n in range(65) for _ in range(4)]:
        text = write_graph6(random_graph(rng, n, rng.random()))
        assert parse_graph6(text) == graph6_parse_by_bit_lists(text), n
        texts += [text, ">>graph6<<" + text, text[:-1], text + "?", text + "~"]
        head = 4 if text.startswith("~") else 1
        if len(text) > head:
            k = rng.randrange(head, len(text))
            texts += [text[:k] + c + text[k + 1:] for c in ("\x01", " ", ">", "\x7f", "\u00e9", "~", "?")]
            # the last character's low bits past the triangle are padding
            texts.append(text[:-1] + chr(ord(text[-1]) | 1))
        texts.append(chr(63 + n + 1) + text[head:] if n < 62 else "~" + text[1:])
    errors = 0
    for text in texts:
        got = _decoded(parse_graph6, text)
        assert got == _decoded(graph6_parse_by_bit_lists, text), repr(text)
        errors += isinstance(got, tuple)
    assert 500 < errors < len(texts) - 200


def test_parse_rejects_garbage():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error) as err:
        parse_graph6("D?")  # truncated body for n = 5
    assert err.value.offset >= 0
    with pytest.raises(Graph6Error):
        parse_graph6("C" + chr(1))


def test_extended_size_form():
    g = Graph.empty(63)
    s = write_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g
    g64 = Graph.from_edges(64, [(0, 63)])
    assert parse_graph6(write_graph6(g64)) == g64


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_random_roundtrips(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(0, 14), p=rng.random())
    s = write_graph6(g)
    assert parse_graph6(s) == g
    assert write_graph6(parse_graph6(s)) == s


def test_edge_list_roundtrip_with_isolates():
    g = Graph.from_edges(6, [(0, 1), (2, 4)])  # vertex 5 isolated
    text = write_edge_list(g)
    assert parse_edge_list(text) == g


def test_edge_list_comments_and_inference():
    g = parse_edge_list("# fixture\n0 1\n1 2  # chord\n")
    assert g.n == 3 and sorted(g.edges()) == [(0, 1), (1, 2)]


def test_auto_detection():
    g = Graph.cycle(5)
    assert parse_graph_auto(write_graph6(g)) == g
    assert parse_graph_auto(write_edge_list(g)) == g


def test_edge_list_names_the_line_of_a_token_that_is_not_an_integer():
    with pytest.raises(InputError, match="line 2"):
        parse_edge_list("0 1\n1 x\n")


def test_auto_detection_reads_each_format_by_its_first_character():
    # a malformed edge list raises its own error, never a graph6 one
    with pytest.raises(InputError, match="line 2") as err:
        parse_graph_auto("0 1\n1 x\n")
    assert not isinstance(err.value, Graph6Error)
    with pytest.raises(InputError, match="outside vertex range"):
        parse_graph_auto("3\n0 1\n1 5\n")
    assert parse_graph_auto("# comment") == Graph.empty(0)
    with pytest.raises(InputError, match="outside vertex range"):
        parse_graph_auto("-1 0")  # a sign starts an edge list
    g = Graph.from_edges(7, [(0, 1), (1, 2), (3, 6)])
    text = write_graph6(g)
    for wrapped in (text, ">>graph6<<" + text, "\n\n" + text + "\n\n", "\n >>graph6<<" + text + "\n\n",
                    ">>graph6<<\n" + text + "\n", ">>graph6<<\r\n" + text, ">>graph6<< \t" + text):
        assert parse_graph_auto(wrapped) == parse_graph6(wrapped) == g, repr(wrapped)


_STRINGS = st.text() | st.text(alphabet='"\\/\x00\x01\x1f\x7f\n\t\r ab\u00e9\u2028\u6f22\U0001f600')
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats()
    | st.sampled_from([0.1, 1e-7, 1e16, -0.0, 0.0, 2.5e-308, 1.7976931348623157e308])
    | _STRINGS
)
_VALUES = st.recursive(
    _SCALARS | st.just([]) | st.just({}),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_STRINGS, inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@given(_VALUES)
def test_write_json_matches_indented_dumps(value):
    assert write_json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_write_json_matches_dumps_on_campaign_reports():
    for seed in range(1, 6):
        for stamped in (False, True):
            for rep in (
                campaign_lemma_si(8, seed, no_timestamps=not stamped),
                campaign_pipeline_4linked(2, seed, no_timestamps=not stamped),
            ):
                assert write_json(rep) == json.dumps(rep, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [{1: "a"}, {"a": 1, 2: "b"}, [{"a": {None: 0}}], {"a", "b"}, [1, {2}]])
def test_write_json_rejects_non_str_keys_and_other_types(value):
    with pytest.raises(TypeError):
        write_json(value)


def _printed_certificates():
    """(argv, graph, the keys of the certificate in the printed JSON, its
    class, the library's certificate, the arguments of its check) for each
    kind the CLI prints."""
    c5, c6, p5, k9 = Graph.cycle(5), Graph.cycle(6), Graph.path(5), Graph.complete(9)
    for g, pairs in ((c6, "0-2,3-5"), (c6, "0-3,1-4"), (crossing_grid(5, 5)[0], "0-24,4-20,7-17"),
                     (crossing_grid(6, 6)[0], "0-35,5-30,14-21")):
        spec = pairs_spec([tuple(map(int, p.split("-"))) for p in pairs.split(",")])
        linkage = disjoint_paths(g, spec)
        if linkage is None:
            cert = two_pair_obstruction(g, spec)
            yield ["linkage", "--pairs", pairs], g, ["certificate"], PlanarObstruction, cert, (g, spec)
        else:
            yield ["linkage", "--pairs", pairs], g, ["paths"], Linkage, linkage, (g, spec)
    spec = TerminalSpec(((0, 1), (2, 3), (4, 5), (6, 7), (8,)))
    argv = ["knit", "--terminals", "0,1,2,3,4,5,6,7,8", "--profile", "2,2,2,2,1"]
    yield argv, k9, ["subgraphs"], Knit, knit(k9, spec), (k9, spec)
    g, spec = complete_minus_matching(11, 5), pairs_spec([(0, 1), (2, 3), (4, 5)])
    yield ["certify-greedy", "--pairs", "0-1,2-3,4-5"], g, ["paths"], Linkage, greedy_link(g, spec).linkage, (g, spec)
    # K5 with a triangle hanging off vertex 4 by the edge 4-5
    g = Graph.from_edges(8, [*itertools.combinations(range(5), 2), (4, 5), (5, 6), (5, 7), (6, 7)])
    sep = is_p_massed(g, 0b111, 2).violating_separation
    yield ["massed", "--set", "0,1,2", "--p", "2"], g, ["violating_separation"], Separation, sep, (g, 0b111)
    sep = next(enumerate_separations(p5, 0b1, 1))
    yield ["separations", "--set", "0", "--max-order", "1"], p5, ["separations", 0], Separation, sep, (p5, 0b1)
    yield ["critical", "--k", "3"], c5, ["witness_minor"], MinorWitness, is_contraction_critical(c5, 3)[1], ()
    for g in (c5, Graph(0, ())):
        yield ["chromatic"], g, ["coloring"], Coloring, chromatic_number(g)[1], (g,)


def test_certificate_from_json_reads_back_what_the_cli_prints(capsys, monkeypatch):
    kinds = []
    for argv, g, keys, cls, want, args in _printed_certificates():
        monkeypatch.setattr(sys, "stdin", io.StringIO(write_graph6(g)))
        assert cli_main(argv) == 0, argv
        data = json.loads(capsys.readouterr().out)
        for key in keys:
            data = data[key]
        got = certificate_from_json(cls, g, data)
        assert got == want, argv
        (got.check_proper if cls is Coloring else got.validate)(*args)
        kinds.append(cls.__name__)
    assert kinds == [
        "Linkage", "PlanarObstruction", "PlanarObstruction", "PlanarObstruction", "Knit", "Linkage",
        "Separation", "Separation", "MinorWitness", "Coloring", "Coloring",
    ]


@pytest.mark.parametrize("cls, data, field", [
    (PlanarObstruction, {"reductions": [], "rotation": 5}, "rotation must be a list"),
    (PlanarObstruction, {"reductions": [], "rotation": [[1], (0,)]}, "rotation[1] must be a list of ints"),
    (PlanarObstruction, {"reductions": [{"separator": [1]}], "rotation": []}, "no field reductions[0].side"),
    (PlanarObstruction, {"rotation": []}, "no field reductions"),
    (Linkage, [[0, True]], "paths[0] must be a list of ints"),
    (Knit, [[0.0]], "subgraphs[0] must be a list of ints"),
    (Separation, {"a": [-1], "b": [0]}, "a must be a list of ints"),
    (Separation, {"a": [0], "b": [2 ** 70]}, "b must be a list of ints"),
    (Separation, [[0], [0]], "no field a"),
    (MinorWitness, {"branch_sets": [[0]]}, "no field model_edges"),
    (Coloring, [1, False], "coloring must be a list of ints"),
])
def test_certificate_from_json_names_a_malformed_field(cls, data, field):
    # a bool, a float, a negative vertex or one past the vertex limit is
    # named before it becomes a bit of a mask
    with pytest.raises(InputError, match=re.escape(field)):
        certificate_from_json(cls, Graph.complete(3), data)


def test_certificate_codec_rejects_other_types():
    with pytest.raises(TypeError):
        certificate_to_json((1, 2))
    with pytest.raises(TypeError):
        certificate_from_json(Graph, Graph.complete(3), [])
