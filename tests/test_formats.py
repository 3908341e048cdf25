import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from knitweave.errors import Graph6Error
from knitweave.formats import (
    parse_edge_list,
    parse_graph6,
    parse_graph_auto,
    write_edge_list,
    write_graph6,
)
from knitweave.graphs import Graph

from conftest import random_graph
from oracles import graph6_by_bit_lists


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
