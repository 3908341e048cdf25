import random

import pytest

from knitweave.errors import InputError
from knitweave.formats import write_graph6
from knitweave.generators import (
    complete_minus_matching,
    gen_min_degree,
    gen_split_host,
    gen_universal_vertex,
)
from knitweave.graphs import Graph, reachable
from knitweave.solver import build_configuration

from oracles import complete_minus_matching_by_edges, min_degree_by_rescan, split_host_by_edges


def test_min_degree_postcondition():
    for seed in range(10):
        g = gen_min_degree(16, 10, seed)
        assert g.n == 16 and g.min_degree() >= 10


def test_min_degree_forced_complete():
    assert gen_min_degree(5, 4, 3) == Graph.complete(5)


def test_min_degree_seed_stable():
    a = gen_min_degree(14, 8, 42)
    b = gen_min_degree(14, 8, 42)
    assert write_graph6(a) == write_graph6(b)
    assert write_graph6(gen_min_degree(14, 8, 43)) != write_graph6(a)


def test_min_degree_matches_rescanning_repair():
    # the repair walks the least deficient vertex upward instead of
    # rescanning, so its draws, and the graph, must stay the same
    rng = random.Random(51)
    for n in range(1, 65):
        for _ in range(6):
            delta, seed = rng.randrange(n), rng.randrange(10**6)
            assert gen_min_degree(n, delta, seed) == min_degree_by_rescan(n, delta, seed)


def test_min_degree_rejects_impossible():
    with pytest.raises(InputError):
        gen_min_degree(5, 5, 0)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: gen_min_degree(10, 3, None), "seed"),
        (lambda: gen_min_degree(10, 2.5, 0), "delta"),
        (lambda: gen_min_degree(10.0, 3, 0), "n"),
        (lambda: gen_min_degree(10, 3, True), "seed"),
        (lambda: gen_universal_vertex(12, 9, 5.0), "seed"),
        (lambda: complete_minus_matching(5, 1.5), "m"),
        (lambda: complete_minus_matching(5, True), "m"),
        (lambda: gen_split_host(None, 10), "seed"),
        (lambda: gen_split_host(0, 10.0), "blob_size"),
    ],
    ids=["min-degree-none-seed", "min-degree-float-delta", "min-degree-float-n", "min-degree-bool-seed",
         "universal-float-seed", "matching-float-m", "matching-bool-m", "split-none-seed",
         "split-float-blob"],
)
def test_non_int_size_or_seed_is_an_input_error(call, name):
    # a None seed would draw from the OS, so two runs would differ
    with pytest.raises(InputError, match=f"^{name} must be an int"):
        call()


def test_universal_vertex():
    for seed in range(5):
        g, z = gen_universal_vertex(16, 10, seed)
        assert g.degree(z) == 15
        assert g.min_degree() >= 10
    a, _ = gen_universal_vertex(12, 9, 5)
    b, _ = gen_universal_vertex(12, 9, 5)
    assert write_graph6(a) == write_graph6(b)


def test_complete_minus_matching():
    g = complete_minus_matching(11, 5)
    assert g.edge_count() == 55 - 5
    for i in range(5):
        assert not g.has_edge(2 * i, 2 * i + 1)
    with pytest.raises(InputError):
        complete_minus_matching(5, 3)
    with pytest.raises(InputError, match="nonnegative"):
        complete_minus_matching(5, -1)  # not K5


def test_complete_minus_matching_matches_edge_list():
    for n in range(41):
        for m in range(n // 2 + 1):
            assert complete_minus_matching(n, m) == complete_minus_matching_by_edges(n, m)
        for m in (n // 2 + 1, n + 1):
            for build in (complete_minus_matching, complete_minus_matching_by_edges):
                with pytest.raises(InputError):
                    build(n, m)


def test_split_host_forces_disconnected_blocks():
    for seed in range(8):
        host = gen_split_host(seed)
        cfg = build_configuration(host.graph, host.terminals)
        disconnected = [
            b
            for b in cfg.blocks[1:]
            if not all(host.graph.has_edge(a, c) for a, c in zip(b, b[1:]))
        ]
        assert len(disconnected) == host.straddling
        # each disconnected pair straddles the two blobs with disjoint sides
        for blk in disconnected:
            u, v = blk
            cover = cfg.cover_mask
            dom = host.graph.full_mask & ~(cover & ~((1 << u) | (1 << v)))
            side_u = reachable(host.graph.adj, 1 << u, dom)
            side_v = reachable(host.graph.adj, 1 << v, dom)
            assert side_u & side_v == 0


@pytest.mark.parametrize("blob_size", [-3, 0, 1, 2])
def test_split_host_rejects_blobs_below_three(blob_size):
    # the straddling pairs take vertices 1 and 2 of each blob, so a smaller
    # blob would repeat terminals or leave the vertex range
    with pytest.raises(InputError, match="^blob_size must be at least 3"):
        gen_split_host(0, blob_size)


def test_split_host_terminals_are_distinct_from_blob_size_three():
    for seed in range(8):
        host = gen_split_host(seed, 3)
        assert len(set(host.terminals)) == len(host.terminals) == 9


def test_split_host_matches_edge_list_build():
    for seed in range(2000):
        for blob_size in range(3, 17):
            host = gen_split_host(seed, blob_size)
            assert (host.graph, host.terminals, host.straddling) == split_host_by_edges(seed, blob_size)


def test_split_host_past_the_vertex_envelope_is_an_input_error():
    # blob_size 29 gives 64 vertices with two straddling pairs, 66 with one
    with pytest.raises(InputError, match="^vertex count 66 outside"):
        gen_split_host(1, 29)
    assert gen_split_host(0, 29).graph.n == 64
