import random

import pytest

from knitweave.certify import dense_conditions
from knitweave.generators import gen_universal_vertex
from knitweave.graphs import Graph, nonisomorphic_graphs, set_of
from knitweave.solver import TerminalSpec, pairs_spec


@pytest.fixture(scope="session")
def census7():
    """Every graph on at most 7 vertices, up to isomorphism."""
    out = []
    for n in range(8):
        out.extend(nonisomorphic_graphs(n))
    return out


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def relabelled(g: Graph, rng: random.Random) -> Graph:
    """G with its vertices permuted by ``rng``."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def crossing_grid(rows: int, cols: int, rng=None) -> tuple[Graph, TerminalSpec]:
    """The triangulated grid with the corners paired across it, vertices
    shuffled by ``rng`` when given: the corners lie on the outer face in the
    order TL, TR, BR, BL, so TL-BR and TR-BL cannot be linked."""
    perm = list(range(rows * cols))
    if rng is not None:
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
    pairs = ((at(0, 0), at(rows - 1, cols - 1)), (at(0, cols - 1), at(rows - 1, 0)))
    return Graph.from_edges(rows * cols, edges), pairs_spec(pairs)


def dense_universal_vertex_family():
    """Acceptance 08's graphs as (seed, graph): the first 100 universal-vertex
    graphs drawn from ``random.Random(7)`` that are dense of case ii or iii
    at p = 18 with at most two non-adjacent vertices of degree 9."""
    rng = random.Random(7)
    out = []
    seed = 0
    while len(out) < 100:
        seed += 1
        n = rng.randint(11, 16)
        delta = rng.choice([9, 9, 10])
        if delta >= n:
            continue
        g, _ = gen_universal_vertex(n, delta, seed)
        rep = dense_conditions(g, 18)
        low = rep.low_degree_vertices
        if rep.case not in ("ii", "iii"):
            continue
        if low.bit_count() > 2:
            continue
        if low.bit_count() == 2 and g.has_edge(*set_of(low)):
            continue
        out.append((seed, g))
    return out
