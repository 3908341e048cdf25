import random

import pytest

from knitweave.certify import dense_conditions
from knitweave.generators import gen_min_degree, gen_universal_vertex
from knitweave.graphs import Graph, mask_of, nonisomorphic_graphs, set_of
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


def mycielskian(g: Graph) -> Graph:
    """The Mycielskian of G (Mycielski 1955), one more color and no larger
    clique: vertex i of G, its twin n + i adjacent to the neighbors of i,
    and the apex 2n adjacent to every twin."""
    n, edges = g.n, list(g.edges())
    twins = [(n + i, j) for i, j in edges] + [(n + j, i) for i, j in edges]
    return Graph.from_edges(2 * n + 1, edges + twins + [(n + i, 2 * n) for i in range(n)])


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


def two_pair_corpus(rng: random.Random, count: int) -> list[tuple[Graph, TerminalSpec]]:
    """``count`` seeded two-pair systems, a fifth of each kind: random hosts,
    ``gen_min_degree`` hosts, shuffled triangulated grids from 3x3 to 8x8,
    those grids with one chord added (mostly non-planar), and grids up to
    7x7 with a planted side of 1-6 vertices whose neighbours outside it are
    the three vertices of a triangle of the grid. A grid's corners are
    paired across it half the time; otherwise, and on the other hosts, two
    random pairs are, and a fifth of those systems also forbid one or two
    vertices."""
    out = []
    for k in range(count):
        kind = k % 5
        if kind == 0:
            g = random_graph(rng, rng.randint(6, 24), rng.uniform(0.1, 0.5))
            out.append((g, _random_two_pairs(rng, g)))
            continue
        if kind == 1:
            g = gen_min_degree(rng.randint(8, 30), rng.randint(2, 6), rng.randrange(1 << 30))
            out.append((g, _random_two_pairs(rng, g)))
            continue
        top = 7 if kind == 4 else 8
        rows, cols = rng.randint(3, top), rng.randint(3, top)
        g, spec = crossing_grid(rows, cols)
        n = g.n
        edges = list(g.edges())
        if kind == 3:
            u, v = rng.choice([(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)])
            edges.append((u, v))
        elif kind == 4:
            # a triangle of the grid, so that the corners stay unlinked
            i, j = rng.randrange(rows - 1), rng.randrange(cols - 1)
            corner = (i + 1) * cols + j if rng.random() < 0.5 else i * cols + j + 1
            sep = [i * cols + j, corner, (i + 1) * cols + j + 1]
            side = range(n, n + rng.randint(1, 6))
            edges += [(a, b) for a in side for b in side if a < b and rng.random() < 0.6]
            edges += [(a, rng.choice(sep)) for a in side]
            edges += [(rng.choice(side), s) for s in sep]
            n = side.stop
        perm = list(range(n))
        rng.shuffle(perm)
        g = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])
        if rng.random() < 0.5:
            spec = pairs_spec([(perm[a], perm[b]) for a, b in spec.parts])
        else:
            spec = _random_two_pairs(rng, g)
        out.append((g, spec))
    return out


def _random_two_pairs(rng: random.Random, g: Graph) -> TerminalSpec:
    """Two random disjoint pairs of ``g``, forbidding one or two further
    vertices a fifth of the time."""
    verts = rng.sample(range(g.n), 6)
    forbidden = 0
    if rng.random() < 0.2:
        forbidden = mask_of(verts[4:6] if rng.random() < 0.5 else verts[4:5])
    return TerminalSpec(((verts[0], verts[1]), (verts[2], verts[3])), forbidden)
