import itertools
import random
import time

import networkx as nx
import pytest

from knitweave.errors import InputError
from knitweave.graphs import Graph, bits, mask_of
from knitweave import solver
from knitweave.planar import _block_faces, face_count, rotation_from_faces
from knitweave.solver import (
    PlanarObstruction,
    TerminalSpec,
    disjoint_paths,
    pairs_spec,
    two_pair_obstruction,
)

from conftest import crossing_grid, random_graph, two_pair_corpus
from oracles import (
    biconnected_blocks,
    block_faces_by_rebuild,
    fan_by_shortest_paths,
    obstruction_by_flows,
    two_pair_systems_solvable,
    two_pairs_linked_by_induced_paths,
)


def test_planar_rotation_matches_networkx():
    # a graph is planar exactly when each of its blocks is, and each block
    # of at least three vertices is embedded on its own rows
    rng = random.Random(2024)
    planar = 0
    for _ in range(1500):
        n = rng.randint(1, 16)
        g = random_graph(rng, n, p=rng.choice([0.1, 0.2, 0.3, 0.45]))
        want, _ = nx.check_planarity(nx.Graph(list(g.edges())))
        embeds = True
        for block in biconnected_blocks(g.adj):
            if block.bit_count() < 3:
                continue
            rows = [row & block if (block >> v) & 1 else 0 for v, row in enumerate(g.adj)]
            faces = _block_faces(rows, block)
            if faces is None:
                embeds = False
                continue
            rotation = rotation_from_faces(rows, faces)
            for v in range(n):
                assert len(rotation[v]) == rows[v].bit_count() and mask_of(rotation[v]) == rows[v]
            edges = sum(row.bit_count() for row in rows) // 2
            assert block.bit_count() - edges + face_count(rotation) == 2
        assert embeds == want
        planar += embeds
    assert 300 < planar < 1400  # both answers are well exercised


def test_planar_rotation_dense_near_planar():
    # the triangulated grid's inner faces are triangles, and it is
    # 3-connected; an edge between two inner vertices on no common face,
    # (1, 1) and (3, 3), makes it nonplanar
    g, _ = crossing_grid(5, 5)
    assert _block_faces(g.adj, g.full_mask) is not None
    chord = Graph.from_edges(25, [*g.edges(), (6, 18)])
    assert _block_faces(chord.adj, chord.full_mask) is None
    k33 = Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
    for h in (Graph.complete(5), k33, Graph.petersen()):
        assert _block_faces(h.adj, h.full_mask) is None


def test_two_pair_decision_matches_independent_oracle():
    rng = random.Random(8)
    answers = {True: 0, False: 0}
    for _ in range(600):
        n = rng.randint(8, 14)
        g = random_graph(rng, n, p=rng.uniform(0.15, 0.45))
        verts = rng.sample(range(n), 5)
        p1, p2 = (verts[0], verts[1]), (verts[2], verts[3])
        forbidden = 1 << verts[4] if rng.random() < 0.3 else 0
        spec = TerminalSpec((p1, p2), forbidden)
        got = disjoint_paths(g, spec)
        truth = two_pairs_linked_by_induced_paths(g, p1, p2, frozenset(bits(forbidden)))
        assert (got is not None) == truth
        answers[truth] += 1
        cert = two_pair_obstruction(g, spec)
        if got is not None:
            got.validate(g, spec)
            assert cert is None
        elif not (g.has_edge(*p1) or g.has_edge(*p2)):
            cert.validate(g, spec)
    assert min(answers.values()) > 150


def test_induced_path_oracle_matches_naive_oracle():
    rng = random.Random(5)
    for _ in range(300):
        g = random_graph(rng, rng.randint(4, 8), p=rng.uniform(0.1, 0.9))
        verts = rng.sample(range(g.n), 4)
        p1, p2 = (verts[0], verts[1]), (verts[2], verts[3])
        assert two_pairs_linked_by_induced_paths(g, p1, p2) == two_pair_systems_solvable(g, p1, p2)


def _c6_certificate():
    g = Graph.cycle(6)
    spec = pairs_spec([(0, 3), (1, 4)])
    cert = two_pair_obstruction(g, spec)
    cert.validate(g, spec)
    # 2 and 5 each hang off two terminals; the reduced graph is the 4-cycle
    assert cert.reductions == ((0b1010, 0b100), (0b10001, 0b100000))
    return g, spec, cert


def test_obstruction_tampering_detected():
    g, spec, cert = _c6_certificate()
    rot = [list(order) for order in cert.rotation]
    apex = g.n
    assert sorted(rot[apex]) == [0, 1, 3, 4]

    def with_rotation(v, order):
        new = list(map(tuple, rot))
        new[v] = tuple(order)
        return PlanarObstruction(cert.reductions, tuple(new))

    def with_reductions(*reductions):
        return PlanarObstruction(reductions, cert.rotation)

    first, second = cert.reductions
    cases = [
        # side {1} holds terminal 1 (its neighbours 0 and 2 form the separator)
        (with_reductions((0b101, 0b10), second), "holds a terminal"),
        # side {2} with four separator vertices
        (with_reductions((0b101011, 0b100), second), "more than three"),
        (with_reductions(second), "does not list each"),
        (with_reductions((0b1000, 0b100), second), "outside its separator"),
        (with_rotation(0, rot[0][:-1]), "does not list each"),
        (with_rotation(0, rot[0][:-1] + rot[0][:1]), "does not list each"),
        (with_rotation(apex, [0, 3, 1, 4]), "order s1, s2, t1, t2"),
        (with_reductions((0b1010,), second), "a .separator, side. pair"),
        (PlanarObstruction(None, cert.rotation), "must be a tuple"),
        (PlanarObstruction(5, cert.rotation), "must be a tuple"),
        (PlanarObstruction(list(cert.reductions), cert.rotation), "must be a tuple"),
        (with_reductions((0b1010, 0), second), "nonempty side"),
        (with_reductions((0b1010, 1.0), second), "nonempty side"),
        (with_reductions((0b1110, 0b100), second), "disjoint and in the graph"),
        (with_reductions((0b1010, 0b1000100), second), "disjoint and in the graph"),
        (PlanarObstruction(cert.reductions, cert.rotation[:-1]), "must list 7 vertices"),
        # the apex sees three terminals, so it names no two pairs
        (with_rotation(apex, rot[apex][:3]), "two pairs of the specification"),
        # both halves of this ring are the pair 0-3, so it names no second pair
        (with_rotation(apex, [0, 3, 3, 0]), "two pairs of the specification"),
    ]
    for tampered, message in cases:
        with pytest.raises(InputError, match=message):
            tampered.validate(g, spec)
    # the same certificate says nothing about pairs 0-1 and 3-4, nor about
    # 0-3 beside 2-5; with 2-5 as a third pair it names two pairs of the
    # specification, but 2 and 5 are deleted, so its reductions fail
    for pairs in ([(0, 1), (3, 4)], [(0, 3), (2, 5)]):
        with pytest.raises(InputError, match="two pairs of the specification"):
            cert.validate(g, pairs_spec(pairs))
    with pytest.raises(InputError, match="disjoint and in the graph"):
        cert.validate(g, pairs_spec([(0, 3), (1, 4), (2, 5)]))


def test_obstruction_must_reduce_a_stray_component():
    # C6 plus an isolated vertex: the certificate deletes it as a side with
    # an empty separator, and without that reduction the drawing is not
    # connected
    g = Graph.from_edges(7, [(v, (v + 1) % 6) for v in range(6)])
    spec = pairs_spec([(0, 3), (1, 4)])
    cert = two_pair_obstruction(g, spec)
    cert.validate(g, spec)
    assert (0, 1 << 6) in cert.reductions
    kept = tuple(r for r in cert.reductions if r != (0, 1 << 6))
    with pytest.raises(InputError, match="not connected"):
        PlanarObstruction(kept, cert.rotation).validate(g, spec)


def test_obstruction_rotation_must_be_plane():
    g, spec = crossing_grid(5, 5)
    cert = two_pair_obstruction(g, spec)
    cert.validate(g, spec)
    # reversing the cyclic order at one degree-6 vertex keeps every
    # neighbour listed once but leaves a drawing of higher genus
    centre = 12
    assert len(cert.rotation[centre]) == 6
    rotation = list(cert.rotation)
    rotation[centre] = rotation[centre][::-1]
    tampered = PlanarObstruction(cert.reductions, tuple(rotation))
    assert face_count(tampered.rotation) != face_count(cert.rotation)
    with pytest.raises(InputError, match="Euler"):
        tampered.validate(g, spec)


@pytest.mark.parametrize("rows, cols, budget", [(5, 5, 1.0), (6, 6, 1.0), (8, 8, 5.0)])
def test_crossing_grids_decided_within_budget(rows, cols, budget):
    for rng in (None, random.Random(rows * cols)):
        g, spec = crossing_grid(rows, cols, rng)
        t0 = time.perf_counter()
        assert disjoint_paths(g, spec) is None
        cert = two_pair_obstruction(g, spec)
        cert.validate(g, spec)
        assert time.perf_counter() - t0 < budget


def test_block_faces_match_the_rebuild():
    rng = random.Random(30)
    hosts = [random_graph(rng, rng.randint(3, 30), rng.choice([0.1, 0.2, 0.3, 0.45])) for _ in range(1000)]
    for rows in range(3, 9):
        for cols in range(3, 9):
            g, _ = crossing_grid(rows, cols, rng)
            u, v = rng.choice([(u, v) for u in range(g.n) for v in range(u) if not g.has_edge(u, v)])
            hosts += [g, Graph.from_edges(g.n, [*g.edges(), (u, v)])]
    answers = {True: 0, False: 0}
    for g in hosts:
        for block in biconnected_blocks(g.adj):
            if block.bit_count() > 2:
                want = block_faces_by_rebuild(g.adj, block)
                assert _block_faces(g.adj, block) == want
                answers[want is None] += 1
    assert min(answers.values()) > 300


def test_obstruction_matches_one_flow_per_vertex():
    # the corpus holds random and minimum-degree hosts, shuffled grids from
    # 3x3 to 8x8, grids with a chord, and grids with a planted 3-separation;
    # every graph the test embeds must be one block on its non-isolated
    # vertices, as _block_faces requires. two_pair_obstruction embeds no
    # "yes" that a shortest path settles, so the graphs are reduced here, on
    # every system, and embedded as the test embeds them
    embedded = []
    counts = {"none": 0, "certified": 0, "reduced": 0}
    for g, spec in two_pair_corpus(random.Random(31), 1500):
        pairs = [p for p in spec.parts if len(p) == 2]
        if any(g.has_edge(*p) for p in pairs):
            continue
        blocked = spec.forbidden | spec.terminal_mask
        want = obstruction_by_flows(g, pairs, blocked)
        assert two_pair_obstruction(g, spec) == want
        _, adj, _ = solver._reduced_with_apex(g, pairs, blocked)
        embedded.append(adj)
        assert (_block_faces(adj, mask_of(v for v, row in enumerate(adj) if row)) is None) == (want is None)
        counts["none" if want is None else "certified"] += 1
        counts["reduced"] += want is not None and bool(want.reductions)
    assert min(counts.values()) > 150, counts
    assert len(embedded) == counts["none"] + counts["certified"]
    for adj in embedded:
        h = nx.Graph((v, w) for v, row in enumerate(adj) for w in bits(row))
        assert nx.is_biconnected(h), adj


def test_fan_of_four_matches_successive_shortest_paths(monkeypatch):
    # the fan that takes v's good neighbours as one-edge paths before any
    # search answers as the successive shortest paths do, at every vertex
    # the small-cut sweep visits at k = 4. The sweep marks a vertex with
    # four good neighbours without a fan, so the fan is also called here on
    # each such vertex still to be visited, where it must answer "yes"
    fan = solver._fan
    seen = {True: 0, False: 0}
    neighbours = [0] * 5

    def checked(adj, v, good, live, k):
        assert k == 4
        got = fan(adj, v, good, live, k)
        assert got == fan_by_shortest_paths(adj, v, good, live, k), (adj, v, good, live)
        seen[got] += 1
        neighbours[min((adj[v] & good & live).bit_count(), 4)] += 1
        for w in bits(live & ~good >> (v + 1) << (v + 1)):
            if (adj[w] & good & live).bit_count() >= 4:
                assert fan(adj, w, good, live, k) and fan_by_shortest_paths(adj, w, good, live, k), (adj, w)
                neighbours[4] += 1
        return got

    monkeypatch.setattr(solver, "_fan", checked)
    for g, spec in two_pair_corpus(random.Random(31), 1500):
        pairs = [p for p in spec.parts if len(p) == 2]
        if not any(g.has_edge(*p) for p in pairs):
            solver._reduced_with_apex(g, pairs, spec.forbidden | spec.terminal_mask)
    assert min(seen.values()) > 1000 and min(neighbours) > 100, (seen, neighbours)


def test_fan_of_four_reads_four_good_neighbours_without_a_search(monkeypatch):
    # v = 0 has four good neighbours, 1..4, and one more neighbour, 5
    calls = 0
    search = solver.shortest_path

    def counted(*args):
        nonlocal calls
        calls += 1
        return search(*args)

    monkeypatch.setattr(solver, "shortest_path", counted)
    g = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (5, 6), (6, 1)])
    assert solver._fan(list(g.adj), 0, mask_of([1, 2, 3, 4, 6]), g.full_mask, 4)
    assert calls == 0
    # with three good neighbours the fourth path is searched for: 0 5 6
    assert solver._fan(list(g.adj), 0, mask_of([1, 2, 3, 6]), g.full_mask, 4)
    assert calls == 1


def test_shortest_first_links_only_linked_pairs():
    # a "linked" from one pair's shortest path and a path of the other must
    # never meet a certificate, and it settles most linked systems
    linked = settled = 0
    for g, spec in two_pair_corpus(random.Random(31), 1500):
        pairs = [p for p in spec.parts if len(p) == 2]
        if any(g.has_edge(*p) for p in pairs):
            continue
        blocked = spec.forbidden | spec.terminal_mask
        says = solver._shortest_first_links(g, pairs, blocked)
        if obstruction_by_flows(g, pairs, blocked) is None:
            linked += 1
            settled += says
        else:
            assert not says, (g, spec)
    assert linked > 150 and 2 * settled >= linked, (linked, settled)


@pytest.mark.parametrize("size", [4, 5, 6, 8])
def test_obstruction_skips_the_flow_where_a_fan_is_known(monkeypatch, size):
    g, spec = crossing_grid(size, size, random.Random(size))
    calls = 0
    flow = solver.max_vertex_disjoint_flow

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return flow(*args, **kwargs)

    monkeypatch.setattr(solver, "max_vertex_disjoint_flow", counted)
    cert = two_pair_obstruction(g, spec)
    cert.validate(g, spec)
    assert calls < g.n - 4
    assert cert == obstruction_by_flows(g, spec.parts, spec.terminal_mask)


def test_obstruction_still_reduces_a_planted_side():
    # a K5 behind the triangle 6, 7, 12 of the crossing 5x5 grid: each of
    # its vertices has four neighbours inside it and three in the triangle,
    # and none has four paths to the corners, so none may be marked good
    grid, _ = crossing_grid(5, 5)
    blob = range(25, 30)
    edges = [*grid.edges(), *itertools.combinations(blob, 2)]
    edges += [(b, s) for b in blob for s in (6, 7, 12)]
    rng = random.Random(32)
    for _ in range(8):
        perm = list(range(30))
        rng.shuffle(perm)
        g = Graph.from_edges(30, [(perm[u], perm[v]) for u, v in edges])
        spec = pairs_spec([(perm[0], perm[24]), (perm[4], perm[20])])
        cert = two_pair_obstruction(g, spec)
        cert.validate(g, spec)
        side = mask_of(perm[b] for b in blob)
        assert (mask_of(perm[s] for s in (6, 7, 12)), side) in cert.reductions
        assert cert == obstruction_by_flows(g, spec.parts, spec.terminal_mask)
