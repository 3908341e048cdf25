import hashlib
import itertools
import random
import sys
import time

import networkx as nx
import pytest

from knitweave import solver
from knitweave.campaigns import campaign_pipeline_4linked
from knitweave.errors import InputError
from knitweave.formats import parse_graph6
from knitweave.generators import complete_minus_matching, gen_min_degree, gen_split_host
from knitweave.graphs import Graph, bits, mask_of, neighbors_closed, reachable
from knitweave.solver import (
    Configuration,
    Knit,
    TerminalSpec,
    _link,
    _nonedge_matchings,
    build_configuration,
    disjoint_paths,
    is_k_linked,
    is_profile_knitted,
    iter_paths_by_length,
    knit,
    least_unknitted,
    max_vertex_disjoint_flow,
    pairs_spec,
    partitions_with_profile,
    s_value,
    two_pair_obstruction,
)
from knitweave.structure import pair_is_knitted

from conftest import crossing_grid, random_graph, two_pair_corpus
from oracles import (
    all_simple_paths,
    best_configuration_value,
    configuration_by_orders,
    flow_by_matrix,
    knittable_by_paths,
    link_by_obstruction_first,
    profile_knitted_by_sweep,
    terminal_spec_by_sorting,
    two_pair_systems_solvable,
)


def test_terminal_spec_validation():
    with pytest.raises(InputError):
        TerminalSpec(((0, 1), (1, 2)))
    with pytest.raises(InputError):
        TerminalSpec(((0, 1, 2),))
    with pytest.raises(InputError):
        TerminalSpec(((0, 1),), forbidden=0b10)
    with pytest.raises(InputError):
        TerminalSpec(((0, 1.0),))
    with pytest.raises(InputError, match="part 1 must be a tuple or list"):
        TerminalSpec((1, 2))
    spec = TerminalSpec(((3, 1), (2,)))
    assert spec.parts == ((1, 3), (2,))


def test_terminal_spec_rejects_a_forbidden_set_that_is_not_a_mask():
    # a float, a bool or a negative int is not read as a set of vertices,
    # even where no terminal overlaps it
    for bad in (4.0, True, False, -4, None, "4"):
        with pytest.raises(InputError, match="forbidden must be a nonnegative int mask"):
            TerminalSpec(((0, 1),), forbidden=bad)
    assert TerminalSpec(((0, 1),), forbidden=4).forbidden == 4
    with pytest.raises(InputError, match="terminals overlap the forbidden set"):
        TerminalSpec(((0, 1),), forbidden=2)


def _malformed(rng: random.Random, parts: list, forbidden: int) -> tuple[list, int]:
    """``parts`` and ``forbidden`` with one random fault: an empty part, a
    part of three vertices, a repeated vertex, a bool, float or negative
    vertex, a part overlapping another, or a terminal in ``forbidden``;
    or none, with the parts given as lists."""
    parts = list(parts)
    fresh = 30 + rng.randrange(30)
    i = rng.randrange(len(parts))
    v = parts[i][0]
    kind = rng.randrange(9)
    if kind == 0:
        parts[i] = ()
    elif kind == 1:
        parts[i] = (v, fresh, fresh + 30)
    elif kind == 2:
        parts[i] = (v, v)
    elif kind in (3, 4, 5):
        bad = (rng.random() < 0.5, float(v), -1 - v)[kind - 3]
        parts[i] = parts[i][:-1] + (bad,)
    elif kind == 6:
        parts.insert(rng.randrange(i + 1, len(parts) + 1), rng.choice([(v,), (fresh, v)]))
    elif kind == 7:
        forbidden |= 1 << v
    else:
        parts = [list(p) for p in parts]
    if rng.random() < 0.2:
        parts = [list(p) for p in parts]
    return parts, forbidden


def test_terminal_spec_matches_sorting():
    # the mask is built once with the parts, and equality, hashing and repr
    # ignore it; every malformed input fails with the previous message
    rng = random.Random(43)
    faults = 0
    for _ in range(2000):
        verts = rng.sample(range(30), rng.randint(1, 9))
        parts = []
        while verts:
            parts.append(tuple(verts.pop() for _ in range(min(len(verts), rng.choice((1, 2))))))
        forbidden = rng.getrandbits(40) & ~mask_of(v for p in parts for v in p)
        spec = TerminalSpec(tuple(parts), forbidden)
        assert spec.terminal_mask == mask_of(v for p in parts for v in p)
        twin = TerminalSpec(tuple(p[::-1] for p in parts), forbidden)
        object.__setattr__(twin, "terminal_mask", 0)
        assert twin == spec and hash(twin) == hash(spec)
        assert repr(spec) == f"TerminalSpec(parts={spec.parts!r}, forbidden={forbidden!r})"
        bad_parts, bad_forbidden = _malformed(rng, parts, forbidden)
        want = terminal_spec_by_sorting(bad_parts, bad_forbidden)
        if isinstance(want, str):
            faults += 1
            with pytest.raises(InputError) as err:
                TerminalSpec(tuple(bad_parts), bad_forbidden)
            assert str(err.value) == want
        else:
            got = TerminalSpec(tuple(bad_parts), bad_forbidden)
            assert (got.parts, got.terminal_mask) == want
    assert faults > 1500


def _path_cases():
    """(g, u, v, allowed, caps, read) cases for the path generator: 1500 with
    one random cap and a random partial read (a read of None takes every
    path), then 1000 graphs of at most 12 vertices, each read in full at
    every cap 2..6, then 300 of each case where the layers stop early: a
    cap below the u-v distance, u and v in different components of
    ``allowed``, and u adjacent to v."""
    rng = random.Random(17)
    for _ in range(300):
        # a cycle with a few chords, u and v far apart on it
        n = rng.randint(6, 14)
        chords = [rng.sample(range(n), 2) for _ in range(rng.randint(0, 2))]
        g = Graph.from_edges(n, [*((w, (w + 1) % n) for w in range(n)), *chords])
        u = rng.randrange(n)
        v = (u + n // 2) % n
        distance = nx.shortest_path_length(nx.Graph(g.edges()), u, v)
        yield g, u, v, g.full_mask, (rng.randint(0, distance),), None
    for _ in range(300):
        # two random graphs joined only through vertices outside allowed
        a, b, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 3)
        n = a + b + c
        edges = [e for e in itertools.combinations(range(a), 2) if rng.random() < 0.5]
        edges += [e for e in itertools.combinations(range(a, a + b), 2) if rng.random() < 0.5]
        edges += [(w, x) for w in range(a + b, n) for x in range(a + b) if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        u, v = rng.randrange(a), rng.randrange(a, a + b)
        yield g, u, v, (1 << (a + b)) - 1, (rng.randint(0, n + 1),), rng.choice([1, None])
    for _ in range(300):
        n = rng.randint(2, 12)
        u, v = rng.sample(range(n), 2)
        g = random_graph(rng, n, p=rng.uniform(0.1, 0.6))
        g = Graph.from_edges(n, [*g.edges(), (u, v)])
        allowed = rng.getrandbits(n) | rng.getrandbits(n)
        yield g, u, v, allowed, (rng.randint(0, n + 1),), rng.choice([1, 3, None])
    rng = random.Random(13)
    for _ in range(1500):
        n = rng.randint(2, 14)
        g = random_graph(rng, n, p=rng.uniform(0.1, 0.6))
        u, v = rng.sample(range(n), 2)
        allowed = rng.getrandbits(n) | rng.getrandbits(n)
        cap = rng.randint(0, n + 1)
        yield g, u, v, allowed, (cap,), rng.choice([1, 3, 10, None])
    rng = random.Random(11)
    for _ in range(1000):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, p=rng.uniform(0.2, 0.6))
        u, v = rng.sample(range(n), 2)
        allowed = rng.getrandbits(n) | rng.getrandbits(n)
        yield g, u, v, allowed, range(2, 7), None


def test_iter_paths_by_length_matches_sorted_oracle():
    for g, u, v, allowed, caps, read in _path_cases():
        paths = all_simple_paths(g, u, v, set(bits(g.full_mask & ~allowed)), max(caps))
        shortest_first = sorted(map(tuple, paths), key=lambda p: (len(p), p))
        for cap in caps:
            want = [p for p in shortest_first if len(p) <= cap]
            got = iter_paths_by_length(g, u, v, allowed, cap)
            # partial reads stop the generator early
            assert list(itertools.islice(got, read)) == want[:read]


def _link_corpus():
    rng = random.Random(2853)
    for _ in range(2000):
        n = rng.randint(6, 18)
        g = random_graph(rng, n, p=rng.uniform(0.15, 0.6))
        k = rng.randint(2, min(4, n // 2))
        verts = rng.sample(range(n), 2 * k)
        rest = [w for w in range(n) if w not in verts]
        extra = rng.sample(rest, rng.randint(0, min(3, len(rest))))
        yield g, [(verts[2 * i], verts[2 * i + 1]) for i in range(k)], mask_of(verts + extra)


def _pool_systems(rng, count):
    """``count`` systems like the benchmark's random-host queries: three or
    four pairs on a ``gen_min_degree`` host of 20..36 vertices and minimum
    degree 3..8, with the ends and up to three other vertices blocked."""
    for _ in range(count):
        n = rng.randint(20, 36)
        g = gen_min_degree(n, rng.randint(3, 8), rng.randrange(1 << 30))
        k = rng.randint(3, 4)
        verts = rng.sample(range(n), 2 * k + 3)
        yield g, [(verts[2 * i], verts[2 * i + 1]) for i in range(k)], mask_of(verts[:2 * k + rng.randint(0, 3)])


def _linked_as_before(cases):
    """The numbers of ``cases`` that link and of those that
    ``two_pair_obstruction`` certifies unlinked, each answer checked against
    the plainer search and each certificate against the whole
    specification; a "yes" gets none. The certificate's two pairs are
    those the search's two-paths test finds first."""
    linked = certified = 0
    for g, pairs, blocked in cases:
        got = _link(g, pairs, blocked)
        assert got == link_by_obstruction_first(g, pairs, blocked), (g.adj, pairs, blocked)
        linked += got is not None
        spec = TerminalSpec(tuple(pairs), blocked & ~mask_of(v for p in pairs for v in p))
        cert = two_pair_obstruction(g, spec)
        nonedge = [p for p in spec.parts if not g.has_edge(*p)]
        found = solver._pair_obstruction(g, nonedge, blocked)
        if cert is None:
            assert found is None, (g.adj, pairs, blocked)
        else:
            assert got is None, (g.adj, pairs, blocked)
            cert.validate(g, spec)
            ring = cert.rotation[g.n]
            assert {tuple(sorted(ring[::2])), tuple(sorted(ring[1::2]))} == set(found[0]), (g.adj, pairs, blocked)
            certified += 1
    return linked, certified


def test_link_matches_obstruction_first_on_three_and_four_pairs():
    """The same verdict and witness as the plainer search, which runs its
    flow bound on entry to every node and links a stuck two-pair node by
    enumerating paths in lexicographic order, on every corpus case of three
    or more pairs and on 240 systems like the benchmark's: bounding only
    where the search is stuck prunes the same answers, and the two-pair
    step finds the lexicographically least path that leaves the other pair
    linked."""
    cases = [case for case in _link_corpus() if len(case[1]) >= 3]
    linked, certified = _linked_as_before(cases)
    assert 100 < linked < len(cases) - 100
    assert 50 < certified < len(cases) - linked, certified
    pool = list(_pool_systems(random.Random(5), 240))
    linked, _ = _linked_as_before(pool)
    assert 200 < linked < len(pool)


def _two_pair_systems(graphs, rng, count):
    """``count`` seeded two-pair systems on the given graphs, each with its
    four ends and up to two other vertices blocked."""
    hosts = [g for g in graphs if g.n >= 4]
    for _ in range(count):
        g = rng.choice(hosts)
        verts = rng.sample(range(g.n), 4)
        rest = [w for w in range(g.n) if w not in verts]
        extra = rng.sample(rest, rng.randint(0, min(2, len(rest))))
        yield g, [(verts[0], verts[1]), (verts[2], verts[3])], mask_of(verts + extra)


def test_link_two_pairs_matches_obstruction_first(census7, monkeypatch):
    """The same verdict and witness as the search that runs the two-paths
    test first, on 3000 census two-pair systems, the crossing grids (both
    pairings of their corners) and 500 random systems on up to 16
    vertices. The search itself runs the test far less often than it
    answers "no": a "no" runs it at most once, at the root, and a "yes"
    that the first descent misses runs it there and at most once per
    neighbour of each vertex of the path the two-pair step builds."""
    rng = random.Random(2020)
    cases = list(_two_pair_systems(census7, rng, 3000))
    cases += list(_two_pair_systems(
        [random_graph(rng, rng.randint(6, 16), p=rng.uniform(0.1, 0.7)) for _ in range(500)], rng, 500
    ))
    for rows, cols in [(r, c) for r in range(3, 7) for c in range(r, 7)]:
        g, spec = crossing_grid(rows, cols, random.Random(rows * cols))
        (a, b), (c, d) = spec.parts
        cases += [(g, [(a, b), (c, d)], spec.terminal_mask), (g, [(a, c), (b, d)], spec.terminal_mask)]
    # a "yes" that the root's first path misses: each pair's first path
    # blocks the other, and the linkage takes (0, 5, 6, 1) and (2, 4, 7, 8, 3)
    edges = [(0, 4), (4, 1), (0, 5), (5, 6), (6, 1), (2, 4), (4, 5), (5, 3), (4, 7), (7, 8), (8, 3)]
    blocked_first = (Graph.from_edges(9, edges), [(0, 1), (2, 3)], 0b1111)
    cases.append(blocked_first)
    # a "yes" whose root fails on two paths before its third extends, so a
    # second two-paths test would run if the first "yes" did not end them
    edges = [(0, 1), (0, 2), (0, 3), (0, 8), (1, 2), (1, 5), (1, 6), (1, 8), (2, 3), (2, 4), (2, 6), (3, 8), (5, 7),
             (5, 8), (6, 7)]
    cases.append((Graph.from_edges(9, edges), [(0, 5), (8, 7)], mask_of([0, 5, 8, 7])))
    calls = 0
    test = solver._reduced_with_apex

    def counted(*args):
        nonlocal calls
        calls += 1
        return test(*args)

    monkeypatch.setattr(solver, "_reduced_with_apex", counted)
    seen = {True: 0, False: 0}
    tests = unlinked = 0
    for g, pairs, blocked in cases:
        want = link_by_obstruction_first(g, pairs, blocked)
        calls = 0
        got = _link(g, pairs, blocked)
        assert got == want, (g.adj, pairs, blocked)
        seen[got is not None] += 1
        step = 0 if got is None else max(map(len, got)) * max(row.bit_count() for row in g.adj)
        assert calls <= 1 + step, (g.adj, pairs, blocked)
        tests += calls
        unlinked += got is None and not any(g.has_edge(*p) for p in pairs)
    assert min(seen.values()) > 500
    assert 0 < tests < unlinked // 4, (tests, unlinked)
    calls = 0
    assert _link(*blocked_first) == ((0, 5, 6, 1), (2, 4, 7, 8, 3)) and calls == 1


def test_link_two_pairs_skips_planarity_on_k33_minus_matching(monkeypatch):
    # two removed edges among eight terminals of K33 minus a 16-edge matching
    # are linked by one path each, which the search's first descent finds
    g = complete_minus_matching(33, 16)
    calls = 0
    test = solver._reduced_with_apex

    def counted(*args):
        nonlocal calls
        calls += 1
        return test(*args)

    monkeypatch.setattr(solver, "_reduced_with_apex", counted)
    rng = random.Random(33)
    linked = 0
    while linked < 20:
        verts = rng.sample(range(33), 8)
        s = mask_of(verts)
        pairs = [(v, v + 1) for v in range(0, 32, 2) if (s >> v) & 3 == 3]
        if len(pairs) == 2:
            assert is_profile_knitted(g, s, [2, 2, 2, 2]) == (True, None)
            assert _link(g, pairs, s) is not None
            linked += 1
    assert calls == 0


def test_two_pairs_plus_an_edge_pair_decided_within_budget():
    # the crossing grid's corners plus the diagonal edge (i, i) - (i + 1,
    # i + 1) at its centre: the edge pair uses no interior vertex, so the
    # two corner pairs go to the two-paths test, with the edge's ends
    # blocked; in order, so that an exhaustive search fails at 5x5 first
    for size in (5, 6, 8):
        g, spec = crossing_grid(size, size)
        centre = (size // 2 - 1) * (size + 1)
        spec = pairs_spec([*spec.parts, (centre, centre + size + 1)])
        t0 = time.perf_counter()
        assert disjoint_paths(g, spec) is None
        assert time.perf_counter() - t0 < 0.25, size


def test_three_pairs_two_of_them_unlinked_decided_within_budget():
    # two of the three pairs are unlinked, so the two-paths test at the
    # root ends the query; in order, so that an exhaustive search fails at
    # the 5x5 grid first; the 30-vertex, 71-edge graph took 87 s that way
    sparse = parse_graph6("]I?bG?C?GG?KHOA?dK?CHOO?CCQ??@O??I@???@Pa?OAICO?Cc@?_A?aA??O??hB@CXGaEC???")
    cases = [
        (crossing_grid(5, 5)[0], [(0, 24), (4, 20), (7, 17)]),
        (crossing_grid(5, 6)[0], [(0, 29), (5, 24), (12, 17)]),
        (sparse, [(11, 10), (8, 6), (12, 0)]),
    ]
    for g, pairs in cases:
        spec = pairs_spec(pairs)
        t0 = time.perf_counter()
        assert disjoint_paths(g, spec) is None
        assert time.perf_counter() - t0 < 0.1, pairs
        two_pair_obstruction(g, spec).validate(g, spec)


def test_two_pair_yes_missed_by_the_first_descent_decided_within_budget():
    # linked two-pair systems whose first paths block each other, in both
    # pair orders: one order of each took 0.4-11 s when the search walked
    # the pair's paths in (length, lex) order after its first failed
    corpus = two_pair_corpus(random.Random(2026), 5793)
    cases = [corpus[i] for i in (2074, 4917, 5792)]
    for size, chord in ((7, (36, 42)), (8, (42, 57)), (8, (6, 55))):
        g, spec = crossing_grid(size, size)
        cases.append((Graph.from_edges(g.n, [*g.edges(), chord]), spec))
    for g, spec in cases:
        for parts in (spec.parts, spec.parts[::-1]):
            swapped = TerminalSpec(parts, spec.forbidden)
            t0 = time.perf_counter()
            got = disjoint_paths(g, swapped)
            assert time.perf_counter() - t0 < 0.5, parts
            assert got is not None, parts
            got.validate(g, swapped)


def test_link_reads_paths_once_per_search_node(monkeypatch):
    # four pairs, none an edge, on a sparse pool-style host, where the search
    # backtracks; only a node's branching loop reads paths from the
    # generator, and the two-pair step reads none
    g = gen_min_degree(20, 4, 14)
    verts = random.Random(14).sample(range(20), 8)
    pairs = [(verts[2 * i], verts[2 * i + 1]) for i in range(4)]
    reads = nodes = 0
    walk = solver.iter_paths_by_length

    def counted(*args):
        nonlocal reads
        reads += 1
        return walk(*args)

    def profile(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code.co_name == "search" and frame.f_code.co_filename == solver.__file__:
            nodes += 1

    monkeypatch.setattr(solver, "iter_paths_by_length", counted)
    sys.setprofile(profile)
    try:
        paths = _link(g, pairs, mask_of(verts))
    finally:
        sys.setprofile(None)
    assert paths is not None
    assert nodes == 24 and reads <= nodes


def test_link_runs_its_flow_bound_only_where_stuck(monkeypatch):
    """A search node runs its flow bound once, after its first path fails,
    and the two-paths test runs only after a bound that passes: a "yes"
    whose first paths all extend runs no flow, a "no" that two vertices cut
    ends after one chain of first paths, and a two-pair "no" that one
    vertex cuts runs no planarity test."""
    calls = {"flow": 0, "read": 0, "obstruction": 0}

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(solver, "max_vertex_disjoint_flow", spy("flow", solver.max_vertex_disjoint_flow))
    monkeypatch.setattr(solver, "iter_paths_by_length", spy("read", solver.iter_paths_by_length))
    monkeypatch.setattr(solver, "_reduced_with_apex", spy("obstruction", solver._reduced_with_apex))
    n = 64
    circulant = Graph.from_edges(n, [(u, (u + d) % n) for u in range(n) for d in range(1, 16)])
    for seed in (1, 2, 3):
        calls.update(flow=0)
        assert pair_is_knitted(circulant, mask_of(random.Random(seed).sample(range(n), 8))) == (True, None)
        assert calls["flow"] == 0, seed
    # two K6s, on 0..5 and on 8..13, joined only through 6 and 7
    edges = [(u, v) for side in (range(6), range(8, 14)) for u, v in itertools.combinations(side, 2)]
    edges += [(w, x) for w in (6, 7) for x in (*range(6), *range(8, 14))]
    calls.update(flow=0, read=0)
    assert disjoint_paths(Graph.from_edges(14, edges), pairs_spec([(0, 8), (1, 9), (2, 10)])) is None
    assert calls["read"] <= 3 and calls["flow"] <= 2, calls
    calls.update(flow=0, obstruction=0)
    cut = Graph.from_edges(14, [e for e in edges if 7 not in e])
    assert disjoint_paths(cut, pairs_spec([(0, 8), (1, 9)])) is None
    assert calls["flow"] == 1 and calls["obstruction"] == 0, calls


def test_root_rule_settles_linked_pairs_by_shortest_paths(monkeypatch):
    # linkage-queries pool query 1717: four non-edge pairs and a singleton,
    # linked, whose root is stuck; every two of its pairs are linked by one
    # pair's shortest path and a path of the other, so the root rule runs
    # no planarity test. The one test is a stuck two-pair node's, two
    # levels down, and the two-pair step that links its pairs needs no other
    calls = []
    obstruction = solver._reduced_with_apex

    def counted(g, pairs, blocked):
        calls.append(tuple(pairs))
        return obstruction(g, pairs, blocked)

    monkeypatch.setattr(solver, "_reduced_with_apex", counted)
    g = gen_min_degree(21, 4, 3739012258)
    spec = TerminalSpec(((0, 4), (2, 19), (6, 17), (3, 5), (10,)))
    got = knit(g, spec)
    assert got == Knit((264209, 630916, 1184064, 16936, 1024))
    got.validate(g, spec)
    assert calls == [((2, 19), (3, 5))]


def test_disjoint_paths_direct_edges():
    g = Graph.complete(8)
    spec = pairs_spec([(0, 1), (2, 3), (4, 5), (6, 7)])
    got = disjoint_paths(g, spec)
    got.validate(g, spec)
    assert got.paths == ((0, 1), (2, 3), (4, 5), (6, 7))


def test_disjoint_paths_c6_absent():
    assert disjoint_paths(Graph.cycle(6), pairs_spec([(0, 3), (1, 4)])) is None


def test_disjoint_paths_common_neighbor():
    g = Graph.from_edges(
        9, [(u, v) for u in range(9) for v in range(u + 1, 9) if (u, v) != (0, 1)]
    )
    spec = pairs_spec([(0, 1)])
    got = disjoint_paths(g, spec)
    got.validate(g, spec)
    assert got.paths == ((0, 2, 1),)


def test_disjoint_paths_takes_shortest_paths_first():
    # Turan T(40, 8): 29 and 37 lie in one part and share the 35 vertices of
    # the other parts as common neighbours
    g = Graph.from_edges(40, [(u, v) for u in range(40) for v in range(u + 1, 40) if u % 8 != v % 8])
    spec = pairs_spec([(29, 37)])
    got = disjoint_paths(g, spec)
    got.validate(g, spec)
    assert got.paths == ((29, 0, 37),)


def test_disjoint_paths_respects_forbidden():
    g = Graph.path(5)  # 0-1-2-3-4
    assert disjoint_paths(g, TerminalSpec(((0, 4),), forbidden=1 << 2)) is None


def test_disjoint_paths_rejects_singletons():
    with pytest.raises(InputError):
        disjoint_paths(Graph.complete(4), TerminalSpec(((0,), (1, 2))))


def test_knit_reduction_and_examples():
    g = Graph.complete(9)
    spec = TerminalSpec(((0, 1), (2, 3), (4, 5), (6, 7), (8,)))
    got = knit(g, spec)
    got.validate(g, spec)
    singles = TerminalSpec(((0,), (1,), (2,)))
    got = knit(Graph.empty(3), singles)
    assert got.subgraphs == (1, 2, 4)
    assert knit(Graph.cycle(6), pairs_spec([(0, 3), (1, 4)])) is None
    with pytest.raises(InputError):  # the mask holds 5, beyond the path's 0..2
        Knit((0b100111,)).validate(Graph.path(3), TerminalSpec(((0, 2),)))


def test_check_path_rejects_each_fault():
    g = Graph.cycle(5)
    assert solver.check_path(g, (4, 0, 1)) == 0b10011
    for path, fault in (
        ((), "nonempty"),
        ((0, 5), "nonempty"),
        ((0, 1.0), "nonempty"),
        ((0, 1, 0), "repeats"),
        ((0, 2), "not an edge"),
    ):
        with pytest.raises(InputError, match=fault):
            solver.check_path(g, path)


def test_linkage_validate_rejects_each_fault():
    g = Graph.complete(6)
    spec = pairs_spec([(0, 1), (2, 3)])
    solver.Linkage(((0, 4, 1), (2, 5, 3))).validate(g, spec)
    for paths, tampered, fault in (
        (((0, 4, 1),), spec, "path count"),
        (((0, 1), (2,)), TerminalSpec(((0, 1), (2,))), "must be pairs"),
        (((0, 4, 2), (1, 5, 3)), spec, "does not join"),
        (((0, 4, 1), (2, 4, 3)), spec, "not vertex-disjoint"),
        (((0, 4, 1), (2, 5, 3)), TerminalSpec(((0, 1), (2, 3)), forbidden=1 << 5), "forbidden"),
        (None, spec, "paths must be a tuple"),
        ([(0, 4, 1), (2, 5, 3)], spec, "paths must be a tuple"),
        (((0, 4, 1), 5), spec, "paths must be a tuple"),
    ):
        with pytest.raises(InputError, match=fault):
            solver.Linkage(paths).validate(g, tampered)


def test_knit_validate_rejects_each_fault():
    g = Graph.cycle(6)
    spec = TerminalSpec(((0, 2), (3,)))
    Knit((0b111, 0b1000)).validate(g, spec)
    for subgraphs, tampered, fault in (
        ((0b111,), spec, "subgraph count"),
        ((0b111 | 1 << 6, 0b1000), spec, "out-of-range"),
        ((0b11, 0b1000), spec, "misses its terminals"),
        ((0b111, 0b1100), spec, "overlap"),
        ((0b111, 0b1000), TerminalSpec(((0, 2), (3,)), forbidden=0b10), "forbidden"),
        ((0b101, 0b1000), spec, "not connected"),
        ((1.5,), TerminalSpec(((0,),)), "subgraphs must be a tuple of int masks"),
        ((True,), TerminalSpec(((0,),)), "subgraphs must be a tuple of int masks"),
        ([0b111, 0b1000], spec, "subgraphs must be a tuple of int masks"),
        (None, spec, "subgraphs must be a tuple of int masks"),
    ):
        with pytest.raises(InputError, match=fault):
            Knit(subgraphs).validate(g, tampered)


def test_knit_agrees_with_reduction_randomized():
    rng = random.Random(77)
    for _ in range(500):
        g = random_graph(rng, rng.randint(4, 8), p=rng.uniform(0.2, 0.9))
        verts = rng.sample(range(g.n), 4)
        spec = TerminalSpec(((verts[0], verts[1]), (verts[2],)))
        got = knit(g, spec)
        reduced = disjoint_paths(
            g, TerminalSpec(((verts[0], verts[1]),), forbidden=1 << verts[2])
        )
        assert (got is None) == (reduced is None)
        if got is not None:
            got.validate(g, spec)


def test_knit_matches_path_oracle():
    # the oracle sees each forbidden vertex as one more singleton part
    rng = random.Random(2026)
    for _ in range(400):
        n = rng.randint(5, 9)
        g = random_graph(rng, n, p=rng.uniform(0.2, 0.9))
        k = rng.randint(1, min(3, n // 2))
        singles = rng.randint(0, min(2, n - 2 * k))
        verts = rng.sample(range(n), 2 * k + singles)
        parts = tuple((verts[2 * i], verts[2 * i + 1]) for i in range(k))
        parts += tuple((v,) for v in verts[2 * k:])
        rest = [v for v in range(n) if v not in verts]
        forbidden = rng.sample(rest, rng.randint(0, min(2, len(rest))))
        spec = TerminalSpec(parts, mask_of(forbidden))
        got = knit(g, spec)
        assert (got is not None) == knittable_by_paths(g, parts + tuple((v,) for v in forbidden))
        if got is not None:
            got.validate(g, spec)


def test_partitions_with_profile_counts():
    # 9 vertices into four pairs and a singleton: 9 * 7!! = 945
    count = sum(1 for _ in partitions_with_profile(range(9), (2, 2, 2, 2, 1)))
    assert count == 945
    seen = set(partitions_with_profile(range(4), (2, 2)))
    assert seen == {((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))}


def test_profile_knitted_examples():
    ok, _ = is_profile_knitted(Graph.complete(7), (1 << 7) - 1, (2, 2, 2, 1))
    assert ok
    ok, wit = is_profile_knitted(Graph.cycle(6), (1 << 6) - 1, (2, 2, 2))
    assert not ok
    assert wit == ((0, 1), (2, 4), (3, 5))
    assert knit(Graph.cycle(6), TerminalSpec(wit)) is None
    ok, _ = is_profile_knitted(Graph.empty(3), 0b111, (1, 1, 1))
    assert ok
    # a negative set, a set beyond the graph, a part of size 3
    for s, profile in ((-1, (1,)), (1 << 6, (1,)), (0b11 << 5, (2,)), (0b111, (3,))):
        with pytest.raises(InputError):
            is_profile_knitted(Graph.cycle(6), s, profile)


def _profiles(k):
    return [(2,) * j + (1,) * (k - 2 * j) for j in range(k // 2 + 1)]


def test_profile_knitted_matches_sweep_on_census(census7):
    # every terminal set and every profile of it, on every graph of <= 6 vertices
    seen = {True: 0, False: 0}
    for g in census7:
        if g.n > 6:
            continue
        for s in range(1 << g.n):
            for profile in _profiles(s.bit_count()):
                got = is_profile_knitted(g, s, profile)
                assert got == profile_knitted_by_sweep(g, s, profile), (g.adj, s, profile)
                seen[got[0]] += 1
    assert seen[True] and seen[False]


def test_profile_knitted_matches_sweep_randomized():
    rng = random.Random(15)
    seen = {True: 0, False: 0}
    for _ in range(2000):
        n = rng.randint(1, 11)
        g = random_graph(rng, n, p=rng.uniform(0.2, 0.95))
        k = rng.randint(0, n)
        s = mask_of(rng.sample(range(n), k))
        profile = rng.choice(_profiles(k))
        got = is_profile_knitted(g, s, profile)
        assert got == profile_knitted_by_sweep(g, s, profile), (g.adj, s, profile)
        seen[got[0]] += 1
    assert seen[True] and seen[False]


def test_profile_knitted_matches_sweep_on_k33_minus_matching():
    # the removed edges are {0, 1}, {2, 3}, ..., {30, 31}; each terminal set
    # holds r of them and eight vertices in all
    g = complete_minus_matching(33, 16)
    rng = random.Random(33)
    for r in range(5):
        for _ in range(4):
            removed = rng.sample(range(16), r)
            verts = [v for i in removed for v in (2 * i, 2 * i + 1)]
            # one vertex from each of the other removed edges, or the last vertex
            others = [2 * i + rng.randint(0, 1) for i in range(16) if i not in removed] + [32]
            verts += rng.sample(others, 8 - 2 * r)
            s = mask_of(verts)
            assert sum((s >> 2 * i) & 3 == 3 for i in range(16)) == r
            for profile in ((2, 2, 2, 2), (2, 2, 2, 1, 1), (2, 2, 1, 1, 1, 1)):
                assert is_profile_knitted(g, s, profile) == profile_knitted_by_sweep(g, s, profile)


def test_profile_knitted_matches_sweep_on_circulant():
    n = 40
    g = Graph.from_edges(n, [(u, (u + d) % n) for u in range(n) for d in range(1, 16)])
    for seed in (1, 2, 3):
        s = mask_of(random.Random(seed).sample(range(n), 8))
        for profile in ((2, 2, 2, 2), (2, 2, 2, 1, 1)):
            assert is_profile_knitted(g, s, profile) == profile_knitted_by_sweep(g, s, profile) == (True, None)


def test_nonedge_matchings_match_brute_force():
    # the matchings of the complement of G[s] with j edges, or maximal with
    # fewer, each produced once
    rng = random.Random(17)
    for _ in range(500):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, p=rng.uniform(0.1, 0.9))
        s = mask_of(rng.sample(range(n), rng.randint(0, n)))
        j = rng.randint(0, s.bit_count() // 2)
        non = [e for e in itertools.combinations(bits(s), 2) if not g.has_edge(*e)]
        matchings = [
            m for size in range(j + 1) for m in itertools.combinations(non, size)
            if len({v for e in m for v in e}) == 2 * size
        ]

        def maximal(m):
            used = {v for e in m for v in e}
            return all(u in used or v in used for u, v in non)

        want = sorted(m for m in matchings if len(m) == j or maximal(m))
        # want holds each matching once, so a repeat in got would show
        assert sorted(_nonedge_matchings(g, s, j)) == want


def test_is_k_linked():
    ok, _ = is_k_linked(Graph.complete(6), 3)
    assert ok
    ok, wit = is_k_linked(Graph.cycle(6), 2)
    assert not ok and wit == ((0, 2), (1, 3))
    assert disjoint_paths(Graph.cycle(6), pairs_spec(wit)) is None
    ok, wit = is_k_linked(Graph.cycle(6), 2, mode="sampled", samples=50, seed=1)
    assert not ok
    with pytest.raises(InputError):
        is_k_linked(Graph.complete(3), 2)


@pytest.mark.parametrize("kwargs", [
    {"k": -1}, {"k": 0}, {"k": 2.0}, {"k": True},
    {"k": 2, "mode": "sampled", "samples": -5},
    {"k": 2, "mode": "sampled", "samples": 2.0},
    {"k": 2, "mode": "sampled", "samples": True},
    # random.Random(None) seeds from the OS, so its answers would not repeat
    {"k": 2, "mode": "sampled", "samples": 3, "seed": None},
    {"k": 2, "mode": "sampled", "samples": 3, "seed": "1"},
    {"k": 2, "mode": "sampled", "samples": 3, "seed": 1.0},
    {"k": 2, "mode": "sampled", "samples": 3, "seed": True},
])
def test_is_k_linked_input_errors(kwargs):
    with pytest.raises(InputError):
        is_k_linked(Graph.cycle(6), **kwargs)


def test_profiles_are_checked_before_any_work():
    # K2 has no 3-set, so a sweep would never reach the profile
    with pytest.raises(InputError, match="profile sizes must be 1 or 2"):
        least_unknitted(Graph.complete(2), (3,))
    for profile in ((2.0, 1), (2, True)):
        with pytest.raises(InputError, match="profile sizes must be 1 or 2"):
            least_unknitted(Graph.cycle(6), profile)
        with pytest.raises(InputError, match="profile sizes must be 1 or 2"):
            is_profile_knitted(Graph.cycle(6), 0b111, profile)


def test_sampled_k_linked_never_answers_true():
    # K11 minus a 4-edge matching is not 4-linked, but 200 random systems
    # can all link: sampling finds the violation or answers None
    g = complete_minus_matching(11, 4)
    assert is_k_linked(g, 4) == (False, ((0, 1), (2, 3), (4, 5), (6, 7)))
    answers = []
    for seed in range(1, 11):
        ok, system = is_k_linked(g, 4, mode="sampled", samples=200, seed=seed)
        answers.append(ok)
        if ok is None:
            assert system is None
        else:
            assert ok is False and disjoint_paths(g, pairs_spec(system)) is None
    assert True not in answers and None in answers
    assert is_k_linked(g, 4, mode="sampled", samples=0) == (None, None)


def _sampled_corpus():
    """43 hosts for sampled queries: complete graphs minus a matching, cycles
    and seeded random graphs of 8 to 16 vertices."""
    rng = random.Random(2026)
    hosts = [complete_minus_matching(n, m) for n, m in ((9, 2), (10, 3), (11, 4), (12, 5), (13, 6))]
    hosts += [Graph.cycle(n) for n in (8, 10, 12)]
    while len(hosts) < 43:
        hosts.append(random_graph(rng, rng.randint(8, 16), p=rng.uniform(0.3, 0.95)))
    return hosts


# sha256 of repr() of the list of is_k_linked(g, k, mode="sampled",
# samples=30, seed=seed) answers over _sampled_corpus(), k = 2..4 and seeds
# 0..3: the answers of the sampled search as it was before knitted1_check
# shared it
SAMPLED_K_LINKED_DIGEST = "d52acd895242dab39dbde6fa416f4afb56d6899a7cbfac113e6b45467f7cf2e6"


def test_sampled_unknitted_returns_unknittable_partitions(monkeypatch):
    # each partition the sampled search returns lists its singletons first,
    # as least_unknitted does, and cannot be knit; it draws one system per
    # _link call and counts each
    calls = 0
    link = solver._link

    def counted(*args):
        nonlocal calls
        calls += 1
        return link(*args)

    monkeypatch.setattr(solver, "_link", counted)
    # K11 - M4 fails only its four matching pairs, so its draws all pass;
    # K9 - M4, K8 - M4 and the random graph fail often
    hosts = [complete_minus_matching(n, 4) for n in (11, 9, 8)] + [random_graph(random.Random(9), 11)]
    found = {(2, 2, 2, 2): 0, (2, 2, 2, 1): 0}
    for g in hosts:
        for profile in found:
            for seed in range(10):
                calls = 0
                run, parts = solver._sampled_unknitted(g, profile, 40, random.Random(seed))
                assert run == calls and (parts is not None or run == 40)
                if parts is None:
                    continue
                found[profile] += 1
                singles = [p for p in parts if len(p) == 1]
                pairs = [p for p in parts if len(p) == 2]
                assert parts == tuple(sorted(singles) + sorted(pairs)), parts
                assert all(p == tuple(sorted(p)) for p in pairs) and sorted(map(len, parts)) == sorted(profile)
                assert not knittable_by_paths(g, parts), (g, parts)
    assert min(found.values()) > 5, found
    monkeypatch.undo()
    answers = [
        is_k_linked(g, k, mode="sampled", samples=30, seed=seed)
        for g in _sampled_corpus()
        for k in (2, 3, 4)
        if g.n >= 2 * k
        for seed in range(4)
    ]
    assert len(answers) == 516 and {ok for ok, _ in answers} == {False, None}
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == SAMPLED_K_LINKED_DIGEST


def test_is_k_linked_matches_oracle():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, rng.randint(4, 7), p=rng.uniform(0.2, 0.9))
        bad = [
            (p1, p2)
            for p1 in itertools.combinations(range(g.n), 2)
            for p2 in itertools.combinations(range(g.n), 2)
            if p1 < p2 and not set(p1) & set(p2) and not two_pair_systems_solvable(g, p1, p2)
        ]
        # least by vertex set first, then by the pairs
        least = min(bad, key=lambda sys: (sorted(sys[0] + sys[1]), sys), default=None)
        assert is_k_linked(g, 2) == (least is None, least)


def test_k_linked_boundary_on_matching_deleted_clique():
    from knitweave.certify import common_neighbor_certificate
    from knitweave.generators import complete_minus_matching

    g = complete_minus_matching(11, 5)
    ok, _ = is_k_linked(g, 3)
    assert ok
    assert common_neighbor_certificate(g, 3)[0]  # 9 commons >= 3k-2 = 7
    # four matched pairs demand four distinct interior vertices, three exist
    ok4, wit = is_k_linked(g, 4)
    assert not ok4 and wit == ((0, 1), (2, 3), (4, 5), (6, 7))
    assert not common_neighbor_certificate(g, 4)[0]  # 9 < 3k-2 = 10
    assert disjoint_paths(g, pairs_spec(wit)) is None


def test_flow_counts():
    g = Graph.complete(8)
    interior = g.full_mask & ~mask_of([0, 1, 6, 7])
    assert max_vertex_disjoint_flow(g.adj, mask_of([0, 1]), mask_of([6, 7]), interior) == 2
    c6 = Graph.cycle(6)
    assert (
        max_vertex_disjoint_flow(c6.adj, mask_of([0, 1]), mask_of([3, 4]), c6.full_mask & ~mask_of([0, 1, 3, 4]))
        == 2
    )
    star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert max_vertex_disjoint_flow(star.adj, mask_of([1, 2]), mask_of([3, 4]), 1) == 1


def test_flow_collect_paths_disjoint():
    g = Graph.complete(9)
    flow, paths, cut = max_vertex_disjoint_flow(
        g.adj, mask_of([0, 1, 2]), mask_of([6, 7, 8]), g.full_mask & ~mask_of([0, 1, 2, 6, 7, 8]), collect=True
    )
    assert flow == len(paths) == 3 and cut is None
    used = set()
    for p in paths:
        assert not used & set(p)
        used |= set(p)
        for a, b in zip(p, p[1:]):
            assert g.has_edge(a, b)


def _flow_by_networkx(g, sources, sinks, allowed):
    """Maximum flow value on the node-split network, by networkx."""
    usable = (allowed | sources | sinks) & g.full_mask
    d = nx.DiGraph()
    d.add_nodes_from("ST")
    for v in bits(usable):
        d.add_edge(("in", v), ("out", v), capacity=1)
        if (sources >> v) & 1:
            d.add_edge("S", ("in", v), capacity=1)
        if (sinks >> v) & 1:
            d.add_edge(("out", v), "T", capacity=1)
        else:
            for w in bits(g.adj[v] & usable):
                d.add_edge(("out", v), ("in", w), capacity=1)
    return nx.maximum_flow_value(d, "S", "T")


def test_flow_matches_matrix_reference():
    rng = random.Random(6)
    cases = []
    for i in range(1200):
        n = rng.randint(1, 15)
        # every other graph is sparse, where augmenting paths run back along
        # earlier flow
        g = random_graph(rng, n, p=rng.uniform(0.1, 0.9) if i % 2 else rng.uniform(1.2, 3) / n)
        sources = rng.getrandbits(n) & rng.getrandbits(n)
        sinks = rng.getrandbits(n) & rng.getrandbits(n)
        if i % 3 == 0:
            sinks &= ~sources
        elif i % 3 == 1:
            sinks |= sources & rng.getrandbits(n)
        allowed = g.full_mask if i % 4 == 0 else rng.getrandbits(n) | rng.getrandbits(n)
        cases.append((g, sources, sinks, allowed))
    for _ in range(4):
        g = random_graph(rng, 33, p=0.85)
        sources = rng.getrandbits(33) & rng.getrandbits(33)
        sinks = (rng.getrandbits(33) & rng.getrandbits(33)) | (sources & rng.getrandbits(33))
        cases.append((g, sources, sinks, rng.getrandbits(33)))
    # an augmenting path here reverses a whole vertex's split arc
    g = Graph.from_edges(8, [(0, 1), (0, 7), (1, 2), (1, 5), (2, 4), (3, 5), (5, 6), (5, 7)])
    cases.append((g, mask_of([1, 3, 6]), mask_of([4, 6, 7]), g.full_mask))
    for g, sources, sinks, allowed in cases:
        value = _flow_by_networkx(g, sources, sinks, allowed)
        overlap = (sources & sinks).bit_count()
        for cap in (None, 0, max(overlap - 1, 0), rng.randint(0, 10)):
            want = flow_by_matrix(g, sources, sinks, allowed, cap, collect=True)
            assert max_vertex_disjoint_flow(g.adj, sources, sinks, allowed, cap, collect=True) == want
            assert max_vertex_disjoint_flow(g.adj, sources, sinks, allowed, cap) == want[0]
            assert want[0] == (value if cap is None else min(value, cap))
    # a cap below the overlap takes its lowest vertices
    k6 = Graph.complete(6)
    got = max_vertex_disjoint_flow(k6.adj, mask_of([1, 2, 3, 4]), mask_of([2, 3, 4, 5]), 0, cap=2, collect=True)
    assert got == (2, [(2,), (3,)], None)


def _dense_flow_hosts(rng):
    """K_n, K_n - M, the Turan graph T(n, r) and the circulant C_n(1..r) for
    n up to 64: hosts where most sources see a free sink directly."""
    for n in (3, 5, 9, 16, 24, 33, 48, 64):
        yield Graph.complete(n)
        yield complete_minus_matching(n, rng.randint(1, n // 2))
        r = rng.randint(2, max(2, n // 4))
        yield Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u) if u % r != v % r])
        r = rng.randint(1, max(1, (n - 1) // 2))
        yield Graph.from_edges(n, [(u, (u + j) % n) for u in range(n) for j in range(1, r + 1)])


def test_flow_matches_matrix_reference_on_dense_hosts():
    rng = random.Random(54)
    cases = []
    for g in _dense_flow_hosts(rng):
        n = g.n
        for i in range(9):
            sources = mask_of(rng.sample(range(n), rng.randint(1, min(n, 16))))
            sinks = mask_of(rng.sample(range(n), rng.randint(1, min(n, 16))))
            if i % 2 == 0:
                sinks &= ~sources
            allowed = (g.full_mask, 0, rng.getrandbits(n))[i % 3]
            cases.append((g, sources, sinks, allowed))
    # the pipeline stage's flows: from the terminals outside the certified
    # clique into the clique's vertices that are not terminals
    for seed in (1, 2, 3):
        for inst in campaign_pipeline_4linked(2, seed=seed, no_timestamps=True)["instances"]:
            g = parse_graph6(inst["graph6"])
            s = mask_of(x for pr in inst["pairs"] for x in pr)
            dense = next(st for st in inst["stages"] if st["stage"] == "dense-subgraph")
            cand = mask_of(dense["candidate"])
            cases.append((g, s & ~cand, cand & ~s, g.full_mask & ~cand & ~s))
    one_edge = cut = 0
    for g, sources, sinks, allowed in cases:
        for cap in (None, rng.randint(0, 12)):
            want = flow_by_matrix(g, sources, sinks, allowed, cap, collect=True)
            assert max_vertex_disjoint_flow(g.adj, sources, sinks, allowed, cap, collect=True) == want, (
                g.adj, sources, sinks, allowed, cap)
            assert max_vertex_disjoint_flow(g.adj, sources, sinks, allowed, cap) == want[0]
            one_edge += sum(len(p) == 2 for p in want[1])
            cut += want[2] is not None
    assert one_edge > 1000 and cut > 100, (one_edge, cut)


def test_flow_cut_separates_the_ends():
    # a flow that falls short returns ``flow`` vertices that no path from the
    # sources to the sinks avoids, and as its side the vertices such paths
    # reach before the separator
    rng = random.Random(52)
    short = 0
    for i in range(4000):
        n = rng.randint(1, 24)
        g = random_graph(rng, n, p=rng.uniform(0.1, 0.9) if i % 2 else rng.uniform(1.2, 3) / n)
        sources = rng.getrandbits(n) & rng.getrandbits(n)
        sinks = rng.getrandbits(n) & rng.getrandbits(n)
        if i % 3 == 0:
            sinks &= ~sources
        elif i % 3 == 1:
            sinks |= sources & rng.getrandbits(n)
        allowed = g.full_mask if i % 4 == 0 else rng.getrandbits(n) | rng.getrandbits(n)
        cap = None if i % 2 else rng.randint(0, 8)
        flow, _, cut = max_vertex_disjoint_flow(g.adj, sources, sinks, allowed, cap, collect=True)
        limit = min(sources.bit_count(), sinks.bit_count()) if cap is None else cap
        if cut is None:
            assert flow == limit
            continue
        short += 1
        separator, side = cut
        usable = (allowed | sources | sinks) & g.full_mask
        assert flow < limit and separator.bit_count() == flow, (g.adj, sources, sinks, allowed, cap)
        assert not separator & ~usable and not separator & side
        assert reachable(g.adj, sources & ~separator, usable & ~separator) == side, (g.adj, sources, sinks, allowed)
        assert not side & sinks
    assert short > 1000, short


# --- configurations ---------------------------------------------------------


def test_build_configuration_complete():
    cfg = build_configuration(Graph.complete(9), range(9))
    assert cfg.connected_count == 4
    assert cfg.blocks == ((0,), (1, 2), (3, 4), (5, 6), (7, 8))
    cfg.validate()


def test_build_configuration_petersen_vs_oracle():
    pet = Graph.petersen()
    cfg = build_configuration(pet, range(9))
    cfg.validate()
    s, size = best_configuration_value(pet, list(range(9)))
    assert cfg.connected_count == s
    assert 1 + sum(len(b) for b in cfg.blocks[1:]) == size


def test_build_configuration_random_vs_oracle():
    rng = random.Random(4)
    for _ in range(6):
        g = random_graph(rng, 10, p=rng.uniform(0.3, 0.7))
        terms = rng.sample(range(10), 9)
        cfg = build_configuration(g, terms)
        cfg.validate()
        s, size = best_configuration_value(g, terms)
        assert cfg.connected_count == s
        assert 1 + sum(len(b) for b in cfg.blocks[1:]) == size


def test_build_configuration_disconnected_pair():
    # two cliques with no connection between them: the straddling pair stays
    # a bare pair while everything else links up
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(u, v) for u in range(5, 10) for v in range(u + 1, 10)]
    g = Graph.from_edges(10, edges)
    cfg = build_configuration(g, [0, 1, 2, 6, 7, 8, 9, 3, 5])
    assert cfg.connected_count == 3
    assert cfg.blocks[-1] == (3, 5)
    cfg.validate()


def test_build_configuration_straddling_pair_first():
    # the same two cliques, with (8, 9) now joined only through vertex 10: the
    # unlinkable pair comes first, so the last pair must not be the bare block
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(u, v) for u in range(5, 11) for v in range(u + 1, 11) if (u, v) != (8, 9)]
    g = Graph.from_edges(11, edges)
    cfg = build_configuration(g, [0, 3, 5, 1, 2, 6, 7, 8, 9])
    assert cfg.blocks == ((0,), (1, 2), (6, 7), (8, 10, 9), (3, 5))


def test_build_configuration_leaves_blocking_pair_bare():
    # (1, 2) and (3, 4) each have one path, through both 9 and 10; (5, 6) needs
    # 9 and (7, 8) needs 10, so the optimum leaves the first two pairs bare
    edges = [(1, 9), (9, 10), (10, 2), (3, 9), (10, 4), (5, 9), (9, 6), (7, 10), (10, 8)]
    g = Graph.from_edges(11, edges)
    cfg = build_configuration(g, range(9))
    assert cfg.blocks == ((0,), (5, 9, 6), (7, 10, 8), (1, 2), (3, 4))


def test_build_configuration_tie_break():
    # (1, 10) stays bare: both its paths run through 3 and 8, and (9, 8, 7)
    # needs 8. The 24-order search leaves a slot 1-3 pair bare only once
    # earlier paths block all of its paths, so it put (5, 3, 2) ahead of
    # (1, 10); the disjoint selection leaves (1, 10) bare by choice and keeps
    # the first path of that length, (5, 0, 2)
    g = parse_graph6("LtRQZsVYhL}OFg")
    terms = [12, 1, 10, 5, 2, 6, 4, 9, 7]
    assert build_configuration(g, terms).blocks == ((12,), (6, 4), (5, 0, 2), (9, 8, 7), (1, 10))
    assert configuration_by_orders(g, terms).blocks == ((12,), (6, 4), (5, 3, 2), (9, 8, 7), (1, 10))


def test_build_configuration_matches_reference():
    rng = random.Random(2026)
    cases = []
    for _ in range(200):
        n = rng.randint(9, 14)
        g = random_graph(rng, n, p=rng.uniform(0.15, 0.7))
        terms = rng.sample(range(n), 9)
        cfg = build_configuration(g, terms)
        s, size = best_configuration_value(g, terms)
        assert (cfg.connected_count, 1 + sum(len(b) for b in cfg.blocks[1:])) == (s, size)
        cases.append((g, terms))
    for seed in range(3):
        host = gen_split_host(seed, blob_size=10)
        cases.append((host.graph, host.terminals))
        g = gen_min_degree(16, 12, seed)
        cases.append((g, rng.sample(range(16), 9)))
    for g, terms in cases:
        assert build_configuration(g, terms).blocks == configuration_by_orders(g, terms).blocks


def test_build_configuration_reads_paths_on_demand():
    # K40 minus the four pair edges holds about 28k paths of at most five
    # vertices per pair; the search needs only the first one of each
    missing = {(1, 2), (3, 4), (5, 6), (7, 8)}
    g = Graph.from_edges(40, [e for e in itertools.combinations(range(40), 2) if e not in missing])
    t0 = time.perf_counter()
    cfg = build_configuration(g, range(9))
    elapsed = time.perf_counter() - t0
    assert cfg.blocks == ((0,), (1, 9, 2), (3, 10, 4), (5, 11, 6), (7, 8))
    assert elapsed < 0.2


CONFIGURATION_EDGES = [(1, 2), (2, 3), (3, 4), (4, 5), (8, 2), (8, 4), (6, 3), (3, 7), (9, 10), (11, 12)]


def _configuration_fixture():
    h = Graph.from_edges(13, CONFIGURATION_EDGES)
    cfg = Configuration(
        host=h,
        u0=0,
        blocks=((0,), (9, 10), (11, 12), (1, 2, 3, 4, 5), (6, 7)),
    )
    cfg.validate()
    return h, cfg


def test_configuration_validate_rejects_each_fault():
    h, cfg = _configuration_fixture()
    cfg.validate()
    for u0, blocks, fault in (
        (0, None, "the blocks must be a tuple of vertex tuples"),
        (0, ((0,), (1, 2), (3, 4), (5, 6), 7), "the blocks must be a tuple of vertex tuples"),
        (0, ((0,), (9, 10), (11, 12), (1, 2, 3, 4, 5)), "five blocks"),
        (0, ((0,), (9, 10.0), (11, 12), (1, 2, 3, 4, 5), (6, 7)), "integers"),
        (0, ((0,), (11, 12), (1, 2, 3, 4, 5), (6, 7), (9, 13)), "outside 0..12"),
        (8, ((0,), (9, 10), (11, 12), (1, 2, 3, 4, 5), (6, 7)), "anchor"),
        (0, ((0,), (9,), (11, 12), (1, 2, 3, 4, 5), (6, 7)), "two ends"),
        (0, ((0,), (11, 12), (9, 10, 9), (1, 2, 3, 4, 5), (6, 7)), "repeats"),
        (0, ((0,), (3, 7), (9, 10), (11, 12), (1, 2, 3, 4, 5)), "overlap"),
        (0, ((0,), (9, 10), (11, 12), (1, 2, 3, 4, 5), (6, 8, 7)), "bare pair"),
        (0, ((0,), (9, 10), (11, 12), (3, 2, 8, 4), (6, 7)), "induced path"),
        (0, ((0,), (11, 12), (9, 10), (1, 2, 3, 4, 5), (6, 7)), "normal order"),
    ):
        with pytest.raises(InputError, match=fault):
            Configuration(h, u0, blocks).validate()


def test_s_value_examples():
    edges = [(0, 1), (1, 2)]
    edges += [(9, 0), (9, 1), (9, 2), (10, 0), (10, 1), (10, 2)]
    edges += [(3, 4), (5, 6), (11, 12)]
    h = Graph.from_edges(13, edges)
    cfg = build_configuration(h, [8, 0, 2, 3, 4, 5, 6, 11, 12])
    i = cfg.blocks.index((0, 1, 2))
    assert s_value(cfg, 9, 10, i) == 3  # both complete to a 3-block
    lonely = cfg.blocks.index((3, 4))
    assert s_value(cfg, 9, 10, lonely) == -2  # no neighbors there at all
    with pytest.raises(InputError):
        s_value(cfg, 0, 10, i)


def test_s_value_matches_naive():
    rng = random.Random(12)
    for _ in range(20):
        g = random_graph(rng, 12, p=0.5)
        terms = rng.sample(range(12), 9)
        cfg = build_configuration(g, terms)
        outside = [v for v in range(12) if not (cfg.cover_mask >> v) & 1]
        if len(outside) < 2:
            continue
        a, b = rng.sample(outside, 2)
        for i in range(5):
            blk = set(cfg.blocks[i])
            common = sum(1 for w in blk if g.has_edge(a, w) and g.has_edge(b, w))
            missed = sum(1 for w in blk if not g.has_edge(a, w) and not g.has_edge(b, w))
            assert s_value(cfg, a, b, i) == common - missed


@pytest.mark.parametrize("v", [1.0, True])
@pytest.mark.parametrize(
    "call",
    [
        lambda h, cfg, v: h.has_edge(0, v),
        lambda h, cfg, v: h.degree(v),
        lambda h, cfg, v: neighbors_closed(h, v),
        lambda h, cfg, v: build_configuration(h, (0, v, 2, 3, 4, 5, 6, 7, 8)),
        lambda h, cfg, v: s_value(cfg, 8, v, 1),
        lambda h, cfg, v: s_value(cfg, 8, 8, v),
    ],
    ids=["has_edge", "degree", "neighbors_closed", "build_configuration", "s_value", "s_value_block"],
)
def test_non_int_vertex_is_an_input_error(call, v):
    # a float or a bool equal to a valid index is still not a vertex
    h, cfg = _configuration_fixture()
    with pytest.raises(InputError, match="not an int"):
        call(h, cfg, v)


def test_solver_matches_oracle_random_two_pairs():
    rng = random.Random(99)
    for _ in range(300):
        g = random_graph(rng, rng.randint(4, 8), p=rng.uniform(0.1, 0.9))
        verts = rng.sample(range(g.n), 4)
        p1, p2 = (verts[0], verts[1]), (verts[2], verts[3])
        ours = disjoint_paths(g, pairs_spec([p1, p2]))
        truth = two_pair_systems_solvable(g, p1, p2)
        assert (ours is not None) == truth
        if ours is not None:
            ours.validate(g, pairs_spec([p1, p2]))
