import random

import pytest

from knitweave.certify import (
    common_neighbor_certificate,
    dense_conditions,
    easy_connectivity_threshold,
    find_dense_neighborhood,
    greedy_link,
    knitted1_check,
    mader_threshold,
    main_theorem_table,
    uncommon_neighbor_certificate,
)
from knitweave.errors import InputError
from knitweave.generators import complete_minus_matching, gen_universal_vertex
from knitweave.graphs import Graph, mask_of
from knitweave.solver import TerminalSpec, disjoint_paths, pairs_spec



def test_threshold_pins():
    assert mader_threshold(7, 3) == 8
    assert mader_threshold(7, 5) == 18
    assert mader_threshold(8, 6) == 34
    assert mader_threshold(9, 7) == 66
    assert easy_connectivity_threshold(6) == 6
    assert easy_connectivity_threshold(8) == 18
    assert easy_connectivity_threshold(9) == 34
    assert easy_connectivity_threshold(10) == 66
    with pytest.raises(InputError):
        mader_threshold(7, 2)
    with pytest.raises(InputError):
        easy_connectivity_threshold(5)


def test_thresholds_are_consistent():
    # the direct formula instantiated at (t-1, t-3) reproduces the easy one
    for t in range(6, 12):
        assert mader_threshold(t - 1, t - 3) == easy_connectivity_threshold(t)


def test_main_theorem_table():
    assert main_theorem_table(17) == 8
    assert main_theorem_table(29) == 9
    assert main_theorem_table(41) == 10
    assert main_theorem_table(7) == 7
    assert main_theorem_table(6) == 6
    assert main_theorem_table(5) == 5
    assert main_theorem_table(16) == 7
    with pytest.raises(InputError):
        main_theorem_table(4)


def test_greedy_link_direct_edges():
    g = Graph.complete(9)
    spec = pairs_spec([(0, 1), (2, 3), (4, 5), (6, 7)])
    res = greedy_link(g, spec)
    assert res.linkage.paths == ((0, 1), (2, 3), (4, 5), (6, 7))
    res.linkage.validate(g, spec)


def test_greedy_link_common_neighbors():
    g = complete_minus_matching(11, 5)
    spec = pairs_spec([(0, 1), (2, 3), (4, 5)])
    res = greedy_link(g, spec)
    assert res.failed_pair is None
    res.linkage.validate(g, spec)
    for path in res.linkage.paths:
        assert len(path) == 3


def test_greedy_link_ordering_tightest_first():
    # pair (0,1) has strictly fewer common neighbors than (2,3)
    edges = [
        (u, v)
        for u in range(10)
        for v in range(u + 1, 10)
        if set((u, v)) not in ({0, 1}, {2, 3})
    ]
    g = Graph.from_edges(10, [e for e in edges if e not in [(0, 4), (0, 5)]])
    spec = pairs_spec([(2, 3), (0, 1)])
    res = greedy_link(g, spec)
    assert res.ordering[0] == 1  # the (0,1) pair goes first
    res.linkage.validate(g, spec)


def test_greedy_link_knitted_variant_avoids_forbidden():
    g = complete_minus_matching(11, 5)
    from knitweave.solver import TerminalSpec

    spec = TerminalSpec(((0, 1), (2, 3), (4, 5)), forbidden=1 << 10)
    res = greedy_link(g, spec)
    assert res.failed_pair is None
    for path in res.linkage.paths:
        assert 10 not in path


def test_greedy_link_certificate_validates_with_forbidden():
    g = Graph.from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)])  # the 4-cycle 0-2-1-3-0
    spec = TerminalSpec(((0, 1),), forbidden=1 << 2)
    res = greedy_link(g, spec)
    assert res.linkage.paths == ((0, 3, 1),)
    res.linkage.validate(g, spec)


def test_greedy_link_failure_reports_pair():
    res = greedy_link(Graph.cycle(8), pairs_spec([(0, 4), (1, 5)]))
    assert res.linkage is None
    assert res.failed_pair is not None


def test_common_neighbor_certificate():
    ok, _ = common_neighbor_certificate(Graph.complete(7), 3)
    assert ok  # vacuous: no non-adjacent pairs
    ok, _ = common_neighbor_certificate(complete_minus_matching(11, 5), 3)
    assert ok  # 9 common neighbors >= 7
    ok, pair = common_neighbor_certificate(Graph.cycle(8), 3)
    assert not ok and pair is not None
    ok, _ = common_neighbor_certificate(complete_minus_matching(11, 5), 3, knitted_variant=True)
    assert ok  # 9 >= 8


def test_certificate_implies_solver_agreement():
    g = complete_minus_matching(11, 5)
    ok, _ = common_neighbor_certificate(g, 3)
    assert ok
    rng = random.Random(44)
    for _ in range(100):
        verts = rng.sample(range(11), 6)
        spec = pairs_spec([(verts[0], verts[1]), (verts[2], verts[3]), (verts[4], verts[5])])
        res = greedy_link(g, spec)
        assert res.failed_pair is None
        res.linkage.validate(g, spec)
        assert disjoint_paths(g, spec) is not None


def test_uncommon_neighbor_certificate():
    ok, _ = uncommon_neighbor_certificate(Graph.complete(8), 0, 3)
    assert ok
    ok, wit = uncommon_neighbor_certificate(Graph.cycle(8), 0, 3)
    assert not ok


def _appendix_shape(break_it: bool) -> Graph:
    """Dense block of nine on a three-vertex path with an apex: every
    non-adjacent pair has eleven common neighbors unless ``break_it`` strips
    the block's edges onto the path."""
    n = 13  # block 0..8, path 9-10-11, apex 12
    edges = []
    for u in range(9):
        for v in range(u + 1, 9):
            if not (u % 2 == 0 and v == u + 1 and u < 8):
                edges.append((u, v))
    edges += [(9, 10), (10, 11)]
    for b in range(9):
        for w in (9, 10, 11):
            if break_it and w != 10:
                continue
            edges.append((b, w))
    for v in range(12):
        edges.append((12, v))
    return Graph.from_edges(n, edges)


def test_uncommon_certificate_on_apex_block_shape():
    good = _appendix_shape(break_it=False)
    ok, _ = uncommon_neighbor_certificate(good, 12, 4)
    assert ok
    # counted bound: non-adjacent block pairs have |block| + 2 = 11 >= 10
    assert (good.adj[0] & good.adj[1]).bit_count() == 11
    spec = pairs_spec([(0, 1), (2, 3), (4, 5), (9, 11)])
    assert disjoint_paths(good, spec) is not None
    bad = _appendix_shape(break_it=True)
    ok, pair = uncommon_neighbor_certificate(bad, 12, 4)
    assert not ok and pair is not None


def test_dense_conditions_cases():
    rep = dense_conditions(Graph.complete(16), 18)
    assert rep.case == "i" and rep.n_h == 16 and rep.delta_h == 15
    k14me = Graph.from_edges(
        14, [(u, v) for u in range(14) for v in range(u + 1, 14) if (u, v) != (0, 1)]
    )
    assert dense_conditions(k14me, 18).case == "i"  # first satisfied case wins
    # 10-regular on 29 vertices: min degree below the p = 30 floor
    circ = Graph.from_edges(
        29, [(u, (u + d) % 29) for u in range(29) for d in range(1, 6)]
    )
    assert dense_conditions(circ, 30).case == "none"


def test_dense_condition_ii_nonadjacency():
    # K11 minus two matching edges: four vertices sit exactly on the floor
    g = complete_minus_matching(11, 2)
    rep = dense_conditions(g, 18)
    assert rep.low_degree_vertices == mask_of([0, 1, 2, 3])
    assert rep.case == "iii"  # more than two floor vertices rules out (ii)
    g2 = complete_minus_matching(11, 1)
    rep2 = dense_conditions(g2, 18)
    assert rep2.case == "ii" and rep2.low_degree_vertices == 0b11


def test_dense_conditions_isomorphism_invariant():
    rng = random.Random(23)
    for _ in range(20):
        g, _ = gen_universal_vertex(12, 9, rng.randrange(10**6))
        rep = dense_conditions(g, 18)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        rep2 = dense_conditions(h, 18)
        assert rep.case == rep2.case
        assert rep.delta_h == rep2.delta_h


def test_find_dense_neighborhood():
    got = find_dense_neighborhood(Graph.complete(18), 0, 18)
    assert got is not None and got[0] == 0 and got[1].case == "i"
    assert find_dense_neighborhood(Graph.cycle(12), 0, 18) is None
    got = find_dense_neighborhood(Graph.complete(18), 0b1, 18)
    assert got[0] == 1  # scans outside the excluded set


def test_knitted1_clique_route():
    v = knitted1_check(Graph.complete(16), 18, samples=10, seed=1)
    assert v.status == "certified" and v.route == "clique"
    assert v.candidate.bit_count() >= 7


def test_knitted1_input_errors():
    with pytest.raises(InputError):
        knitted1_check(Graph.complete(9), 42, samples=5, seed=0)
    with pytest.raises(InputError):
        knitted1_check(Graph.complete(16), 20, samples=5, seed=0)
    # no universal vertex
    with pytest.raises(InputError):
        knitted1_check(complete_minus_matching(16, 8), 18, samples=5, seed=0)


def test_knitted1_sampled_route():
    rng = random.Random(2)
    for seed in range(5):
        g, z = gen_universal_vertex(rng.randint(13, 16), 9, seed * 31 + 7)
        if dense_conditions(g, 18).case == "none":
            continue
        v = knitted1_check(g, 18, samples=15, seed=seed)
        assert v.status in ("certified", "sampled-pass")


def test_knitted1_sampled_route_never_passes_a_failed_candidate(monkeypatch):
    # an acceptance-08 graph that no certificate covers; its universal
    # vertex's closed neighbourhood is the whole graph, the first candidate
    g, _ = gen_universal_vertex(16, 9, 29)
    assert knitted1_check(g, 18, samples=20, seed=29).route == "sampled"
    sizes = []

    def first_call_fails(sub, spec):
        sizes.append(sub.n)
        return None if len(sizes) == 1 else disjoint_paths(sub, spec)

    monkeypatch.setattr("knitweave.certify.disjoint_paths", first_call_fails)
    v = knitted1_check(g, 18, samples=20, seed=29)
    assert sizes[0] == g.n
    assert v.route == "sampled" and len(v.failures) == 1
    assert v.status == "not-found" or v.candidate != g.full_mask


def test_knitted1_sweep_failure_in_host_labels(monkeypatch):
    # K17 minus the triangle 0, 1, 2: the clique route takes 2..8, so the
    # exhaustive sweep runs on local labels 0..6 that stand for 2..8
    n = 17
    g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if v > 2])
    assert knitted1_check(g, 18, samples=5, seed=1).candidate == mask_of(range(2, 9))
    monkeypatch.setattr(
        "knitweave.certify.is_profile_knitted",
        lambda sub, s, profile: (False, ((0, 1), (2, 3), (4, 5), (6,))),
    )
    v = knitted1_check(g, 18, samples=5, seed=1)
    assert v.status == "not-found" and v.route == "clique"
    assert v.failures == ((((2, 3), (4, 5), (6, 7)), 1 << 8),)
