import random

import pytest

from knitweave import solver
from knitweave.certify import (
    common_neighbor_certificate,
    dense_conditions,
    easy_connectivity_threshold,
    find_dense_neighborhood,
    Knitted1Verdict,
    greedy_link,
    knitted1_check,
    mader_threshold,
    main_theorem_table,
)
from knitweave.errors import InputError
from knitweave.generators import complete_minus_matching, gen_universal_vertex
from knitweave.graphs import Graph, mask_of
from knitweave.solver import TerminalSpec, disjoint_paths, least_unknitted, pairs_spec

from conftest import dense_universal_vertex_family



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


@pytest.mark.parametrize("call", [
    lambda: main_theorem_table(17.5),
    lambda: main_theorem_table(True),
    lambda: mader_threshold(2.5, 4),
    lambda: mader_threshold(3, 4.0),
    lambda: easy_connectivity_threshold(6.0),
    lambda: find_dense_neighborhood(Graph.complete(6), 1.0, 4),
    lambda: find_dense_neighborhood(Graph.complete(6), True, 4),
])
def test_thresholds_reject_non_int_arguments(call):
    with pytest.raises(InputError, match="must be an int"):
        call()


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


@pytest.mark.parametrize("k", [-1, 0, 2.0, True, "3", None])
def test_certificates_take_a_positive_int_k(k):
    with pytest.raises(InputError, match="positive int"):
        common_neighbor_certificate(Graph.cycle(8), k)


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
    with pytest.raises(InputError, match="vertex 99"):
        find_dense_neighborhood(Graph.complete(5), 1 << 99, 4)


@pytest.mark.parametrize("p", [-2, 2.5, True, "4", None])
def test_dense_threshold_must_be_a_nonnegative_int(p):
    for call in (lambda: dense_conditions(Graph.complete(5), p),
                 lambda: find_dense_neighborhood(Graph.complete(5), 0, p),
                 lambda: find_dense_neighborhood(Graph.complete(5), 0b11111, p)):
        with pytest.raises(InputError, match="nonnegative integer"):
            call()


def _complete_multipartite(*sizes: int) -> Graph:
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    n = len(part)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]])


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
    # its first candidate has 16 vertices, so it is sampled
    g, _ = gen_universal_vertex(16, 9, 29)
    for samples in (2.5, -5, True):
        with pytest.raises(InputError, match="samples must be a nonnegative int"):
            knitted1_check(g, 18, samples=samples, seed=0)
    for seed in (None, "1", 1.0, True):
        with pytest.raises(InputError, match="seed must be an int"):
            knitted1_check(g, 18, samples=2, seed=seed)


def test_knitted1_certifies_universal_vertex_graphs():
    rng = random.Random(2)
    for seed in range(5):
        g, z = gen_universal_vertex(rng.randint(13, 16), 9, seed * 31 + 7)
        if dense_conditions(g, 18).case == "none":
            continue
        v = knitted1_check(g, 18, samples=15, seed=seed)
        assert v.status == "certified"


def test_knitted1_not_found_without_a_failing_sample():
    # no certificate covers this host and no candidate is small enough to
    # clear exhaustively, so 5 passing samples on each of its 30 candidates
    # answer "not-found"
    g = gen_universal_vertex(30, 16, 8)[0]
    v = knitted1_check(g, 30, 5, 8)
    assert (v.status, v.route, v.candidate, v.samples_run, v.failures) == ("not-found", "", 0, 150, ())


def test_knitted1_reports_a_failed_sample_and_certifies_a_smaller_candidate(monkeypatch):
    # an acceptance-08 graph that no certificate covers; its universal
    # vertex's closed neighbourhood is the whole graph, the first candidate,
    # which has 16 vertices and so is only searched for counterexamples
    g, _ = gen_universal_vertex(16, 9, 29)
    calls = []
    link = solver._link

    def first_call_fails(sub, pairs, blocked):
        calls.append((sub.n, pairs, blocked))
        return None if len(calls) == 1 else link(sub, pairs, blocked)

    monkeypatch.setattr("knitweave.solver._link", first_call_fails)
    v = knitted1_check(g, 18, samples=20, seed=29)
    n, linked, blocked = calls[0]
    assert n == g.n
    assert v.status == "certified" and v.route == "exhaustive"
    assert v.candidate.bit_count() <= 12 and v.candidate != g.full_mask
    # the whole graph's local labels are host labels; every drawn vertex is
    # blocked, and the one not in a pair is the forbidden one
    ((pairs, forbidden),) = v.failures
    ends = mask_of(x for pr in linked for x in pr)
    assert tuple(tuple(sorted(pr)) for pr in pairs) == linked and forbidden == blocked & ~ends
    monkeypatch.undo()
    # unpatched, the whole graph runs all 20 of its samples
    assert knitted1_check(g, 18, samples=20, seed=29) == Knitted1Verdict(
        "certified", "exhaustive", v.candidate, v.samples_run + 19, ()
    )


def test_knitted1_sweep_failure_in_host_labels(monkeypatch):
    # with no samples, the first candidate the exhaustive sweep runs on is
    # the 12-vertex one that it certifies unpatched; its local labels 0..6
    # stand for the host's 0, 2, 3, 4, 6, 7, 8
    g, _ = gen_universal_vertex(16, 9, 29)
    assert knitted1_check(g, 18, samples=0, seed=0) == Knitted1Verdict("certified", "exhaustive", 0x5FDD, 0, ())
    calls = []

    def first_sweep_fails(sub, profile):
        calls.append(sub.n)
        return ((0, 1), (2, 3), (4, 5), (6,)) if len(calls) == 1 else least_unknitted(sub, profile)

    monkeypatch.setattr("knitweave.certify.least_unknitted", first_sweep_fails)
    v = knitted1_check(g, 18, samples=0, seed=0)
    assert calls[0] == 12
    assert v.failures[0] == (((0, 2), (3, 4), (6, 7)), 1 << 8)


@pytest.mark.parametrize("g, p, route", [
    (Graph.complete(16), 18, "clique"),
    (_complete_multipartite(1, 3, 3, 3, 3, 3), 18, "common-neighbor"),
    (_complete_multipartite(1, 4, 4, 4, 4, 4, 4), 30, "common-neighbor"),
])
def test_knitted1_certificate_routes_run_no_linkage(monkeypatch, g, p, route):
    # both routes are proofs, so nothing is linked or swept to confirm them
    def spy(*args):
        raise AssertionError("a certificate route ran a linkage check")

    monkeypatch.setattr("knitweave.solver._link", spy)
    monkeypatch.setattr("knitweave.solver.is_profile_knitted", spy)
    v = knitted1_check(g, p, samples=20, seed=1)
    assert (v.status, v.route, v.samples_run, v.failures) == ("certified", route, 0, ())


# knitted1_check(g, 18, samples=20, seed=seed) on the acceptance-08 family
# while passing samples could still answer "yes": the clique route's
# candidate per seed, and None for seed 29, the one "sampled-pass"
SAMPLED_ERA_08 = {
    7: 0xf7, 8: 0xf7, 13: 0xbf, 18: 0x1db, 19: 0x3b03, 29: None, 33: 0x7621, 37: 0x35b,
    38: 0x891d, 41: 0x657, 46: 0x3f1, 55: 0xfd, 56: 0xcb9, 58: 0xfb, 65: 0xdf, 69: 0xfd,
    76: 0x5d9, 82: 0x69d, 86: 0x7f, 87: 0x71d, 103: 0xea9, 106: 0xfb, 112: 0x675, 125: 0xbf,
    126: 0x27b, 138: 0x1eb, 148: 0xb2b, 149: 0x637, 156: 0x2a87, 175: 0x28e5, 176: 0xfb,
    180: 0x58f, 182: 0xf0d, 198: 0x7a9, 201: 0x7f, 220: 0x6551, 222: 0x170b, 233: 0x575,
    241: 0xdf, 249: 0x1bd, 253: 0x2af, 267: 0x35b, 269: 0xfd, 270: 0x7f, 271: 0xdf, 277: 0x3cd,
    278: 0xef, 284: 0xef, 293: 0x604f, 296: 0x70e1, 307: 0xbf, 314: 0x7f, 318: 0x1eb, 319: 0xdf,
    329: 0x35b, 335: 0x30ad, 342: 0x1f5, 346: 0x4d0d, 355: 0x8d7, 356: 0x1af, 362: 0xef,
    371: 0x1f5, 376: 0x26f, 385: 0xdf, 392: 0xf61, 397: 0xfb, 399: 0x16c9, 411: 0xe8d,
    413: 0xef, 417: 0x1783, 419: 0xfb, 422: 0xfd, 424: 0x5aa1, 425: 0x32f, 429: 0xad3,
    462: 0xfd, 463: 0x3a7, 465: 0x183d, 466: 0x1cf, 468: 0xad9, 473: 0x1f11, 483: 0xfd,
    510: 0xfb, 519: 0x1bb, 525: 0xfd, 541: 0x1e7, 549: 0x8db, 560: 0x3b5, 567: 0x7c3, 568: 0xfd,
    569: 0x5b9, 573: 0x7c5, 579: 0x1eb, 584: 0xfb, 585: 0xfb, 590: 0xef, 601: 0x8af, 608: 0x27d,
    612: 0x2af, 619: 0xdf,
}


def test_knitted1_differs_from_the_sampled_era_only_where_it_sampled():
    family = dense_universal_vertex_family()
    assert [seed for seed, _ in family] == list(SAMPLED_ERA_08)
    for seed, g in family:
        v = knitted1_check(g, 18, samples=20, seed=seed)
        before = SAMPLED_ERA_08[seed]
        if before is None:
            assert v.status == "not-found" or (v.status, v.route) == ("certified", "exhaustive")
        else:
            assert (v.status, v.route, v.candidate) == ("certified", "clique", before)
