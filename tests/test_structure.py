import itertools
import random
import time
from fractions import Fraction

import pytest

from knitweave import solver
from knitweave.errors import InputError, PreconditionError
from knitweave.generators import complete_minus_matching, gen_min_degree
from knitweave.graphs import Graph, bits, mask_of, rho
from knitweave.solver import _link, max_vertex_disjoint_flow
from knitweave.structure import (
    MassedReport,
    Separation,
    enumerate_separations,
    is_p_massed,
    is_rigid,
    minimize_pair,
    pair_is_knitted,
    separations_exist,
)

from conftest import random_graph
from oracles import (
    fan_by_shortest_paths,
    first_unknittable_partition,
    massed_by_separations,
    separations_by_flows,
    small_cuts_by_walk,
)


def naive_separations(g: Graph, s: int, max_order: int):
    """All proper separations by sweeping every (A, B) pair of subsets."""
    out = set()
    full = g.full_mask
    for a in range(full + 1):
        b = None
        # b is forced up to the free choice of the separator, so sweep b too
        for bb in range(full + 1):
            if a | bb != full or s & ~a:
                continue
            if (a & bb).bit_count() > max_order:
                continue
            if not (a & ~bb) or not (bb & ~a):
                continue
            ok = True
            for v in bits(a & ~bb):
                if g.adj[v] & bb & ~a:
                    ok = False
                    break
            if ok:
                out.add((a, bb))
    return out


def test_enumeration_matches_naive_small():
    rng = random.Random(21)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 8), p=rng.uniform(0.2, 0.8))
        s = 0
        for v in range(g.n):
            if rng.random() < 0.4:
                s |= 1 << v
        max_order = rng.randint(0, g.n)
        ours = [(sep.a, sep.b) for sep in enumerate_separations(g, s, max_order)]
        assert len(set(ours)) == len(ours)  # each separation exactly once
        assert set(ours) == naive_separations(g, s, max_order)
        for sep in enumerate_separations(g, s, max_order):
            sep.validate(g, s)


def test_separation_examples():
    assert list(enumerate_separations(Graph.complete(6), 0b111, 4)) == []
    p5 = Graph.path(5)
    seps = list(enumerate_separations(p5, 1, 1))
    assert (0b00011, 0b11110) in [(sp.a, sp.b) for sp in seps]
    disc = Graph.from_edges(5, [(0, 1), (2, 3)])
    zero_order = [sp for sp in enumerate_separations(disc, 1, 0)]
    assert zero_order and all(sp.order == 0 for sp in zero_order)


def test_separations_exist_shortcut_agrees():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, rng.randint(3, 7), p=rng.uniform(0.2, 0.9))
        sverts = rng.sample(range(g.n), rng.randint(1, g.n))
        s = mask_of(sverts)
        max_order = s.bit_count() - 1
        if max_order < 0:
            continue
        fast = separations_exist(g, s, max_order)
        slow = bool(naive_separations(g, s, max_order))
        assert fast == slow


def test_separations_exist_matches_flow_sweep_on_census(census7):
    """The same answer as the sweep that runs every flow, on every graph of
    at most 7 vertices, every terminal set of 1 to 4 vertices and every
    order below its size."""
    for g in census7:
        for k in range(1, min(g.n, 4) + 1):
            for sverts in itertools.combinations(range(g.n), k):
                s = mask_of(sverts)
                for max_order in range(k):
                    want = separations_by_flows(g, s, max_order)
                    assert separations_exist(g, s, max_order) == want, (g.adj, sverts, max_order)


def test_separations_exist_matches_flow_sweep_randomized():
    rng = random.Random(20)
    answers = set()
    for _ in range(1000):
        n = rng.randint(2, 20)
        g = random_graph(rng, n, p=rng.uniform(0.1, 0.95))
        s = mask_of(rng.sample(range(n), rng.randint(1, min(n, 9))))
        for max_order in range(s.bit_count()):
            got = separations_exist(g, s, max_order)
            assert got == separations_by_flows(g, s, max_order), (g.adj, s, max_order)
            answers.add(got)
    assert answers == {True, False}


def _swept(g: Graph, ends: int, k: int) -> tuple[int, int]:
    """Run the small-cut sweep with ``k`` on ``g``; check each cut it yields
    in the graph it is yielded from and, in the reduced graph it leaves,
    every vertex it marked good; return the counts of both."""
    adj, live = list(g.adj), g.full_mask
    cuts = 0
    for separator, side in solver._small_cuts(adj, ends, live, k):
        assert separator.bit_count() < k
        assert side and not side & (ends | separator) and not (side | separator) & ~live
        assert all(not adj[x] & ~side & ~separator for x in bits(side)), (g.adj, ends, k)
        live &= ~side
        cuts += 1
    # a vertex not marked is deleted with its side, so the marked ones are
    # the non-terminals left, and they stay good as the graph is reduced
    good = live & ~ends
    for v in bits(good):
        assert max_vertex_disjoint_flow(adj, adj[v], ends, live & ~(1 << v), cap=k) == k, (g.adj, ends, k)
    return cuts, good.bit_count()


def _fan_checked(monkeypatch, ends: list) -> dict:
    """Check, at every vertex the sweep visits, the fan against successive
    shortest paths, and that a fan found gives a capped flow of k to the
    ends (``ends[0]``) in the graph it is found in."""
    fan = solver._fan
    seen = {True: 0, False: 0}

    def checked(adj, v, good, live, k):
        got = fan(adj, v, good, live, k)
        assert got == fan_by_shortest_paths(adj, v, good, live, k), (adj, v, good, live, k)
        if got:
            assert max_vertex_disjoint_flow(adj, adj[v], ends[0], live & ~(1 << v), cap=k) == k
        seen[got] += 1
        return got

    monkeypatch.setattr(solver, "_fan", checked)
    return seen


def test_small_cuts_for_any_k_on_census(census7, monkeypatch):
    rng = random.Random(40)
    ends = [0]
    seen = _fan_checked(monkeypatch, ends)
    cuts = good = 0
    for g in census7[1:]:  # the first has no vertex to be a terminal
        for k in range(1, 7):
            ends[0] = mask_of(rng.sample(range(g.n), rng.randint(1, g.n)))
            c, m = _swept(g, ends[0], k)
            cuts += c
            good += m
    assert min(cuts, good, seen[True], seen[False]) > 500, (cuts, good, seen)


def test_small_cuts_for_any_k_randomized(monkeypatch):
    rng = random.Random(41)
    ends = [0]
    seen = _fan_checked(monkeypatch, ends)
    cuts = good = 0
    for _ in range(600):
        n = rng.randint(6, 24)
        g = random_graph(rng, n, p=rng.uniform(0.1, 0.9))
        k = rng.randint(1, 6)
        ends[0] = mask_of(rng.sample(range(n), rng.randint(k, min(n, 9))))
        c, m = _swept(g, ends[0], k)
        cuts += c
        good += m
    assert min(cuts, good, seen[True], seen[False]) > 300, (cuts, good, seen)


def _sweeps_agree(g: Graph, ends: int, k: int) -> int:
    """Run the small-cut sweep and the sweep on the previous residual walk
    with ``k`` on ``g``; check that they yield the same cuts and leave the
    same rows; return the number of cuts."""
    adj, ref = list(g.adj), list(g.adj)
    got = list(solver._small_cuts(adj, ends, g.full_mask, k))
    assert got == list(small_cuts_by_walk(ref, ends, g.full_mask, k)), (g.adj, ends, k)
    assert adj == ref
    return len(got)


def test_small_cuts_match_the_residual_walk_on_census(census7):
    rng = random.Random(52)
    cuts = swept = 0
    for g in census7[1:]:  # the first has no vertex to be a terminal
        for k in range(1, 6):
            c = _sweeps_agree(g, mask_of(rng.sample(range(g.n), rng.randint(1, g.n))), k)
            cuts += c
            swept += c > 0
    assert swept > 3000, (swept, cuts)


def test_small_cuts_match_the_residual_walk_randomized():
    rng = random.Random(53)
    cuts = swept = 0
    for i in range(10000):
        n = rng.randint(4, 20)
        g = random_graph(rng, n, p=rng.uniform(0.1, 0.9) if i % 2 else rng.uniform(1.2, 4) / n)
        k = rng.randint(1, 6)
        c = _sweeps_agree(g, mask_of(rng.sample(range(n), rng.randint(1, min(n, 9)))), k)
        cuts += c
        swept += c > 0
    assert swept > 6000, (swept, cuts)


@pytest.mark.parametrize("family", ["complete-minus-matching", "circulant"])
def test_separations_exist_matches_flow_sweep_on_dense_hosts(family):
    # K_n - M is (n - 2)-connected and C_n(1..d) is 2d-connected: orders at
    # a vertex's degree cut it off, and orders below the connectivity do not;
    # on K_n - M only small n leave a vertex outside s whose degree is below |s|
    rng = random.Random(42)
    answers = set()
    for n in (5, 6, 8, 10, 13, 17, 24, 33, 40):
        for _ in range(10 if n <= 8 else 3):
            if family == "circulant":
                d = rng.randint(1, min(6, (n - 1) // 2))
                g = Graph.from_edges(n, [(u, (u + j) % n) for u in range(n) for j in range(1, d + 1)])
            else:
                g = complete_minus_matching(n, rng.randint(1, n // 2))
            s = mask_of(rng.sample(range(n), rng.randint(1, min(n - 1, 9))))
            for max_order in range(s.bit_count()):
                got = separations_exist(g, s, max_order)
                assert got == separations_by_flows(g, s, max_order), (family, n, s, max_order)
                answers.add(got)
    assert answers == {True, False}


@pytest.mark.parametrize("host", ["K32", "K33-matching"])
def test_separations_exist_runs_no_flow_on_dense_hosts(host, monkeypatch):
    # every vertex outside eight terminals sees at least seven of them, and a
    # missed one through any other neighbour outside, so the sweep's fan
    # finds 8 > 7 paths to good vertices before a flow is needed
    g = Graph.complete(32) if host == "K32" else complete_minus_matching(33, 16)
    calls = 0
    flow = solver.max_vertex_disjoint_flow

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return flow(*args, **kwargs)

    monkeypatch.setattr(solver, "max_vertex_disjoint_flow", counted)
    for seed in range(20):
        s = mask_of(random.Random(seed).sample(range(g.n), 8))
        assert separations_exist(g, s, 7) is False
    assert calls == 0


def test_is_p_massed_examples():
    rep = is_p_massed(Graph.complete(6), 0b111, 4)
    assert rep.satisfied and rep.rho_value == 12 and rep.threshold == Fraction(6)
    rep = is_p_massed(Graph.complete(6), (1 << 6) - 1, 3)
    assert not rep.satisfied and not rep.condition_i
    # a dense-enough piece hanging by a small cut violates condition (ii)
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(4, 5), (5, 6), (5, 7), (6, 7)]
    g = Graph.from_edges(8, edges)
    rep = is_p_massed(g, 0b111, 2)
    assert not rep.satisfied and rep.condition_i and not rep.condition_ii
    sep = rep.violating_separation
    assert sep is not None
    sep.validate(g, 0b111)
    bpriv = sep.b & ~sep.a
    assert 2 * rho(g, bpriv) > 2 * bpriv.bit_count()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda g: list(enumerate_separations(g, 0b1001, 2.5)), "max_order"),
        (lambda g: list(enumerate_separations(g, 0b1001, "1")), "max_order"),
        (lambda g: list(enumerate_separations(g, 0b1001, True)), "max_order"),
        (lambda g: separations_exist(g, 0b1001, 1.0), "max_order"),
        (lambda g: list(enumerate_separations(g, 9.0, 2)), "s"),
        (lambda g: separations_exist(g, 9.0, 1), "s"),
        (lambda g: is_p_massed(g, 9.0, 2), "s"),
        (lambda g: is_p_massed(g, True, 2), "s"),
        (lambda g: minimize_pair(g, 9.0, 12), "s"),
        (lambda g: minimize_pair(g, 3, 2.5), "p"),
        (lambda g: pair_is_knitted(g, 3.0), "s"),
        (lambda g: pair_is_knitted(g, True), "s"),
        (lambda g: solver.is_profile_knitted(g, 3.0, [2]), "s"),
        (lambda g: solver.is_profile_knitted(g, True, [1]), "s"),
    ],
    ids=["enumerate-float-order", "enumerate-str-order", "enumerate-bool-order", "exist-float-order",
         "enumerate-float-s", "exist-float-s", "massed-float-s", "massed-bool-s", "minimize-float-s",
         "minimize-float-p", "knitted-float-s", "knitted-bool-s", "profile-float-s", "profile-bool-s"],
)
def test_non_int_max_order_or_terminal_set_is_an_input_error(call, name):
    # the subset sweep stops only at an int bound; past a float one it would
    # list C6's separations of every order, 36 of them for s = {0, 3}
    g = Graph.cycle(6)
    with pytest.raises(InputError, match=f"^{name} must be an int"):
        call(g)
    assert len(list(enumerate_separations(g, 0b1001, 2))) == 6


@pytest.mark.parametrize("s", [1 << 10, -1, 1 << 6])
def test_terminal_set_outside_the_graph_is_an_input_error(s):
    g = Graph.path(6)
    for call in (
        lambda: separations_exist(g, s, 0),
        lambda: list(enumerate_separations(g, s, 0)),
        lambda: is_p_massed(g, s, 2),
    ):
        with pytest.raises(InputError, match="^terminal set is not a subset of the graph"):
            call()


def _massed_as_union_sweep(g: Graph, s: int, p: int) -> MassedReport:
    """is_p_massed's report, checked against the sweep over every union of
    free components, field by field; a violator must validate and have a
    dense B - A."""
    got = is_p_massed(g, s, p)
    want = massed_by_separations(g, s, p)
    for name in MassedReport._fields:
        assert getattr(got, name) == getattr(want, name), (g.adj, s, p, name)
    sep = got.violating_separation
    if sep is not None:
        sep.validate(g, s)
        bpriv = sep.b & ~sep.a
        assert sep.order < s.bit_count() and 2 * rho(g, bpriv) > p * bpriv.bit_count()
    return got


def test_is_p_massed_matches_union_sweep_on_census(census7):
    """The same report as the union sweep on every graph of at most 6
    vertices, every terminal set of 1 to 4 vertices and every p up to 8."""
    violators = 0
    for g in census7:
        if g.n > 6:
            break
        for k in range(1, min(g.n, 4) + 1):
            for sverts in itertools.combinations(range(g.n), k):
                for p in range(9):
                    rep = _massed_as_union_sweep(g, mask_of(sverts), p)
                    violators += rep.violating_separation is not None
    assert violators > 10000


def test_is_p_massed_matches_union_sweep_randomized():
    # p up to 16 on 8-13 vertices: no piece can be dense once
    # |V - s| < p - 2|s| + 4, so many of these reports skip the walk
    rng = random.Random(48)
    skipped = violators = 0
    for seed in range(400):
        n = rng.randint(8, 13)
        g = gen_min_degree(n, rng.randint(1, 4), seed)
        s = mask_of(rng.sample(range(n), rng.randint(1, 4)))
        p = rng.randint(0, 16)
        k = s.bit_count()
        skipped += n - k < p - 2 * k + 4
        violators += _massed_as_union_sweep(g, s, p).violating_separation is not None
    assert skipped > 100 and violators > 20, (skipped, violators)


@pytest.mark.parametrize("host", ["K10-with-24-pendants", "K20-plus-pendant"])
def test_is_p_massed_reads_no_unions(host):
    # 24 pendants on one vertex of K10 make 2^24 - 1 unions behind one
    # separator, none dense; K20 plus a pendant has 13 vertices outside
    # eight terminals, fewer than p - 2|s| + 4 = 18, so no piece is dense
    if host == "K20-plus-pendant":
        edges = [*itertools.combinations(range(20), 2), (0, 20)]
        g, s, p = Graph.from_edges(21, edges), mask_of(range(8)), 30
    else:
        edges = [*itertools.combinations(range(10), 2), *((9, v) for v in range(10, 34))]
        g, s, p = Graph.from_edges(34, edges), 0b1111, 4
    t0 = time.perf_counter()
    rep = is_p_massed(g, s, p)
    assert time.perf_counter() - t0 < 1
    assert rep.condition_ii and rep.violating_separation is None
    assert rep.condition_i == (host == "K10-with-24-pendants")


def test_massed_condition_i_monotone_under_outside_edges():
    rng = random.Random(31)
    for _ in range(200):
        g = random_graph(rng, rng.randint(4, 8), p=rng.uniform(0.2, 0.8))
        s = mask_of(rng.sample(range(g.n), rng.randint(1, 3)))
        p = rng.randint(0, 8)
        before = is_p_massed(g, s, p).condition_i
        outside = [v for v in range(g.n) if not (s >> v) & 1]
        missing = [
            (u, v)
            for u, v in itertools.combinations(outside, 2)
            if not g.has_edge(u, v)
        ]
        if not missing or not before:
            continue
        u, v = rng.choice(missing)
        rows = list(g.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        g2 = Graph(g.n, tuple(rows))
        assert is_p_massed(g2, s, p).condition_i


def test_separation_validate_rejects_each_fault():
    g = Graph.path(4)
    Separation(0b0011, 0b1110).validate(g, 0b0001)
    for a, b, s, fault in (
        (0b0011, 0b0110, 0, "do not cover"),
        (0b0011, 0b1100, 0, "private sides"),
        (0b0011, 0b1110, 0b1000, "not inside side a"),
        (3.0, 14, 0, "sides a and b must be int masks"),
        (True, 0b1111, 0, "sides a and b must be int masks"),
        (0b0011, None, 0, "sides a and b must be int masks"),
    ):
        with pytest.raises(InputError, match=fault):
            Separation(a, b).validate(g, s)


def test_rigidity_examples():
    g = Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (0, 1), (0, 2)])
    sep = Separation(a=0b00111, b=0b11110)
    sep.validate(g)
    assert is_rigid(g, sep)
    split = Graph.from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 4)])
    sep2 = Separation(a=0b00111, b=0b11110)
    assert not is_rigid(split, sep2)


def test_rigidity_agrees_with_direct_sweep():
    rng = random.Random(13)
    from knitweave.graphs import induced

    for _ in range(20):
        g = random_graph(rng, 7, p=rng.uniform(0.3, 0.9))
        a = mask_of(rng.sample(range(7), rng.randint(2, 5)))
        cut = a
        comps = [c for c in __import__("knitweave.graphs", fromlist=["components"]).components(g.adj, g.full_mask & ~cut)]
        if not comps:
            continue
        b = cut | comps[0]
        aa = g.full_mask & ~comps[0]
        sep = Separation(aa, b)
        sep.validate(g)
        sub, vmap = induced(g, b)
        back = {v: i for i, v in enumerate(vmap)}
        local_cut = tuple(back[v] for v in bits(aa & b))
        want = first_unknittable_partition(sub, local_cut) is None
        assert is_rigid(g, sep) == want


def test_pair_is_knitted_matches_oracle():
    rng = random.Random(41)
    seen = {True: 0, False: 0}
    for trial in range(140):
        k = trial % 7  # |S| = 0..6, odd sizes included
        n = rng.randint(max(2, k), 8)
        g = random_graph(rng, n, p=rng.uniform(0.2, 0.9))
        verts = rng.sample(range(n), k)
        ok, wit = pair_is_knitted(g, mask_of(verts))
        want = first_unknittable_partition(g, verts)
        assert (ok, wit) == (want is None, want), (g.adj, verts)
        seen[ok] += 1
    assert seen[True] and seen[False]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n", [52, 64])
def test_pair_is_knitted_on_dense_circulants(n, seed):
    # C_n(1..15) is 30-connected; each maximal matching of non-edges among
    # eight terminals is linked by short paths, which the search reads first
    g = Graph.from_edges(n, [(u, (u + d) % n) for u in range(n) for d in range(1, 16)])
    s = mask_of(random.Random(seed).sample(range(n), 8))
    t0 = time.perf_counter()
    assert pair_is_knitted(g, s) == (True, None)
    assert time.perf_counter() - t0 < 10


@pytest.mark.parametrize("host", ["K32", "K33-matching"])
def test_pair_is_knitted_links_one_matching(host, monkeypatch):
    # the non-edges inside eight terminals of K32 (none) or of K33 minus a
    # 16-edge matching (the removed edges there) form the only maximal
    # matching, so one linkage search decides all 105 pairings
    g = Graph.complete(32) if host == "K32" else complete_minus_matching(33, 16)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return _link(*args, **kwargs)

    monkeypatch.setattr("knitweave.solver._link", counted)
    rng = random.Random(5)
    sizes = set()
    for _ in range(50):
        calls.clear()
        assert pair_is_knitted(g, mask_of(rng.sample(range(g.n), 8))) == (True, None)
        assert len(calls) <= 1
        sizes.update(map(len, calls))
    assert sizes == ({0} if host == "K32" else {0, 1, 2, 3})


MINIMIZE_EDGES = None


def _massed_unknitted_fixture():
    """Ten terminals forming a clique minus a matching, plus an interior
    clique of four complete to all of them: massed at 22, never knittable
    along the matching pairing (demand five, supply four)."""
    edges = []
    for a in range(10, 14):
        for b in range(a + 1, 14):
            edges.append((a, b))
        for t in range(10):
            edges.append((a, t))
    for u in range(10):
        for v in range(u + 1, 10):
            if not (u % 2 == 0 and v == u + 1):
                edges.append((u, v))
    return Graph.from_edges(14, edges), (1 << 10) - 1


def test_minimize_pair_descends_to_fixpoint():
    g, s = _massed_unknitted_fixture()
    assert is_p_massed(g, s, 22).satisfied
    knitted, wit = pair_is_knitted(g, s)
    assert not knitted and wit == ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))
    res = minimize_pair(g, s, 22)
    assert res.trail == (("delete_edge", 0, 10),)
    assert res.s == s
    assert is_p_massed(res.graph, res.s, 22).satisfied
    assert not pair_is_knitted(res.graph, res.s)[0]
    # fixpoint: re-running leaves it alone
    again = minimize_pair(res.graph, res.s, 22)
    assert again.trail == ()


def test_minimize_pair_errors():
    with pytest.raises(PreconditionError) as err:
        minimize_pair(Graph.complete(12), 0b111, 12)
    assert err.value.clause == "knitted"
    with pytest.raises(PreconditionError) as err:
        minimize_pair(Graph.empty(6), 0b111, 10)
    assert err.value.clause == "massed"
    with pytest.raises(InputError) as err:
        minimize_pair(Graph.complete(12), 0b111, 6)  # |s| over p/2 - 1
    assert err.value.clause == "size"


def test_minimized_pair_has_dense_neighborhood():
    # after local minimization the dense fixture exposes a vertex outside the
    # terminal set whose closed neighborhood classifies, and the minimum
    # degree outside the terminals stays below the threshold
    from knitweave.certify import find_dense_neighborhood

    g, s = _massed_unknitted_fixture()
    res = minimize_pair(g, s, 22)
    hit = find_dense_neighborhood(res.graph, res.s, 22)
    assert hit is not None
    v, rep = hit
    assert not (res.s >> v) & 1
    assert rep.case in ("i", "ii", "iii")
    outside = [u for u in range(res.graph.n) if not (res.s >> u) & 1]
    delta_star = min(res.graph.degree(u) for u in outside)
    assert delta_star < 22


def test_minimize_restores_missing_terminal_edges():
    g, s = _massed_unknitted_fixture()
    # drop a non-matching terminal edge: adding it back preserves both side
    # conditions and raises the terminal edge count, so the descent takes it
    edges = [e for e in g.edges() if set(e) != {0, 2}]
    g2 = Graph.from_edges(14, edges)
    res = minimize_pair(g2, s, 22)
    assert ("add_edge", 0, 2) in res.trail
    assert res.graph.has_edge(0, 2)
    assert is_p_massed(res.graph, res.s, 22).satisfied
    assert not pair_is_knitted(res.graph, res.s)[0]
