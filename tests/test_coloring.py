import hashlib
import itertools
import random
import time

import pytest

import knitweave.coloring as coloring
from knitweave.coloring import (
    Coloring,
    chromatic_number,
    dirac_neighborhood_check,
    is_contraction_critical,
)
from knitweave.errors import InputError, ResourceError
from knitweave.formats import parse_graph6
from knitweave.graphs import (
    Graph,
    _contract_rows,
    bits,
    canonical_form,
    max_clique,
    nonisomorphic_graphs,
)

from conftest import mycielskian, random_graph, relabelled
from oracles import (
    are_isomorphic,
    chromatic_by_enumeration,
    chromatic_by_saturation,
    critical_by_scan,
    minors_by_recursion,
    saturate_by_scan,
)


def test_chromatic_examples():
    assert chromatic_number(Graph.complete(7))[0] == 7
    assert chromatic_number(Graph.cycle(5))[0] == 3
    assert chromatic_number(Graph.petersen())[0] == 3
    chi, col = chromatic_number(Graph.petersen())
    col.check_proper(Graph.petersen())


def test_chromatic_vs_enumeration():
    rng = random.Random(17)
    for _ in range(30):
        g = random_graph(rng, rng.randint(0, 6), p=rng.uniform(0.1, 0.9))
        chi, col = chromatic_number(g)
        assert chi == chromatic_by_enumeration(g)
        if g.n:
            col.check_proper(g)
            assert len(col.colors_used(g.full_mask)) == chi


def test_chromatic_matches_saturation_reference(census7):
    rng = random.Random(23)
    graphs = census7 + [relabelled(g, rng) for g in census7 for _ in range(2)]
    graphs += [random_graph(rng, rng.randint(0, 12), p=rng.uniform(0.1, 0.9)) for _ in range(1000)]
    for g in graphs:
        assert chromatic_number(g) == chromatic_by_saturation(g), g


def _is_clique(g, mask):
    return all((g.adj[v] | 1 << v) & mask == mask for v in bits(mask))


def test_chromatic_number_skips_max_clique_when_a_greedy_clique_fills_the_classes(
    census7, monkeypatch
):
    # the clique built from the highest vertex down proves the greedy coloring
    # optimal whenever it has as many vertices as the coloring has classes
    real = coloring.max_clique
    calls = []

    def spy(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(coloring, "max_clique", spy)
    searched = 0
    for g in census7[1:]:
        calls.clear()
        chi, col = chromatic_number(g)
        assert (chi, col) == chromatic_by_saturation(g), g
        if calls:
            searched += 1
            continue
        clique = coloring._top_clique(g.adj)
        assert clique.bit_count() == chi and _is_clique(g, clique), g
    assert len(census7[1:]) == 1252 and searched <= 80


def _check_classes(g, j, classes):
    # j disjoint classes covering every vertex, a proper coloring of g
    assert len(classes) == j, (g, j)
    colors, covered = [None] * g.n, 0
    for c, cls in enumerate(classes):
        assert not cls & covered, (g, j)
        covered |= cls
        for v in bits(cls):
            colors[v] = c
    assert covered == g.full_mask, (g, j)
    Coloring(tuple(colors), j).check_proper(g)


def test_colorable_decides_every_palette_as_enumeration_does(census7):
    # the kernel answers None exactly when chi > j, else j classes that
    # color g properly; on each graph every j from 0 to n is asked
    rng = random.Random(41)
    graphs = census7 + [random_graph(rng, rng.randint(0, 9), p=rng.uniform(0.1, 0.9)) for _ in range(500)]
    searched = 0
    for g in graphs:
        chi = chromatic_by_enumeration(g)
        for j in range(g.n + 1):
            classes = coloring._colorable(g.adj, j)
            assert (classes is None) == (chi > j), (g, j)
            if classes is not None:
                _check_classes(g, j, classes)
            # the greedy classes and the grown clique leave j open
            searched += len(coloring._first_fit(g.adj)) > j >= coloring._top_clique(g.adj).bit_count()
    assert searched >= 100, searched


def test_saturate_matches_the_scan_reference(census7):
    # the buckets pick the vertex the scan picks, so the classes (or None)
    # are the reference's for every palette from the seed clique's size up,
    # seeded by a maximum clique and by the clique grown from the top
    rng = random.Random(47)
    grotzsch = mycielskian(Graph.cycle(5))
    cases = [(g, range(g.n + 1)) for g in census7 + _census8_sample(rng, 300)]
    cases += [(grotzsch, (4, 5)), (mycielskian(grotzsch), (4, 5))]
    refuted = 0
    for g, palettes in cases:
        for seed in (max_clique(g), coloring._top_clique(g.adj)):
            for j in palettes:
                if j >= seed.bit_count():
                    got = coloring._saturate(g.adj, j, seed)
                    assert got == saturate_by_scan(g.adj, j, seed), (g, j, seed)
                    refuted += got is None
    assert refuted > 100, refuted


def test_mycielski_chromatic_numbers_within_budget():
    # refuting 4 colors on the 23-vertex graph and 5 on the 47-vertex one
    # (chi 5 and 6, no triangle) is the whole of each search: about 1.5 ms
    # and 1.0-1.1 s on one core of a 2-core x86_64 VM (5 ms and 5-6 s when
    # each node scanned every uncolored vertex)
    g23 = mycielskian(mycielskian(Graph.cycle(5)))
    for g, want, budget in ((g23, 5, 0.05), (mycielskian(g23), 6, 4.0)):
        t0 = time.perf_counter()
        chi, col = chromatic_number(g)
        assert time.perf_counter() - t0 < budget, (g.n, budget)
        assert chi == want and len(col.colors_used(g.full_mask)) == want
        col.check_proper(g)


def test_complete_graph_chromatic():
    for n in range(10):
        assert chromatic_number(Graph.complete(n))[0] == n


def test_contraction_critical_complete():
    for k in range(1, 6):
        ok, wit = is_contraction_critical(Graph.complete(k), k)
        assert ok and wit is None


def test_contraction_critical_envelope():
    for k in (8, 9):
        t0 = time.perf_counter()
        assert is_contraction_critical(Graph.complete(k), k) == (True, None)
        assert time.perf_counter() - t0 < 5.0
    with pytest.raises(ResourceError):
        is_contraction_critical(Graph.complete(10), 10)


def test_contraction_critical_matches_minor_oracle():
    for n in range(6):
        for g in nonisomorphic_graphs(n):
            chi = chromatic_by_enumeration(g)
            worst_minor = max(
                (chromatic_by_enumeration(Graph(key[0], key[1])) for key in minors_by_recursion(g)),
                default=-1,  # K0 has no proper minor
            )
            for k in (chi - 1, chi, chi + 1):
                ok, wit = is_contraction_critical(g, k)
                assert ok == (chi == k and worst_minor < k), (g, k)
                if wit is not None:
                    wit.validate()
                    assert chromatic_number(wit.quotient())[0] >= k


def test_contraction_critical_witnesses_pass_their_validator(census7):
    # is_contraction_critical does not validate its witnesses: each one, on
    # the census at k = chi and on random graphs of up to 9 vertices, must
    # pass and have a quotient that needs k colors
    rng = random.Random(29)
    graphs = census7 + [random_graph(rng, rng.randint(6, 9), p=rng.uniform(0.3, 0.9)) for _ in range(150)]
    witnesses = 0
    for g in graphs:
        k = chromatic_number(g)[0]
        ok, wit = is_contraction_critical(g, k)
        if wit is not None:
            wit.validate()
            assert chromatic_number(wit.quotient())[0] >= k, g
            witnesses += 1
    assert witnesses > 1000


def _verdict(result):
    ok, wit = result
    return ok, wit and (wit.branch_sets, wit.model_edges)


def _clique_rule_fires(g, k):
    # a proper K_k minor answers when the clique grown from the highest
    # vertex down has k vertices and leaves one out
    return 0 < k < g.n and coloring._top_clique(g.adj).bit_count() >= k


def _assert_clique_model(g, k, result):
    # the answer is no, with the K_k model on the grown clique's k highest
    # vertices as singleton branch sets
    top = list(bits(coloring._top_clique(g.adj)))[-k:]
    ok, wit = result
    assert not ok and wit.branch_sets == tuple(1 << v for v in top), (g, k)
    wit.validate()
    assert wit.quotient() == Graph.complete(k), (g, k)


def _assert_matches_scan(g, k, result):
    # the scan's verdict always, and its witness too unless the clique rule
    # answers
    want = critical_by_scan(g, k)
    assert result[0] == want[0], (g, k)
    if _clique_rule_fires(g, k):
        _assert_clique_model(g, k, result)
    else:
        assert result == want, (g, k)


def _census8_sample(rng, count):
    """``count`` distinct members of ``nonisomorphic_graphs(8)``, found without
    building the census: a census graph is labelled by its canonical rows,
    vertex v's higher neighbors being row 7 - v."""
    out = {}
    while len(out) < count:
        _, rows = canonical_form(random_graph(rng, 8, p=rng.uniform(0.1, 0.9)))
        edges = [(v, v + 1 + b) for v in range(8) for b in bits(rows[7 - v])]
        out.setdefault(Graph.from_edges(8, edges), None)
    return list(out)


def test_contraction_critical_matches_scan(census7):
    # the scan walks one quotient per isomorphism class, the check one per
    # partition; the first witness must be the same
    rng = random.Random(13)
    graphs = census7 + [random_graph(rng, 8, p=rng.uniform(0.2, 0.9)) for _ in range(100)]
    graphs += _census8_sample(rng, 300)
    # a relabelling can change which chi-clique the coloring returns
    graphs += [relabelled(g, rng) for g in census7 for _ in range(3)]
    for g in graphs:
        chi = chromatic_number(g)[0]
        for k in (chi - 1, chi, chi + 1):
            _assert_matches_scan(g, k, is_contraction_critical(g, k))


def _spy_on_kernel(monkeypatch, orders):
    # record the vertex count of every graph the coloring kernel is asked about
    for name in ("_colorable", "_saturate"):
        def call(rows, *args, real=getattr(coloring, name)):
            orders.append(len(rows))
            return real(rows, *args)
        monkeypatch.setattr(coloring, name, call)


def test_edge_deletion_and_contraction_need_k_colors_together(census7):
    # at k = chi(G), G - uw is (k - 1)-colorable exactly when G/uw is, which
    # lets the check decide each G - uw on the rows of G/uw
    both = 0
    for g in census7:
        k = chromatic_number(g)[0]
        for u, w in g.edges():
            rows = list(g.adj)
            rows[u] ^= 1 << w
            rows[w] ^= 1 << u
            deleted = coloring._colorable(rows, k - 1) is None
            assert deleted == (coloring._colorable(_contract_rows(g.adj, u, w), k - 1) is None), (g, u, w)
            both += deleted
    assert both > 100, both


def test_contraction_walk_decides_no_quotient_on_n_minus_1_vertices(census7, monkeypatch):
    # the walk's first level is the G/uw, settled with the G - uw: the kernel
    # is asked about none of its quotients, which only lead to the next level
    real = coloring.contraction_quotients
    first, asked = [], []

    def walk(g):
        for branch_sets, rows in real(g):
            if len(rows) == g.n - 1:
                first.append(rows)
            yield branch_sets, rows

    monkeypatch.setattr(coloring, "contraction_quotients", walk)
    for name in ("_colorable", "_saturate"):
        def call(rows, *args, real=getattr(coloring, name)):
            asked.append(rows)
            return real(rows, *args)
        monkeypatch.setattr(coloring, name, call)
    graphs = census7 + [parse_graph6(g6) for _, strings in WALKS_AT_N9 for g6 in strings]
    walked = 0
    for g in graphs:
        k = chromatic_number(g)[0]
        first.clear()
        asked.clear()
        is_contraction_critical(g, k)
        # the first level's rows are held in ``first``, so no other tuple
        # can share an identity with one of them
        assert not {id(rows) for rows in asked} & {id(rows) for rows in first}, g
        walked += bool(first)
    assert walked > 46, walked


def test_vertex_deletion_witness_spares_the_refutation_of_g(census7, monkeypatch):
    # below a k-clique, a G - v that needs k colors shows that G does too:
    # the search never refutes k - 1 colors on G's own rows
    calls = []

    def spy(rows, j, clique, real=coloring._saturate):
        calls.append((rows, j))
        return real(rows, j, clique)

    monkeypatch.setattr(coloring, "_saturate", spy)
    cases = 0
    for g in census7:
        k = chromatic_number(g)[0]
        if coloring._top_clique(g.adj).bit_count() == k:
            continue
        calls.clear()
        ok, wit = is_contraction_critical(g, k)
        # a G - v: n - 1 branch sets, each one vertex
        if wit is not None and len(wit.branch_sets) == g.n - 1 and all(
            b.bit_count() == 1 for b in wit.branch_sets
        ):
            assert (g.adj, k - 1) not in calls, g
            cases += 1
    assert cases >= 30, cases


def test_contraction_critical_skips_deletions_outside_the_clique(census7, monkeypatch):
    # when the clique grown from the highest vertex down has at least k
    # vertices and misses one, its K_k model is the witness without a
    # decision: the kernel is asked about nothing
    orders = []
    _spy_on_kernel(monkeypatch, orders)
    cases = 0
    for g in census7:
        chi = chromatic_number(g)[0]
        for k in (chi - 1, chi, chi + 1):
            if not _clique_rule_fires(g, k):
                continue
            orders.clear()
            _assert_clique_model(g, k, coloring.is_contraction_critical(g, k))
            assert orders == [], (g, k)
            cases += 1
    assert cases > 1000


def test_contraction_walk_stops_below_k_vertices(census7, monkeypatch):
    # a quotient of fewer than k vertices needs fewer than k colors and the
    # levels fall in order, so the walk ends at the first such quotient; the
    # verdicts and witnesses stay those of the full scan
    # (test_contraction_critical_matches_scan)
    real = coloring.contraction_quotients
    sizes, walks = [], []

    def walk(g):
        walks.append(g)
        for branch_sets, rows in real(g):
            sizes.append(len(branch_sets))
            yield branch_sets, rows

    monkeypatch.setattr(coloring, "contraction_quotients", walk)
    stopped = 0
    for g in census7:
        chi = chromatic_number(g)[0]
        for k in (chi - 1, chi, chi + 1):
            sizes.clear()
            _assert_matches_scan(g, k, is_contraction_critical(g, k))
            assert all(size >= k for size in sizes[:-1]), (g, k)
            stopped += bool(sizes) and sizes[-1] < k
    # the census's contraction-critical graphs are K0..K7, which answer
    # before the walk; every other walk ends at its witness
    assert stopped == 0, stopped
    orders = []
    _spy_on_kernel(monkeypatch, orders)
    for k in (5, 6, 7):
        walks.clear()
        orders.clear()
        assert is_contraction_critical(Graph.complete(k), k) == (True, None)
        # no quotient built, and only G and its k vertex deletions asked about
        assert walks == [] and orders == [k - 1] * k, (k, orders)


# The 46 graphs of the n = 9 census whose check at k = chi(G) reaches the
# contraction walk, by k (every other one is answered by its chromatic
# number or a deletion), found by running the check with a spy on the walk
# over graphs._extensions of every n = 8 census graph
WALKS_AT_N9 = [
    (3, ("HqGOOGB",)),
    (4, ("HKh]@cN", "H[V@oKF", "H{d@?K^", "H}P@OkN", "HhaROkN", "HqJ_okN", "H}G_OK^", "H]h_OK^",
        "HlR?PK^", "HraAPK^", "H]`_PK^", "H]`@PK^", "HtP?OK~", "H{WOOK^", "H{OOPK^", "HsXOOK~",
        "HkGSQK~", "HsHOQK~", "HsGQQK~", "Hk_a_[~", "Hq`@_[~")),
    (5, ("H}lah[^", "H{dbG{^", "H~ooW[N", "H~`oW[N", "H}hPW{^", "H}opW{^", "H{orW{^", "H{QrW{^",
        "H{`rW{^", "HvwOY{~", "HrwSY{~", "HrYSY{~", "HqYTY{~", "HqJTY{~", "HsQrY{~", "Hs`rY{~",
        "HkhOX~~", "HqJOX~~", "HqGO^~~", "H{O_w~~", "HsOax~~")),
    (6, ("H{WW~~~", "HsXX~~~")),
    (7, ("HqN~~~~",)),
]
# sha256 of repr([(graph6, k, verdict, witness branch sets and model edges)])
# as the walk that kept one quotient per isomorphism class gave it
WALKS_AT_N9_DIGEST = "5dbbf52d10d8afda38ef916eb31a995003f4f718a295fdeae29b3500f2157f40"


def test_contraction_walks_at_n9_within_budget(monkeypatch):
    # the walk lists every partition, canonicalises no quotient and builds
    # no Graph; the verdicts and witnesses are still those of the
    # class-keyed walk
    walked, forms, built = [], [], []
    real = coloring.contraction_quotients
    monkeypatch.setattr(coloring, "contraction_quotients", lambda g: walked.append(g) or real(g))
    monkeypatch.setattr("knitweave.graphs.canonical_form", lambda g: forms.append(g))
    real_init = Graph.__init__

    def init(self, n, adj):
        built.append(n)
        real_init(self, n, adj)

    monkeypatch.setattr("knitweave.graphs.Graph.__init__", init)
    cases = [(g6, k) for k, strings in WALKS_AT_N9 for g6 in strings]
    got, inside = [], 0
    t0 = time.perf_counter()
    for g6, k in cases:
        g = parse_graph6(g6)
        before = len(built)
        got.append((g6, k) + _verdict(is_contraction_critical(g, k)))
        inside += len(built) - before
    assert time.perf_counter() - t0 < 1.0
    assert len(walked) == len(cases) == 46 and forms == [] and inside == 0
    assert len(built) == 46  # one per parse_graph6
    assert hashlib.sha256(repr(got).encode()).hexdigest() == WALKS_AT_N9_DIGEST
    monkeypatch.undo()
    for g6, k, *verdict in got:
        g = parse_graph6(g6)
        assert chromatic_number(g)[0] == k
        assert tuple(verdict) == _verdict(critical_by_scan(g, k)), g6


def _clique_model_by_brute_force(g, k):
    """The vertices of the K_k model that answers the check, or None: when
    0 < k < n, the first k vertices taken scanning down from the highest,
    each taken when adjacent to all taken before, if some k-clique contains
    them (the scan ends on a maximal clique, so one does exactly when it
    took k)."""
    if not 0 < k < g.n:
        return None
    taken = []
    for v in reversed(range(g.n)):
        if all(g.has_edge(v, u) for u in taken):
            taken.append(v)
    head = set(taken[:k])
    for c in itertools.combinations(range(g.n), k):
        if head <= set(c) and all(g.has_edge(u, w) for u, w in itertools.combinations(c, 2)):
            return c
    return None


def test_contraction_critical_clique_rule_matches_brute_force(census7, monkeypatch):
    # a K_k model answers, with no greedy pass begun, exactly where a
    # brute-force clique search finds one on the vertices the grown clique
    # takes first; every "no" witness is a proper minor that needs k colors;
    # and under relabelling the verdict stays and the witness validates on
    # the relabelled host
    passes = []

    def first_fit(rows, real=coloring._first_fit):
        passes.append(rows)
        return real(rows)

    monkeypatch.setattr(coloring, "_first_fit", first_fit)
    rng = random.Random(56)
    graphs = census7 + [random_graph(rng, rng.randint(8, 9), p=rng.uniform(0.2, 0.9)) for _ in range(120)]
    fired = searched = 0  # witnesses of the K_k rule, and of the search
    for g in graphs:
        chi = chromatic_number(g)[0]
        h = relabelled(g, rng)
        for k in (chi - 1, chi, chi + 1):
            passes.clear()
            ok, wit = is_contraction_critical(g, k)
            model = _clique_model_by_brute_force(g, k)
            assert (passes == []) == (model is not None), (g, k)
            if model is not None:
                assert not ok and wit.branch_sets == tuple(1 << v for v in model), (g, k)
                assert wit.model_edges == tuple(itertools.combinations(range(k), 2)), (g, k)
                fired += 1
            if wit is not None:
                wit.validate()
                q = wit.quotient()
                assert q.n < g.n or q.edge_count() < g.edge_count(), (g, k)
                assert chromatic_number(q)[0] >= k, (g, k)
                searched += model is None
            ok_h, wit_h = is_contraction_critical(h, k)
            assert ok_h == ok, (g, h, k)
            if wit_h is not None:
                assert wit_h.host == h
                wit_h.validate()
    assert fired > 2000 and searched > 50, (fired, searched)


def test_contraction_critical_takes_deletions_outside_the_coloring_clique(census7, monkeypatch):
    # the K_k model is the witness with no coloring, no chromatic number, no
    # maximum clique and no G - v built, when the clique grown from the
    # highest vertex down has at least k vertices and misses one
    calls = []

    def spy(real):
        def call(*args):
            calls.append(args)
            return real(*args)
        return call

    names = ("chromatic_number", "max_clique", "_first_fit", "_saturate", "_colorable", "_delete_rows")
    for name in names:
        monkeypatch.setattr(coloring, name, spy(getattr(coloring, name)))
    cases = 0
    for g in census7[1:]:
        chi = chromatic_number(g)[0]
        calls.clear()
        for k in (chi - 1, chi, chi + 1):
            if not _clique_rule_fires(g, k):
                continue
            _assert_clique_model(g, k, coloring.is_contraction_critical(g, k))
            assert calls == [], (g, k)
            cases += 1
    assert cases > 1000


def test_contraction_critical_rejects_a_k_that_is_not_an_int():
    for g, k in ((Graph.cycle(5), 3.0), (Graph.complete(1), True), (Graph.cycle(5), "3")):
        with pytest.raises(InputError, match="k is not an int"):
            is_contraction_critical(g, k)
    assert is_contraction_critical(Graph.cycle(5), 3)[0] is False


def test_check_proper_requires_int_colors_and_palette():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    Coloring((0, 1, 0), 2).check_proper(p3)
    for colors in ((0, 1.5, 0), (0, True, 0), (0.0, 1, 0)):
        with pytest.raises(InputError, match="outside the palette"):
            Coloring(colors, 2).check_proper(p3)
    for colors in (None, 5):
        with pytest.raises(InputError, match="the colors must be a sequence"):
            Coloring(colors, 2).check_proper(p3)
    for palette in (2.0, True, "2"):
        with pytest.raises(InputError, match="palette size is not an int"):
            Coloring((0, 1, 0), palette).check_proper(p3)


def test_contraction_critical_c5_pins_deep_minors():
    ok, wit = is_contraction_critical(Graph.cycle(5), 3)
    assert not ok
    wit.validate()
    q = wit.quotient()
    assert chromatic_number(q)[0] >= 3
    assert are_isomorphic(q, Graph.complete(3))


def test_contraction_critical_witness_order():
    # vertex deletions come first: K2 plus an isolated vertex keeps K2
    ok, wit = is_contraction_critical(Graph.from_edges(3, [(0, 1)]), 2)
    assert not ok and wit.branch_sets == (1, 2) and wit.model_edges == ((0, 1),)
    # then edge deletions: every G - v of this graph is 3-colorable, G - 14 is not
    edges = [(0, 2), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (1, 6), (2, 4), (2, 6),
             (3, 5), (3, 6), (4, 6)]
    ok, wit = is_contraction_critical(Graph.from_edges(7, edges), 4)
    assert not ok
    assert wit.branch_sets == tuple(1 << v for v in range(7))
    assert list(wit.model_edges) == [e for e in edges if e != (1, 4)]


def test_contraction_critical_wrong_chi():
    # chi(C5) = 3, and C5 has no K4 minor
    assert is_contraction_critical(Graph.cycle(5), 4) == (False, None)
    # K4 - 0 is a proper K3 minor of K4
    ok, wit = is_contraction_critical(Graph.complete(4), 3)
    assert not ok and wit.branch_sets == (2, 4, 8) and wit.model_edges == ((0, 1), (0, 2), (1, 2))


def test_dirac_examples():
    assert dirac_neighborhood_check(Graph.complete(5), 5) == []
    assert dirac_neighborhood_check(Graph.cycle(5), 3) == [0, 1, 2, 3, 4]
    assert dirac_neighborhood_check(Graph.petersen(), 3) == list(range(10))


def test_dirac_empty_for_verified_critical():
    for k in range(2, 6):
        assert dirac_neighborhood_check(Graph.complete(k), k) == []


def test_dirac_rejects_a_k_that_is_not_an_int():
    for k in (None, 2.5, True, "3"):
        with pytest.raises(InputError, match="k is not an int"):
            dirac_neighborhood_check(Graph.cycle(5), k)

