import hashlib
import random
import time

import pytest

import knitweave.coloring as coloring
from knitweave.coloring import (
    Coloring,
    RecombinationPlan,
    build_recombination_plan,
    chromatic_number,
    coding_colors,
    dirac_neighborhood_check,
    is_contraction_critical,
    recombine,
    validate_power_set_coding,
)
from knitweave.errors import InputError, PreconditionError, ResourceError, SplitClassError
from knitweave.formats import parse_graph6
from knitweave.graphs import (
    Graph,
    _contract_rows,
    bits,
    canonical_form,
    induced,
    mask_of,
    max_clique,
    nonisomorphic_graphs,
    set_of,
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
from recomb_fixtures import build_recomb_fixture


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
            assert _verdict(is_contraction_critical(g, k)) == _verdict(critical_by_scan(g, k)), (g, k)


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
    # when the clique grown from the highest vertex down has chi(G) = k
    # vertices and misses vertex 0, G - 0 contains it and is the witness
    # without a decision: the kernel is asked about G itself and nothing else
    orders = []
    _spy_on_kernel(monkeypatch, orders)
    cases = 0
    for g in census7:
        k = chromatic_number(g)[0]
        clique = coloring._top_clique(g.adj)
        if not g.n or clique.bit_count() != k or clique & 1:
            continue
        orders.clear()
        ok, wit = coloring.is_contraction_critical(g, k)
        assert all(order == g.n for order in orders), g
        assert not ok and wit.branch_sets == tuple(1 << v for v in range(1, g.n)), g
        assert wit.quotient() == induced(g, g.full_mask & ~1)[0], g
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
            got = is_contraction_critical(g, k)
            assert got == critical_by_scan(g, k), (g, k)
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


def test_contraction_critical_takes_deletions_outside_the_coloring_clique(census7, monkeypatch):
    # G - 0 is the witness, found from G's rows with no G - v colored, no
    # chromatic number and no maximum clique searched, when the clique grown
    # from the highest vertex down has chi(G) vertices and misses 0
    calls = []

    def spy(real):
        def call(*args):
            calls.append(args)
            return real(*args)
        return call

    for name in ("chromatic_number", "max_clique", "_colorable", "_delete_rows"):
        monkeypatch.setattr(coloring, name, spy(getattr(coloring, name)))
    cases = 0
    for g in census7[1:]:
        k = chromatic_number(g)[0]
        clique = coloring._top_clique(g.adj)
        if clique.bit_count() != k or clique & 1:
            continue
        calls.clear()
        ok, wit = coloring.is_contraction_critical(g, k)
        assert len(calls) == 1 and calls[0] == (g.adj, 0) and not ok, g
        assert wit.branch_sets == tuple(1 << v for v in range(1, g.n)), g
        assert wit.quotient() == induced(g, g.full_mask & ~1)[0], g
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
    Coloring((0, 1, 0), 2).check_proper(p3, 0b101)
    for domain in (8, -1, 1 << 70, 2.5, True, "7"):
        with pytest.raises(InputError, match="domain"):
            Coloring((0, 1, 0), 2).check_proper(p3, domain)


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
    ok, wit = is_contraction_critical(Graph.complete(4), 3)
    assert not ok and wit is None


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


# --- recombination ----------------------------------------------------------


def test_coding_colors_structure():
    lists, codes, extras = coding_colors([0, 1, 2], [2, 1, 1], 16)
    validate_power_set_coding(lists)
    assert all(i in li for i, li in zip(range(3), (l for l in lists)))
    # singleton color never leaks onto another list
    for i in range(3):
        for j in range(3):
            if i != j:
                assert i not in lists[j]
    # lexicographically least subset gets the least fresh color
    assert codes[frozenset({0, 1})] == 3
    assert extras == {}
    total = set().union(*lists)
    assert len(total) == (1 << 3) - 1  # one color per nonempty class subset


def test_coding_extras_only_with_second_big_class():
    lists, codes, extras = coding_colors([0, 1], [2, 2], 16)
    assert set(extras) == {0, 1}
    lists2, codes2, extras2 = coding_colors([0, 1], [2, 1], 16)
    assert extras2 == {}


def test_coding_colors_rejects_a_palette_too_small_for_the_codes():
    # three classes need four subset codes beside their three colors and the
    # reserved one: eight colors
    with pytest.raises(PreconditionError) as err:
        coding_colors([0, 1, 2], [2, 1, 1], 5)
    assert err.value.clause == "palette"


def test_power_set_coding_validator_catches_breakage():
    from knitweave.errors import InternalConsistencyError

    with pytest.raises(InternalConsistencyError):
        validate_power_set_coding([frozenset({0}), frozenset({1})])  # no {0,1} code


def test_plan_components_and_leftovers():
    fx = build_recomb_fixture(0)
    plan = build_recombination_plan(fx.g1, fx.s, fx.u, fx.phi1, domain=fx.dom1)
    covered = 0
    for cls, comp in zip(plan.classes, plan.components):
        assert cls & ~comp == 0
        assert comp & covered == 0
        covered |= comp
    for d in plan.leftovers:
        assert d & covered == 0
        covered |= d
    assert covered == fx.dom1
    assert plan.u & mask_of(v for d in plan.leftovers for v in set_of(d)) == plan.u
    # total list colors stay within the power-set budget for the remainder
    t = plan.w.bit_count()
    assert len(set().union(*plan.lists)) <= (1 << (t - 1)) - 1


def test_plan_rejects_defective_inputs():
    fx = build_recomb_fixture(1)
    # wrong reserved color on u
    broken = list(fx.phi1.colors)
    broken[0] = 0 if broken[0] != 0 else 1
    with pytest.raises(InputError):
        build_recombination_plan(fx.g1, fx.s, fx.u, Coloring(tuple(broken), fx.r), domain=fx.dom1)
    # distinct colors on every separator-remainder vertex: no class repeats
    g = Graph.complete(4)
    phi = Coloring((0, 1, 2, 3), 5)
    with pytest.raises(PreconditionError) as err:
        build_recombination_plan(g, 0b1111, 0, phi)
    assert err.value.clause == "fewer-colors"


def test_plan_reports_split_class_as_swap():
    # two same-colored vertices with no bridge: the class sits in two
    # components of its list subgraph, which must surface as the swap finding
    g = Graph.from_edges(6, [(0, 2), (1, 2), (3, 0), (3, 1), (4, 0), (5, 1)])
    #    w w            u=2? build: s = {0,1,2}, u = {2}, w = {0,1} same color
    colors = [0, 0, 4, 2, 2, 3]
    phi = Coloring(tuple(colors), 5)
    with pytest.raises(SplitClassError) as err:
        build_recombination_plan(g, 0b111, 0b100, phi)
    assert err.value.class_index == 0
    assert len(err.value.components) == 2


def test_recombine_identity_when_colors_agree():
    fx = build_recomb_fixture(3)
    plan = build_recombination_plan(fx.g1, fx.s, fx.u, fx.phi1, domain=fx.dom1)
    final = recombine(fx.g, fx.g1, fx.g2, plan, fx.phi2prime)
    final.check_proper(fx.g)
    for v in set_of(fx.s):
        assert final.colors[v] == fx.phi2prime.colors[v]
    for v in set_of(fx.dom2):
        assert final.colors[v] == fx.phi2prime.colors[v]


def test_recombine_batch_of_fixtures():
    merged_swaps = 0
    for seed in range(120):
        fx = build_recomb_fixture(seed)
        plan = build_recombination_plan(fx.g1, fx.s, fx.u, fx.phi1, domain=fx.dom1)
        final = recombine(fx.g, fx.g1, fx.g2, plan, fx.phi2prime)
        final.check_proper(fx.g)
        assert max(final.colors) < fx.r
        for v in set_of(fx.s):
            assert final.colors[v] == fx.phi2prime.colors[v]
        if fx.family.endswith("+merge"):
            merged_swaps += 1
    assert merged_swaps > 10  # the non-identity swap branch is exercised


def test_recombine_rejects_degenerate_all_separator():
    g = Graph.complete(4)
    phi = Coloring((0, 1, 2, 3), 6)
    with pytest.raises(PreconditionError):
        build_recombination_plan(g, g.full_mask, 0, phi)


def test_recombine_rejects_wrong_group_code():
    fx = build_recomb_fixture(7)
    plan = build_recombination_plan(fx.g1, fx.s, fx.u, fx.phi1, domain=fx.dom1)
    bad = list(fx.phi2prime.colors)
    cls0 = set_of(plan.classes[0])
    wrong = plan.phi1.palette_size - 2  # the spare color: proper but uncoded
    for v in cls0:
        bad[v] = wrong
    with pytest.raises(PreconditionError) as err:
        recombine(fx.g, fx.g1, fx.g2, plan, Coloring(tuple(bad), fx.r))
    assert err.value.clause in ("group-code", "class-constant")


def _with_edges(g, add=(), drop=()):
    return Graph.from_edges(g.n, [e for e in g.edges() if e not in drop] + list(add))


def _truncated(g, m):
    """g on its first m vertices."""
    return Graph(m, tuple(r & ((1 << m) - 1) for r in g.adj[:m]))


def test_recombine_rejects_each_gluing_fault():
    # each fault raises the clause, never an IndexError from a side that
    # reaches past a graph
    for seed in range(20):
        fx = build_recomb_fixture(seed)
        plan = build_recombination_plan(fx.g1, fx.s, fx.u, fx.phi1, domain=fx.dom1)
        a = set_of(fx.dom1 & ~fx.s)[0]
        b = set_of(fx.dom2 & ~fx.s)[0]
        first = next(iter(fx.g.edges()))
        cases = [
            # an edge between the private sides, in g and in g2
            (_with_edges(fx.g, add=[(a, b)]), fx.g1, _with_edges(fx.g2, add=[(a, b)]), plan),
            # g is not g1 plus g2
            (_with_edges(fx.g, drop=[first]), fx.g1, fx.g2, plan),
            # side 1 reaches past g
            (fx.g, fx.g1, fx.g2, RecombinationPlan(**{**vars(plan), "domain": plan.domain | 1 << fx.g.n})),
            # side 1 does not fit g1, side 2 does not fit g2
            (fx.g, _truncated(fx.g1, fx.dom1.bit_length() - 1), fx.g2, plan),
            (fx.g, fx.g1, _truncated(fx.g2, fx.g.n - 1), plan),
        ]
        for g, g1, g2, pl in cases:
            with pytest.raises(PreconditionError) as err:
                recombine(g, g1, g2, pl, fx.phi2prime)
            assert err.value.clause == "gluing", (seed, str(err.value))


def test_recombine_rejects_a_side2_coloring_not_constant_on_the_plans_u():
    for seed in range(20):
        fx = build_recomb_fixture(seed)
        plan = build_recombination_plan(fx.g1, fx.s, fx.u, fx.phi1, domain=fx.dom1)
        bad = list(fx.phi2prime.colors)
        bad[set_of(plan.u)[0]] = fx.r - 1  # the reserved color, unused on side 2: still proper
        with pytest.raises(PreconditionError) as err:
            recombine(fx.g, fx.g1, fx.g2, plan, Coloring(tuple(bad), fx.r))
        assert err.value.clause == "u-monochromatic", seed
