import dataclasses
import random
import time

import pytest

import knitweave.coloring as coloring
from knitweave.coloring import (
    Coloring,
    build_recombination_plan,
    chromatic_number,
    coding_colors,
    dirac_neighborhood_check,
    is_contraction_critical,
    recombine,
    validate_power_set_coding,
)
from knitweave.errors import InputError, PreconditionError, ResourceError, SplitClassError
from knitweave.graphs import (
    Graph,
    are_isomorphic,
    bits,
    canonical_form,
    induced,
    mask_of,
    max_clique,
    nonisomorphic_graphs,
    set_of,
)

from conftest import random_graph, relabelled
from oracles import (
    chromatic_by_enumeration,
    chromatic_by_saturation,
    critical_by_scan,
    minors_by_recursion,
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
        _, _, clique = coloring._color_with_clique(g)
        assert clique.bit_count() == chi and _is_clique(g, clique), g
    assert len(census7[1:]) == 1252 and searched <= 80


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
    rng = random.Random(13)
    graphs = census7 + [random_graph(rng, 8, p=rng.uniform(0.2, 0.9)) for _ in range(100)]
    graphs += _census8_sample(rng, 300)
    # a relabelling can change which chi-clique the coloring returns
    graphs += [relabelled(g, rng) for g in census7 for _ in range(3)]
    for g in graphs:
        chi = chromatic_number(g)[0]
        for k in (chi - 1, chi, chi + 1):
            assert _verdict(is_contraction_critical(g, k)) == _verdict(critical_by_scan(g, k)), (g, k)


def test_contraction_critical_skips_deletions_outside_the_clique(census7, monkeypatch):
    # when the clique found while coloring G has chi(G) = k vertices and
    # misses vertex 0, G - 0 contains it and is the witness without a coloring
    real = coloring._color_with_clique
    orders = []

    def spy(h):
        orders.append(h.n)
        return real(h)

    monkeypatch.setattr(coloring, "_color_with_clique", spy)
    cases = 0
    for g in census7:
        k = real(g)[0]
        clique = max_clique(g)
        if not g.n or clique.bit_count() != k or clique & 1:
            continue
        orders.clear()
        ok, wit = coloring.is_contraction_critical(g, k)
        assert min(orders, default=g.n) >= g.n, g
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
    sizes = []

    def walk(g):
        for wit in real(g):
            sizes.append(len(wit.branch_sets))
            yield wit

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
    assert stopped == 6, stopped  # K2..K7, the census's contraction-critical graphs with an edge
    for k in (5, 6, 7):
        sizes.clear()
        assert is_contraction_critical(Graph.complete(k), k) == (True, None)
        assert sizes == [k - 1]


def test_contraction_critical_takes_deletions_outside_the_coloring_clique(census7, monkeypatch):
    # G - 0 is the witness, found from G's rows with no G - v built or colored,
    # when the clique returned with G's coloring has chi(G) vertices and misses 0
    calls = []

    def spy(real):
        def call(*args):
            calls.append(args)
            return real(*args)
        return call

    for name in ("chromatic_number", "_delete_vertex"):
        monkeypatch.setattr(coloring, name, spy(getattr(coloring, name)))
    cases = 0
    for g in census7[1:]:
        k, _, clique = coloring._color_with_clique(g)
        if clique.bit_count() != k or clique & 1:
            continue
        calls.clear()
        ok, wit = coloring.is_contraction_critical(g, k)
        assert not calls and not ok, g
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
            (fx.g, fx.g1, fx.g2, dataclasses.replace(plan, domain=plan.domain | 1 << fx.g.n)),
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
