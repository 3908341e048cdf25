import hashlib
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from knitweave.coloring import chromatic_number, is_contraction_critical
from knitweave.errors import InputError
from knitweave.generators import complete_minus_matching
from knitweave.graphs import (
    MAX_VERTICES,
    Graph,
    MinorWitness,
    _contract_rows,
    _max_rows,
    _packs_twins,
    _read_along,
    _tie_tree,
    bits,
    canonical_form,
    components,
    contraction_quotients,
    independence_number,
    induced,
    is_connected,
    mask_of,
    max_clique,
    neighbors_closed,
    nonisomorphic_graphs,
    reachable,
    rho,
    set_of,
    shortest_path,
    twin_classes,
)

from conftest import random_graph, relabelled
from oracles import (
    _canon_small,
    are_isomorphic,
    canonical_by_permutations,
    census_by_bounded_search,
    census_by_dedup,
    clique_by_branching,
    clique_by_enumeration,
    connected_partitions_by_brute_force,
    contractions_by_recursion,
    graph_rows_by_scan,
    independence_by_enumeration,
    max_rows_by_vertex_rows,
    path_by_parents,
    rho_by_double_loop,
)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    bits_needed = n * (n - 1) // 2
    word = draw(st.integers(min_value=0, max_value=(1 << bits_needed) - 1)) if bits_needed else 0
    edges = []
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if (word >> k) & 1:
                edges.append((u, v))
            k += 1
    return Graph.from_edges(n, edges)


def test_construction_rejects_bad_input():
    with pytest.raises(InputError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(InputError):
        Graph(2, (0b01, 0b01))  # loop at 0? bit 0 of row 0
    with pytest.raises(InputError):
        Graph.from_edges(3, [(0, 3)])
    # non-int rows and counts, and bools, which are ints to Python
    for n, rows in ((2, (2.0, 1)), (2, ("a", 1)), (2.0, (2, 1)), (True, (0,)), (2, (2, True))):
        with pytest.raises(InputError):
            Graph(n, rows)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Graph.from_edges(2.0, [(0, 1)]),
        lambda: Graph.empty(2.0),
        lambda: Graph.complete(2.0),
        lambda: Graph.from_edges(2, [(0.0, 1)]),
        lambda: Graph.from_edges(2, [(0, True)]),
    ],
    ids=["from_edges-count", "empty-count", "complete-count", "from_edges-endpoint", "from_edges-bool-endpoint"],
)
def test_constructors_reject_non_int_counts_and_endpoints(build):
    # the classmethods check their own arguments, as Graph() checks its rows
    with pytest.raises(InputError):
        build()


def test_construction_matches_scan_reference():
    """Accept or reject random rows, with the same message, as the previous
    edge-by-edge check; some rows get an asymmetric bit, a loop or a bit out
    of range, or two of these."""
    rng = random.Random(19)
    for _ in range(3000):
        n = rng.randint(0, MAX_VERTICES)
        rows = list(random_graph(rng, n, rng.random()).adj)
        for _ in range(rng.choice((0, 1, 1, 2)) if n else 0):
            v = rng.randrange(n)
            kind = rng.choice(("asymmetric", "loop", "range"))
            if kind == "asymmetric":
                rows[v] ^= 1 << rng.choice([u for u in range(n) if u != v] or [v])
            elif kind == "loop":
                rows[v] |= 1 << v
            else:
                rows[v] |= 1 << rng.randint(n, 2 * MAX_VERTICES) if rng.random() < 0.9 else -1
        try:
            graph_rows_by_scan(n, tuple(rows))
            want = None
        except InputError as exc:
            want = str(exc)
        try:
            Graph(n, tuple(rows))
            got = None
        except InputError as exc:
            got = str(exc)
        assert got == want, (n, rows)


def test_neighbors_closed_examples():
    assert neighbors_closed(Graph.complete(4), 0) == mask_of(range(4))
    assert set_of(neighbors_closed(Graph.cycle(5), 0)) == (0, 1, 4)
    pet = Graph.petersen()
    assert neighbors_closed(pet, 0).bit_count() == 4
    assert set_of(neighbors_closed(pet, 0)) == (0, 1, 4, 5)
    with pytest.raises(InputError):
        neighbors_closed(pet, 10)


def test_induced_examples():
    k3, _ = induced(Graph.complete(5), 0b10101)
    assert k3 == Graph.complete(3)
    p3, vmap = induced(Graph.cycle(6), 0b000111)
    assert sorted(p3.edges()) == [(0, 1), (1, 2)]
    assert vmap == (0, 1, 2)
    pet = Graph.petersen()
    sub, vmap = induced(pet, mask_of([0, 1, 2, 5, 8]))
    for i, u in enumerate(vmap):
        for j, v in enumerate(vmap):
            assert sub.has_edge(i, j) == pet.has_edge(u, v)


def test_induced_full_is_identity():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, rng.randint(0, 9))
        h, vmap = induced(g, g.full_mask)
        assert h == g and vmap == tuple(range(g.n))


def test_independence_number_examples():
    assert independence_number(Graph.complete(7)) == 1
    assert independence_number(Graph.empty(6)) == 6
    assert independence_number(Graph.cycle(5)) == 2
    assert independence_number(Graph.petersen()) == independence_by_enumeration(Graph.petersen()) == 4


def test_max_clique_examples():
    assert max_clique(Graph.complete(9)).bit_count() == 9
    assert max_clique(Graph.cycle(5)).bit_count() == 2
    k8m = Graph.from_edges(
        8,
        [(u, v) for u in range(8) for v in range(u + 1, 8) if not (u % 2 == 0 and v == u + 1)],
    )
    assert max_clique(k8m).bit_count() == clique_by_enumeration(k8m) == 4
    mask = max_clique(k8m)
    for u in bits(mask):
        for v in bits(mask):
            assert u == v or k8m.has_edge(u, v)


def test_independence_equals_complement_clique():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9))
        alpha = independence_number(g)
        assert alpha == max_clique(g.complement()).bit_count()
        assert alpha == independence_by_enumeration(g)


def test_contract_edge_examples():
    assert are_isomorphic(Graph(4, _contract_rows(Graph.cycle(5).adj, 0, 1)), Graph.cycle(4))
    assert are_isomorphic(Graph(3, _contract_rows(Graph.complete(4).adj, 2, 3)), Graph.complete(3))


def test_contract_edge_petersen_degrees():
    pet = Graph.petersen()
    h = Graph(9, _contract_rows(pet.adj, 0, 5))
    assert h.n == 9
    # merged vertex keeps the union of both neighborhoods minus the pair
    merged_neighbors = (pet.adj[0] | pet.adj[5]) & ~mask_of([0, 5])
    expected = sorted(v - 1 if v > 5 else v for v in set_of(merged_neighbors))
    assert sorted(set_of(h.adj[0])) == expected
    for v in range(h.n):
        for u in bits(h.adj[v]):
            assert (h.adj[u] >> v) & 1


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8), st.integers(min_value=0, max_value=255))
def test_rho_matches_double_loop(g, sub):
    t = sub & g.full_mask
    assert rho(g, t) == rho_by_double_loop(g, t)


def test_rho_examples():
    g = Graph.complete(6)
    assert rho(g, g.full_mask) == 15
    assert rho(g, 0) == 0
    assert rho(g, 0b111) == 12  # 3 inside + 9 crossing


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=7))
def test_contract_shrinks_and_stays_simple(g):
    for u, v in g.edges():
        h = Graph(g.n - 1, _contract_rows(g.adj, u, v))
        assert h.n == g.n - 1
        for x in range(h.n):
            assert not (h.adj[x] >> x) & 1


def test_contract_rows_matches_contraction_by_edge_list(census7):
    # G/uv through Graph.from_edges: each edge of G with v renamed u and the
    # vertices above v numbered down by one, the edge uv itself dropped
    for g in census7:
        edges = [(a, b) for a in range(g.n) for b in range(a + 1, g.n) if g.adj[a] >> b & 1]
        assert list(g.edges()) == edges
        for u, v in edges:
            def new(x):
                return u if x == v else x - (x > v)

            want = Graph.from_edges(g.n - 1, [(new(a), new(b)) for a, b in edges if new(a) != new(b)])
            assert Graph(g.n - 1, _contract_rows(g.adj, u, v)) == want, (g, u, v)


def test_canonical_form_invariance():
    rng = random.Random(3)
    graphs = [random_graph(rng, rng.randint(1, 7)) for _ in range(30)]
    graphs += [random_graph(rng, n, p=rng.uniform(0.1, 0.9)) for n in range(8, 13) for _ in range(20)]
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in g.edges()]
        h = Graph.from_edges(g.n, edges)
        assert canonical_form(g) == canonical_form(h)


A000088 = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)


def test_census_matches_dedup_reference():
    for n in range(8):
        forms = [canonical_form(g) for g in nonisomorphic_graphs(n)]
        assert len(forms) == len(set(forms)) == A000088[n]
        assert set(forms) == {canonical_form(h) for h in census_by_dedup(n)}


def test_census_labelling_reverses_canonical_order():
    # vertex i is the (n - 1 - i)-th vertex of the canonical ordering
    for n in range(8):
        for g in nonisomorphic_graphs(n):
            assert tuple(g.adj[v] >> (v + 1) for v in reversed(range(n))) == canonical_form(g)[1]


def test_census_n8_budget():
    t0 = time.perf_counter()
    assert len(nonisomorphic_graphs(8)) == A000088[8]
    assert time.perf_counter() - t0 < 20.0


def test_census_results_are_not_shared():
    for n in (3, 4):
        nonisomorphic_graphs(n).clear()
    first = nonisomorphic_graphs(3)
    first.append(Graph.empty(2))
    first[0] = Graph.complete(3)
    assert [len(nonisomorphic_graphs(n)) for n in range(6)] == list(A000088[:6])
    assert nonisomorphic_graphs(3)[0] != Graph.complete(3)
    assert nonisomorphic_graphs(3) is not nonisomorphic_graphs(3)


def test_census_matches_bounded_search():
    # the same graphs, labels and order as one bounded search per candidate
    for n in range(8):
        assert nonisomorphic_graphs(n) == census_by_bounded_search(n)


# sha256 of repr([[g.adj for g in nonisomorphic_graphs(n)] for n in range(9)])
# as the census built by one bounded search per candidate gave it
CENSUS_DIGEST = "4c76bfca249976f6bd5e324bf39d4aebeda53ecf18e7a34a9f73033759e16fd6"


def test_census_digest_up_to_n8():
    census = repr([[g.adj for g in nonisomorphic_graphs(n)] for n in range(9)])
    assert hashlib.sha256(census.encode()).hexdigest() == CENSUS_DIGEST


def test_criticality_and_colorings_digest_at_n8():
    # is_contraction_critical(g, chi(g)) verdicts and witnesses, and the
    # chromatic_number colorings, over the whole n = 8 census
    census = nonisomorphic_graphs(8)
    colorings = [chromatic_number(g) for g in census]
    verdicts = []
    for g, (chi, _) in zip(census, colorings):
        ok, wit = is_contraction_critical(g, chi)
        verdicts.append((ok, wit and (wit.branch_sets, wit.model_edges)))
    got = [
        hashlib.sha256(repr(verdicts).encode()).hexdigest(),
        hashlib.sha256(repr([(chi, col.colors) for chi, col in colorings]).encode()).hexdigest(),
    ]
    assert got == [
        "fb791184091a8b2d0ab688a8702d31940d1d7e2f5dac0bd17b827f733d66bfff",
        "f8151a0240af0c70f9cfb166f3fffef4efe3a2d1631666d6dc673f94142517f8",
    ]


def test_census_rejections_drop_only_what_the_search_rejects():
    """Over every candidate of the census for 2 <= n <= 7, twin packing and
    the tie leaves drop only candidates that the bounded search rejects; of
    the 3160 candidates, 1251 are kept, packing drops 1168 and the tie
    leaves 444 of the rest."""
    counts = [0, 0, 0, 0]  # candidates, kept, dropped by packing, by tie leaves
    for n in range(2, 8):
        for g in nonisomorphic_graphs(n - 1):
            rows = _falling_rows(g)
            classes = twin_classes(g)
            _, leaves = _tie_tree(g, rows, classes)
            for r in range(2 * rows[-1] + 2):
                adj = (r << 1,) + tuple(a << 1 | (r >> v & 1) for v, a in enumerate(g.adj))
                kept = _max_rows(n, adj, rows + (r,)) is not None
                counts[0] += 1
                counts[1] += kept
                if not _packs_twins(r, classes):
                    assert not kept, (g, r)
                    counts[2] += 1
                elif any(_read_along(r, t) > r for t in leaves):
                    assert not kept, (g, r)
                    counts[3] += 1
    assert counts == [3160, 1251, 1168, 444]


@pytest.mark.parametrize("n", [2.5, "3", None, True, 3.0])
def test_census_rejects_a_size_that_is_not_an_int(n):
    with pytest.raises(InputError, match=r"\bn\b"):
        nonisomorphic_graphs(n)


def test_twin_classes_match_definition(census7):
    # u and v share a class iff N(u) - v = N(v) - u; classes are listed by
    # lowest vertex and cover every vertex once
    rng = random.Random(8)
    cases = list(census7) + [random_graph(rng, rng.randint(8, 20), rng.uniform(0.1, 0.9)) for _ in range(200)]
    cases += [complete_minus_matching(12, 3), Graph.complete(5), Graph.empty(4)]
    for g in cases:
        classes = twin_classes(g)
        assert sum(c.bit_count() for c in classes) == g.n and sum(classes) == g.full_mask
        assert list(classes) == sorted(classes, key=lambda c: c & -c)
        cls = {v: c for c in classes for v in bits(c)}
        for u in range(g.n):
            for v in range(u + 1, g.n):
                twins = not (g.adj[u] ^ g.adj[v]) & ~(1 << u | 1 << v)
                assert (cls[u] == cls[v]) == twins, (g, u, v)


def _grid(rows: int, cols: int) -> Graph:
    right = [(v, v + 1) for v in range(rows * cols) if v % cols < cols - 1]
    down = [(v, v + cols) for v in range(rows * cols - cols)]
    return Graph.from_edges(rows * cols, right + down)


def _falling_rows(g: Graph) -> tuple[int, ...]:
    """The rows of the ordering by falling labels."""
    return tuple(g.adj[v] >> (v + 1) for v in reversed(range(g.n)))


def test_max_rows_matches_vertex_rows_search(census7):
    """The same value as the previous search, which held one row per vertex
    in each frame, without a bound and under two bounds: the rows of the
    ordering by falling labels and the largest rows themselves. The graphs
    are every graph of at most 7 vertices under 3 random relabellings, 300
    seeded graphs of 8 vertices and 500 of 9 to 16, Petersen, C_n, K_n - M
    for n <= 12 and grids. Both searches take seconds on some denser graphs
    above 11 vertices and on K_16 - M with 5 to 8 matching edges, so the
    random graphs there have edge density at most 0.5."""
    rng = random.Random(21)
    cases = [relabelled(g, rng) for g in census7 for _ in range(3)]
    cases += [random_graph(rng, 8, rng.uniform(0.05, 0.95)) for _ in range(300)]
    for _ in range(500):
        n = rng.randint(9, 16)
        cases.append(random_graph(rng, n, rng.uniform(0.05, 0.95 if n <= 11 else 0.5)))
    cases += [Graph.petersen()] + [Graph.cycle(n) for n in range(3, 17)]
    cases += [complete_minus_matching(n, m) for n in (8, 10, 12) for m in range(n // 2 + 1)]
    cases += [_grid(r, c) for r in range(2, 5) for c in range(r, 6)]
    for g in cases:
        rows = max_rows_by_vertex_rows(g.n, g.adj)
        assert _max_rows(g.n, g.adj) == rows, g
        for bound in (_falling_rows(g), rows):
            assert _max_rows(g.n, g.adj, bound) == max_rows_by_vertex_rows(g.n, g.adj, bound), g


def test_max_rows_keeps_the_census_candidates_the_previous_search_kept():
    """Each candidate of the census for n <= 7, under its own bound, is kept
    or rejected as the previous search does (see nonisomorphic_graphs)."""
    for n in range(1, 8):
        for g in nonisomorphic_graphs(n - 1):
            rows = _falling_rows(g)
            for r in range(2 * rows[-1] + 2 if rows else 1):
                adj = (r << 1,) + tuple(a << 1 | (r >> v & 1) for v, a in enumerate(g.adj))
                bound = rows + (r,)
                assert _max_rows(n, adj, bound) == max_rows_by_vertex_rows(n, adj, bound)


def _turan(n: int, r: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if u % r != v % r])


def test_max_clique_matches_previous_search(census7):
    """The same mask as the previous search, which descended into clique
    candidate sets, on every graph of at most 7 vertices, 300 of 8, and 2000
    seeded graphs on up to 64 vertices: K_n, K_n minus a matching, Turan
    graphs T(n, r), and random graphs of edge density 0.05 to 0.98."""
    rng = random.Random(19)
    cases = list(census7) + rng.sample(nonisomorphic_graphs(8), 300)
    for i in range(2000):
        n = rng.randint(1, MAX_VERTICES)
        if i % 20 == 0:
            cases.append(Graph.complete(n))
        elif i % 20 == 1:
            cases.append(complete_minus_matching(n, rng.randint(0, n // 2)))
        elif i % 20 == 2:
            cases.append(_turan(n, rng.randint(2, 10)))
        else:
            cases.append(random_graph(rng, n, rng.uniform(0.05, 0.98)))
    for g in cases:
        assert max_clique(g) == clique_by_branching(g), g


def test_max_clique_matches_previous_search_on_multipartite_graphs():
    """The same mask as the previous search on the complete multipartite
    graphs that ``max_clique`` takes whole at the root: K_n minus a matching
    of every size for n <= 40, and the Turan graphs T(n, r) for n <= 40."""
    cases = [complete_minus_matching(n, m) for n in range(1, 41) for m in range(n // 2 + 1)]
    cases += [_turan(n, r) for n in range(1, 41) for r in range(1, n + 1)]
    for g in cases:
        assert max_clique(g) == clique_by_branching(g), g


def test_canonical_form_matches_permutation_oracle():
    for n in range(7):
        for g in nonisomorphic_graphs(n):
            assert canonical_form(g) == canonical_by_permutations(g)
    rng = random.Random(7)
    for _ in range(30):
        g = random_graph(rng, 7, p=rng.uniform(0.1, 0.9))
        assert canonical_form(g) == canonical_by_permutations(g)
    for _ in range(5):
        g = random_graph(rng, 8, p=rng.uniform(0.1, 0.9))
        assert canonical_form(g) == canonical_by_permutations(g)


def test_canonical_form_distinguishes():
    assert canonical_form(Graph.path(4)) != canonical_form(Graph.cycle(4))
    assert canonical_form(Graph.complete(5)) != canonical_form(Graph.complete(4))


def test_canonical_form_agrees_with_networkx():
    import networkx as nx

    def to_nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        return h

    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, p=rng.uniform(0.1, 0.9))
        h = random_graph(rng, n, p=rng.uniform(0.1, 0.9))
        ours = canonical_form(g) == canonical_form(h)
        truth = nx.is_isomorphic(to_nx(g), to_nx(h))
        assert ours == truth


def _pair_witness(g, branch_sets, rows):
    # the witness of one (branch sets, rows) pair of the walk, its rows
    # checked by the Graph constructor
    return MinorWitness(g, branch_sets, tuple(Graph(len(rows), rows).edges()))


def _quotient_classes(g):
    # one pair per partition into connected branch sets (validate rejects
    # a set that is not connected), every such partition but the one into
    # single vertices; returns the isomorphism classes of the quotients
    pairs = list(contraction_quotients(g))
    for bs, rows in pairs:
        _pair_witness(g, bs, rows).validate()
    partitions = [bs for bs, _ in pairs]
    assert len(set(partitions)) == len(partitions)
    singletons = tuple(1 << v for v in range(g.n))
    assert set(partitions) == connected_partitions_by_brute_force(g) - {singletons}
    return {_canon_small(Graph(len(rows), rows)) for _, rows in pairs}


def test_minor_enumeration_k3():
    assert _quotient_classes(Graph.complete(3)) == contractions_by_recursion(Graph.complete(3))
    assert [len(rows) for _, rows in contraction_quotients(Graph.complete(3))] == [2, 2, 2, 1]


def test_minor_enumeration_matches_oracle_small():
    graphs = [g for n in range(6) for g in nonisomorphic_graphs(n)]
    rng = random.Random(9)
    graphs += [random_graph(rng, rng.randint(6, 7), p=rng.uniform(0.3, 0.8)) for _ in range(6)]
    for g in graphs:
        assert _quotient_classes(g) == contractions_by_recursion(g)


def test_minor_k1_and_c5():
    assert list(contraction_quotients(Graph.complete(1))) == []
    c5 = Graph.cycle(5)
    hits = [
        (bs, rows)
        for bs, rows in contraction_quotients(c5)
        if are_isomorphic(Graph(len(rows), rows), Graph.complete(3))
    ]
    assert hits
    _pair_witness(c5, *hits[0]).validate()
    assert len(hits[0][0]) == 3


def test_minor_witnesses_validate():
    petersen_minus_vertex, _ = induced(Graph.petersen(), (1 << 10) - 2)
    hosts = [Graph.cycle(6), petersen_minus_vertex, Graph.complete(4)]
    hosts += [g for n in range(7) for g in nonisomorphic_graphs(n)]
    for g in hosts:
        for bs, rows in contraction_quotients(g):
            # row i holds every branch set adjacent to set i in the host
            reach = [0] * len(bs)
            for i in range(len(bs)):
                for v in bits(bs[i]):
                    reach[i] |= g.adj[v]
            assert rows == tuple(
                sum(1 << j for j in range(len(bs)) if j != i and reach[i] & bs[j])
                for i in range(len(bs))
            ), (g, bs)
            w = _pair_witness(g, bs, rows)
            w.validate()
            # the model keeps every edge between adjacent branch sets
            assert set(w.model_edges) == {
                (i, j)
                for i in range(len(bs))
                for j in range(i + 1, len(bs))
                if any(g.adj[v] & bs[j] for v in bits(bs[i]))
            }


def test_minor_witness_validate_rejects():
    k3, p3 = Graph.complete(3), Graph.path(3)
    bad = [
        (MinorWitness(k3, (1, 0, 4), ()), "empty branch set"),
        (MinorWitness(k3, (3, 2), ()), "overlap"),
        (MinorWitness(k3, (1, 8), ()), "outside host"),
        (MinorWitness(p3, (0b101, 0b010), ()), "connected"),
        (MinorWitness(k3, (1, 2, 4), ((1, 1),)), "loop"),
        (MinorWitness(k3, (1, 2, 4), ((0, 1), (0, 1))), "parallel"),
        (MinorWitness(k3, (1, 2, 4), ((0, 1), (1, 0))), "parallel"),
        (MinorWitness(p3, (1, 2, 4), ((0, 2),)), "backing"),
        (MinorWitness(k3, (1, 2, 4), ((0, -1),)), "indices"),
        (MinorWitness(k3, (1, 2, 4), ((0, 3),)), "indices"),
        (MinorWitness(k3, (1, 2, 4), ((0, True),)), "indices"),
        (MinorWitness(Graph.complete(4), (1.0, 2, 4, 8), ()), "branch sets must be a tuple of int masks"),
        (MinorWitness(k3, (True, 2, 4), ((0, 1), (0, 2), (1, 2))), "branch sets must be a tuple of int masks"),
        (MinorWitness(k3, [1, 2, 4], ()), "branch sets must be a tuple of int masks"),
        (MinorWitness(k3, (1, 2, 4), None), "model edges must be a tuple of index pairs"),
        (MinorWitness(k3, (1, 2, 4), ((0, 1, 2),)), "model edges must be a tuple of index pairs"),
    ]
    for wit, message in bad:
        with pytest.raises(InputError, match=message):
            wit.validate()


def test_components_and_connectivity():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (3, 4)])
    from knitweave.graphs import components

    comps = components(g.adj, g.full_mask)
    assert sorted(c.bit_count() for c in comps) == [1, 2, 3]
    assert not is_connected(g)
    assert is_connected(g, mask_of([2, 3, 4]))


def test_shortest_path_steps_back_as_the_previous_planar_search():
    # planar's searches ask for a path src, w1, ..., wk, dst with every wi in
    # the domain, over list rows and over a dict keyed by the block
    rng = random.Random(35)
    found = 0
    for _ in range(800):
        n = rng.randint(3, 16)
        rows = list(random_graph(rng, n, rng.uniform(0.1, 0.6)).adj)
        src, dst = rng.sample(range(n), 2)
        domain = rng.getrandbits(n) & ~(1 << src) & ~(1 << dst)
        for adj in (rows, {v: rows[v] for v in bits(domain | (1 << src) | (1 << dst))}):
            got = shortest_path(adj, src, adj[dst], domain)
            if reachable(adj, adj[src] & domain, domain) & adj[dst]:
                assert [src, *got, dst] == path_by_parents(adj, src, adj[src] & domain, domain, dst)
                found += 1
            else:
                assert got == []
    assert found > 400


def test_shortest_path_is_shortest_ends_in_ends_and_stays_in_domain():
    import networkx as nx

    rng = random.Random(36)
    for _ in range(600):
        n = rng.randint(2, 20)
        g = random_graph(rng, n, rng.uniform(0.05, 0.5))
        src = rng.randrange(n)
        ends = rng.getrandbits(n) & rng.getrandbits(n)
        domain = rng.getrandbits(n) | rng.getrandbits(n)
        got = shortest_path(g.adj, src, ends, domain)
        keep = domain | (1 << src)
        h = nx.Graph()
        h.add_nodes_from(bits(keep))
        h.add_edges_from((u, v) for u, v in g.edges() if (keep >> u) & 1 and (keep >> v) & 1)
        dist = nx.single_source_shortest_path_length(h, src)
        lengths = [d for t, d in dist.items() if t != src and (ends >> t) & 1 and (domain >> t) & 1]
        if not lengths:
            assert got == []
            continue
        assert len(got) == min(lengths)
        assert (ends >> got[-1]) & 1
        assert not mask_of(got) & ~domain and len(set(got)) == len(got) and src not in got
        assert all(g.has_edge(a, b) for a, b in zip([src, *got], got))


def test_reachable_and_components_read_dict_rows_as_graph_rows():
    rng = random.Random(37)
    for _ in range(400):
        n = rng.randint(1, 20)
        g = random_graph(rng, n, rng.uniform(0.05, 0.4))
        domain = rng.getrandbits(n) | rng.getrandbits(n)
        rows = {v: g.adj[v] & domain for v in bits(domain)}
        comps = components(g.adj, domain)
        assert components(rows, domain) == comps
        assert sum(comps) == domain and all(is_connected(g, c) for c in comps)
        start = rng.getrandbits(n)
        assert reachable(rows, start, domain) == reachable(g.adj, start, domain)
