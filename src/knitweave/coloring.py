"""Exact chromatic number, contraction-criticality, and the neighborhood
independence test.

Color indices are 0-based internally. The certificate codec,
``formats.certificate_to_json``, writes them 1-based, as the CLI prints
them, and ``certificate_from_json`` reads them back.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations

from .errors import InputError
from .graphs import (
    Graph,
    MINOR_ENUM_LIMIT,
    MinorWitness,
    _Value,
    _contract_rows,
    _delete_rows,
    _row_edges,
    bits,
    contraction_quotients,
    independence_number,
    induced,
    max_clique,
)


class Coloring(_Value):
    def __init__(self, colors: tuple[int, ...], palette_size: int):
        self.__dict__.update(colors=colors, palette_size=palette_size)

    def check_proper(self, g: Graph) -> None:
        if not isinstance(self.colors, Sequence):
            raise InputError(f"the colors must be a sequence, one per vertex: {self.colors!r}")
        if len(self.colors) != g.n:
            raise InputError("coloring length does not match the graph")
        if type(self.palette_size) is not int:
            raise InputError(f"palette size is not an int: {self.palette_size!r}")
        for v in range(g.n):
            c = self.colors[v]
            if type(c) is not int or not 0 <= c < self.palette_size:
                raise InputError(f"color of {v} outside the palette: {c!r}")
            for u in bits(g.adj[v]):
                if self.colors[u] == c:
                    raise InputError(f"monochromatic edge {v},{u}")

    def colors_used(self, domain: int) -> set[int]:
        return {self.colors[v] for v in bits(domain)}


def chromatic_number(g: Graph) -> tuple[int, Coloring]:
    """Exact chromatic number with an optimal coloring.

    Let ub be the number of greedy classes (:func:`_first_fit`). If the
    clique of :func:`_top_clique` has ub vertices, then omega >= ub >= chi
    >= omega and the greedy coloring is optimal. Otherwise k-colorability
    is decided by :func:`_saturate` for k rising from the
    :func:`max_clique` bound, which colors that clique 0, 1, ... in vertex
    order, up to ub, where the greedy classes stand.
    """
    rows = g.adj
    classes = _first_fit(rows)
    if _top_clique(rows).bit_count() < len(classes):
        clique = max_clique(g)
        found = (_saturate(rows, j, clique) for j in range(clique.bit_count(), len(classes)))
        classes = next((got for got in found if got is not None), classes)
    k = len(classes)
    colors = [0] * g.n
    for c, cls in enumerate(classes):
        while cls:
            low = cls & -cls
            colors[low.bit_length() - 1] = c
            cls ^= low
    return k, Coloring(tuple(colors), k)


def _first_fit(rows: Sequence[int]) -> list[int]:
    """Greedy color classes (bitsets): the vertices by falling degree, ties
    by label, each put in the first class it has no neighbor in."""
    classes: list[int] = []
    for v in sorted(range(len(rows)), key=[-r.bit_count() for r in rows].__getitem__):
        row, c = rows[v], 0
        for cls in classes:
            if not cls & row:
                classes[c] = cls | 1 << v
                break
            c += 1
        else:
            classes.append(1 << v)
    return classes


def _top_clique(rows: Sequence[int]) -> int:
    """A clique grown from the highest vertex down: take the highest vertex
    of the candidates, all vertices at first, and narrow them to its
    neighbors, until none is left."""
    clique, cand = 0, (1 << len(rows)) - 1
    while cand:
        v = cand.bit_length() - 1
        clique |= 1 << v
        cand &= rows[v]
    return clique


def _saturate(rows: Sequence[int], j: int, clique: int) -> list[int] | None:
    """j color classes of the graph with these rows, the vertices of
    ``clique`` (at most j of them) colored 0, 1, ... in vertex order, or
    None if it needs more than j colors.

    Saturation-guided backtracking (DSATUR, Brelaz 1979): branch on the
    uncolored vertex whose neighbors show the most colors, then the highest
    degree, then the lowest label, and give it each color its neighbors
    miss, lowest first, opening at most one color beyond those in use;
    coloring the clique first breaks no generality. ``sees[c]`` holds the
    vertices with a neighbor colored c, and ``by_sat[s]`` the uncolored
    vertices whose neighbors show s colors (colored ones linger there,
    masked off by ``pending``); no uncolored vertex lies above ``top``.
    Coloring v with c raises the saturation of exactly the uncolored
    neighbors of v outside ``sees[c]``, each by one, so the branch hands
    down a copy of the buckets with those lifted one bucket up. The highest
    bucket meeting ``pending`` holds the most saturated vertices, the first
    class of ``by_degree`` (falling degree) meeting it those of highest
    degree among them, and its lowest bit the lowest label: the vertex of
    the (saturation, degree, -label) maximum, so the search tree, the
    colors tried and the classes returned are those of a scan for it.
    """
    n = len(rows)
    trial, sees = [0] * j, [0] * j
    for c, v in enumerate(bits(clique)):
        trial[c], sees[c] = 1 << v, rows[v]
    by_sat, by_degree = [0] * (j + 1), [0] * n
    for v, row in enumerate(rows):
        by_sat[(row & clique).bit_count()] |= 1 << v
        by_degree[n - 1 - row.bit_count()] |= 1 << v
    by_degree = [cls for cls in by_degree if cls]

    def rec(pending: int, used: int, by_sat: list[int], top: int) -> bool:
        if not pending:
            return True
        while not by_sat[top] & pending:
            top -= 1
        cand = by_sat[top] & pending
        for cls in by_degree:
            if cand & cls:
                cand &= cls
                break
        bit = cand & -cand
        pending ^= bit
        row = rows[bit.bit_length() - 1]
        near = row & pending
        for c in range(min(j, used + 1)):
            seen = sees[c]
            if seen & bit:
                continue
            lifted, fresh, s = by_sat[:], near & ~seen, top
            while fresh:
                moved = lifted[s] & fresh
                lifted[s] ^= moved
                lifted[s + 1] |= moved
                fresh ^= moved
                s -= 1
            sees[c] = seen | row
            trial[c] |= bit
            if rec(pending, max(used, c + 1), lifted, top + 1):
                return True
            trial[c] ^= bit
            sees[c] = seen
        return False

    top = clique.bit_count()
    return trial if rec((1 << n) - 1 & ~clique, top, by_sat, top) else None


def _colorable(rows: Sequence[int], j: int) -> list[int] | None:
    """j color classes (bitsets, some possibly empty) of the graph with these
    rows, or None if it needs more than j colors: the greedy classes when
    there are at most j of them, None when :func:`_top_clique` has more than
    j vertices, and otherwise :func:`_saturate` from that clique."""
    classes = _first_fit(rows)
    if len(classes) <= j:
        return classes + [0] * (j - len(classes))
    clique = _top_clique(rows)
    return None if clique.bit_count() > j else _saturate(rows, j, clique)


def _witness(g: Graph, branch_sets: tuple[int, ...], rows: Sequence[int]) -> MinorWitness:
    """The minor of g with these branch sets whose quotient has these rows."""
    return MinorWitness(g, branch_sets, tuple(_row_edges(rows)))


def is_contraction_critical(g: Graph, k: int) -> tuple[bool, MinorWitness | None]:
    """Whether the chromatic number is exactly k and every proper minor needs
    fewer colors. On failure returns a witness minor that passes
    :meth:`MinorWitness.validate` and whose quotient needs k colors, or None
    when chi(G) != k and the clique rule below does not apply.

    A proper K_k minor refutes criticality whatever chi(G) is, since it
    needs k colors: either chi(G) != k, or G has a proper minor that is not
    (k - 1)-colorable. So when 0 < k < n and the clique C of
    :func:`_top_clique` has at least k vertices, the answer is no and no
    coloring is searched. The witness is the K_k model on C's k highest
    vertices (the first k it takes): singleton branch sets in ascending
    order, every pair of them a model edge. It leaves out n - k > 0
    vertices, so it is proper, and its quotient is K_k, which needs k colors
    with no coloring to show it. Such a no carries this model where the
    search below would return None (chi(G) > k) or G - v for the lowest v
    outside C (chi(G) = k); every other input gets the search's answer.
    Past this rule, C has k vertices only when G = K_k.

    chi(G) = k is read off one greedy pass (ub classes) and the clique C of
    :func:`_top_clique` (lb vertices): it needs lb <= k <= ub, a k-coloring
    unless k = ub, and no (k - 1)-coloring unless k = lb, each decided by
    :func:`_saturate` from C. The last is decided after the vertex
    deletions: a G - v that needs k colors shows that G needs k too, so it
    is the witness whichever runs first, and G's (k - 1)-refutation runs
    only when every G - v is (k - 1)-colorable (a (k - 1)-coloring found
    there still answers no, with no witness).

    Every proper minor is a subgraph of G - v, of G - e, or of a contraction
    G/F with F nonempty, and deleting never raises the chromatic number. So
    the check asks :func:`_colorable` whether k - 1 colors suffice for each
    vertex deletion, then each edge deletion, then each of
    :func:`contraction_quotients`, on rows (:func:`_delete_rows`,
    :func:`_contract_rows`, the walk's rows), and returns the first minor
    for which they do not. An edge vw is not tried when N(v) - w misses a
    class of the (k - 1)-coloring found for G - v (an empty class
    included): v takes that color in G - vw, so G - vw needs fewer than k
    colors.

    By then chi(G) >= k is known, and G - vw is (k - 1)-colorable exactly
    when G/vw is: a (k - 1)-coloring of G - vw gives v and w one color (or
    it would color G), which colors G/vw with the merged vertex in it, and
    a (k - 1)-coloring of G/vw colors G - vw with v and w in the merged
    vertex's color. So each G - vw is decided on the n - 1 rows of G/vw,
    and its own rows are built only for the witness. The contractions G/vw
    are the walk's first level, so once every G - vw is decided (or
    skipped) that level holds no witness: its quotients are walked only to
    reach the next level, not decided.

    The walk yields one quotient per partition into connected branch sets,
    isomorphic ones included: telling a repeat apart costs more than
    deciding it, and the first quotient that needs k colors is the one a
    walk keeping one quotient per isomorphism class would return (the proof
    is in :func:`contraction_quotients`). The quotients come level by
    level, each level one vertex smaller, and a graph on fewer than k
    vertices needs fewer than k colors; so the walk stops at the first
    quotient with fewer than k vertices, and is not begun when n - 2 < k,
    that is, when its second level is below k (the walk itself raises
    ResourceError above MINOR_ENUM_LIMIT). Witness labels follow
    :func:`_delete_rows` or the ``merged.pop(v)`` of
    :func:`contraction_quotients`, so each is valid by construction. No
    :class:`Graph` is built: only the minor returned becomes a witness, its
    model edges listed from its rows (:func:`_witness`).
    """
    if type(k) is not int:
        raise InputError(f"k is not an int: {k!r}")
    n, adj = g.n, g.adj
    clique = _top_clique(adj)
    if 0 < k < n and clique.bit_count() >= k:
        while clique.bit_count() > k:
            clique &= clique - 1  # drop the lowest vertex
        model = tuple([1 << v for v in bits(clique)])
        return False, MinorWitness(g, model, tuple(combinations(range(k), 2)))
    lb, ub = clique.bit_count(), len(_first_fit(adj))
    if not (lb <= k <= ub and (k == ub or _saturate(adj, k, clique) is not None)):
        return False, None
    singletons = tuple([1 << v for v in range(n)])
    colorings = []  # colorings[v]: the k - 1 classes found for G - v
    for v in range(n):
        rows = _delete_rows(adj, v)
        classes = _colorable(rows, k - 1)
        if classes is None:
            return False, _witness(g, singletons[:v] + singletons[v + 1:], rows)
        colorings.append(classes)
    if k > lb and _saturate(adj, k - 1, clique) is not None:
        return False, None
    # spare[v]: the neighbors w of v such that N(v) - w misses a color of G - v
    spare = []
    for v, classes in enumerate(colorings):
        low, row = (1 << v) - 1, adj[v]
        # N(v) by color of G - v, in its labels; disjoint, so a sum is a union
        by_class = [((row & low) | (row >> (v + 1) << v)) & cls for cls in classes]
        single = sum(m for m in by_class if m.bit_count() == 1)
        spare.append(row if 0 in by_class else (single & low) | (single >> v << (v + 1)))
    for u, w in _row_edges(adj):
        if spare[u] >> w & 1 or spare[w] >> u & 1:
            continue
        if _colorable(_contract_rows(adj, u, w), k - 1) is None:
            rows = list(adj)
            rows[u] ^= 1 << w
            rows[w] ^= 1 << u
            return False, _witness(g, singletons, rows)
    if n - 2 < k and n <= MINOR_ENUM_LIMIT:
        return True, None
    for branch_sets, rows in contraction_quotients(g):
        if len(rows) < k:
            break
        if len(rows) < n - 1 and _colorable(rows, k - 1) is None:
            return False, _witness(g, branch_sets, rows)
    return True, None


def dirac_neighborhood_check(g: Graph, k: int) -> list[int]:
    """Vertices whose neighborhood independence number exceeds d(u) - k + 2;
    an empty list is necessary for k-contraction-criticality."""
    if type(k) is not int:
        raise InputError(f"k is not an int: {k!r}")
    out = []
    for u in range(g.n):
        sub, _ = induced(g, g.adj[u])
        if independence_number(sub) > g.degree(u) - k + 2:
            out.append(u)
    return out

