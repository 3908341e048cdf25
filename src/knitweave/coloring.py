"""Exact chromatic number, contraction-criticality, the neighborhood
independence test, and the monochromatic-set recombination engine.

Color indices are 0-based internally; the reserved color of the
monochromatic set is the last palette index (palette_size - 1). The
certificate codec, ``formats.certificate_to_json``, writes them 1-based, as
the CLI prints them, and ``certificate_from_json`` reads them back.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from .errors import (
    InputError,
    InternalConsistencyError,
    PreconditionError,
    SplitClassError,
)
from .graphs import (
    Graph,
    MINOR_ENUM_LIMIT,
    MinorWitness,
    _Value,
    _contract_rows,
    _delete_rows,
    _row_edges,
    bits,
    components,
    contraction_quotients,
    independence_number,
    induced,
    mask_of,
    max_clique,
    set_of,
)


class Coloring(_Value):
    def __init__(self, colors: tuple[int, ...], palette_size: int):
        self.__dict__.update(colors=colors, palette_size=palette_size)

    def check_proper(self, g: Graph, domain: int | None = None) -> None:
        dom = g.full_mask if domain is None else domain
        if type(dom) is not int or dom & ~g.full_mask:
            raise InputError(f"domain is not a vertex mask of the graph: {domain!r}")
        if not isinstance(self.colors, Sequence):
            raise InputError(f"the colors must be a sequence, one per vertex: {self.colors!r}")
        if len(self.colors) != g.n:
            raise InputError("coloring length does not match the graph")
        if type(self.palette_size) is not int:
            raise InputError(f"palette size is not an int: {self.palette_size!r}")
        for v in bits(dom):
            c = self.colors[v]
            if type(c) is not int or not 0 <= c < self.palette_size:
                raise InputError(f"color of {v} outside the palette: {c!r}")
            for u in bits(g.adj[v] & dom):
                if self.colors[u] == c:
                    raise InputError(f"monochromatic edge {v},{u}")

    def color_class(self, c: int, domain: int) -> int:
        return mask_of(v for v in bits(domain) if self.colors[v] == c)

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
    :meth:`MinorWitness.validate` and whose quotient needs k colors.

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
    for which they do not. If |C| = k, G - v contains C for v outside C
    and needs k colors, so it is taken undecided; every other G - v is
    decided, so the first witness is the same as if all were. An edge vw
    is not tried when N(v) - w misses a class of the (k - 1)-coloring
    found for G - v (an empty class included): v takes that color in
    G - vw, so G - vw needs fewer than k colors.

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
    lb, ub = clique.bit_count(), len(_first_fit(adj))
    if not (lb <= k <= ub and (k == ub or _saturate(adj, k, clique) is not None)):
        return False, None
    decided = clique if lb == k else g.full_mask
    singletons = tuple([1 << v for v in range(n)])
    colorings = []  # colorings[v]: the k - 1 classes found for G - v
    for v in range(n):
        rows = _delete_rows(adj, v)
        classes = _colorable(rows, k - 1) if decided >> v & 1 else None
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


# ---------------------------------------------------------------------------
# Recombination engine
# ---------------------------------------------------------------------------

class RecombinationPlan(_Value):
    """Everything extracted from the side-1 coloring: color classes on the
    separator remainder, the power-set color lists, the class components, and
    the leftover components: ``classes`` holds the V_i as bitsets over W,
    ``class_colors`` the color each class carries, ``components`` the C_i,
    aligned with the classes, and ``leftovers`` the D_j."""

    def __init__(self, domain: int, u: int, w: int, classes: tuple[int, ...], class_colors: tuple[int, ...],
                 lists: tuple[frozenset[int], ...], codes: dict, components: tuple[int, ...],
                 leftovers: tuple[int, ...], phi1: Coloring):
        self.__dict__.update(domain=domain, u=u, w=w, classes=classes, class_colors=class_colors, lists=lists,
                             codes=codes, components=components, leftovers=leftovers, phi1=phi1)


def coding_colors(class_colors: Sequence[int], class_sizes: Sequence[int], palette_size: int):
    """Deterministic power-set color lists for the given classes.

    List i holds the class color plus one fresh color per subset of classes
    containing i (subsets ordered lexicographically get ascending fresh
    colors), plus one extra fresh color per big class when some class other
    than the first is big.
    """
    p = len(class_colors)
    reserved = palette_size - 1
    taken = set(class_colors) | {reserved}
    fresh = (c for c in range(palette_size) if c not in taken)
    codes = {}
    subsets = sorted(
        tuple(c) for r in range(2, p + 1) for c in itertools.combinations(range(p), r)
    )
    try:
        for j in subsets:
            codes[frozenset(j)] = next(fresh)
        extras = {}
        if any(class_sizes[i] >= 2 for i in range(1, p)):
            for i in range(p):
                if class_sizes[i] >= 2:
                    extras[i] = next(fresh)
    except StopIteration:
        raise PreconditionError(
            "palette",
            f"palette of {palette_size} cannot host the coding colors",
        )
    lists = []
    for i in range(p):
        li = {class_colors[i]}
        for j, c in codes.items():
            if i in j:
                li.add(c)
        if i in extras:
            li.add(extras[i])
        lists.append(frozenset(li))
    return lists, codes, extras


def validate_power_set_coding(lists: Sequence[frozenset[int]]) -> None:
    """Brute-force check: every nonempty index set J owns a color common to
    exactly the lists indexed by J."""
    p = len(lists)
    for r in range(1, p + 1):
        for combo in itertools.combinations(range(p), r):
            j = set(combo)
            ok = False
            for c in set().union(*lists):
                if all((c in lists[i]) == (i in j) for i in range(p)):
                    ok = True
                    break
            if not ok:
                raise InternalConsistencyError(f"no color codes exactly the set {sorted(j)}")


def build_recombination_plan(
    g1: Graph, s: int, u: int, phi1: Coloring, domain: int | None = None
) -> RecombinationPlan:
    """Extract the recombination structure from a side-1 coloring.

    Preconditions: phi1 proper on side 1, monochromatic on ``u`` with the
    reserved color, and using fewer colors on w = s - u than w has vertices.
    A class split across components of its list-induced subgraph is the
    classic color-swap contradiction and raises :class:`SplitClassError`
    describing the swap instead of being repaired.
    """
    dom = g1.full_mask if domain is None else domain
    if u & ~s or s & ~dom:
        raise PreconditionError("nesting", "need u inside s inside the domain")
    phi1.check_proper(g1, dom)
    r = phi1.palette_size
    reserved = r - 1
    for v in bits(u):
        if phi1.colors[v] != reserved:
            raise PreconditionError("u-monochromatic", f"vertex {v} does not carry the reserved color")
    w = s & ~u
    w_colors = sorted(phi1.colors_used(w)) if w else []
    if reserved in w_colors:
        raise PreconditionError("w-colors", "the reserved color appears on w")
    p = len(w_colors)
    if p >= w.bit_count():
        raise PreconditionError("fewer-colors", f"w carries {p} colors on {w.bit_count()} vertices; need fewer")

    raw = [(c, phi1.color_class(c, w)) for c in w_colors]
    raw.sort(key=lambda t: set_of(t[1])[0])
    big_at = next(i for i, (_, cls) in enumerate(raw) if cls.bit_count() >= 2)
    ordered = [raw[big_at]] + raw[:big_at] + raw[big_at + 1:]
    class_colors = tuple(c for c, _ in ordered)
    classes = tuple(cls for _, cls in ordered)
    sizes = [cls.bit_count() for cls in classes]

    lists, codes, _ = coding_colors(class_colors, sizes, r)
    validate_power_set_coding(lists)

    comps: list[int] = []
    removed = 0
    for i in range(p):
        pool = mask_of(
            v for v in bits(dom & ~removed) if phi1.colors[v] in lists[i]
        )
        pieces = components(g1.adj, pool)
        holding = [c for c in pieces if c & classes[i]]
        if len(holding) != 1:
            swap_options = sorted(lists[i] - {class_colors[i]})
            raise SplitClassError(
                i,
                tuple(holding),
                swap_options[0] if swap_options else None,
                f"class {i} spans {len(holding)} components of its list subgraph; "
                f"swapping its color on one component would put more colors on w",
            )
        comps.append(holding[0])
        removed |= holding[0]
    leftovers = tuple(components(g1.adj, dom & ~removed))
    return RecombinationPlan(
        domain=dom,
        u=u,
        w=w,
        classes=classes,
        class_colors=class_colors,
        lists=tuple(lists),
        codes=codes,
        components=tuple(comps),
        leftovers=leftovers,
        phi1=phi1,
    )


def recombine(
    g: Graph, g1: Graph, g2: Graph, plan: RecombinationPlan, phi2prime: Coloring
) -> Coloring:
    """Merge the side colorings into one proper coloring of the whole graph.

    The plan fixes the sides: u is ``plan.u``, the separator s is
    ``plan.u | plan.w``, side 1 is ``plan.domain`` and side 2 is the rest of
    the graph plus s. Side 1 must lie in g and in g1, side 2 in g2, no edge
    may join the private sides, and g must be the union of g1 and g2; each
    failure raises the clause ``"gluing"``. The side-2 coloring must be
    proper, monochromatic on u, constant on every class, and use the group
    code of each set of classes it merges (a solo class keeps its own
    color). Swapping, per component: the side-2 color with the class color
    on each class component, and the side-2 color of its separator vertices
    with the reserved color on each leftover component. The result is
    asserted proper; a failure here would mean the swap argument itself is
    wrong and raises InternalConsistencyError.
    """
    u, s, domain1 = plan.u, plan.u | plan.w, plan.domain
    domain2 = g.full_mask & ~domain1 | s
    if domain1 & ~(g.full_mask & g1.full_mask) or domain2 & ~g2.full_mask:
        raise PreconditionError("gluing", "a side does not fit its graph")
    for v in bits(domain1 & ~s):
        if g.adj[v] & domain2 & ~s:
            raise PreconditionError("gluing", "edge between the private sides")
    for v in range(g.n):
        row1 = g1.adj[v] if v < g1.n else 0
        row2 = g2.adj[v] if v < g2.n else 0
        if (row1 | row2) != g.adj[v]:
            raise PreconditionError("gluing", f"edges at {v} are not the union of the sides")

    r = plan.phi1.palette_size
    if phi2prime.palette_size != r:
        raise PreconditionError("palette", "side colorings use different palettes")
    phi2prime.check_proper(g2, domain2)
    mu = None
    for v in bits(u):
        if mu is None:
            mu = phi2prime.colors[v]
        elif phi2prime.colors[v] != mu:
            raise PreconditionError("u-monochromatic", "side-2 coloring is not constant on u")

    p = len(plan.classes)
    lam = []
    for i, cls in enumerate(plan.classes):
        vals = {phi2prime.colors[v] for v in bits(cls)}
        if len(vals) != 1:
            raise PreconditionError("class-constant", f"class {i} is not monochromatic on side 2")
        lam.append(vals.pop())
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(lam):
        groups.setdefault(c, []).append(i)
    for c, members in groups.items():
        if len(members) == 1:
            i = members[0]
            if c != plan.class_colors[i]:
                raise PreconditionError(
                    "group-code", f"solo class {i} must keep its own color, got {c}"
                )
        else:
            want = plan.codes.get(frozenset(members))
            if c != want:
                raise PreconditionError(
                    "group-code",
                    f"classes {members} share color {c} but their group code is {want}",
                )
    list_colors = set().union(*plan.lists) if plan.lists else set()
    w_used = {phi2prime.colors[v] for v in bits(plan.w)}
    u_used = {phi2prime.colors[v] for v in bits(u)}
    for c in sorted(list_colors - w_used):
        if c in u_used:
            raise PreconditionError(
                "coding-compatible",
                f"coding color {c} is unused on w but appears on u",
            )

    reserved = r - 1
    new1 = list(plan.phi1.colors)

    def swap(region: int, c1: int, c2: int) -> None:
        if c1 == c2:
            return
        for v in bits(region):
            if new1[v] == c1:
                new1[v] = c2
            elif new1[v] == c2:
                new1[v] = c1

    for i in range(p):
        swap(plan.components[i], lam[i], plan.class_colors[i])
    for dcomp in plan.leftovers:
        anchor = dcomp & s
        if not anchor:
            continue
        vals = {phi2prime.colors[v] for v in bits(anchor)}
        if len(vals) != 1:
            raise PreconditionError(
                "leftover-constant", "a leftover component meets s in two side-2 colors"
            )
        swap(dcomp, vals.pop(), reserved)

    phi1prime = Coloring(tuple(new1), r)
    try:
        phi1prime.check_proper(g1, domain1)
    except InputError as exc:
        raise InternalConsistencyError(f"swaps broke properness on side 1: {exc}") from exc
    for v in bits(s):
        if phi1prime.colors[v] != phi2prime.colors[v]:
            raise InternalConsistencyError(
                f"swapped side-1 coloring disagrees with side 2 at {v}"
            )
    merged = [0] * g.n
    for v in range(g.n):
        merged[v] = phi1prime.colors[v] if (domain1 >> v) & 1 else phi2prime.colors[v]
    final = Coloring(tuple(merged), r)
    try:
        final.check_proper(g)
    except InputError as exc:
        raise InternalConsistencyError(f"merged coloring is not proper: {exc}") from exc
    return final
