"""Exact chromatic number, contraction-criticality, the neighborhood
independence test, and the monochromatic-set recombination engine.

Color indices are 0-based internally; the reserved color of the
monochromatic set is the last palette index (palette_size - 1). The CLI
layer converts to 1-based for display.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    InputError,
    InternalConsistencyError,
    PreconditionError,
    SplitClassError,
)
from .graphs import (
    Graph,
    MinorWitness,
    bits,
    components,
    contraction_quotients,
    independence_number,
    induced,
    mask_of,
    max_clique,
    set_of,
)


@dataclass(frozen=True)
class Coloring:
    colors: tuple[int, ...]
    palette_size: int

    def check_proper(self, g: Graph, domain: Optional[int] = None) -> None:
        dom = g.full_mask if domain is None else domain
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

    Saturation-guided backtracking: try k-colorability for increasing k
    between the clique lower bound and the greedy upper bound, branching on
    the most saturated vertex and never opening more than one fresh color.
    Both keep each color class as a bitset: a vertex's saturation is the
    number of classes its neighborhood meets, and its colors are the classes
    it misses, tried first to last, so the coloring is the same as from sets
    of neighbor colors.
    """
    k, classes, _ = _color_with_clique(g)
    colors = [0] * g.n
    for c, cls in enumerate(classes):
        while cls:
            low = cls & -cls
            colors[low.bit_length() - 1] = c
            cls ^= low
    return k, Coloring(tuple(colors), k)


def _color_with_clique(g: Graph) -> tuple[int, list[int], int]:
    """:func:`chromatic_number`'s answer as its k color classes (bitsets,
    class i holding color i), plus a maximum clique (a bitset).

    Let ub be the number of greedy classes. One clique H is built first:
    from the whole vertex set, take the highest vertex v and narrow the set
    to N(v), until it is empty. If |H| = ub, then omega >= |H| = ub >= chi
    >= omega, so the greedy coloring is optimal and H is a maximum clique:
    the search would have had lb = ub and returned the same coloring, so
    :func:`max_clique` is not called. H may differ from its mask, but both
    then have chi vertices, and :func:`is_contraction_critical` gives the
    same witness from any clique of chi vertices.

    The search gives the clique colors 0, 1, ... in vertex order; its colors
    in use stay 0..used - 1, as each step opens at most the next one.
    """
    n = g.n
    if n == 0:
        return 0, [], 0
    adj = g.adj

    classes: list[int] = []
    for v in sorted(range(n), key=lambda v: -adj[v].bit_count()):
        row = adj[v]
        for c, cls in enumerate(classes):
            if not cls & row:
                classes[c] = cls | 1 << v
                break
        else:
            classes.append(1 << v)
    ub = len(classes)
    clique, cand = 0, g.full_mask
    while cand:
        v = cand.bit_length() - 1
        clique |= 1 << v
        cand &= adj[v]
    if clique.bit_count() == ub:
        return ub, classes, clique
    clique = max_clique(g)
    lb = clique.bit_count()

    def try_k(k: int) -> Optional[list[int]]:
        trial = [1 << v for v in bits(clique)] + [0] * (k - lb)

        def saturation(x: int) -> tuple[int, int, int]:
            return sum(1 for cls in trial if cls & adj[x]), adj[x].bit_count(), -x

        def rec(pending: int, used: int) -> bool:
            if not pending:
                return True
            v = max(bits(pending), key=saturation)
            bit, row = 1 << v, adj[v]
            for c in range(min(k, used + 1)):
                if not trial[c] & row:
                    trial[c] |= bit
                    if rec(pending ^ bit, max(used, c + 1)):
                        return True
                    trial[c] ^= bit
            return False

        return trial if rec(g.full_mask & ~clique, lb) else None

    for k in range(lb, ub):
        got = try_k(k)
        if got is not None:
            return k, got, clique
    return ub, classes, clique


def _delete_rows(rows: tuple[int, ...], v: int) -> tuple[int, ...]:
    """The rows of G - v, the vertices above v shifted down by one, unchecked."""
    low = (1 << v) - 1
    return tuple((r & low) | (r >> (v + 1) << v) for r in rows[:v] + rows[v + 1:])


def _delete_vertex(g: Graph, v: int) -> Graph:
    """G - v, validated."""
    return Graph(g.n - 1, _delete_rows(g.adj, v))


def is_contraction_critical(g: Graph, k: int) -> tuple[bool, Optional[MinorWitness]]:
    """Whether the chromatic number is exactly k and every proper minor needs
    fewer colors. On failure returns a witness minor that passes
    :meth:`MinorWitness.validate` and whose quotient needs k colors.

    Every proper minor is a subgraph of G - v, of G - e, or of a contraction
    G/F with F nonempty, and deleting never raises the chromatic number. So
    the check tries the vertex deletions, then the edge deletions, then
    :func:`contraction_quotients`, and returns the first of them that needs
    k colors. An edge vw is not tried when N(v) - w misses a color of the
    (k - 1)-coloring found for G - v: v takes that color in G - vw, so G - vw
    needs fewer than k colors.

    The quotients come level by level, each level one vertex smaller, and
    a graph on fewer than k vertices needs fewer than k colors; so the walk
    stops at the first quotient with fewer than k vertices.

    Let C be the clique found while coloring G. If |C| = k, then for
    v outside C, G - v contains C and needs k colors, so it is taken
    uncolored. The vertices of C, and every vertex when |C| < k, are still
    colored, so the first witness is the same as if every G - v were colored.
    Its labels follow :func:`_delete_rows` or the ``merged.pop(v)`` of
    :func:`contraction_quotients`, so it is valid by construction.
    """
    if type(k) is not int:
        raise InputError(f"k is not an int: {k!r}")
    chi, _, clique = _color_with_clique(g)
    if chi != k:
        return False, None
    colored = clique if clique.bit_count() == k else g.full_mask
    singletons = tuple(1 << v for v in range(g.n))
    # spare[v]: the neighbors w of v such that N(v) - w misses a color of G - v
    spare = []
    for v in range(g.n):
        c, classes, _ = _color_with_clique(_delete_vertex(g, v)) if colored >> v & 1 else (k, None, 0)
        if c >= k:
            # the edges of G - v, as Graph.edges lists them
            rows = _delete_rows(g.adj, v)
            edges = tuple((u, w) for u, r in enumerate(rows) for w in bits(r >> u + 1 << u + 1))
            return False, MinorWitness(g, singletons[:v] + singletons[v + 1:], edges)
        low, row = (1 << v) - 1, g.adj[v]
        # N(v) by color of G - v, in its labels; disjoint, so a sum is a union
        by_class = [((row & low) | (row >> (v + 1) << v)) & cls for cls in classes]
        single = sum(m for m in by_class if m.bit_count() == 1)
        spare.append(row if 0 in by_class else (single & low) | (single >> v << (v + 1)))
    edges = tuple(g.edges())
    edge_deletions = (
        MinorWitness(g, singletons, tuple(f for f in edges if f != (u, w)))
        for u, w in edges
        if not (spare[u] >> w & 1 or spare[w] >> u & 1)
    )
    for wit in itertools.chain(edge_deletions, contraction_quotients(g)):
        if len(wit.branch_sets) < k:
            break
        if _color_with_clique(wit.quotient())[0] >= k:
            return False, wit
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

@dataclass(frozen=True)
class RecombinationPlan:
    """Everything extracted from the side-1 coloring: color classes on the
    separator remainder, the power-set color lists, the class components, and
    the leftover components."""

    domain: int
    u: int
    w: int
    classes: tuple[int, ...]          # V_i as bitsets over W
    class_colors: tuple[int, ...]     # the color each class carries
    lists: tuple[frozenset[int], ...]
    codes: dict
    components: tuple[int, ...]       # C_i, aligned with classes
    leftovers: tuple[int, ...]        # D_j
    phi1: Coloring


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
    g1: Graph, s: int, u: int, phi1: Coloring, domain: Optional[int] = None
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
        pieces = components(g1, pool)
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
    leftovers = tuple(components(g1, dom & ~removed))
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
