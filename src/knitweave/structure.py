"""Separation enumeration, mass/density analysis, rigidity, and local
minimization of graph-terminal pairs.

All density thresholds of the form p/2 are compared in exact integer
arithmetic (2*rho versus p*size); no floats anywhere.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from fractions import Fraction

from .errors import InputError, PreconditionError, check_ints
from .graphs import Graph, _Value, bits, components, induced, mask_of, rho, set_of
from .solver import _small_cuts, is_profile_knitted


class Separation(_Value):
    """An ordered cover (a, b) of the vertex set with no edge between the two
    private sides; its order is |a & b|."""

    def __init__(self, a: int, b: int):
        self.__dict__.update(a=a, b=b)

    @property
    def order(self) -> int:
        return (self.a & self.b).bit_count()

    @property
    def separator(self) -> int:
        return self.a & self.b

    def validate(self, g: Graph, s: int = 0) -> None:
        if not (type(self.a) is int and type(self.b) is int):
            raise InputError("the separation's sides a and b must be int masks")
        if (self.a | self.b) != g.full_mask:
            raise InputError("separation sides do not cover the graph")
        priv_a = self.a & ~self.b
        priv_b = self.b & ~self.a
        for v in bits(priv_a):
            if g.adj[v] & priv_b:
                raise InputError("edge between the private sides")
        if s & ~self.a:
            raise InputError("terminal set is not inside side a")


class MassedReport(_Value):
    def __init__(self, satisfied: bool, rho_value: int, threshold: Fraction,
                 violating_separation: Separation | None, condition_i: bool, condition_ii: bool):
        self.__dict__.update(satisfied=satisfied, rho_value=rho_value, threshold=threshold,
                             violating_separation=violating_separation, condition_i=condition_i,
                             condition_ii=condition_ii)


def _subsets_lex(universe: tuple[int, ...], max_size: int) -> Iterator[tuple[int, ...]]:
    """All subsets of ``universe`` with at most ``max_size`` elements, in
    lexicographic (prefix-extension) order over sorted tuples."""

    def rec(prefix: list[int], start: int) -> Iterator[tuple[int, ...]]:
        yield tuple(prefix)
        if len(prefix) == max_size:
            return
        for k in range(start, len(universe)):
            prefix.append(universe[k])
            yield from rec(prefix, k + 1)
            prefix.pop()

    yield from rec([], 0)


def _check_terminals(l: Graph, s: int, **ints) -> None:
    """Raise InputError unless ``s`` and ``ints`` are ints and ``s`` is a
    set of vertices of ``l``."""
    check_ints(s=s, **ints)
    if s & ~l.full_mask:
        raise InputError("terminal set is not a subset of the graph")


def separations_exist(l: Graph, s: int, max_order: int) -> bool:
    """Fast emptiness test for proper separations of (l, s) of small order.

    Valid whenever ``max_order < |s|``: such a separation exists iff some
    vertex outside s can be cut off from s by at most ``max_order`` vertices
    (Menger, with the terminal set as sinks), that is, iff the small-cut
    sweep with k = ``max_order + 1`` (:func:`_small_cuts`) finds a first
    cut.
    """
    _check_terminals(l, s, max_order=max_order)
    if max_order >= s.bit_count():
        raise InputError("shortcut requires max_order < |s|")
    return next(_small_cuts(list(l.adj), s, l.full_mask, max_order + 1), None) is not None


def _free_components(l: Graph, s: int, max_order: int) -> Iterator[tuple[int, list[int]]]:
    """Each separator X of at most ``max_order`` vertices that leaves a free
    component (one of l - X that misses ``s``), in :func:`_subsets_lex`
    order, with its free components; none at all when ``max_order < |s|``
    and :func:`separations_exist` says no separation exists."""
    if max_order < s.bit_count() and not separations_exist(l, s, max_order):
        return
    for xs in _subsets_lex(tuple(range(l.n)), max_order):
        x = mask_of(xs)
        free = [c for c in components(l.adj, l.full_mask & ~x) if not c & s]
        if free:
            yield x, free


def enumerate_separations(l: Graph, s: int, max_order: int) -> Iterator[Separation]:
    """All separations (A, B) of (l, s) with both private sides nonempty and
    order at most ``max_order``.

    Candidate separators X are swept in lexicographic order; the components of
    l - X that miss s may go to the B side in any nonempty combination that
    leaves A - B nonempty. Each separation is produced exactly once since
    (A, B) determines X = A & B and B - A.
    """
    _check_terminals(l, s, max_order=max_order)
    if max_order > l.n:
        raise InputError("max_order exceeds the vertex count")
    full = l.full_mask
    for x, free in _free_components(l, s, max_order):
        for r in range(1, len(free) + 1):
            for combo in itertools.combinations(free, r):
                union = sum(combo)  # the components are disjoint masks
                if full & ~x & ~union:  # A must keep a private side
                    yield Separation(full & ~union, x | union)


def is_p_massed(l: Graph, s: int, p: int) -> MassedReport:
    """Density report: (i) the graph outside ``s`` is dense (rho > p/2 per
    vertex), and (ii) no separation of order below |s| hangs a dense piece
    off the terminal side, that is, none with 2 rho(B - A) > p |B - A|.

    When (ii) fails, the first violating separation of
    :func:`enumerate_separations` is reported. Two facts let the check read
    one free component C of l - X at a time (its B - A) rather than every
    union of them:

    - rho is additive over vertex sets with no edge between them, since no
      edge has an end in each. The components of l - X have none, so for a
      union U of them 2 rho(U) - p |U| is the sum of 2 rho(C) - p |C| over
      its components: U is dense only if one of its components is. At each
      X the enumeration lists the single components first, in the order
      read here, and each keeps A - B nonempty, since it misses ``s`` and
      |X| < |s|. So the first dense separation is (V - C, X | C) for the
      first dense C at the first X that has one.
    - A free component C has N(C) inside X, so |N(C)| <= |s| - 1, and each
      edge counted by rho(C) lies inside C or joins it to N(C): 2 rho(C) <=
      |C| (|C| - 1) + 2 |C| (|s| - 1). A dense C therefore has |C| - 1 +
      2 (|s| - 1) > p, that is |C| >= p - 2|s| + 4. As C lies outside
      ``s``, no piece is dense when |V - s| < p - 2|s| + 4, and no
      separator is walked.
    """
    _check_terminals(l, s)
    if type(p) is not int or p < 0:
        raise InputError("p must be a nonnegative integer")
    outside = l.full_mask & ~s
    rv = rho(l, outside)
    size = outside.bit_count()
    cond_i = 2 * rv > p * size
    violator = None
    k = s.bit_count()
    if k and size >= p - 2 * k + 4:
        for x, free in _free_components(l, s, k - 1):
            c = next((c for c in free if 2 * rho(l, c) > p * c.bit_count()), None)
            if c is not None:
                violator = Separation(l.full_mask & ~c, x | c)
                break
    return MassedReport(
        satisfied=cond_i and violator is None,
        rho_value=rv,
        threshold=Fraction(p * size, 2),
        violating_separation=violator,
        condition_i=cond_i,
        condition_ii=violator is None,
    )


# ---------------------------------------------------------------------------
# Knittedness of a pair, rigidity
# ---------------------------------------------------------------------------

def pair_is_knitted(l: Graph, s: int) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """Whether (l, s) is knitted for every partition of ``s`` into parts of
    size at most two. Returns the first violating partition otherwise."""
    # The max-pairing partitions (floor(|s|/2) pairs, at most one singleton)
    # decide every partition into parts of size at most two: pair up the
    # spare singletons of any such partition, knit that, then split each
    # added pair back into its two vertices. No matching inside s has more
    # than floor(|s|/2) pairs, so is_profile_knitted links exactly the
    # maximal matchings of non-edges inside s, one linkage search each (one
    # in all when s is a clique). The max-pairing profile also opens a
    # most-pairs-first sweep of all profiles, so the first violating
    # partition, which the partition sweep finds on a "no", is that sweep's
    # first as well.
    check_ints(s=s)
    k = s.bit_count()
    return is_profile_knitted(l, s, [2] * (k // 2) + [1] * (k % 2))


def is_rigid(l: Graph, sep: Separation) -> bool:
    """A separation is rigid when the b side, seen from the separator, is
    knitted for every partition of the separator into parts of size at most
    two."""
    sep.validate(l)
    sub, vmap = induced(l, sep.b)
    back = {v: i for i, v in enumerate(vmap)}
    return pair_is_knitted(sub, mask_of(back[v] for v in bits(sep.separator)))[0]


# ---------------------------------------------------------------------------
# Local minimization
# ---------------------------------------------------------------------------

class MinimizeResult(_Value):
    def __init__(self, graph: Graph, s: int, trail: tuple[tuple, ...]):
        self.__dict__.update(graph=graph, s=s, trail=trail)


def minimize_pair(l: Graph, s: int, p: int) -> MinimizeResult:
    """Locally minimal massed-but-unknitted pair by greedy descent.

    Checks the preconditions (|s| at most p/2 - 1, the pair massed and
    unknitted), each failure naming its clause, then runs
    :func:`descend_pair`.
    """
    check_ints(s=s, p=p)
    if 2 * s.bit_count() > p - 2:
        raise PreconditionError("size", f"|s| = {s.bit_count()} exceeds p/2 - 1 for p = {p}")
    if not is_p_massed(l, s, p).satisfied:
        raise PreconditionError("massed", "(1) fails: pair is not massed")
    if pair_is_knitted(l, s)[0]:
        raise PreconditionError("knitted", "(2) fails: pair is knitted")
    return descend_pair(l, s, p)


def descend_pair(l: Graph, s: int, p: int) -> MinimizeResult:
    """Greedy descent from a massed, unknitted pair (l, s), unchecked.

    Moves, scanned in the order of :func:`_moves` and restarted after each
    accepted one: delete a vertex outside ``s``, delete an edge not inside
    ``s``, add a missing edge inside ``s``. A move is kept when the pair
    stays massed and unknitted; each one lowers the (vertex count,
    outside-rho, -edges inside s) triple. The fixpoint is local; nothing
    global is claimed.
    """
    cur, cur_s = l, s
    vmap = tuple(range(l.n))  # cur's labels -> l's, for the trail
    trail: list[tuple] = []
    while True:
        for move, g2, s2, sub_map in _moves(cur, cur_s):
            if is_p_massed(g2, s2, p).satisfied and not pair_is_knitted(g2, s2)[0]:
                trail.append((move[0], *(vmap[x] for x in move[1:])))
                vmap = tuple(vmap[old] for old in sub_map)
                cur, cur_s = g2, s2
                break
        else:
            return MinimizeResult(graph=cur, s=cur_s, trail=tuple(trail))


def _moves(g: Graph, s: int) -> Iterator[tuple[tuple, Graph, int, tuple[int, ...]]]:
    """The descent's moves on (g, s) in scan order, each with the graph and
    terminal set it leads to and the map from their labels to g's: vertex
    deletions outside ``s``, then edge deletions not inside ``s``, then edge
    additions inside ``s``, each kind in lexicographic order."""
    same = tuple(range(g.n))
    for v in bits(g.full_mask & ~s):
        g2, sub_map = induced(g, g.full_mask & ~(1 << v))
        s2 = mask_of(i for i, old in enumerate(sub_map) if (s >> old) & 1)
        yield ("delete_vertex", v), g2, s2, sub_map
    for u, v in g.edges():
        if not ((s >> u) & 1 and (s >> v) & 1):
            yield ("delete_edge", u, v), _toggle_edge(g, u, v), s, same
    for u, v in itertools.combinations(set_of(s), 2):
        if not g.has_edge(u, v):
            yield ("add_edge", u, v), _toggle_edge(g, u, v), s, same


def _toggle_edge(g: Graph, u: int, v: int) -> Graph:
    rows = list(g.adj)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return Graph(g.n, tuple(rows))
