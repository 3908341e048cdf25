"""Bitset graphs on at most 64 vertices plus the exact primitives built on them.

Vertex sets are plain Python ints used as bitsets, which keeps every set
operation a single machine-word instruction at the scales this package
targets (nothing in the domain exceeds a few dozen vertices).
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator, Sequence

from .errors import InputError, ResourceError

MAX_VERTICES = 64
MINOR_ENUM_LIMIT = 9


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def set_of(mask: int) -> tuple[int, ...]:
    return tuple(bits(mask))


# struct codes packing one row into w bits, for the packing widths above 8
_PACK_CODE = {16: "H", 32: "I", 64: "Q"}
# the (mask, shift) rounds of _transpose per width, built on first use
_TRANSPOSE_ROUNDS: dict[int, tuple[tuple[int, int], ...]] = {}


def _transpose(x: int, w: int) -> int:
    """Transpose the w x w bit matrix ``x``, bit (r, c) at r * w + c.

    Transposing swaps the bits of r and c. Round j (j = w/2, ..., 2, 1)
    swaps their bit of value j: every position with that bit set in c but
    not in r trades places with the position j rows down and j columns
    left, j * (w - 1) bits higher, in one mask-shift-xor step on the whole
    matrix.
    """
    rounds = _TRANSPOSE_ROUNDS.get(w)
    if rounds is None:
        out = []
        j = w >> 1
        while j:
            row = sum(1 << c for c in range(w) if c & j)
            out.append((sum(row << (r * w) for r in range(w) if not r & j), j * (w - 1)))
            j >>= 1
        rounds = _TRANSPOSE_ROUNDS[w] = tuple(out)
    for mask, shift in rounds:
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    return x


def _pack_rows(rows: tuple[int, ...]) -> tuple[int, int]:
    """The rows as one int x, row v at bit v * w, and the width w: the least
    of 8, 16, 32, 64 that is at least the number of rows."""
    n = len(rows)
    w = 8 if n <= 8 else 1 << (n - 1).bit_length()
    packed = bytes(rows) if w == 8 else struct.pack(f"<{n}{_PACK_CODE[w]}", *rows)
    return int.from_bytes(packed, "little"), w


def symmetric_closure(rows: tuple[int, ...]) -> tuple[int, ...]:
    """The rows of the least symmetric relation that contains ``rows`` (n
    rows of bits below n): row v of the result is row v plus every u whose
    row holds v. The packed rows are OR-ed with their transpose (see
    :func:`_transpose`)."""
    n = len(rows)
    x, w = _pack_rows(rows)
    x |= _transpose(x, w)
    if w == 8:
        return tuple(x.to_bytes(n, "little"))
    return struct.unpack(f"<{n}{_PACK_CODE[w]}", x.to_bytes(n * w // 8, "little"))


def _check_count(n) -> None:
    if type(n) is not int:
        raise InputError(f"vertex count {n!r} is not an int")
    if not 0 <= n <= MAX_VERTICES:
        raise InputError(f"vertex count {n} outside supported range 0..{MAX_VERTICES}")


class _Value:
    """Base of the package's frozen value classes.

    A subclass's fields are the parameters of its ``__init__``, in order; the
    ``__init__`` stores each in the instance ``__dict__`` under its own name
    and may store other attributes beside them, which are not fields.
    Assigning or deleting an attribute raises ``AttributeError``. Two
    instances are equal when they are of one class, not merely related ones,
    and have equal fields; against any other class ``==`` returns
    ``NotImplemented``. The hash is that of the tuple of fields, and the repr
    is ``Name(field=value, ...)``, as a frozen dataclass writes both.
    ``copy`` and ``pickle`` copy the ``__dict__``.
    """

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        d = self.__dict__
        return f"{self.__class__.__qualname__}({', '.join(f'{f}={d[f]!r}' for f in self._fields)})"


class Graph:
    """Immutable simple undirected graph with one adjacency bitset per vertex."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        """Validate and store the rows: ``n`` and every row must be ints (not
        bools), rows within range and loop-free, and the matrix symmetric.

        Symmetry is checked on the whole matrix at once. The rows are packed
        into one int x, row v at bit v * w, for the least width w in 8, 16,
        32, 64 with n <= w, and x must equal its transpose (see
        :func:`_transpose`). Bit v * w + u of ``x & ~transpose(x)`` is set
        exactly when u is in row v but v is not in row u, so its lowest set
        bit is the least such v and then the least such u: the edge a scan
        over the rows in order, each row's bits ascending, reports first.
        """
        _check_count(n)
        adj = tuple(adj)
        if len(adj) != n:
            raise InputError("adjacency table length does not match vertex count")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if type(row) is not int:
                raise InputError(f"adjacency of vertex {v} is not an int: {row!r}")
            if row & ~full:
                raise InputError(f"adjacency of vertex {v} mentions out-of-range vertices")
            if (row >> v) & 1:
                raise InputError(f"vertex {v} has a loop")
        if n:
            x, w = _pack_rows(adj)
            bad = x & ~_transpose(x, w)
            if bad:
                v, u = divmod((bad & -bad).bit_length() - 1, w)
                raise InputError(f"edge {v},{u} is not symmetric")
        self.n = n
        self.adj = adj

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        _check_count(n)
        rows = [0] * n
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise InputError(f"edge {u!r},{v!r} has an endpoint that is not an int")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge {u},{v} outside vertex range 0..{n - 1}")
            if u == v:
                raise InputError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        _check_count(n)
        return cls(n, tuple([0] * n))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        _check_count(n)
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << v) for v in range(n)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def petersen(cls) -> "Graph":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, 5 + i) for i in range(5)]
        return cls.from_edges(10, outer + inner + spokes)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def min_degree(self) -> int:
        return min((row.bit_count() for row in self.adj), default=0)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        return iter(_row_edges(self.adj))

    def complement(self) -> "Graph":
        full = self.full_mask
        return Graph(self.n, tuple((full ^ row) & ~(1 << v) for v, row in enumerate(self.adj)))

    def _check_vertex(self, v: int) -> None:
        if type(v) is not int or not 0 <= v < self.n:
            raise InputError(f"vertex {v!r} is not an int in range 0..{self.n - 1}")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"


def neighbors_closed(g: Graph, v: int) -> int:
    """Closed neighborhood of ``v`` as a bitset."""
    g._check_vertex(v)
    return g.adj[v] | (1 << v)


def induced(g: Graph, s: int) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on bitset ``s``; also returns new-index -> old-vertex map."""
    if s & ~g.full_mask:
        raise InputError("vertex set is not a subset of the graph")
    verts = set_of(s)
    pos = {v: i for i, v in enumerate(verts)}
    rows = []
    for v in verts:
        row = 0
        for u in bits(g.adj[v] & s):
            row |= 1 << pos[u]
        rows.append(row)
    return Graph(len(verts), tuple(rows)), verts


def components(adj: Sequence[int], domain: int) -> list[int]:
    """Connected components of ``domain``, as bitsets by least vertex.

    ``adj`` may be any indexable adjacency rows: a ``Graph.adj``, a list, or
    a dict keyed by the vertices of ``domain``. :func:`reachable` and
    :func:`shortest_path` take the same."""
    out = []
    while domain:
        comp = reachable(adj, domain & -domain, domain)
        out.append(comp)
        domain &= ~comp
    return out


def reachable(adj: Sequence[int], start: int, domain: int) -> int:
    """Vertices of ``domain`` reachable from the bitset ``start`` inside ``domain``."""
    comp = frontier = start & domain
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & domain & ~comp
        comp |= frontier
    return comp


def shortest_path(adj: Sequence[int], src: int, ends: int, domain: int) -> list[int]:
    """A shortest path from ``src`` to a vertex of ``ends`` with every
    vertex after ``src`` in ``domain``, without ``src``; [] if there is none.

    Breadth-first layers from src inside ``domain`` run until one meets
    ``ends``. The path ends at that layer's least vertex in ``ends`` and
    steps back through the layers, each time to the least neighbour."""
    layers = []
    seen = 1 << src
    frontier = adj[src] & domain & ~seen
    while not frontier & ends:
        if not frontier:
            return []
        layers.append(frontier)
        seen |= frontier
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & domain & ~seen
    hit = frontier & ends
    x = (hit & -hit).bit_length() - 1
    path = [x]
    for layer in reversed(layers):
        back = adj[x] & layer
        x = (back & -back).bit_length() - 1
        path.append(x)
    return path[::-1]


def is_connected(g: Graph, domain: int | None = None) -> bool:
    dom = g.full_mask if domain is None else domain & g.full_mask
    if dom == 0:
        return True
    return reachable(g.adj, dom & -dom, dom) == dom


def rho(g: Graph, t: int) -> int:
    """Number of edges with at least one endpoint in the bitset ``t``."""
    if t & ~g.full_mask:
        raise InputError("vertex set is not a subset of the graph")
    inside = 0
    crossing = 0
    for v in bits(t):
        inside += (g.adj[v] & t).bit_count()
        crossing += (g.adj[v] & ~t).bit_count()
    return inside // 2 + crossing


def _row_edges(rows: Sequence[int]) -> list[tuple[int, int]]:
    """The edges (u, w), u < w, of the graph with these rows, by u then w."""
    out = []
    for u, row in enumerate(rows):
        row &= -2 << u  # the bits above u
        while row:
            low = row & -row
            out.append((u, low.bit_length() - 1))
            row ^= low
    return out


def _delete_rows(rows: Sequence[int], v: int) -> tuple[int, ...]:
    """The rows of G - v, the vertices above v shifted down by one, unchecked."""
    low = (1 << v) - 1
    return tuple([(r & low) | (r >> (v + 1) << v) for r in rows[:v] + rows[v + 1:]])


def _contract_rows(rows: Sequence[int], u: int, v: int) -> tuple[int, ...]:
    """The rows of G/uv for adjacent u < v, unchecked, built in one pass:
    row u takes row v's neighbours, row v goes, and in every other row bit v
    is folded into bit u; then the bits above v shift down by one, as in
    :func:`_delete_rows`."""
    low = (1 << v) - 1
    out = []
    for w, r in enumerate(rows):
        if w == u:
            r = (r | rows[v]) & ~(1 << u)
        elif w == v:
            continue
        elif r >> v & 1:
            r |= 1 << u
        out.append(r & low | r >> (v + 1) << v)
    return tuple(out)


# ---------------------------------------------------------------------------
# Exact independence number and maximum clique
# ---------------------------------------------------------------------------

def independence_number(g: Graph) -> int:
    """Exact independence number: the size of a maximum clique of the
    complement, found by :func:`max_clique`."""
    return max_clique(g.complement()).bit_count()


def max_clique(g: Graph) -> int:
    """A maximum clique as a bitset, via coloring-bounded branch and bound.

    A candidate set that is complete multipartite on its k greedy color
    classes (each vertex adjacent to every candidate outside its class) is
    taken whole. The greedy coloring of such a set gives each part one
    class, lowest vertex first, so the loop would recurse from the highest
    vertex of the last class into the other classes, again complete
    multipartite with the same classes, down to the highest vertex of each
    class as the new best when size + k beats the best size. It would then
    prune every later sibling, whose bound is at most size + k. The mask is
    the same. A clique is the case where every class has one vertex, which
    passes the test without a look.

    The greedy coloring is one bitset per color class, each filled lowest
    vertex first. ``expand`` tries the vertices in decreasing (color,
    vertex) order, the reverse of the order in which the coloring assigns
    them, each under the bound of its own color.
    """
    adj = g.adj
    best_mask = 0
    best_size = 0

    def color_sort(cand: int) -> list[int]:
        # greedy coloring of the candidate set, one bitset per color class;
        # the bound for a vertex of class i is i + 1
        classes = []
        rest = cand
        while rest:
            cls = 0
            avail = rest
            while avail:
                low = avail & -avail
                cls |= low
                avail &= ~adj[low.bit_length() - 1] & ~low
            classes.append(cls)
            rest &= ~cls
        return classes

    def expand(cur: int, size: int, cand: int) -> None:
        nonlocal best_mask, best_size
        classes = color_sort(cand)
        # tops: the highest vertex of each class if every vertex is adjacent
        # to all of cand outside its class, else None; with one vertex per
        # class, cand is a clique and the test needs no look
        tops = cand
        if len(classes) < cand.bit_count():
            tops = 0
            for cls in classes:
                out = cand & ~cls
                rest = cls
                while rest:
                    low = rest & -rest
                    if out & ~adj[low.bit_length() - 1]:
                        break
                    rest ^= low
                if rest:
                    tops = None
                    break
                tops |= 1 << (cls.bit_length() - 1)
        if tops is not None:
            # cand is complete multipartite on its classes: the first descent
            # takes the highest vertex of each class, and prunes the rest
            if size + len(classes) > best_size:
                best_size = size + len(classes)
                best_mask = cur | tops
            return
        # last class first, each from its highest vertex down
        for bound in range(len(classes), 0, -1):
            cls = classes[bound - 1]
            while cls:
                if size + bound <= best_size:
                    return
                v = cls.bit_length() - 1
                cls ^= 1 << v
                newcand = cand & adj[v]
                # the call, or the bound that skips it, leaves best_size >=
                # size + 1: every expand leaves best_size at least its own
                # size (by induction on depth), so cur | v needs no update
                if size + 1 + newcand.bit_count() > best_size:
                    expand(cur | (1 << v), size + 1, newcand)
                cand &= ~(1 << v)

    expand(0, 0, g.full_mask)
    return best_mask


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

def twin_classes(g: Graph) -> tuple[int, ...]:
    """The twin classes of ``g`` as vertex masks, by lowest vertex; every
    vertex is in exactly one.

    u and v are twins when N(u) - v = N(v) - u, so swapping them is an
    automorphism. The relation is an equivalence: for twins u ~ v ~ w, a
    vertex outside {u, v, w} is adjacent to all three or to none, and uv is
    an edge iff uw is (v ~ w), iff vw is (u ~ v), so N(u) - w = N(w) - u.
    """
    adj = g.adj
    out = []
    left = g.full_mask
    while left:
        v = (left & -left).bit_length() - 1
        cls, a = 1 << v, adj[v]
        for w in bits(left ^ cls):
            if not (adj[w] ^ a) & ~(1 << w | 1 << v):
                cls |= 1 << w
        left ^= cls
        out.append(cls)
    return tuple(out)


def canonical_form(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact canonical form: (n, lexicographically maximal row-bit sequence).

    Row i of a vertex ordering records adjacency toward the already placed
    vertices, the first placed one in its highest bit.
    """
    return (g.n, _max_rows(g.n, g.adj))


def _max_rows(
    n: int, adj: tuple[int, ...], bound: tuple[int, ...] | None = None
) -> tuple[int, ...] | None:
    """The largest row sequence over every vertex ordering of the graph.

    The search places at each position only vertices whose row is the
    largest, one of each twin pair (swapping twins is an automorphism), and
    drops a prefix whose row falls below the best sequence found. Given
    ``bound``, the rows of some ordering, it returns None as soon as a
    prefix beats the bound and the bound itself when none does.

    The unplaced vertices form an ordered partition: cells ``(mask, row)``
    with the rows toward the placed vertices falling. Placing x splits each
    cell into its part in N(x), row 2r + 1, and the rest, row 2r, and since
    2r + 1 < 2r' whenever r < r' the parts stay in falling order. So the
    first cell holds exactly the vertices of largest row, under that row.
    """
    full = (1 << n) - 1
    return _descend(n, adj, bound, 0, [(full, 0)], full)


def _descend(
    n: int,
    adj: tuple[int, ...],
    bound: tuple[int, ...] | None,
    placed: int,
    cells: list[tuple[int, int]],
    todo: int,
) -> tuple[int, ...] | None:
    """The search of :func:`_max_rows` from one node, where ``placed``
    vertices are placed with the first rows of ``bound`` (a search without
    a bound starts at the root), the unplaced ones form ``cells`` and
    ``todo`` holds the vertices of the first cell to try there."""
    # the best sequence found; its first entries are the current prefix's
    # rows, and a prefix that beats it overwrites it from there on (a bound
    # is never written: the search stops where it would be)
    best = bound if bound is not None else [0] if n else []
    # one frame per position: the cells of the unplaced vertices and the
    # first cell's vertices left to try, highest label first, so that a
    # census candidate's bound, the ordering by falling labels, comes first
    stack = [[cells, todo]]
    while stack:
        cells, todo = frame = stack[-1]
        if not todo:
            stack.pop()
            continue
        x = todo.bit_length() - 1
        bit, a = 1 << x, adj[x]
        rest = todo = todo ^ bit
        while rest:
            w = rest.bit_length() - 1
            rest ^= 1 << w
            if not (adj[w] ^ a) & ~(1 << w | bit):
                todo ^= 1 << w  # a twin of x
        frame[1] = todo
        i = placed + len(stack)
        if i == n:
            continue  # a full ordering; ``best`` already holds its rows
        nxt = []
        for m, r in cells:
            m &= ~bit
            hi = m & a
            if hi:
                nxt.append((hi, 2 * r + 1))
            if m ^ hi:
                nxt.append((m ^ hi, 2 * r))
        top = nxt[0][1]
        if i < len(best) and top < best[i]:
            continue
        if i == len(best) or top > best[i]:
            if bound is not None:
                return None
            best[i:] = [top]
        stack.append([nxt, nxt[0][0]])
    return tuple(best)


_CENSUS_CACHE: dict[int, tuple[Graph, ...]] = {}


def nonisomorphic_graphs(n: int) -> list[Graph]:
    """All graphs on ``n`` vertices up to isomorphism (small n only), by
    orderly generation from the graphs on n - 1 vertices.

    Let S be the canonical rows of G (see :func:`canonical_form`), reached
    by the ordering s, and let x be the last vertex of s. The first n - 1
    rows of S are the canonical rows of G - x: if an ordering t of G - x
    gave larger rows, t followed by x would beat s on G, since a row reads
    only the vertices placed before it. A row sequence determines its graph,
    so each class on n vertices is exactly one pair (canonical rows R of a
    class on n - 1 vertices, last row r) such that R + (r,) is the largest
    row sequence of the graph it describes; :func:`_extensions` finds the
    last rows of each class on n - 1 vertices.

    Vertex i of each graph is the (n - 1 - i)-th vertex of its canonical
    ordering, so its canonical rows are ``adj[v] >> (v + 1)`` for v from
    n - 1 down to 0, and a candidate's new last vertex is vertex 0. Each
    call returns a new list, so a caller may change it.
    """
    if type(n) is not int:
        raise InputError(f"census size n must be an int, not {n!r}")
    if n < 0:
        raise InputError("negative vertex count")
    if n > 8:
        raise ResourceError("census generation supported for n <= 8")
    if n in _CENSUS_CACHE:
        return list(_CENSUS_CACHE[n])
    if n <= 1:
        out = [Graph.empty(n)]
    else:
        out = [h for g in nonisomorphic_graphs(n - 1) for h in _extensions(g)]
    _CENSUS_CACHE[n] = tuple(out)
    return out


def _extensions(g: Graph) -> list[Graph]:
    """The census graphs whose canonical rows extend those of ``g``, a
    census graph with at least one vertex, by one row, in rising order of
    that row.

    Let m = g.n, R the canonical rows of g and s = (m - 1, ..., 0) the
    ordering of g by falling labels, whose rows are R. A candidate last row
    r describes H: g plus a vertex v0 adjacent to each v with bit v of r,
    and the ordering s, v0 with rows B = R + (r,). The candidate is kept
    when no ordering of H beats B. Swapping the last two vertices of s, v0
    moves row r >> 1 to position m - 1, so a candidate with r >> 1 > R[-1]
    is never kept and is not built. Two cheap rejections come first:

    - Twin packing. Swapping twins u > w of g (see :func:`twin_classes`) is
      an automorphism, so it maps s to an ordering with rows R, and that
      ordering followed by v0 has last row r with bits u and w swapped. If r
      holds w but not u, that row is larger, u being placed first. So a
      kept r holds the highest vertices of each twin class.
    - Tie leaves. An ordering t of g with rows R, followed by v0, has rows
      R + (r read along t), so r is rejected when r read along t is larger.
      The orderings t are the full-length prefixes of :func:`_tie_tree`.

    One walk of the tie tree then decides the rest. Let an ordering of H
    first exceed B at position i, with v0 at position p. If p > i, its
    first i + 1 vertices are vertices of g with their rows in g: equal to
    R before i and larger at i, so any completion would beat R on g, which
    is the largest. So p <= i: the vertices before v0 form a tie prefix of
    g (rows R[:p]), and v0's row toward them is B[p] (p < i) or more
    (p = i). The walk carries that row along the prefixes. Where it is
    larger than B[p], B is beaten; where it is equal, :func:`_descend`
    searches on from v0 placed there. A vertex of g that follows a prefix,
    v0 still unplaced, has its row in g, which reaches R[p] only in the
    first cell, so the walk follows the tree's kids. Twins x > w of g in
    that cell lead to the same outcome when r holds both or neither (the
    swap is an automorphism of H fixing the prefix). Otherwise w's subtree
    is x's subtree in the graph H' whose v0 has bits x and w of r swapped
    (the swap maps H onto H' and keeps B); but r holds x, since it packs
    the class and the vertices of the class placed before are its highest,
    and below x v0's row in H' is smaller than in H, the first difference
    being at x. So a row that reaches B[q] in H' exceeds it in H at the same
    prefix, and x's subtree in H alone decides. Last, v0's row at a node
    below the current one, q - p positions deeper, reads the current row in
    its top bits, so a subtree whose rows R[q] >> (q - p) all exceed that
    row (its floor) is skipped, and full-length prefixes are left to the
    tie-leaf rejection.
    """
    m, gadj = g.n, g.adj
    n = m + 1
    rows = tuple(gadj[v] >> (v + 1) for v in range(m - 1, -1, -1))
    classes = twin_classes(g)
    root, leaves = _tie_tree(g, rows, classes)

    def beats(node, p, row):
        # whether an ordering of H that begins with ``node``'s prefix, v0's
        # row toward it ``row`` (at least the node's floor), beats ``bound``
        if row > rows[p]:
            return True
        _, entry, kids = node
        if row == rows[p] and _descend(n, adj, bound, p, entry, 1) is None:
            return True
        for x, child in kids:
            nxt = 2 * row + (r >> x & 1)
            if nxt >= child[0] and beats(child, p + 1, nxt):
                return True
        return False

    out = []
    for r in range(2 * rows[-1] + 2):
        if not _packs_twins(r, classes) or any(_read_along(r, t) > r for t in leaves):
            continue
        bound = rows + (r,)
        # H's rows: v0 is vertex 0, g's vertices shift up one
        adj = (r << 1,) + tuple(a << 1 | (r >> v & 1) for v, a in enumerate(gadj))
        if not beats(root, 0, 0):
            out.append(Graph(n, adj))
    return out


def _packs_twins(r: int, classes: Sequence[int]) -> bool:
    """Whether ``r`` holds the highest vertices of each class, some or none."""
    for c in classes:
        held = r & c
        if held and c & ~r > held & -held:
            return False
    return True


def _read_along(r: int, order: Sequence[int]) -> int:
    """The bits of ``r`` at the vertices of ``order``, the first highest."""
    out = 0
    for v in order:
        out = 2 * out + (r >> v & 1)
    return out


def _tie_tree(
    g: Graph, rows: tuple[int, ...], classes: Sequence[int]
) -> tuple[tuple, list[tuple[int, ...]]]:
    """The tie prefixes of ``g``, a graph with at least one vertex whose
    largest rows are ``rows`` and twin classes ``classes``, as a tree, and
    its full-length prefixes.

    A tie prefix is an ordering of some vertices of g whose rows are the
    first rows of ``rows``. The tree has one node per tie prefix shorter
    than g, a dead end (where no vertex of g can follow) included, and
    places one vertex of each twin class of the first cell, its highest, as
    :func:`_descend` does. A node at depth p is ``(floor, entry, kids)``:
    ``floor`` is the least ``rows[q] >> (q - p)`` over the depths q of the
    subtree, ``entry`` the cells of g plus a new vertex 0 (g's vertices
    shifted up one) whose row toward the prefix is ``rows[p]``, and
    ``kids`` a ``(x, child)`` per vertex x placed next, below depth m - 1.
    """
    m, adj = g.n, g.adj
    twin_of = [0] * m
    for c in classes:
        for v in bits(c):
            twin_of[v] = c
    leaves = []

    def grow(cells, prefix):
        p = len(prefix)
        first, top = cells[0]
        entry = [(c << 1, r) for c, r in cells]
        if top < rows[p]:
            return rows[p], [(1, rows[p])] + entry, ()
        entry[0] = (first << 1 | 1, top)
        floor = rows[p]
        kids = []
        todo = first
        while todo:
            x = todo.bit_length() - 1
            twins = todo & twin_of[x]
            todo ^= twins
            if p + 1 == m:
                leaves.append(prefix + (x,))
                continue
            bit, a = 1 << x, adj[x]
            nxt = []
            for c, r in cells:
                c &= ~bit
                hi = c & a
                if hi:
                    nxt.append((hi, 2 * r + 1))
                if c ^ hi:
                    nxt.append((c ^ hi, 2 * r))
            child = grow(nxt, prefix + (x,))
            floor = min(floor, child[0] >> 1)
            kids.append((x, child))
        return floor, entry, tuple(kids)

    root = grow([((1 << m) - 1, 0)], ())
    return root, leaves


# ---------------------------------------------------------------------------
# Minors
# ---------------------------------------------------------------------------

class MinorWitness(_Value):
    """A minor model: disjoint connected branch sets of the host plus the kept
    adjacencies between them. ``quotient()`` rebuilds the minor itself."""

    def __init__(self, host: Graph, branch_sets: tuple[int, ...], model_edges: tuple[tuple[int, int], ...]):
        self.__dict__.update(host=host, branch_sets=branch_sets, model_edges=model_edges)

    def quotient(self) -> Graph:
        return Graph.from_edges(len(self.branch_sets), self.model_edges)

    def validate(self) -> None:
        host, branch_sets = self.host, self.branch_sets
        adj, full = host.adj, host.full_mask
        if not isinstance(branch_sets, tuple) or not all(type(bs) is int for bs in branch_sets):
            raise InputError("the branch sets must be a tuple of int masks")
        edges = self.model_edges
        if not isinstance(edges, tuple) or not all(isinstance(e, tuple) and len(e) == 2 for e in edges):
            raise InputError("the model edges must be a tuple of index pairs")
        seen = 0
        reach = []  # reach[i]: the host vertices adjacent to branch set i
        for bs in branch_sets:
            if bs == 0:
                raise InputError("empty branch set")
            if bs & seen:
                raise InputError("branch sets overlap")
            if bs & ~full:
                raise InputError("branch set outside host")
            seen |= bs
            if not bs & (bs - 1):  # a single vertex
                reach.append(adj[bs.bit_length() - 1])
                continue
            if not is_connected(host, bs):
                raise InputError("branch set does not induce a connected subgraph")
            r = 0
            for v in bits(bs):
                r |= adj[v]
            reach.append(r)
        m = len(reach)
        used = set()
        for i, j in edges:
            if not (type(i) is int and type(j) is int and 0 <= i < m and 0 <= j < m):
                raise InputError(f"model edge {i!r},{j!r} is not a pair of branch set indices")
            if i == j:
                raise InputError("model loop")
            key = (i, j) if i < j else (j, i)
            if key in used:
                raise InputError("parallel model edge")
            used.add(key)
            if not reach[i] & branch_sets[j]:
                raise InputError(f"model edge {i},{j} has no host edge backing it")


def contraction_quotients(g: Graph) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Stream G/F for every nonempty edge set F, one per partition, as the
    pair (branch sets, rows of the quotient), the rows unchecked.

    Each pair partitions the vertices into connected branch sets, and row i
    holds every j whose branch set is adjacent to set i; each such partition
    other than the one into single vertices comes exactly once. Contracting
    the edges of G/F gives the contractions of G that coarsen its partition,
    so the walk merges two adjacent branch sets per step
    (:func:`_contract_rows`), level by level (every quotient on a level has
    the same order). A level maps each partition, its branch sets sorted by
    least vertex, to its quotient's rows; merging set v into set u < v keeps
    that order, so the tuple names the partition, and a partition reached
    again on its level is skipped. No :class:`Graph` is built: a caller
    that keeps a quotient builds its :class:`MinorWitness` from the pair.

    Isomorphic quotients are not merged. A caller that wants the first
    quotient with some isomorphism-invariant property (as
    :func:`~knitweave.coloring.is_contraction_critical` does) gets the same
    witness as from a walk that kept only the first quotient of each
    isomorphism class on a level and expanded only those. By induction on
    levels, that walk keeps the first member of each class in this walk's
    order, in the same order: isomorphic quotients have children in the
    same classes, so the first child in a class is a child of a parent that
    is first in its class, and that walk expands those parents in the same
    order along the same edges. The first quotient with the property is
    first in its class, since an earlier isomorphic quotient would have the
    property too, so that walk keeps it and meets no other one before it.
    """
    if g.n > MINOR_ENUM_LIMIT:
        raise ResourceError(
            f"contraction quotients supported for n <= {MINOR_ENUM_LIMIT}; "
            f"got n = {g.n} (the walk lists every partition into connected branch sets)"
        )
    level = {tuple(1 << v for v in range(g.n)): g.adj}
    while level:
        found: dict = {}
        for branch_sets, rows in level.items():
            for u, v in _row_edges(rows):
                merged = list(branch_sets)
                merged[u] |= merged.pop(v)  # u < v, so u keeps its index
                bs = tuple(merged)
                if bs in found:
                    continue
                h = found[bs] = _contract_rows(rows, u, v)
                yield bs, h
        level = found
