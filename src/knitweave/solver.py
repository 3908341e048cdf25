"""Exact decision procedures with certificates: disjoint paths, knits,
profile knittedness, and terminal-block configurations with reroutes.

Everything here is deterministic: ties break lexicographically by vertex
index, so repeated runs return identical certificates.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace
from typing import Iterator, Optional, Sequence

from .errors import InputError, PreconditionError
from .graphs import Graph, bits, components, is_connected, mask_of, set_of
from .planar import face_count, planar_rotation

# _link branches on the pair with the fewest candidate paths, counted by
# _count_paths up to this cap; larger counts tie, and no path is built
_COUNT_CAP = 24


@dataclass(frozen=True)
class TerminalSpec:
    """A partition of the terminal set into parts of size 1 or 2, plus a set of
    vertices the connecting subgraphs must avoid. ``terminal_mask`` is the
    mask of the parts' vertices, built once with them."""

    parts: tuple[tuple[int, ...], ...]
    forbidden: int = 0
    terminal_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = 0
        norm = []
        for part in self.parts:
            size = len(part)
            if size == 2:
                a, b = part
                if not (type(a) is int and type(b) is int and a >= 0 and b >= 0):
                    raise InputError(f"part {part} must hold vertex indices")
                if a == b:
                    raise InputError(f"part {part} must have one or two distinct vertices")
                t = (a, b) if a < b else (b, a)
                m = 1 << a | 1 << b
            elif size == 1:
                (a,) = part
                if not (type(a) is int and a >= 0):
                    raise InputError(f"part {part} must hold vertex indices")
                t = (a,)
                m = 1 << a
            else:
                if not all(type(x) is int and x >= 0 for x in part):
                    raise InputError(f"part {part} must hold vertex indices")
                raise InputError(f"part {part} must have one or two distinct vertices")
            if m & seen:
                raise InputError("terminal parts overlap")
            seen |= m
            norm.append(t)
        if type(self.forbidden) is not int or self.forbidden < 0:
            raise InputError(f"forbidden must be a nonnegative int mask: {self.forbidden!r}")
        if seen & self.forbidden:
            raise InputError("terminals overlap the forbidden set")
        object.__setattr__(self, "parts", tuple(norm))
        object.__setattr__(self, "terminal_mask", seen)

    def check_in_graph(self, g: Graph) -> None:
        if (self.terminal_mask | self.forbidden) & ~g.full_mask:
            raise InputError("terminal specification mentions out-of-range vertices")


def pairs_spec(pairs: Sequence[tuple[int, int]]) -> TerminalSpec:
    return TerminalSpec(tuple(tuple(p) for p in pairs))


def check_path(g: Graph, path: Sequence[int]) -> int:
    """Raise InputError unless ``path`` is a nonempty sequence of vertices of
    ``g`` that repeats none and runs along edges of ``g``; return its mask."""
    if not path or not all(type(x) is int and 0 <= x < g.n for x in path):
        raise InputError(f"path {path} is not a nonempty sequence of vertices of the graph")
    m = mask_of(path)
    if m.bit_count() != len(path):
        raise InputError(f"path {path} repeats a vertex")
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            raise InputError(f"{a},{b} on path {path} is not an edge")
    return m


@dataclass(frozen=True)
class Linkage:
    paths: tuple[tuple[int, ...], ...]

    def validate(self, g: Graph, spec: TerminalSpec) -> None:
        if len(self.paths) != len(spec.parts):
            raise InputError("path count does not match the terminal parts")
        used = 0
        for part, path in zip(spec.parts, self.paths):
            m = check_path(g, path)
            if len(part) != 2:
                raise InputError("linkage parts must be pairs")
            if {path[0], path[-1]} != set(part):
                raise InputError(f"path {path} does not join {part}")
            if m & used:
                raise InputError("paths are not vertex-disjoint")
            if m & spec.forbidden:
                raise InputError("a path meets the forbidden set")
            used |= m


@dataclass(frozen=True)
class Knit:
    subgraphs: tuple[int, ...]

    def validate(self, g: Graph, spec: TerminalSpec) -> None:
        if len(self.subgraphs) != len(spec.parts):
            raise InputError("subgraph count does not match the terminal parts")
        used = 0
        for part, sub in zip(spec.parts, self.subgraphs):
            if sub & ~g.full_mask:
                raise InputError("a subgraph mentions out-of-range vertices")
            if mask_of(part) & ~sub:
                raise InputError(f"subgraph misses its terminals {part}")
            if sub & used:
                raise InputError("subgraphs overlap")
            if sub & spec.forbidden:
                raise InputError("a subgraph meets the forbidden set")
            if not is_connected(g, sub):
                raise InputError("a subgraph is not connected")
            used |= sub


# ---------------------------------------------------------------------------
# Path and flow machinery
# ---------------------------------------------------------------------------

def _near_layers(g: Graph, u: int, v: int, allowed: int) -> tuple[int, list[int], Optional[int]]:
    """The breadth-first layers that both path walkers below step through:
    ``(inner, near, shortest)``, where ``inner`` is ``allowed`` without u and
    v, ``near[0]`` is v alone, ``near[r]`` for r >= 1 holds the vertices of
    ``inner`` at most r steps from v inside it, and ``shortest`` is the
    vertex count of a shortest u-v path (None if there is none)."""
    adj = g.adj
    target = 1 << v
    inner = allowed & ~(1 << u) & ~target
    near = [target]  # near[0]: the only vertex a path can step to last
    seen = frontier = target
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & inner & ~seen
        seen |= frontier
        near.append(seen & inner)
    shortest = next((r + 2 for r, layer in enumerate(near) if adj[u] & layer), None)
    return inner, near, shortest


def iter_paths_by_length(g: Graph, u: int, v: int, allowed: int, max_len: int) -> Iterator[tuple[int, ...]]:
    """Simple u-v paths whose interior lies in ``allowed``, at most
    ``max_len`` vertices long, shortest first and in lexicographic order of
    the vertex sequence within a length ((length, lex) order).

    One breadth-first search from v inside ``allowed`` (:func:`_near_layers`)
    gives the interior vertices at most r steps from v. Then one depth-first
    pass per exact length steps only to a vertex that is near enough to v for
    the steps left; the last step goes to v.
    """
    if u == v:
        return
    inner, near, shortest = _near_layers(g, u, v, allowed)
    if shortest is None:
        return
    adj = g.adj
    target = 1 << v
    top = len(near) - 1
    for length in range(shortest, min(max_len, inner.bit_count() + 2) + 1):
        path = [u]
        on = 1 << u
        # untried[i]: the next vertices not yet tried after path[i]
        untried = [adj[u] & near[min(length - 2, top)]]
        while untried:
            cand = untried[-1]
            if not cand:
                untried.pop()
                on ^= 1 << path.pop()
                continue
            low = cand & -cand
            untried[-1] = cand ^ low
            if low == target:
                yield (*path, v)
                continue
            path.append(low.bit_length() - 1)
            on |= low
            untried.append(adj[path[-1]] & near[min(length - len(path) - 1, top)] & ~on)


def _count_paths(g: Graph, u: int, v: int, allowed: int, cap: int) -> int:
    """``min(cap, number of simple u-v paths with interior in allowed)``,
    without building a path.

    Let inner be ``allowed`` without u and v, first = N(u) & inner and
    last = N(v) & inner. Paths of at most six vertices are counted in
    closed form:

    - 2 vertices: 1 if uv is an edge;
    - 3 vertices (u a v): |first & last|;
    - 4 vertices (u a c v): the sum over a in first of |N(a) & last|;
    - 5 vertices (u a b c v): the sum over b in N(first) & inner of
      |N(b) & first| * |N(b) & last| - |N(b) & first & last|;
    - 6 vertices (u a b c d v): the sum over b in N(first) & inner and
      c in N(b) & N(last) & inner of |A| * |D| - |A & D|, with
      A = N(b) & first - {c} and D = N(c) & last - {b}.

    In each, a vertex differs from the next one because they are adjacent,
    and every interior vertex differs from u and v because it lies in
    inner. That leaves only a and c of a 5-vertex path, both neighbours of
    b, and the subtracted term drops the choices with a = c. In a 6-vertex
    path, a != c and b != d are removed from A and D, and the subtracted
    term drops a = d; every other two vertices are adjacent or an end.

    Longer paths are walked as in :func:`iter_paths_by_length`, one
    depth-first pass per length from seven vertices, but each pass stops
    two vertices early, at the third-to-last interior vertex x. A path
    u ... x w c v goes on from x to an unused w in N(x) within two steps of
    v (near[2]), then to an unused c in N(w) & last other than x, so one
    loop over those w adds, for each, the number of unused vertices of
    N(w) & last without x. Here w differs from x and from c, being a
    neighbour of each, and lies in inner, as near[2] does.

    Every path's interior is connected and meets N(v), so it lies in v's
    component of inner, near[top]; the passes end at lengths of
    ``near[top].bit_count() + 2`` vertices, since no longer path exists.

    Every term is a count of paths, so the running count never falls, and
    it returns ``cap`` as soon as the count reaches it: within a sum, or
    once per third-to-last vertex in a pass. So the walk and its
    breadth-first search run only when the paths of at most six vertices
    leave the count below ``cap``.
    """
    if u == v:
        return 0
    adj = g.adj
    inner = allowed & ~(1 << u) & ~(1 << v)
    first = adj[u] & inner
    last = adj[v] & inner
    count = ((adj[u] >> v) & 1) + (first & last).bit_count()
    if count >= cap:
        return cap
    second = 0  # N(first) & inner: the middle vertex b of a 5-vertex path
    rest = first
    while rest:
        low = rest & -rest
        a = adj[low.bit_length() - 1]
        count += (a & last).bit_count()
        if count >= cap:
            return cap
        second |= a
        rest ^= low
    second &= inner
    rest = second
    while rest:
        low = rest & -rest
        b = adj[low.bit_length() - 1]
        ends = b & first
        count += ends.bit_count() * (b & last).bit_count() - (ends & last).bit_count()
        if count >= cap:
            return cap
        rest ^= low
    third = 0  # N(last) & inner: the vertex c of a 6-vertex path
    rest = last
    while rest:
        low = rest & -rest
        third |= adj[low.bit_length() - 1]
        rest ^= low
    third &= inner
    rest = second
    while rest:
        low = rest & -rest
        b = adj[low.bit_length() - 1]
        ends = b & first
        mid = b & third
        while mid:
            c = mid & -mid
            heads = ends & ~c
            tails = adj[c.bit_length() - 1] & last & ~low
            count += heads.bit_count() * tails.bit_count() - (heads & tails).bit_count()
            mid ^= c
        if count >= cap:
            return cap
        rest ^= low
    inner, near, shortest = _near_layers(g, u, v, allowed)
    if shortest is None:
        return 0
    top = len(near) - 1
    near2 = near[min(2, top)]
    for length in range(max(shortest, 7), near[top].bit_count() + 3):
        depth = length - 4  # path vertices before the third-to-last interior vertex
        path = [1 << u]
        on = 1 << u
        untried = [adj[u] & near[min(length - 2, top)]]
        while untried:
            cand = untried[-1]
            if not cand:
                untried.pop()
                on ^= path.pop()
                continue
            low = cand & -cand
            untried[-1] = cand ^ low
            x = low.bit_length() - 1
            if len(path) == depth:
                ends = last & ~on & ~low
                rest = adj[x] & near2 & ~on
                while rest:
                    w = rest & -rest
                    count += (adj[w.bit_length() - 1] & ends).bit_count()
                    rest ^= w
                if count >= cap:
                    return cap
                continue
            path.append(low)
            on |= low
            untried.append(adj[x] & near[min(length - len(path) - 1, top)] & ~on)
    return count


def max_vertex_disjoint_flow(
    g: Graph,
    sources: int,
    sinks: int,
    allowed: int,
    cap: Optional[int] = None,
    collect: bool = False,
):
    """Maximum number of vertex-disjoint paths from ``sources`` to ``sinks``.

    Interior vertices are restricted to ``allowed``; source and sink vertices
    carry capacity one as well, so each is the endpoint of at most one path.
    Paths stop at the first sink they touch. A vertex that is both a source
    and a sink counts as a length-one path. The search stops at ``cap`` paths
    (default: the smaller of the two end sets). With ``collect`` it returns
    ``(flow, paths)``, one path per used source in ascending order.

    This is Edmonds-Karp on the node-split network: a super source S, arcs
    S -> v_in for sources, v_in -> v_out for usable v, v_out -> w_in along
    usable edges when v is not a sink, and v_out -> T for sinks. The residual
    is kept as bitmasks rather than a capacity matrix: ``started`` (sources
    whose arc from S carries flow), ``thru`` (vertices whose split arc
    carries flow) and, per vertex, the one-bit mask ``succ[v]`` of its flow
    successor (0 when v carries no flow or is a sink) and, for a vertex
    carrying flow that is not started, its flow predecessor ``pred[v]``. A
    sink's flow always ends at T, so the vertices whose flow ends at the
    sink are ``thru & sinks``.

    The breadth-first search visits residual nodes in the order of the
    matrix form, whose nodes were numbered v_in = 2v, v_out = 2v + 1, S = 2n,
    T = 2n + 1 and whose rows were scanned in index order:

    - S expands to the in-nodes of the unstarted sources, ascending.
    - The out-node of a non-sink v expands to the in-nodes of
      ``adj[v] & usable & ~succ[v]``, plus its own in-node through the
      reversed split arc when v carries flow, all ascending and unvisited.
    - An in-node has at most one residual successor: its own out-node when
      v carries no flow, else the out-node of its predecessor (nothing when
      that is S, which is always visited). So each out-node is reached at
      most once, and it is handled as soon as its in-node is found; this
      keeps the first-in-first-out order of out-nodes unchanged.
    - T hangs off the out-node of a sink that carries no flow, and nothing
      else reaches that out-node; the first such in-node found closes the
      path, as T did in the matrix form when its row came up.

    So every augmenting path, and hence the value and the collected paths,
    equals the matrix form's; ``tests/oracles.py`` keeps that form as
    ``flow_by_matrix``. Before any search, each vertex of ``sources & sinks``
    is taken as a length-one path in ascending order, up to the limit.
    Edmonds-Karp finds exactly these paths first and in this order: while
    flow consists of them only, S reaches the least unstarted overlap vertex
    first and its in-node closes a length-3 path at once.
    """
    n = g.n
    adj = g.adj
    sources &= g.full_mask
    sinks &= g.full_mask
    usable = (allowed | sources | sinks) & g.full_mask
    limit = min(sources.bit_count(), sinks.bit_count()) if cap is None else cap
    seeds = sources & sinks
    while seeds.bit_count() > max(limit, 0):
        seeds &= ~(1 << (seeds.bit_length() - 1))
    flow = seeds.bit_count()
    started = thru = seeds
    succ = [0] * n
    pred = [0] * n
    while flow < limit:
        pin = {}  # in-node w -> the out-node reaching it (-1 for S)
        entry = {}  # out-node x -> the in-node reaching it
        seen = 0  # visited in-nodes
        layer = [-1]
        end = -1
        while layer and end < 0:
            nxt = []
            for x in layer:
                if x < 0:
                    cand = sources & ~started & ~seen
                else:
                    cand = ((adj[x] & usable & ~succ[x]) | (thru & (1 << x))) & ~seen
                seen |= cand
                while cand:
                    wb = cand & -cand
                    cand ^= wb
                    w = wb.bit_length() - 1
                    pin[w] = x
                    if not thru & wb:
                        if sinks & wb:
                            end = w
                            break
                        entry[w] = w
                        nxt.append(w)
                    elif not started & wb:
                        entry[pred[w]] = w
                        nxt.append(pred[w])
                if end >= 0:
                    break
            layer = nxt
        if end < 0:
            break
        # augment back from T: end_out -> T and end's split arc take flow
        thru |= 1 << end
        w = end
        while True:
            x = pin[w]
            if x < 0:  # S -> w_in
                started |= 1 << w
                break
            if x == w:  # reversed split arc: x carries no flow any more
                thru &= ~(1 << x)
                succ[x] = 0
            else:  # x_out -> w_in
                succ[x] = 1 << w
                pred[w] = x
            w = entry[x]
            if w == x:  # x_in -> x_out
                thru |= 1 << x
            # else the reversed arc cancels x -> w; the next step gives w a
            # new predecessor or takes its flow away
        flow += 1
    if not collect:
        return flow
    paths = []
    for s in bits(started):
        path = [s]
        while not (sinks >> path[-1]) & 1:
            path.append(succ[path[-1]].bit_length() - 1)
        paths.append(tuple(path))
    return flow, paths


# ---------------------------------------------------------------------------
# Two pairs: the two-paths theorem
# ---------------------------------------------------------------------------

def _reduce(adj: list[int], separator: int, side: int) -> None:
    """Delete ``side`` and make ``separator`` a clique."""
    for x in bits(side):
        adj[x] = 0
    for x in bits(separator):
        adj[x] = (adj[x] & ~side) | (separator & ~(1 << x))


def _deleted(g: Graph, ends: int, blocked: int) -> tuple[int, list[int]]:
    """The vertices of ``g`` outside ``blocked``, plus ``ends``, and the
    adjacency of the graph they induce (empty rows for the others)."""
    live = g.full_mask & ~blocked | ends
    return live, [row & live if (live >> v) & 1 else 0 for v, row in enumerate(g.adj)]


@dataclass(frozen=True)
class PlanarObstruction:
    """Certificate that two pairs s1-t1 and s2-t2 of a specification have no
    disjoint linking paths, and so that its pairs have none.

    The ``reductions`` replay in order on the graph with the specification's
    other vertices deleted: its other terminals and its forbidden set. Each
    is a mask pair ``(separator, side)``: a terminal-free side whose
    neighbours all lie in a separator of at most three vertices is deleted
    and the separator made a clique. A linkage before a reduction gives one
    after it, because at most one path can cross a separator of three
    vertices and a clique edge stands in for its detour.

    ``rotation[v]`` is the cyclic order of v's neighbours in a plane drawing
    of the reduced graph plus an apex, vertex ``g.n``, joined to the four
    terminals; a deleted vertex has none. The apex sees the terminals in the
    order s1, s2, t1, t2, so a path from s1 to t1 closes through the apex a
    cycle that separates s2 from t2. The two pairs are read off that ring:
    each joins two opposite entries.
    """

    reductions: tuple[tuple[int, int], ...]
    rotation: tuple[tuple[int, ...], ...]

    def validate(self, g: Graph, spec: TerminalSpec) -> None:
        spec.check_in_graph(g)
        apex = g.n
        if not isinstance(self.rotation, tuple) or len(self.rotation) != apex + 1:
            raise InputError(f"the rotation must list {apex + 1} vertices, the last the apex")
        ring = self.rotation[apex]
        if not (
            isinstance(ring, tuple)
            and len(ring) == 4
            and all(type(x) is int for x in ring)
            and {tuple(sorted(ring[::2])), tuple(sorted(ring[1::2]))} <= set(spec.parts)
        ):
            raise InputError("the apex does not see two pairs of the specification in the order s1, s2, t1, t2")
        ends = mask_of(ring)
        live, adj = _deleted(g, ends, spec.forbidden | spec.terminal_mask)
        if not all(isinstance(r, tuple) and len(r) == 2 for r in self.reductions):
            raise InputError("each reduction must be a (separator, side) pair")
        for separator, side in self.reductions:
            if not (type(separator) is int and type(side) is int and side > 0 and separator >= 0):
                raise InputError("a reduction needs a separator mask and a nonempty side mask")
            if (side | separator) & ~live or side & separator:
                raise InputError("a reduction's side and separator must be disjoint and in the graph")
            if side & ends:
                raise InputError("a reduction's side holds a terminal")
            if separator.bit_count() > 3:
                raise InputError("a reduction's separator has more than three vertices")
            if any(adj[x] & ~side & ~separator for x in bits(side)):
                raise InputError("a reduction's side has neighbours outside its separator")
            _reduce(adj, separator, side)
            live &= ~side
        adj.append(ends)
        for t in ring:
            adj[t] |= 1 << apex
        for v, order in enumerate(self.rotation):
            if not (
                isinstance(order, tuple)
                and all(type(x) is int and 0 <= x <= apex for x in order)
                and len(order) == adj[v].bit_count()
                and mask_of(order) == adj[v]
            ):
                raise InputError(f"the rotation at {v} does not list each of its neighbours once")
        live |= 1 << apex
        seen = frontier = 1 << apex
        while frontier:
            nxt = 0
            for x in bits(frontier):
                nxt |= adj[x]
            frontier = nxt & ~seen
            seen |= frontier
        if seen != live:
            raise InputError("the reduced graph plus the apex is not connected")
        edges = sum(row.bit_count() for row in adj) // 2
        if live.bit_count() - edges + face_count(self.rotation) != 2:
            raise InputError("the rotation's faces break Euler's formula: it is not a plane drawing")


def _terminal_free_side(h: Graph, v: int, ends: int, live: int) -> Optional[tuple[int, int]]:
    """The separator and the least terminal-free side around the
    non-terminal ``v`` that at most three vertices cut off from ``ends``, or
    None.

    A flow capped at four paths from v's neighbours to the ends, inside
    ``live`` without v, finds whether there is one (Menger). Its side is
    then the set of vertices whose out-node the residual reaches from v, in
    the node-split network with unbounded edge arcs, and the separator is
    the set of vertices whose in-node alone is reached.

    The side depends on the graph alone, not on which maximum flow is
    found. Every arc that leaves the source side of a minimum cut is
    saturated by any maximum flow, and every arc that enters it carries
    none, so no residual arc leaves it and the residual-reachable set lies
    inside it. That set is itself the source side of a minimum cut, so it
    is the least one, the same for every maximum flow.
    """
    allowed = live & ~(1 << v)
    flow, paths = max_vertex_disjoint_flow(h, h.adj[v], ends, allowed, cap=4, collect=True)
    if flow == 4:
        return None
    on = starts = 0
    pred = {}
    for p in paths:
        on |= mask_of(p)
        starts |= 1 << p[0]
        pred.update(zip(p[1:], p))
    reach_in = todo = h.adj[v]
    reach_out = 0
    while todo:
        out = 0
        for x in bits(todo):
            if not (on >> x) & 1:
                out |= 1 << x
            elif not (starts >> x) & 1:
                out |= 1 << pred[x]
        out &= ~reach_out
        reach_out |= out
        todo = 0
        for x in bits(out):
            todo |= h.adj[x] & allowed
        todo = (todo | (out & on)) & ~reach_in
        reach_in |= todo
    return reach_in & ~reach_out, reach_out | (1 << v)


def _fan_of_four(adj: list[int], v: int, good: int, live: int) -> bool:
    """Whether four successive shortest paths from ``v`` inside ``live``, each
    avoiding the vertices of the ones before, end at four vertices of
    ``good``. If so, they meet only at v. A "no" says nothing: other paths
    may still exist."""
    free = live & ~(1 << v)
    for _ in range(4):
        layers = []
        frontier = seen = adj[v] & free
        while not frontier & good:
            if not frontier:
                return False
            layers.append(frontier)
            nxt = 0
            rest = frontier
            while rest:
                low = rest & -rest
                nxt |= adj[low.bit_length() - 1]
                rest ^= low
            frontier = nxt & free & ~seen
            seen |= frontier
        hit = frontier & good
        x = (hit & -hit).bit_length() - 1
        free &= ~(1 << x)
        for layer in reversed(layers):
            back = adj[x] & layer
            x = (back & -back).bit_length() - 1
            free &= ~(1 << x)
    return True


def _obstruction(g: Graph, pairs: Sequence[tuple[int, int]], blocked: int) -> Optional[PlanarObstruction]:
    """Decide whether the two ``pairs`` are linked with no interior vertex in
    ``blocked``, by the two-paths theorem (Seymour 1980; Thomassen 1980): a
    certificate when they are not, None when they are.

    Delete the blocked vertices other than the terminals. Then, for each
    non-terminal vertex once, cut off the least terminal-free side around it
    that at most three vertices separate from the terminals, and make that
    separator a clique. Reducing never lowers another vertex's connectivity
    to the terminals (a clique edge stands in for a path's detour through
    the side), so one pass leaves no such side. The theorem then says the
    pairs are not linked exactly when the reduced graph plus the cycle
    s1 s2 t1 t2 has a plane drawing with the cycle bounding a face, that is,
    when it stays planar with an apex joined to the cycle. The certificate
    keeps that drawing without the cycle's added edges.

    Call a vertex good when four paths from it to the terminals meet only
    at it, and count the terminals as good. A good vertex has no such side:
    its capped flow (:func:`_terminal_free_side`) finds four paths and
    reduces nothing. So the pass runs that flow only at vertices not known
    to be good, and makes the reductions of one flow per vertex: each turn
    sees the graph that pass would, and a flow's side depends on the graph
    alone.

    Good-neighbour lemma: a vertex v with four paths to four distinct good
    vertices, meeting only at v, is good; in particular one with four good
    neighbours. For if at most three vertices S, not v, cut v off from the
    terminals, one of the four paths misses S, and its good end u lies with
    v on the terminal-free side of S. A terminal cannot lie there, and a
    good u cannot either, since one of its own four paths misses S. The
    pass tries such paths greedily before any flow (:func:`_fan_of_four`),
    and marks good each vertex that they or its flow show. Goodness
    survives the later reductions, by the clique argument above, so the
    marks stay true. No vertex of a side is ever marked: its separator
    cuts it off.

    So the graph that is embedded, the reduced graph plus the cycle and
    the apex, is one block on its non-isolated vertices, as
    :func:`planar_rotation` requires. After the pass every live
    non-terminal vertex is good: it was marked when visited, since a vertex
    not marked is deleted with its side, and no marked vertex is ever in a
    side. Delete any one vertex x. A good vertex other than x keeps at
    least three of its four paths, which meet only at it and so end at
    distinct terminals, and so a path to a terminal other than x; and the
    terminals other than x stay joined through the cycle s1 s2 t1 t2 and
    the apex.
    """
    (s1, t1), (s2, t2) = pairs
    ends = mask_of((s1, t1, s2, t2))
    live, adj = _deleted(g, ends, blocked)
    reductions = []
    # the flow reads only n, adj and full_mask, and _reduce keeps ``adj`` a
    # simple graph's adjacency, so a view of the list stands in for a Graph
    h = SimpleNamespace(n=g.n, adj=adj, full_mask=g.full_mask)
    good = ends
    for v in bits(live & ~ends):
        if not (live >> v) & 1:
            continue
        if _fan_of_four(adj, v, good, live):
            good |= 1 << v
            continue
        r = _terminal_free_side(h, v, ends, live)
        if r is None:
            good |= 1 << v
        else:
            reductions.append(r)
            _reduce(adj, *r)
            live &= ~r[1]
    ring = (s1, s2, t1, t2)
    added = [(a, b) for a, b in zip(ring, ring[1:] + ring[:1]) if not (adj[a] >> b) & 1]
    for a, b in added:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    adj.append(ends)
    for t in ring:
        adj[t] |= 1 << g.n
    rotation = planar_rotation(adj)
    if rotation is None:
        return None
    for a, b in added:
        rotation[a].remove(b)
        rotation[b].remove(a)
    return PlanarObstruction(tuple(reductions), tuple(map(tuple, rotation)))


def _shortest_first_links(g: Graph, two: Sequence[tuple[int, int]], blocked: int) -> bool:
    """Whether the two pairs are linked, with no interior vertex in
    ``blocked`` (which holds their ends), by one pair's lexicographically
    first shortest path, read off :func:`_near_layers`, and some path of
    the other pair in the free vertices it leaves; each pair is tried first
    in turn. True proves the pairs linked; False says nothing."""
    adj = g.adj
    free = g.full_mask & ~blocked
    for (u, v), (s, t) in (two, two[::-1]):
        _, near, shortest = _near_layers(g, u, v, free)
        if shortest is None:
            return False
        # step down the layers: a vertex r steps from v has a neighbour r - 1
        # steps away, and the least such one keeps the path shortest
        x, on = u, 0
        for r in range(shortest - 2, 0, -1):
            step = adj[x] & near[r]
            step &= -step
            on |= step
            x = step.bit_length() - 1
        if _near_layers(g, s, t, free & ~on)[2] is not None:
            return True
    return False


def _pair_obstruction(g: Graph, pairs: Sequence[tuple[int, int]], blocked: int) -> Optional[PlanarObstruction]:
    """The certificate of the first two of ``pairs``, in order, that
    :func:`_obstruction` shows unlinked with ``blocked`` deleted (it must
    hold every pair's ends); None if every two are linked. Pairs are linked
    only if every two of them are, so a certificate is a "no" for all.

    Two pairs that :func:`_shortest_first_links` links have no certificate,
    so the planarity test runs only on the others."""
    for two in itertools.combinations(pairs, 2):
        if _shortest_first_links(g, two, blocked):
            continue
        cert = _obstruction(g, two, blocked)
        if cert is not None:
            return cert
    return None


def two_pair_obstruction(g: Graph, spec: TerminalSpec) -> Optional[PlanarObstruction]:
    """The certificate that the pairs of ``spec`` have no disjoint linking
    paths avoiding its other vertices, when two of its non-edge pairs have
    none: that of the first two in order (:func:`_pair_obstruction`). None
    when every two non-edge pairs are linked, with the other terminals and
    the forbidden set deleted; the pairs may still be unlinked then."""
    spec.check_in_graph(g)
    pairs = [p for p in spec.parts if len(p) == 2 and not g.has_edge(*p)]
    return _pair_obstruction(g, pairs, spec.forbidden | spec.terminal_mask)


# ---------------------------------------------------------------------------
# Disjoint paths and knits
# ---------------------------------------------------------------------------

def _link(g: Graph, pairs: Sequence[tuple[int, int]], blocked: int) -> Optional[tuple[tuple[int, ...], ...]]:
    """Vertex-disjoint paths from u to v for each ``(u, v)`` of ``pairs``, in
    pair order, with no interior vertex in ``blocked`` (which must hold every
    pair's ends); None if there are none.

    Every linkage comes from the exhaustive backtracking search: direct
    edges first, then the other pairs fewest-candidate-paths first
    (recomputed as the search deepens, each count from :func:`_count_paths`,
    which builds no path, and capped at the fewest so far: a pair replaces
    the one chosen only with a smaller count, so the first pair of least
    count wins a tie), each trying its paths from
    :func:`iter_paths_by_length`, shortest first and lexicographic within a
    length ((length, lex) order). So each pair takes the first path in that
    order that lets the pairs after it be linked.

    A node with r >= 2 pairs left first bounds each pair's count from the
    components C of the free interior: a pair (a, b) has at least the sum
    over C of |N(a) & C| * |N(b) & C| paths, since each ordered choice of
    x in N(a) & C and y in N(b) & C starts and ends a different path
    (a x b when x = y, else a x ... y b inside C). A zero bound leaves the
    pair no path and returns False, so every count is at least 1. A pair
    whose bound reaches the fewest count so far is not counted, and when
    every pair after the first has a bound of at least ``_COUNT_CAP``, the
    first pair is taken with no count at all: a skipped count could only
    tie or exceed, and a tie goes to the earlier pair, so the choice is the
    one the counts make. With the six-vertex sum of :func:`_count_paths`,
    a seed-1 pass of the linkage-queries benchmark makes 296 counts where
    it made 717, and 99 walks where it made 278.
    The node runs its flow bound only where it is stuck, once,
    after its first path fails to extend: a unit-capacity flow from the
    pairs' first ends to their second ends, capped at r, and a value below
    r returns False. At the root, a bound that passes is followed by the
    two-paths theorem on every two non-edge pairs, with the other pairs'
    ends blocked (:func:`_pair_obstruction`, polynomial): a "no" for two
    pairs returns None, and a "yes" for every two lets the search go on.
    Every other "no" is the search's exhaustion.

    Two pairs that one pair's shortest path and a path of the other link
    (:func:`_shortest_first_links`) skip the planarity test, which could
    only answer "yes" for them. The tests run at the root alone. Run at
    every stuck node, with the paths chosen so far blocked, they cost about
    10% of the linkage-queries benchmark's ops_per_s, since most of them
    answer "yes": its linked 21-vertex ``knit`` query of four pairs and a
    singleton (pool query 1717) ran 15 tests, 12 of them "yes", in 3.5 ms.
    At the root alone it ran 6, all "yes", in about 2.1 ms; the shortest
    paths link each of those six twos, so it runs none, in about 1.3 ms
    (best of 30 runs, 2-core x86-64, CPython 3.11).

    A bound cuts only subtrees that hold no linkage, so the answer is the
    one an eager bound at every node gives. Nor does the delay cost much.
    Say a node's bound fails. By Menger, fewer than r vertices S meet every
    source-to-sink path of its network. The path Q that the node opens is
    such a path, so it meets S. The child's network lies inside the
    parent's and avoids Q, so the child's paths meet S - Q, which has fewer
    than r - 1 vertices, and the child's bound fails too; by induction, so
    does every node below. So below a node that an eager bound would
    prune, the search walks one chain of first paths, at most k nodes for
    k pairs, and unwinds bound by bound: at most k + 1 times the nodes of
    the eager search.
    """
    chosen = list(pairs)
    # a direct edge uses no interior vertex, so it can never conflict with the
    # other paths; taking it loses no solutions. The callers have checked
    # that the pairs are vertices of g
    adj = g.adj
    todo = [(idx, (u, v)) for idx, (u, v) in enumerate(pairs) if not adj[u] >> v & 1]
    free = g.full_mask & ~blocked

    def search(used: int, remaining: list[tuple[int, tuple[int, int]]]) -> bool:
        if not remaining:
            return True
        interior = free & ~used
        best = remaining[0]
        r = len(remaining)
        if r > 1:
            # each pair's count is at least its bound: the ordered choices of
            # a first and a last interior vertex in one component of the
            # interior. A zero bound leaves the pair no path
            comps = components(g, interior)
            bounds = []
            for _, (a, b) in remaining:
                na, nb = adj[a], adj[b]
                low = 0
                for c in comps:
                    low += (c & na).bit_count() * (c & nb).bit_count()
                if not low:
                    return False
                bounds.append(low)
            best_count = _COUNT_CAP
            # only a count below the fewest so far changes the choice, and no
            # count is below its bound; so where no pair after the first can
            # come below the cap, the first is taken uncounted
            if min(bounds[1:]) < _COUNT_CAP:
                for item, low in zip(remaining, bounds):
                    if low >= best_count:
                        continue
                    cnt = _count_paths(g, *item[1], interior, best_count)
                    if cnt < best_count:
                        best, best_count = item, cnt
                        if cnt == 1:
                            break
        idx, (u, v) = best
        rest = [it for it in remaining if it is not best]
        stuck = r > 1
        for path in iter_paths_by_length(g, u, v, interior, g.n):
            chosen[idx] = path
            if search(used | mask_of(path[1:-1]), rest):
                return True
            if stuck:
                stuck = False
                srcs = mask_of(p[0] for _, p in remaining)
                snks = mask_of(p[1] for _, p in remaining)
                if max_vertex_disjoint_flow(g, srcs, snks, interior, cap=r) < r:
                    return False
                # the root: two unlinked pairs end the search, and if every
                # two are linked it goes on
                if r == len(todo) and _pair_obstruction(g, [p for _, p in todo], blocked) is not None:
                    return False
        return False

    return tuple(chosen) if search(0, todo) else None


def disjoint_paths(g: Graph, spec: TerminalSpec) -> Optional[Linkage]:
    """Pairwise vertex-disjoint paths joining every pair of ``spec``; the
    search is :func:`_link`, which tries each pair's paths shortest first, in
    (length, lex) order, with no cap on their length.

    Where a search node's first path does not extend, a flow bound between
    the pairs left may end it. Where the root's path does not extend and
    its bound passes, every two non-edge pairs are checked: two that one
    pair's shortest path and a path of the other link are passed over, and
    the two-paths test runs on the rest. Two that are unlinked end the
    query in polynomial time with a "no", whose certificate
    :func:`two_pair_obstruction` gives. Otherwise the search goes on, and
    any other "no" is its exhaustion. A "no" that the bound shows runs no
    planarity test.
    """
    spec.check_in_graph(g)
    if any(len(p) != 2 for p in spec.parts):
        raise InputError("disjoint_paths takes pair parts only; use knit for singletons")
    paths = _link(g, spec.parts, spec.forbidden | spec.terminal_mask)
    return None if paths is None else Linkage(paths)


def knit(g: Graph, spec: TerminalSpec) -> Optional[Knit]:
    """Disjoint connected subgraphs, one per part, each containing its part.

    Reduces to disjoint paths: a connected subgraph containing a pair contains
    a path between its two vertices, and a path is itself connected, so the
    pair parts are solved as a linkage whose paths must additionally avoid all
    singleton-part vertices. Each pair's subgraph is the path :func:`_link`
    picks, trying the pair's paths in (length, lex) order.
    """
    spec.check_in_graph(g)
    paths = _link(g, [p for p in spec.parts if len(p) == 2], spec.forbidden | spec.terminal_mask)
    if paths is None:
        return None
    walk = iter(paths)
    return Knit(tuple(mask_of(next(walk)) if len(p) == 2 else 1 << p[0] for p in spec.parts))


def partitions_with_profile(vertices: Sequence[int], profile: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of ``vertices`` into parts matching ``profile`` (sizes 1
    and 2), each partition produced exactly once, in lexicographic order."""
    sizes = sorted(profile)
    n_singles = sizes.count(1)
    n_pairs = sizes.count(2)
    verts = sorted(vertices)
    if n_singles + 2 * n_pairs != len(verts):
        raise InputError("profile does not sum to the terminal set size")

    def pairings(pool: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not pool:
            yield ()
            return
        first = pool[0]
        for k in range(1, len(pool)):
            rest = pool[1:k] + pool[k + 1:]
            for sub in pairings(rest):
                yield ((first, pool[k]),) + sub

    for singles in itertools.combinations(verts, n_singles):
        pool = tuple(v for v in verts if v not in singles)
        for pr in pairings(pool):
            yield tuple((s,) for s in singles) + pr


def _nonedge_matchings(g: Graph, s: int, j: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The matchings of non-edges of ``g`` inside ``s`` that have ``j`` pairs
    or are maximal with fewer, each once, as pairs ``(v, w)`` with v < w in
    increasing order of v.

    A lazy depth-first search over the vertices of ``s`` in increasing order
    matches the least undecided vertex to each later undecided non-neighbour
    in turn, then leaves it unmatched; a matching is complete at ``j`` pairs.
    Leaving a vertex unmatched beside an unmatched non-neighbour rules out
    maximality, so that branch goes on only while the undecided vertices
    could still bring the matching to ``j`` pairs.
    """
    non = {v: s & ~g.adj[v] & ~(1 << v) for v in bits(s)}

    def grow(rest: int, lone: int, pairs: tuple, maximal: bool) -> Iterator[tuple[tuple[int, int], ...]]:
        if len(pairs) == j or not rest:
            if len(pairs) == j or maximal:
                yield pairs
            return
        if not maximal and len(pairs) + rest.bit_count() // 2 < j:
            return
        low = rest & -rest
        v = low.bit_length() - 1
        rest ^= low
        for w in bits(non[v] & rest):
            yield from grow(rest & ~(1 << w), lone, pairs + ((v, w),), maximal)
        yield from grow(rest, lone | low, pairs, maximal and not non[v] & lone)

    return grow(s, 0, (), True)


def is_profile_knitted(
    g: Graph, s: int, profile: Sequence[int]
) -> tuple[bool, Optional[tuple[tuple[int, ...], ...]]]:
    """Whether every partition of ``s`` with the given part sizes can be knit.

    Let j be the number of pairs in ``profile``, and N(P) the pairs of a
    partition P that are not edges. The answer rests on three facts:

    - P is knittable exactly when N(P) is linked with ``s`` blocked, because
      a pair that is an edge is linked by that edge, which uses no interior
      vertex, and :func:`_link` drops it.
    - Linkability with ``s`` blocked is closed under subsets: drop the paths
      of the pairs left out.
    - Every N(P) is a matching of non-edges inside ``s`` with at most j pairs,
      so it lies in one that has j pairs or is maximal. Each such matching M
      is N(P') for some partition P': the terminals M leaves unmatched are
      pairwise adjacent when M is maximal, so pairing j - |M| of them and
      leaving the rest single adds only edges.

    So ``s`` is knitted exactly when every such matching is linked, and one
    :func:`_link` call per matching of :func:`_nonedge_matchings` decides it,
    stopping at the first that fails. There are never more of them than
    partitions: one, the empty matching, when ``s`` is a clique. On a "no"
    the partitions are swept in the lexicographic order of
    :func:`partitions_with_profile` and the first violating one is
    returned; a partition's pairs are linked as given, once per distinct
    N(P) (a matching already answered counts).
    """
    if s & ~g.full_mask:
        raise InputError("terminal set mentions out-of-range vertices")
    if any(x not in (1, 2) for x in profile):
        raise InputError("profile sizes must be 1 or 2")
    if sum(profile) != s.bit_count():
        raise InputError("profile does not sum to the terminal set size")
    linked = {}
    for pairs in _nonedge_matchings(g, s, profile.count(2)):
        linked[pairs] = _link(g, pairs, s) is not None
        if not linked[pairs]:
            break
    else:
        return True, None

    def knittable(parts: tuple[tuple[int, ...], ...]) -> bool:
        pairs = [p for p in parts if len(p) == 2]
        key = tuple(p for p in pairs if not g.has_edge(*p))
        if key not in linked:
            linked[key] = _link(g, pairs, s) is not None
        return linked[key]

    partitions = partitions_with_profile(set_of(s), profile)
    return False, next(parts for parts in partitions if not knittable(parts))


def least_unknitted(g: Graph, profile: Sequence[int]) -> Optional[tuple[tuple[int, ...], ...]]:
    """The violating partition that :func:`is_profile_knitted` gives for the
    least ``sum(profile)``-set of vertices, in lexicographic order, that is
    not knitted in ``g``; None when every such set is."""
    for verts in itertools.combinations(range(g.n), sum(profile)):
        ok, wit = is_profile_knitted(g, mask_of(verts), profile)
        if not ok:
            return wit
    return None


def is_k_linked(
    g: Graph,
    k: int,
    mode: str = "exhaustive",
    samples: int = 0,
    seed: int = 0,
) -> tuple[Optional[bool], Optional[tuple[tuple[int, int], ...]]]:
    """Whether every k disjoint terminal pairs admit disjoint linking paths.

    Exhaustive mode answers True, or False with the least violating system.
    Sampled mode only searches ``samples`` pseudorandom systems for a
    counterexample: False with the first that fails, else (None, None).
    """
    if type(k) is not int or k < 1:
        raise InputError(f"k must be a positive int, not {k!r}")
    if g.n < 2 * k:
        raise InputError(f"need at least {2 * k} vertices for k = {k}")
    if mode == "exhaustive":
        system = least_unknitted(g, (2,) * k)
        return system is None, system
    if mode != "sampled":
        raise InputError(f"unknown mode {mode!r}")
    if type(samples) is not int or samples < 0:
        raise InputError(f"samples must be a nonnegative int, not {samples!r}")
    rng = random.Random(seed)
    for _ in range(samples):
        verts = rng.sample(range(g.n), 2 * k)
        rng.shuffle(verts)
        system = tuple(sorted(tuple(sorted(verts[2 * i:2 * i + 2])) for i in range(k)))
        if _link(g, system, mask_of(verts)) is None:
            return False, system
    return None, None


# ---------------------------------------------------------------------------
# Configurations (terminal blocks with reroutes and coverage scores)
# ---------------------------------------------------------------------------

PATH_CAP = 5  # vertex cap for connecting paths when building configurations


def _is_path(h: Graph, block: Sequence[int]) -> bool:
    return all(h.has_edge(a, b) for a, b in zip(block, block[1:]))


@dataclass(frozen=True)
class Configuration:
    """Blocks C_0..C_4 for nine terminals: C_0 = {u_0}; block i is either the
    vertex sequence of an induced path joining pair i or the bare pair."""

    host: Graph
    u0: int
    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def normal(cls, host: Graph, u0: int, pair_blocks: Sequence[tuple[int, ...]]) -> "Configuration":
        """The configuration with anchor ``u0`` and blocks 1-4 ``pair_blocks``
        in normal order: connected blocks first, then by size, then by vertex
        sequence."""
        ordered = sorted(pair_blocks, key=lambda b: (not _is_path(host, b), len(b), b))
        return cls(host, u0, ((u0,),) + tuple(ordered))

    @cached_property
    def connected(self) -> tuple[bool, ...]:
        """``connected[i]``: whether consecutive vertices of block i are adjacent."""
        return tuple(_is_path(self.host, b) for b in self.blocks)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((b[0], b[-1]) for b in self.blocks[1:])

    @property
    def connected_count(self) -> int:
        return sum(self.connected[1:])

    def block_mask(self, i: int) -> int:
        return mask_of(self.blocks[i])

    @property
    def cover_mask(self) -> int:
        return mask_of(v for b in self.blocks for v in b)

    def validate(self, induced_paths: bool = True) -> None:
        if len(self.blocks) != 5:
            raise InputError("need five blocks")
        if not all(type(v) is int for b in self.blocks for v in b):
            raise InputError("block vertices must be integers")
        if not all(0 <= v < self.host.n for b in self.blocks for v in b):
            raise InputError(f"a block vertex lies outside 0..{self.host.n - 1}")
        if self.blocks[0] != (self.u0,):
            raise InputError("block 0 must be exactly the anchor vertex")
        used = 1 << self.u0
        for block, conn in zip(self.blocks[1:], self.connected[1:]):
            if len(block) < 2:
                raise InputError(f"block {block} must hold a pair's two ends")
            if len(set(block)) != len(block):
                raise InputError(f"block {block} repeats a vertex")
            m = mask_of(block)
            if m & used:
                raise InputError("blocks overlap")
            used |= m
            if not conn and len(block) != 2:
                raise InputError("a disconnected block must be a bare pair")
            if conn and induced_paths:
                for i, a in enumerate(block):
                    for j in range(i + 2, len(block)):
                        if self.host.has_edge(a, block[j]):
                            raise InputError(f"block {block} is not an induced path")
        if self.blocks != Configuration.normal(self.host, self.u0, self.blocks[1:]).blocks:
            raise InputError("blocks are not in normal order: connected first, then by size")


def build_configuration(h: Graph, terminals: Sequence[int]) -> Configuration:
    """Best block system for nine terminals: anchor u_0 plus four pairs.

    One pair is the bare slot-4 block, connected iff its ends are adjacent;
    all four choices of that pair are tried. The other three pairs each take
    a path of at most ``PATH_CAP`` vertices or stay bare, with
    pairwise-disjoint path interiors that avoid all nine terminals. Paths are
    read on demand from :func:`iter_paths_by_length`, shortest first and
    lexicographic within a length, inside the vertices the pairs decided so
    far leave free. The selection is optimized exactly: first maximize the
    number of connected blocks, then minimize the total number of vertices.
    Ties go to the first selection found, taking the bare slot-4 pair from
    the last input pair back and deciding the other pairs in input order,
    each trying its paths in that order before staying bare.
    The result passes ``validate(induced_paths=True)``: a chord would give a
    smaller selection with the same connected count, so optimal paths are
    induced; the used mask makes the blocks disjoint; and
    :meth:`Configuration.normal` fixes their order.
    """
    terminals = tuple(terminals)
    if len(terminals) != 9 or len(set(terminals)) != 9:
        raise InputError("need nine distinct terminals")
    for t in terminals:
        h._check_vertex(t)
    u0 = terminals[0]
    in_pairs = tuple((terminals[1 + 2 * i], terminals[2 + 2 * i]) for i in range(4))
    free = h.full_mask & ~mask_of(terminals)
    # a pair with no path in ``free`` has none once vertices are used, so its
    # generator is skipped at every node
    shortest = [next(iter_paths_by_length(h, u, v, free, PATH_CAP), None) for u, v in in_pairs]
    # best (connected, -size) one pair can add: its shortest path, else bare
    floor = [(1, -len(p)) if p else (0, -2) for p in shortest]

    best: dict = {"key": (-1, 0), "blocks": None}  # below every real key
    chosen: list[tuple[int, ...]] = []

    def search(slots, k, used, conn, size):
        if k == len(slots):
            key = (conn, -size)
            if key > best["key"]:
                best["key"] = key
                best["blocks"] = tuple(chosen)
            return
        i = slots[k]
        rest_conn = sum(floor[j][0] for j in slots[k + 1:])
        rest_size = sum(floor[j][1] for j in slots[k + 1:])
        if shortest[i]:
            for path in iter_paths_by_length(h, *in_pairs[i], free & ~used, PATH_CAP):
                if (conn + 1 + rest_conn, -size - len(path) + rest_size) <= best["key"]:
                    break
                chosen.append(path)
                search(slots, k + 1, used | mask_of(path), conn + 1, size + len(path))
                chosen.pop()
        # leave it bare; for an adjacent pair this repeats its first path but
        # counts as unconnected, so it never replaces the incumbent
        if (conn + rest_conn, -size - 2 + rest_size) > best["key"]:
            chosen.append(in_pairs[i])
            search(slots, k + 1, used, conn, size + 2)
            chosen.pop()

    for bare in reversed(range(4)):
        slots = [i for i in range(4) if i != bare]
        chosen.append(in_pairs[bare])
        search(slots, 0, 0, 1 if h.has_edge(*in_pairs[bare]) else 0, 3)
        chosen.pop()

    return Configuration.normal(h, u0, best["blocks"])


def reroute(cfg: Configuration, x: int, y: int, i: int, j: int) -> Configuration:
    """Swap the interior vertex ``y`` of connected block ``i`` for the outside
    vertex ``x``, then connect the disconnected block ``j`` through ``y``.

    Each violated precondition raises a structured error naming the failed
    clause. If ``cfg`` passes ``validate(induced_paths=False)``, so does the
    result, with one more connected block: block i stays a path, through x,
    and block j becomes a path through y, on vertices no other block uses.
    """
    h = cfg.host
    h._check_vertex(x)
    if type(y) is not int:
        raise InputError(f"vertex {y!r} is not an int")
    for index in (i, j):
        if type(index) is not int:
            raise InputError(f"block index {index!r} is not an int")
    if not (1 <= i <= 4 and 1 <= j <= 4 and i != j):
        raise PreconditionError("block-indices", "i and j must be distinct block indices in 1..4")
    bi = cfg.blocks[i]
    if not cfg.connected[i]:
        raise PreconditionError("i-connected", f"block {i} is not a connected path")
    if y not in bi[1:-1]:
        raise PreconditionError("y-interior", f"{y} is not interior to block {i}")
    pos = bi.index(y)
    z1, z2 = bi[pos - 1], bi[pos + 1]
    bj = cfg.blocks[j]
    if len(bj) != 2 or cfg.connected[j]:
        raise PreconditionError("j-disconnected", f"block {j} is not a disconnected pair")
    cover = cfg.cover_mask
    if (cover >> x) & 1:
        raise PreconditionError("x-outside", f"{x} lies inside the configuration")
    if not (h.has_edge(x, z1) and h.has_edge(x, z2)):
        raise PreconditionError("x-adjacent-flanks", f"{x} must be adjacent to {z1} and {z2}")
    uj, vj = bj
    allowed = (h.full_mask & ~cover & ~(1 << x)) | (1 << y)
    newpath = None
    for p in iter_paths_by_length(h, uj, vj, allowed, h.n):
        if y in p[1:-1]:
            newpath = p
            break
    if newpath is None:
        raise PreconditionError(
            "path-through-y",
            f"no ({uj},{vj})-path whose only configuration-interior vertex is {y}",
        )
    blocks = list(cfg.blocks[1:])
    blocks[i - 1] = bi[:pos] + (x,) + bi[pos + 1:]
    blocks[j - 1] = newpath
    return Configuration.normal(h, cfg.u0, blocks)


def s_value(cfg: Configuration, a: int, b: int, i: int) -> int:
    """Coverage score of block ``i`` by the neighborhoods of ``a`` and ``b``:
    common neighbors inside the block minus block vertices missed by both.
    Since a and b must lie outside the block, open and closed neighborhoods
    give the same score."""
    h = cfg.host
    h._check_vertex(a)
    h._check_vertex(b)
    if type(i) is not int or not 0 <= i <= 4:
        raise InputError(f"block index {i!r} is not an int in range 0..4")
    ci = cfg.block_mask(i)
    if (ci >> a) & 1 or (ci >> b) & 1:
        raise InputError("a and b must lie outside the block")
    common = (h.adj[a] & h.adj[b] & ci).bit_count()
    missed = (ci & ~(h.adj[a] | h.adj[b])).bit_count()
    return common - missed
