"""Exact decision procedures with certificates: disjoint paths, knits,
profile knittedness, and terminal-block configurations.

Everything here is deterministic: ties break lexicographically by vertex
index, so repeated runs return identical certificates.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator, Sequence
from functools import cached_property

from .errors import InputError, check_ints
from .graphs import Graph, _Value, bits, components, is_connected, mask_of, reachable, set_of, shortest_path
from .planar import face_count, lr_rotation, lr_test


class TerminalSpec(_Value):
    """A partition of the terminal set into parts of size 1 or 2, plus a set of
    vertices the connecting subgraphs must avoid. ``terminal_mask`` is the
    mask of the parts' vertices, built once with them; it is not a field."""

    def __init__(self, parts: tuple[tuple[int, ...], ...], forbidden: int = 0):
        seen = 0
        norm = []
        for part in parts:
            if not isinstance(part, (tuple, list)):
                raise InputError(f"part {part!r} must be a tuple or list of vertices")
            for x in part:
                if type(x) is not int or x < 0:
                    raise InputError(f"part {part} must hold vertex indices")
            size = len(part)
            if size == 2 and part[0] != part[1]:
                a, b = part
                t = (a, b) if a < b else (b, a)
                m = 1 << a | 1 << b
            elif size == 1:
                (a,) = part
                t = (a,)
                m = 1 << a
            else:
                raise InputError(f"part {part} must have one or two distinct vertices")
            if m & seen:
                raise InputError("terminal parts overlap")
            seen |= m
            norm.append(t)
        if type(forbidden) is not int or forbidden < 0:
            raise InputError(f"forbidden must be a nonnegative int mask: {forbidden!r}")
        if seen & forbidden:
            raise InputError("terminals overlap the forbidden set")
        self.__dict__.update(parts=tuple(norm), forbidden=forbidden, terminal_mask=seen)

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
    adj = g.adj
    for a, b in zip(path, path[1:]):
        if not adj[a] >> b & 1:
            raise InputError(f"{a},{b} on path {path} is not an edge")
    return m


class Linkage(_Value):
    def __init__(self, paths: tuple[tuple[int, ...], ...]):
        self.__dict__["paths"] = paths

    def validate(self, g: Graph, spec: TerminalSpec) -> None:
        if not isinstance(self.paths, tuple) or not all(isinstance(p, (tuple, list)) for p in self.paths):
            raise InputError("the paths must be a tuple of vertex sequences")
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


class Knit(_Value):
    def __init__(self, subgraphs: tuple[int, ...]):
        self.__dict__["subgraphs"] = subgraphs

    def validate(self, g: Graph, spec: TerminalSpec) -> None:
        if not isinstance(self.subgraphs, tuple) or not all(type(sub) is int for sub in self.subgraphs):
            raise InputError("the subgraphs must be a tuple of int masks")
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

def iter_paths_by_length(g: Graph, u: int, v: int, allowed: int, max_len: int) -> Iterator[tuple[int, ...]]:
    """Simple u-v paths whose interior lies in ``allowed``, at most
    ``max_len`` vertices long, shortest first and in lexicographic order of
    the vertex sequence within a length ((length, lex) order).

    A breadth-first search from v inside ``allowed`` gives ``near[r]``, the
    interior vertices at most r steps from v (``near[0]`` is v alone). It
    grows one layer per length, only as far as that length reads: a path of
    ``length`` vertices steps first into ``near[length - 2]``. A length
    whose layer misses N(u) has no path and is passed over, and once the
    search runs out of vertices with N(u) still missed there is no path at
    all; a search run out keeps its last layer for every later length. Then
    one depth-first pass per exact length steps only to a vertex that is
    near enough to v for the steps left; the last step goes to v.
    """
    if u == v:
        return
    adj = g.adj
    target = 1 << v
    inner = allowed & ~(1 << u) & ~target
    near = [target]  # near[0]: the only vertex a path can step to last
    seen = frontier = target
    for length in range(2, min(max_len, inner.bit_count() + 2) + 1):
        if length > 2:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & inner & ~seen
            seen |= frontier
            near.append(seen & inner)
        first = adj[u] & near[-1]
        if not first:
            if not frontier:
                return
            continue
        path = [u]
        on = 1 << u
        # untried[i]: the next vertices not yet tried after path[i]
        untried = [first]
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
            untried.append(adj[path[-1]] & near[length - len(path) - 1] & ~on)


def max_vertex_disjoint_flow(
    adj: Sequence[int],
    sources: int,
    sinks: int,
    allowed: int,
    cap: int | None = None,
    collect: bool = False,
):
    """Maximum number of vertex-disjoint paths from ``sources`` to ``sinks``
    in the graph with adjacency rows ``adj``.

    Interior vertices are restricted to ``allowed``; source and sink vertices
    carry capacity one as well, so each is the endpoint of at most one path.
    Paths stop at the first sink they touch. A vertex that is both a source
    and a sink counts as a length-one path. The search stops at ``cap`` paths
    (default: the smaller of the two end sets). With ``collect`` it returns
    ``(flow, paths, cut)``: one path per used source in ascending order,
    and ``cut`` None when the flow reached its limit, else a minimum vertex
    cut ``(separator, side)`` read off the last search, which found no
    augmenting path.

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

    The direct pass. Next, each unstarted source in ascending order takes
    its least free adjacent sink (one that carries no flow), up to the
    limit; the searches then go on from that state. Edmonds-Karp makes
    exactly these augmentations first. Unless the limit is already reached,
    every overlap vertex is started, so no unstarted source is a sink.
    While every path is an overlap vertex or one edge, ``thru`` is the
    started sources and the used sinks, no unstarted source carries flow,
    and a search runs:

    - The layer from S lists the in-nodes of the unstarted sources in
      ascending order; none is a sink or carries flow, so each hands on its
      own out-node, and the next layer lists those out-nodes in the same
      order.
    - The out-node of such a source x expands to ``adj[x] & usable``
      ascending, less what is seen. A free sink is never seen before the
      search ends, since finding one closes the path; so x's out-node stops
      at its least free adjacent sink, if it has one, closing the path
      S, x_in, x_out, w_in, w_out, T: one more edge path.
    - A source with no free adjacent sink marks as seen only non-sinks and
      used sinks, which ends no search and keeps no later source from its
      own free sinks.

    So the search ends at the least unstarted source with a free adjacent
    sink, at its least one. Free sinks only shrink, so a source passed over
    never gains one, and the next search goes on from the next source: the
    searches follow the ascending pass until no unstarted source has a free
    adjacent sink or the limit is reached. The value, the collected paths
    and the cut are those of the matrix form.

    The cut. ``side`` is the set of vertices whose out-node the last search
    reached, and ``separator`` is ``(in-nodes reached | sources) & ~side``:
    ``flow`` vertices that meet every path from the sources to the sinks
    through usable vertices. Let R be S with the nodes that search reached.
    No residual arc leaves R, so every arc leaving it is saturated and none
    entering it carries flow: the arcs leaving it form a cut of capacity
    ``flow``. No edge arc is among them: a
    flow-carrying x_out is reached only back from the in-node of its
    successor, so its one saturated edge arc ends in R; and no sink's
    out-node is reached (an unused one would close a path, a used one is
    entered from T alone). So each cut arc is S -> s_in of a source whose
    nodes both lie outside R, or the split arc of a vertex whose in-node
    alone is reached, and these are the separator's vertices. The cut is
    the least minimum cut, the same for every maximum flow: every arc
    leaving the source side of a minimum cut is saturated by any maximum
    flow and every arc entering it carries none, so no residual arc leaves
    it and R lies inside it; R is itself such a source side.
    """
    n = len(adj)
    full = (1 << n) - 1
    sources &= full
    sinks &= full
    usable = (allowed | sources | sinks) & full
    limit = min(sources.bit_count(), sinks.bit_count()) if cap is None else cap
    seeds = sources & sinks
    while seeds.bit_count() > max(limit, 0):
        seeds &= ~(1 << (seeds.bit_length() - 1))
    flow = seeds.bit_count()
    succ = [0] * n
    pred = [0] * n
    # the direct pass: each unstarted source takes its least free adjacent sink
    free = sinks & ~seeds
    rest = sources & ~seeds
    started = seeds
    while rest and free and flow < limit:
        xb = rest & -rest
        rest ^= xb
        x = xb.bit_length() - 1
        hit = adj[x] & free
        if hit:
            wb = hit & -hit
            free ^= wb
            started |= xb
            succ[x] = wb
            pred[wb.bit_length() - 1] = x
            flow += 1
    thru = started | (sinks & ~free)
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
    if flow >= limit:
        return flow, paths, None
    side = mask_of(entry)
    return flow, paths, ((seen | sources) & ~side, side)


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


class PlanarObstruction(_Value):
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

    def __init__(self, reductions: tuple[tuple[int, int], ...], rotation: tuple[tuple[int, ...], ...]):
        self.__dict__.update(reductions=reductions, rotation=rotation)

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
            and len(set(ring)) == 4
            and {tuple(sorted(ring[::2])), tuple(sorted(ring[1::2]))} <= set(spec.parts)
        ):
            raise InputError("the apex does not see two pairs of the specification in the order s1, s2, t1, t2")
        ends = mask_of(ring)
        live, adj = _deleted(g, ends, spec.forbidden | spec.terminal_mask)
        if not isinstance(self.reductions, tuple) or not all(
            isinstance(r, tuple) and len(r) == 2 for r in self.reductions
        ):
            raise InputError("the reductions must be a tuple, each a (separator, side) pair")
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
        if reachable(adj, 1 << apex, live) != live:
            raise InputError("the reduced graph plus the apex is not connected")
        edges = sum(row.bit_count() for row in adj) // 2
        if live.bit_count() - edges + face_count(self.rotation) != 2:
            raise InputError("the rotation's faces break Euler's formula: it is not a plane drawing")


def _fan(adj: list[int], v: int, good: int, live: int, k: int) -> bool:
    """Whether ``k`` successive shortest paths from ``v`` inside ``live``,
    each avoiding the vertices of the ones before, end at k vertices of
    ``good``. If so, they meet only at v. A "no" says nothing: other paths
    may still exist.

    While v has a good neighbour left, the next shortest path
    (:func:`shortest_path`) is the one edge to the least of them. So v's
    good neighbours are taken first, as one-edge paths, and only the paths
    still missing are searched for: none when v has k good neighbours.
    """
    free = live & ~(1 << v)
    near = adj[v] & good & free
    free &= ~near
    for _ in range(k - near.bit_count()):
        path = shortest_path(adj, v, good, free)
        if not path:
            return False
        free &= ~mask_of(path)
    return True


def _small_cuts(adj: list[int], ends: int, live: int, k: int) -> Iterator[tuple[int, int]]:
    """The terminal-free sides that fewer than ``k`` vertices cut off from
    ``ends``, in the graph on ``live`` with rows ``adj``, as
    ``(separator, side)`` pairs. The sweep visits each non-terminal vertex
    still in the graph at its turn once, in order, and yields the least
    side around a vertex v that has one. A flow capped at k paths from v's
    neighbours to the ends, inside ``live`` without v, finds whether there
    is one (Menger), and its cut (:func:`max_vertex_disjoint_flow`) gives
    it: the flow's separator, and its side with v added. When resumed, the
    sweep deletes that side and makes its separator a clique
    (:func:`_reduce`, on ``adj`` in place), so later sides are those of
    the reduced graph.

    Call a vertex good when k paths from it to the ends meet only at it,
    and count the ends as good. Fewer than k vertices cannot cut a good
    vertex off: they miss one of its k paths. So a good vertex has no side,
    and the sweep runs the capped flow only at a vertex not yet known to be
    good; it yields what one flow per visited vertex would, since a flow's
    side depends on the graph alone.

    Good-neighbour lemma: a vertex v with k paths to k distinct good
    vertices, meeting only at v, is good. For if fewer than k vertices S,
    not v, cut v off from the ends, one of the k paths misses S, and its
    good end u lies with v on the terminal-free side of S. An end cannot
    lie there, and a good u cannot either, since one of its own k paths
    misses S. The sweep tries such paths greedily before any flow
    (:func:`_fan`), and marks good each vertex that they or its flow show.
    A vertex with k good neighbours has them as its k one-edge paths, and
    is marked without the call: the rows and the good set stay inside
    ``live``, so the fan would take exactly those.
    Goodness survives the later reductions: the paths that cross a side
    enter and leave it through distinct separator vertices, and the
    clique edge between the two stands in for each detour. So the marks
    stay true, and no marked vertex is ever in a side.
    """
    good = ends
    for v in bits(live & ~ends):
        if not (live >> v) & 1:
            continue
        if (
            (adj[v] & good).bit_count() >= k
            or _fan(adj, v, good, live, k)
            or (cut := max_vertex_disjoint_flow(adj, adj[v], ends, live & ~(1 << v), cap=k, collect=True)[2]) is None
        ):
            good |= 1 << v
        else:
            separator, side = cut
            side |= 1 << v
            yield separator, side
            _reduce(adj, separator, side)
            live &= ~side


def _reduced_with_apex(
    g: Graph, pairs: Sequence[tuple[int, int]], blocked: int
) -> tuple[tuple[tuple[int, int], ...], list[int], list[tuple[int, int]]]:
    """The graph whose planarity decides, by the two-paths theorem (Seymour
    1980; Thomassen 1980), whether the two ``pairs`` are linked with no
    interior vertex in ``blocked``: its reductions, its adjacency (the apex
    is vertex ``g.n``) and the cycle edges it adds.

    Delete the blocked vertices other than the terminals, then reduce every
    terminal-free side that at most three vertices cut off from the
    terminals: the sweep :func:`_small_cuts` with k = 4, after which every
    live non-terminal vertex is good (a vertex not marked when visited is
    deleted with its side), so no such side is left. The theorem then
    says the pairs are not linked exactly when the reduced graph plus the
    cycle s1 s2 t1 t2 has a plane drawing with the cycle bounding a face,
    that is, when it stays planar with an apex joined to the cycle.

    That graph, with the apex, is 3-connected on its non-isolated
    vertices, so its plane drawing, if it has one, is unique up to mirror
    image (Whitney 1932). The apex and the cycle s1 s2 t1 t2 form a wheel,
    which is 3-connected, so two vertices that separate the graph leave
    the whole wheel on one side. The other side then holds only
    non-terminal vertices, cut off from the terminals by at most two
    vertices. But the sweep leaves every such vertex good, with four paths
    to the terminals that meet only at it, and two vertices miss one of
    them. So no two vertices separate the graph.
    """
    (s1, t1), (s2, t2) = pairs
    ends = mask_of((s1, t1, s2, t2))
    live, adj = _deleted(g, ends, blocked)
    reductions = tuple(_small_cuts(adj, ends, live, 4))
    ring = (s1, s2, t1, t2)
    added = [(a, b) for a, b in zip(ring, ring[1:] + ring[:1]) if not (adj[a] >> b) & 1]
    for a, b in added:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    adj.append(ends)
    for t in ring:
        adj[t] |= 1 << g.n
    return reductions, adj, added


def _shortest_first_links(g: Graph, two: Sequence[tuple[int, int]], blocked: int) -> bool:
    """Whether the two pairs are linked, with no interior vertex in
    ``blocked`` (which holds their ends), by one pair's least-vertex
    shortest path (:func:`shortest_path`) and some path of the other pair in
    the free vertices it leaves; each pair is tried first in turn. True
    proves the pairs linked; False says nothing."""
    adj = g.adj
    free = g.full_mask & ~blocked
    for (u, v), (s, t) in (two, two[::-1]):
        path = shortest_path(adj, u, 1 << v, free | (1 << v))
        if not path:
            return False
        if reachable(adj, 1 << s, (free & ~mask_of(path)) | (1 << s) | (1 << t)) >> t & 1:
            return True
    return False


def _pair_obstruction(
    g: Graph, pairs: Sequence[tuple[int, int]], blocked: int
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...], list[tuple[int, int]], tuple] | None:
    """The first two of ``pairs``, in order, that are not linked with
    ``blocked`` deleted (it must hold every pair's ends), with the
    planarity test that shows they are not; None if every two are linked.
    Pairs are linked only if every two of them are, so two unlinked pairs
    are a "no" for all.

    Two pairs that :func:`_shortest_first_links` links are passed over.
    The others go to the test phase of the left-right planarity algorithm
    (:func:`lr_test`) on :func:`_reduced_with_apex`'s graph. The first
    that is planar is returned with what the test built: the two pairs,
    the reductions, the cycle edges it adds and the test's state. The
    search reads only whether it found two such pairs; the certificate
    runs the embedding phase on that state (:func:`two_pair_obstruction`)."""
    for two in itertools.combinations(pairs, 2):
        if _shortest_first_links(g, two, blocked):
            continue
        reductions, adj, added = _reduced_with_apex(g, two, blocked)
        state = lr_test(adj)
        if state is not None:
            return two, reductions, added, state
    return None


def two_pair_obstruction(g: Graph, spec: TerminalSpec) -> PlanarObstruction | None:
    """The certificate that the pairs of ``spec`` have no disjoint linking
    paths avoiding its other vertices, when two of its non-edge pairs have
    none: that of the first two in order that :func:`_pair_obstruction`
    finds. None when every two non-edge pairs are linked, with the other
    terminals and the forbidden set deleted; the pairs may still be
    unlinked then.

    The certificate is read off that test, so each two pairs tested are
    reduced and tested once: its reductions, and the rotation system that
    the embedding phase (:func:`lr_rotation`) makes from the test's state,
    without the cycle's added edges."""
    spec.check_in_graph(g)
    pairs = [p for p in spec.parts if len(p) == 2 and not g.has_edge(*p)]
    found = _pair_obstruction(g, pairs, spec.forbidden | spec.terminal_mask)
    if found is None:
        return None
    _, reductions, added, state = found
    rotation = lr_rotation(state)
    for a, b in added:
        rotation[a].remove(b)
        rotation[b].remove(a)
    return PlanarObstruction(reductions, tuple(map(tuple, rotation)))


# ---------------------------------------------------------------------------
# Disjoint paths and knits
# ---------------------------------------------------------------------------

def _two_pair_links(
    g: Graph, first: tuple[int, int], second: tuple[int, int], blocked: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Paths for two pairs that are linked with no interior vertex in
    ``blocked`` (which holds their ends): the lexicographically least path
    of ``first`` that leaves ``second`` linked, then the path
    :func:`shortest_path` gives ``second`` in the vertices left free.

    Say ``first`` is (s, t). Its path grows from s one vertex at a time, by
    the least neighbour w of the last vertex such that (w, t) and
    ``second`` are still linked with the path so far blocked. A prefix that
    passes has a completion, so the walk never backtracks, and one that
    fails has none, so no lesser path is passed over: one test per
    neighbour of each path vertex at most. Where w is t or a neighbour of t,
    the edge wt links (w, t) with no interior vertex, so the test is
    whether ``second``'s ends are still joined; otherwise it is
    :func:`_pair_obstruction`, which tries :func:`_shortest_first_links`
    before the planarity test.
    """
    adj = g.adj
    (s, t), (a, b) = first, second
    path = [s]
    taken = blocked

    def keeps_linked(w: int) -> bool:
        if w == t or adj[w] >> t & 1:
            return reachable(adj, 1 << a, g.full_mask & ~taken & ~(1 << w) | 1 << a | 1 << b) >> b & 1
        return _pair_obstruction(g, ((w, t), second), taken | 1 << w) is None

    while path[-1] != t:
        w = next(w for w in bits(adj[path[-1]] & (~taken | 1 << t)) if keeps_linked(w))
        path.append(w)
        taken |= 1 << w
    return tuple(path), (a, *shortest_path(adj, a, 1 << b, g.full_mask & ~taken | 1 << b))


def _link(g: Graph, pairs: Sequence[tuple[int, int]], blocked: int) -> tuple[tuple[int, ...], ...] | None:
    """Vertex-disjoint paths from u to v for each ``(u, v)`` of ``pairs``, in
    pair order, with no interior vertex in ``blocked`` (which must hold every
    pair's ends); None if there are none.

    Direct edges are taken first. The other pairs go to a backtracking
    search, each node of which branches on one pair left, trying its paths
    from :func:`iter_paths_by_length`, shortest first and lexicographic
    within a length ((length, lex) order).

    A node with r >= 2 pairs left bounds each pair's paths from the
    components C of the free interior: a pair (a, b) has at least the sum
    over C of |N(a) & C| * |N(b) & C| paths, since each ordered choice of
    x in N(a) & C and y in N(b) & C starts and ends a different path
    (a x b when x = y, else a x ... y b inside C). A zero bound leaves the
    pair no path and returns False. Otherwise the node branches on the pair
    of least bound, the earlier pair on a tie.

    The node runs its flow bound only where it is stuck, once, after its
    first path fails to extend: a unit-capacity flow from the pairs' first
    ends to their second ends, capped at r, and a value below r returns
    False. At the root, and at a node with two pairs left, a bound that
    passes is followed by the two-paths theorem on every two pairs, with the
    other pairs' ends and the paths chosen so far blocked
    (:func:`_pair_obstruction`, polynomial): a "no" for two pairs returns
    False. At the root, a "yes" for every two lets the search go on. At a
    node with two pairs left, a "yes" links them without a further search
    (:func:`_two_pair_links`, polynomial). Every other "no" is the search's
    exhaustion.

    Two pairs that one pair's shortest path and a path of the other link
    (:func:`_shortest_first_links`) skip the planarity test, which could
    only answer "yes" for them. A stuck node below the root with three or
    more pairs left runs no two-paths test: there most of them answer "yes"
    and they cost more than they prune.

    So each pair takes the first path in (length, lex) order that lets the
    pairs after it be linked, except at a stuck node with two pairs left:
    there the pair branched on takes its lexicographically least path that
    leaves the other pair linked, and the other pair the path
    :func:`shortest_path` gives it in what is left.

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
            comps = components(adj, interior)
            bounds = []
            for _, (a, b) in remaining:
                na, nb = adj[a], adj[b]
                low = 0
                for c in comps:
                    low += (c & na).bit_count() * (c & nb).bit_count()
                if not low:
                    return False
                bounds.append(low)
            best = remaining[bounds.index(min(bounds))]
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
                if max_vertex_disjoint_flow(adj, srcs, snks, interior, cap=r) < r:
                    return False
                # at the root or with two pairs left, two unlinked pairs end
                # the node, and two linked pairs are linked without a search
                if (r == 2 or r == len(todo)) and _pair_obstruction(
                    g, [p for _, p in remaining], blocked | used
                ) is not None:
                    return False
                if r == 2:
                    (other, pair), = rest
                    chosen[idx], chosen[other] = _two_pair_links(g, (u, v), pair, blocked | used)
                    return True
        return False

    return tuple(chosen) if search(0, todo) else None


def disjoint_paths(g: Graph, spec: TerminalSpec) -> Linkage | None:
    """Pairwise vertex-disjoint paths joining every pair of ``spec``; the
    search is :func:`_link`, which branches on the pair of least component
    bound and tries its paths shortest first, in (length, lex) order, with
    no cap on their length.

    Where a search node's first path does not extend, a flow bound between
    the pairs left may end it. Where the root's path does not extend and
    its bound passes, every two non-edge pairs are checked: two that one
    pair's shortest path and a path of the other link are passed over, and
    the two-paths test runs on the rest. Two that are unlinked end the
    query in polynomial time with a "no", whose certificate
    :func:`two_pair_obstruction` gives. A stuck node with two pairs left
    runs the same check, with the paths chosen so far blocked, and links a
    "yes" in polynomial time: the pair it branches on takes its
    lexicographically least path that leaves the other pair linked, and
    the other pair its shortest path in what is left. Any other "no" is
    the search's exhaustion. A "no" that the bound shows runs no planarity
    test.
    """
    spec.check_in_graph(g)
    if any(len(p) != 2 for p in spec.parts):
        raise InputError("disjoint_paths takes pair parts only; use knit for singletons")
    paths = _link(g, spec.parts, spec.forbidden | spec.terminal_mask)
    return None if paths is None else Linkage(paths)


def knit(g: Graph, spec: TerminalSpec) -> Knit | None:
    """Disjoint connected subgraphs, one per part, each containing its part.

    Reduces to disjoint paths: a connected subgraph containing a pair contains
    a path between its two vertices, and a path is itself connected, so the
    pair parts are solved as a linkage whose paths must additionally avoid all
    singleton-part vertices. Each pair's subgraph is the path :func:`_link`
    picks: the first in (length, lex) order that lets the pairs after it be
    linked, or, where a search node with two pairs left is stuck, the
    lexicographically least that leaves the other pair linked, and the
    other pair's shortest path.
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


def _check_profile(profile: Sequence[int]) -> None:
    """Raise InputError unless each part size in ``profile`` is the int 1 or 2."""
    if any(type(x) is not int or x not in (1, 2) for x in profile):
        raise InputError("profile sizes must be 1 or 2")


def is_profile_knitted(
    g: Graph, s: int, profile: Sequence[int]
) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
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
    check_ints(s=s)
    _check_profile(profile)
    if s & ~g.full_mask:
        raise InputError("terminal set mentions out-of-range vertices")
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


def least_unknitted(g: Graph, profile: Sequence[int]) -> tuple[tuple[int, ...], ...] | None:
    """The violating partition that :func:`is_profile_knitted` gives for the
    least ``sum(profile)``-set of vertices, in lexicographic order, that is
    not knitted in ``g``; None when every such set is."""
    _check_profile(profile)
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
) -> tuple[bool | None, tuple[tuple[int, int], ...] | None]:
    """Whether every k disjoint terminal pairs admit disjoint linking paths.

    Exhaustive mode answers True, or False with the least violating system.
    Sampled mode only searches ``samples`` pseudorandom systems for a
    counterexample (:func:`_sampled_unknitted`, on ``random.Random(seed)``):
    False with the first that fails, else (None, None).
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
    _check_sampling(samples, seed)
    _, system = _sampled_unknitted(g, (2,) * k, samples, random.Random(seed))
    return (None, None) if system is None else (False, system)


def _check_sampling(samples: int, seed: int) -> None:
    """Raise InputError unless ``samples`` is a nonnegative int and ``seed``
    an int: ``random.Random(None)`` seeds from the OS, so its answers would
    not repeat."""
    if type(samples) is not int or samples < 0:
        raise InputError(f"samples must be a nonnegative int, not {samples!r}")
    if type(seed) is not int:
        raise InputError(f"seed must be an int, not {seed!r}")


def _sampled_unknitted(
    g: Graph, profile: Sequence[int], samples: int, rng: random.Random
) -> tuple[int, tuple[tuple[int, ...], ...] | None]:
    """The number of systems drawn and the first that cannot be knit, as
    :func:`least_unknitted` gives one (singletons first, then the pairs,
    each sorted), among ``samples`` partitions of random vertex sets of
    ``g`` with the given part sizes; None when every one drawn is knit.

    A draw takes ``sum(profile)`` vertices by ``rng.sample``, shuffles them,
    pairs them off in order and leaves the last ones single. Its pairs are
    linked with every drawn vertex blocked, so a draw is knittable exactly
    when :func:`_link` links them.
    """
    j = profile.count(2)
    for run in range(1, samples + 1):
        verts = rng.sample(range(g.n), sum(profile))
        rng.shuffle(verts)
        pairs = tuple(sorted(tuple(sorted(verts[2 * i:2 * i + 2])) for i in range(j)))
        if _link(g, pairs, mask_of(verts)) is None:
            return run, tuple((v,) for v in sorted(verts[2 * j:])) + pairs
    return samples, None


# ---------------------------------------------------------------------------
# Configurations (terminal blocks and coverage scores)
# ---------------------------------------------------------------------------

PATH_CAP = 5  # vertex cap for connecting paths when building configurations


def _is_path(h: Graph, block: Sequence[int]) -> bool:
    return all(h.has_edge(a, b) for a, b in zip(block, block[1:]))


class Configuration(_Value):
    """Blocks C_0..C_4 for nine terminals: C_0 = {u_0}; block i is either the
    vertex sequence of an induced path joining pair i or the bare pair."""

    def __init__(self, host: Graph, u0: int, blocks: tuple[tuple[int, ...], ...]):
        self.__dict__.update(host=host, u0=u0, blocks=blocks)

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

    def validate(self) -> None:
        if not isinstance(self.blocks, tuple) or not all(isinstance(b, tuple) for b in self.blocks):
            raise InputError("the blocks must be a tuple of vertex tuples")
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
            if conn:
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
    The result passes :meth:`Configuration.validate`: a chord would give a
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
