"""Independent brute-force oracles used to pin expected values.

Everything here is written against the definitions directly, sharing no
search machinery with the package, so the two sides can disagree. The
exceptions are previous implementations kept as references:
``configuration_by_orders``, the previous
configuration search, for the selected blocks;
``profile_knitted_by_sweep``, the previous
``is_profile_knitted``, for verdicts and violating partitions;
``flow_by_matrix``, the previous
``max_vertex_disjoint_flow`` over a dense capacity matrix, for flow values
and collected paths; ``census_by_dedup``, the previous census, for the
isomorphism classes; ``census_by_bounded_search``, the previous census
step, for the census lists and for the candidates its rejections drop; ``chromatic_by_saturation``, the previous
``chromatic_number``, for chromatic numbers and colorings;
``saturate_by_scan``, the previous ``coloring._saturate``, for the
color classes of the saturation search; and
``critical_by_scan``, the previous ``is_contraction_critical``, for
verdicts and witnesses, walking ``quotients_by_class``, the previous
``contraction_quotients``, which kept one quotient per isomorphism class;
``graph_rows_by_scan``, the previous check in ``Graph.__init__``, for
accepting or rejecting rows and the message;
``clique_by_branching``, the previous ``max_clique``, for clique masks;
``graph6_by_bit_lists``, the previous ``write_graph6``, for graph6 text;
``complete_minus_matching_by_edges``, the previous
``complete_minus_matching``, for its graphs; ``separations_by_flows``,
the previous ``separations_exist``, for its answers;
``massed_by_separations``, the previous ``is_p_massed``, which tried every
union of free components, for its reports;
``link_by_obstruction_first``, a plainer form of ``_link``, for verdicts
and witnesses; ``graph6_parse_by_bit_lists``, the previous
``parse_graph6``, for graphs and error messages and positions; and
``max_rows_by_vertex_rows``, the previous ``_max_rows``, for canonical
rows and census verdicts; ``block_faces_by_rebuild``, the previous
``planar._block_faces``, for faces; ``path_by_parents``, the previous
``planar._path``, for the paths of ``graphs.shortest_path``;
``obstruction_by_flows``, the previous two-paths test, which
reduced with one flow per vertex and embedded by rebuilding, for the
certificates of ``two_pair_obstruction`` (read off the drawing its test
makes) and for the two-pair verdicts of ``link_by_obstruction_first``;
``fan_by_shortest_paths``, the previous ``_fan_of_four`` for any k, for
the answers of ``_fan``; ``terminal_free_side_by_walk``, the previous
``solver._terminal_free_side``, which walked the residual of the flow's
paths a second time, for the cuts that ``max_vertex_disjoint_flow``
returns, and ``small_cuts_by_walk``, the previous ``_small_cuts`` on it,
for the sweep's cuts;
``terminal_spec_by_sorting``, the previous ``TerminalSpec`` validation,
for normalised parts, terminal masks and error messages;
``min_degree_by_rescan`` and ``split_host_by_edges``, the previous
``gen_min_degree`` and ``gen_split_host``, for their graphs, terminals and
straddling counts; and ``biconnected_by_sweep``, the previous
``campaigns._is_biconnected``, for its verdicts. And
``are_isomorphic``, the previous ``graphs.are_isomorphic``, compares
canonical forms.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import networkx as nx

from knitweave.coloring import Coloring, chromatic_number
from knitweave.errors import Graph6Error, InputError
from knitweave.graphs import (
    MAX_VERTICES,
    Graph,
    MinorWitness,
    _contract_rows,
    _max_rows,
    bits,
    canonical_form,
    components,
    is_connected,
    mask_of,
    max_clique,
    rho,
    set_of,
    shortest_path,
)
from knitweave.solver import (
    PATH_CAP,
    Configuration,
    PlanarObstruction,
    _deleted,
    _link,
    _reduce,
    iter_paths_by_length,
    max_vertex_disjoint_flow,
    partitions_with_profile,
)
from knitweave.structure import MassedReport, enumerate_separations


def all_simple_paths(g: Graph, u: int, v: int, banned: set[int], max_len: Optional[int] = None):
    """Every simple u-v path avoiding ``banned`` in between, of at most
    ``max_len`` vertices when that is given, DFS order."""
    cap = g.n if max_len is None else max_len

    def rec(path, seen):
        if len(path) >= cap:
            return
        last = path[-1]
        for w in range(g.n):
            if not g.has_edge(last, w) or w in seen:
                continue
            if w == v:
                yield path + [v]
            elif w not in banned and len(path) + 2 <= cap:
                yield from rec(path + [w], seen | {w})

    yield from rec([u], {u})


def two_pair_systems_solvable(g: Graph, p1, p2) -> bool:
    """Naive path-system enumeration: try every path for the first pair and
    every path for the second pair inside what remains."""
    banned1 = set(p2)
    for path1 in all_simple_paths(g, p1[0], p1[1], banned1):
        body = set(path1)
        for _path2 in all_simple_paths(g, p2[0], p2[1], body | set(p1)):
            if not body & set(_path2):
                return True
    return False


def two_pairs_linked_by_induced_paths(g: Graph, p1, p2, banned: frozenset = frozenset()) -> bool:
    """Whether p1 and p2 have disjoint linking paths that avoid ``banned``:
    try every induced p1 path (a linkage survives shortcutting its first path
    to an induced one) and search for p2 in what is left."""
    (s1, t1), (s2, t2) = p1, p2

    def connected(a, b, avoid):
        seen, todo = {a}, [a]
        while todo:
            x = todo.pop()
            for y in range(g.n):
                if g.has_edge(x, y) and y not in seen and y not in avoid:
                    if y == b:
                        return True
                    seen.add(y)
                    todo.append(y)
        return False

    def extend(path, avoid):
        last = path[-1]
        if g.has_edge(last, t1):
            return connected(s2, t2, banned | set(path) | {t1})
        for y in range(g.n):
            if y in avoid or y == t1 or not g.has_edge(last, y):
                continue
            if any(g.has_edge(y, x) for x in path[:-1]):
                continue  # a chord: the path would not be induced
            if extend(path + [y], avoid | {y}):
                return True
        return False

    return extend([s1], banned | {s1, s2, t2})


def size_le_2_partitions(verts) -> list[tuple[tuple[int, ...], ...]]:
    """Every partition of ``verts`` into parts of size one or two, most pairs
    first, then lexicographically with the singleton parts written first."""
    verts = sorted(verts)

    def rec(rest):
        if not rest:
            yield []
            return
        first, tail = rest[0], rest[1:]
        for sub in rec(tail):
            yield [(first,)] + sub
        for k, partner in enumerate(tail):
            for sub in rec(tail[:k] + tail[k + 1:]):
                yield [(first, partner)] + sub

    out = []
    for parts in rec(verts):
        singles = sorted(p for p in parts if len(p) == 1)
        pairs = sorted(p for p in parts if len(p) == 2)
        out.append(tuple(singles + pairs))
    out.sort(key=lambda parts: (-sum(len(p) == 2 for p in parts), parts))
    return out


def knittable_by_paths(g: Graph, parts) -> bool:
    """Disjoint connected subgraphs exist, one per part, iff the pair parts
    have vertex-disjoint paths avoiding every other part's vertices; tries
    every path of every pair."""
    terminals = {v for p in parts for v in p}
    pairs = [p for p in parts if len(p) == 2]

    def rec(i, used):
        if i == len(pairs):
            return True
        u, v = pairs[i]
        banned = (terminals - {u, v}) | used
        return any(
            rec(i + 1, used | set(path)) for path in all_simple_paths(g, u, v, banned)
        )

    return rec(0, set())


def first_unknittable_partition(g: Graph, verts):
    """The first partition of ``verts`` into parts of size at most two, in
    :func:`size_le_2_partitions` order, that ``g`` cannot knit; None if every
    one can be knit."""
    for parts in size_le_2_partitions(verts):
        if not knittable_by_paths(g, parts):
            return parts
    return None


def profile_knitted_by_sweep(
    g: Graph, s: int, profile: Sequence[int]
) -> tuple[bool, Optional[tuple[tuple[int, ...], ...]]]:
    """The previous ``is_profile_knitted``: one linkage search per partition
    of ``s`` with the given part sizes, in lexicographic order, returning the
    first that cannot be knit."""
    for part_sets in partitions_with_profile(set_of(s), profile):
        if _link(g, [p for p in part_sets if len(p) == 2], s) is None:
            return False, part_sets
    return True, None


def independence_by_enumeration(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for combo in itertools.combinations(range(g.n), size):
            if all(not g.has_edge(a, b) for a, b in itertools.combinations(combo, 2)):
                return size
    return best


def clique_by_enumeration(g: Graph) -> int:
    for size in range(g.n, 0, -1):
        for combo in itertools.combinations(range(g.n), size):
            if all(g.has_edge(a, b) for a, b in itertools.combinations(combo, 2)):
                return size
    return 0


def rho_by_double_loop(g: Graph, t: int) -> int:
    tset = set(set_of(t))
    count = 0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v) and (u in tset or v in tset):
                count += 1
    return count


def chromatic_by_enumeration(g: Graph) -> int:
    """The least k such that some assignment of k colors leaves no edge
    monochromatic. The assignments are enumerated vertex by vertex in label
    order, each vertex taking every color below k in turn; a partial
    assignment is dropped once a vertex has an earlier neighbor's color,
    since no later choice can recolor that edge."""
    earlier = [[u for u in range(v) if g.has_edge(u, v)] for v in range(g.n)]

    def extend(colors: list[int], k: int) -> bool:
        v = len(colors)
        if v == g.n:
            return True
        for c in range(k):
            if all(colors[u] != c for u in earlier[v]):
                colors.append(c)
                if extend(colors, k):
                    return True
                colors.pop()
        return False

    return next(k for k in range(g.n + 1) if extend([], k))


# -- independent minor enumeration ------------------------------------------

def _canon_small(g: Graph) -> tuple:
    """Exact canonical form by trying every permutation; fine for n <= 6."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        rows = []
        for i in range(g.n):
            row = 0
            for j in range(g.n):
                if g.has_edge(perm[i], perm[j]):
                    row |= 1 << j
            rows.append(row)
        key = (g.n, tuple(rows))
        if best is None or key < best:
            best = key
    return best if best is not None else (0, ())


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Whether ``g`` and ``h`` have the same :func:`canonical_form`."""
    return canonical_form(g) == canonical_form(h)


def canonical_by_permutations(g: Graph) -> tuple[int, tuple[int, ...]]:
    """The package's canonical form by its definition: the largest row
    sequence over every vertex ordering, where row i holds the adjacency of
    the i-th vertex toward the earlier ones, the first of them in its
    highest bit."""
    best = max(
        tuple(
            sum(((g.adj[order[i]] >> order[k]) & 1) << (i - 1 - k) for k in range(i))
            for i in range(g.n)
        )
        for order in itertools.permutations(range(g.n))
    )
    return (g.n, best)


def minors_by_recursion(g: Graph) -> set:
    """Canonical forms of all proper minors via plain delete/contract
    recursion with no shared code."""
    seen = set()

    def visit(h: Graph, is_root: bool):
        key = _canon_small(h)
        if not is_root:
            if key in seen:
                return
            seen.add(key)
        elif key in seen:
            return
        for v in range(h.n):
            keep = [x for x in range(h.n) if x != v]
            visit(_sub(h, keep), False)
        for u, v in list(h.edges()):
            visit(_drop_edge(h, u, v), False)
            visit(_contract(h, u, v), False)

    visit(g, True)
    seen.discard(_canon_small(g))
    return seen


def contractions_by_recursion(g: Graph) -> set:
    """Canonical forms of every contraction G/F with F nonempty, by plain
    edge-contraction recursion."""
    seen = set()

    def visit(h: Graph):
        for u, v in list(h.edges()):
            c = _contract(h, u, v)
            key = _canon_small(c)
            if key not in seen:
                seen.add(key)
                visit(c)

    visit(g)
    return seen


def connected_partitions_by_brute_force(g: Graph) -> set[tuple[int, ...]]:
    """Every partition of the vertices into sets that each induce a connected
    subgraph, as a tuple of masks sorted by least vertex: each set partition,
    built vertex by vertex, tested with networkx."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    out = set()

    def place(v: int, blocks: list[list[int]]):
        if v == g.n:
            if all(nx.is_connected(h.subgraph(b)) for b in blocks):
                out.add(tuple(sum(1 << x for x in b) for b in blocks))
            return
        for b in blocks:
            b.append(v)
            place(v + 1, blocks)
            b.pop()
        blocks.append([v])
        place(v + 1, blocks)
        blocks.pop()

    place(0, [])
    return out


def _sub(g: Graph, keep: list[int]) -> Graph:
    pos = {v: i for i, v in enumerate(keep)}
    edges = [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
    return Graph.from_edges(len(keep), edges)


def _drop_edge(g: Graph, u: int, v: int) -> Graph:
    edges = [e for e in g.edges() if set(e) != {u, v}]
    return Graph.from_edges(g.n, edges)


def _contract(g: Graph, u: int, v: int) -> Graph:
    keep, gone = min(u, v), max(u, v)
    relabel = lambda x: keep if x == gone else (x - 1 if x > gone else x)
    edges = set()
    for a, b in g.edges():
        ra, rb = relabel(a), relabel(b)
        if ra != rb:
            edges.add((min(ra, rb), max(ra, rb)))
    return Graph.from_edges(g.n - 1, sorted(edges))


# -- exhaustive configuration optimizer --------------------------------------

def best_configuration_value(h: Graph, terminals) -> tuple[int, int]:
    """(connected blocks, total size) of the best block system, by plain
    recursion over every pair order and every path choice."""
    u0 = terminals[0]
    in_pairs = [(terminals[1 + 2 * i], terminals[2 + 2 * i]) for i in range(4)]
    best = [(-1, 10**9)]

    def paths_upto(u, v, avail, cap):
        def rec(path, seen):
            last = path[-1]
            for w in range(h.n):
                if not h.has_edge(last, w) or w in seen:
                    continue
                if w == v:
                    yield path + [v]
                elif w in avail and len(path) + 2 <= cap:
                    yield from rec(path + [w], seen | {w})

        yield from rec([u], {u})

    def extend(order, slot, used, s, size):
        if slot == 5:
            val = (s, size)
            if (val[0], -val[1]) > (best[0][0], -best[0][1]):
                best[0] = val
            return
        u, v = order[slot - 1]
        if slot == 4:
            extend(order, 5, used | {u, v}, s + (1 if h.has_edge(u, v) else 0), size + 2)
            return
        later = {x for p in order[slot - 1:] for x in p}
        avail = set(range(h.n)) - used - later
        found = False
        for path in paths_upto(u, v, avail - {u, v}, 5):
            found = True
            extend(order, slot + 1, used | set(path), s + 1, size + len(path))
        if not found:
            extend(order, slot + 1, used | {u, v}, s, size + 2)

    for order in itertools.permutations(in_pairs):
        extend(list(order), 1, {u0}, 0, 1)
    return best[0]


# -- reference configuration search ------------------------------------------
# The greedy search over all 24 pair orders that the library ran before the
# disjoint-selection search replaced it; it shares path enumeration with the
# package and is kept to pin the selected blocks, ties included.

def configuration_by_orders(h: Graph, terminals: Sequence[int]) -> Configuration:
    """Best block system for nine terminals: anchor u_0 plus four pairs, by
    the 24-order search ``solver.build_configuration`` used to run.

    Slots 1..3 take a connecting path of at most five vertices whenever one
    exists in what remains after earlier blocks and later terminals are
    removed; slot 4 is always the bare pair. The pair-to-slot assignment and
    the path choices are optimized exactly: first maximize the number of
    connected blocks, then minimize the total number of vertices. First-found
    under lexicographic enumeration breaks ties.
    """
    terminals = tuple(terminals)
    if len(terminals) != 9 or len(set(terminals)) != 9:
        raise InputError("need nine distinct terminals")
    for t in terminals:
        h._check_vertex(t)
    u0 = terminals[0]
    in_pairs = tuple((terminals[1 + 2 * i], terminals[2 + 2 * i]) for i in range(4))
    all_term_mask = mask_of(terminals)

    # admissible lower bound on a slot's size if it ever connects
    pair_floor = {}
    for p in in_pairs:
        free = h.full_mask & ~(all_term_mask & ~mask_of(p)) & ~(1 << u0)
        sp = next(iter_paths_by_length(h, p[0], p[1], free & ~mask_of(p), PATH_CAP), None)
        pair_floor[p] = len(sp) if sp is not None else None

    best: dict = {"key": None, "blocks": None, "order": None}

    def consider(order, blocks):
        s = sum(
            1 for blk in blocks
            if all(h.has_edge(a, b) for a, b in zip(blk, blk[1:]))
        )
        size = 1 + sum(len(b) for b in blocks)
        key = (s, -size)
        if best["key"] is None or key > best["key"]:
            best["key"] = key
            best["blocks"] = tuple(blocks)
            best["order"] = order

    def bound_ok(order, blocks, used):
        if best["key"] is None:
            return True
        s = sum(1 for blk in blocks if all(h.has_edge(a, b) for a, b in zip(blk, blk[1:])))
        size = 1 + sum(len(b) for b in blocks)
        opt_s = s
        opt_size = size
        for j in range(len(blocks), 4):
            p = order[j]
            if j == 3:
                opt_s += 1 if h.has_edge(*p) else 0
                opt_size += 2
            elif pair_floor[p] is None:
                opt_size += 2
            else:
                opt_s += 1
                opt_size += pair_floor[p]
        return (opt_s, -opt_size) >= best["key"]

    def extend(order, blocks, used):
        slot = len(blocks) + 1
        if slot == 5:
            consider(order, blocks)
            return
        if not bound_ok(order, blocks, used):
            return
        u, v = order[slot - 1]
        if slot == 4:
            extend(order, blocks + [(u, v)], used | mask_of((u, v)))
            return
        later = mask_of(x for p in order[slot - 1:] for x in p)
        avail = h.full_mask & ~used & ~later
        found_path = False
        for path in iter_paths_by_length(h, u, v, avail & ~(1 << u) & ~(1 << v), PATH_CAP):
            found_path = True
            extend(order, blocks + [path], used | mask_of(path))
        if not found_path:
            extend(order, blocks + [(u, v)], used | mask_of((u, v)))

    for order in itertools.permutations(in_pairs):
        extend(list(order), [], 1 << u0)

    order = best["order"]
    blocks = best["blocks"]
    # normalize: connected blocks first, ascending size, disconnected after
    items = []
    for p, blk in zip(order, blocks):
        conn = all(h.has_edge(a, b) for a, b in zip(blk, blk[1:]))
        items.append((not conn, len(blk), blk, p))
    items.sort(key=lambda t: (t[0], t[1], t[2]))
    cfg = Configuration(
        host=h,
        u0=u0,
        blocks=((u0,),) + tuple(blk for _, _, blk, _ in items),
    )
    cfg.validate()
    return cfg


# -- reference flow ----------------------------------------------------------
# The Edmonds-Karp search over a dense (2n+2)^2 capacity matrix that
# ``solver.max_vertex_disjoint_flow`` ran before the bitset residual replaced
# it; kept to pin flow values and the collected paths, which campaign reports
# embed.

def flow_by_matrix(
    g: Graph,
    sources: int,
    sinks: int,
    allowed: int,
    cap: Optional[int] = None,
    collect: bool = False,
):
    """Maximum number of vertex-disjoint paths from ``sources`` to ``sinks``.

    Unit vertex capacities via node splitting (v_in = 2v, v_out = 2v + 1).
    Interior vertices are restricted to ``allowed``; source and sink vertices
    carry capacity one as well, so each is the endpoint of at most one path.
    Paths stop at the first sink they touch. A vertex that is both a source
    and a sink counts as a length-one path.
    """
    n = g.n
    sources &= g.full_mask
    sinks &= g.full_mask
    usable = (allowed | sources | sinks) & g.full_mask
    size = 2 * n + 2
    S, T = 2 * n, 2 * n + 1
    capm = [[0] * size for _ in range(size)]
    for v in bits(usable):
        capm[2 * v][2 * v + 1] = 1
        if (sources >> v) & 1:
            capm[S][2 * v] = 1
        if (sinks >> v) & 1:
            capm[2 * v + 1][T] = 1
        else:
            for w in bits(g.adj[v] & usable):
                capm[2 * v + 1][2 * w] = 1
    flow = 0
    limit = min(sources.bit_count(), sinks.bit_count()) if cap is None else cap
    while flow < limit:
        parent = [-1] * size
        parent[S] = S
        queue = [S]
        while queue and parent[T] == -1:
            x = queue.pop(0)
            row = capm[x]
            for y in range(size):
                if row[y] > 0 and parent[y] == -1:
                    parent[y] = x
                    if y == T:
                        break
                    queue.append(y)
        if parent[T] == -1:
            break
        y = T
        while y != S:
            x = parent[y]
            capm[x][y] -= 1
            capm[y][x] += 1
            y = x
        flow += 1
    if not collect:
        return flow
    paths = []
    for s in bits(sources):
        if capm[S][2 * s] == 0 and capm[2 * s][S] == 1:
            path = [s]
            cur = s
            while capm[T][2 * cur + 1] == 0:  # walk until the unit reaches T
                nxt = None
                for w in bits(usable):
                    if capm[2 * w][2 * cur + 1] == 1 and g.has_edge(cur, w):
                        nxt = w
                        break
                path.append(nxt)
                cur = nxt
            paths.append(tuple(path))
    return flow, paths


# -- reference census --------------------------------------------------------

@functools.cache
def census_by_dedup(n: int) -> list[Graph]:
    """Every graph on ``n`` vertices up to isomorphism: each one-vertex
    extension of every class on n - 1 vertices, deduplicated by
    ``canonical_form``."""
    if n == 0:
        return [Graph.empty(0)]
    seen = {}
    for g in census_by_dedup(n - 1):
        for nb in range(1 << (n - 1)):
            rows = [row | ((nb >> v & 1) << (n - 1)) for v, row in enumerate(g.adj)]
            rows.append(nb)
            h = Graph(n, tuple(rows))
            seen.setdefault(canonical_form(h), h)
    return list(seen.values())


@functools.cache
def census_by_bounded_search(n: int) -> list[Graph]:
    """The previous ``nonisomorphic_graphs``: each candidate last row r of
    each class on n - 1 vertices, the candidates with r >> 1 above the last
    canonical row left out, is kept when one bounded ``_max_rows`` call
    finds no ordering beating its rows."""
    if n == 0:
        return [Graph.empty(0)]
    out = []
    for g in census_by_bounded_search(n - 1):
        rows = tuple(g.adj[v] >> (v + 1) for v in range(n - 2, -1, -1))
        for r in range(2 * rows[-1] + 2 if rows else 1):
            adj = (r << 1,) + tuple(a << 1 | (r >> v & 1) for v, a in enumerate(g.adj))
            if _max_rows(n, adj, rows + (r,)) is not None:
                out.append(Graph(n, adj))
    return out


def max_rows_by_vertex_rows(
    n: int, adj: tuple[int, ...], bound: Optional[tuple[int, ...]] = None
) -> Optional[tuple[int, ...]]:
    """The previous ``_max_rows``: the same search, each frame holding one
    row per vertex.

    The largest row sequence over every vertex ordering of the graph.

    The search places at each position only vertices whose row is the
    largest, one of each twin pair (swapping twins is an automorphism), and
    drops a prefix whose row falls below the best sequence found. Given
    ``bound``, the rows of some ordering, it returns None as soon as a
    prefix beats the bound and the bound itself when none does.
    """
    # the best sequence found; its first entries are the current prefix's
    # rows, and a prefix that beats it overwrites it from there on
    best = list(bound) if bound is not None else [0] if n else []
    # one frame per position: the rows toward the placed vertices (-1 for a
    # placed one) and the vertices with the largest row left to try, popped
    # highest label first: a census candidate's bound comes from the ordering
    # by falling labels, so its vertices are tried first (nonisomorphic_graphs)
    stack = [([0] * n, list(range(n)))]
    while stack:
        rows, todo = stack[-1]
        if not todo:
            stack.pop()
            continue
        x = todo.pop()
        todo[:] = [w for w in todo if (adj[w] ^ adj[x]) & ~(1 << w | 1 << x)]
        i = len(stack)
        if i == n:
            continue  # a full ordering; ``best`` already holds its rows
        nxt = [r << 1 | (a >> x & 1) for r, a in zip(rows, adj)]
        nxt[x] = -1
        top = max(nxt)
        if i < len(best) and top < best[i]:
            continue
        if i == len(best) or top > best[i]:
            if bound is not None:
                return None
            best[i:] = [top]
        stack.append((nxt, [w for w in range(n) if nxt[w] == top]))
    return tuple(best)


# -- reference chromatic number ----------------------------------------------

def chromatic_by_saturation(g: Graph) -> tuple[int, Coloring]:
    """Exact chromatic number with an optimal coloring.

    Saturation-guided backtracking: try k-colorability for increasing k
    between the clique lower bound and the greedy upper bound, branching on
    the most saturated vertex and never opening more than one fresh color.
    """
    n = g.n
    if n == 0:
        return 0, Coloring((), 0)
    adj = g.adj
    clique = max_clique(g)
    lb = clique.bit_count()

    greedy = [-1] * n
    order = sorted(range(n), key=lambda v: -adj[v].bit_count())
    for v in order:
        used = {greedy[u] for u in bits(adj[v]) if greedy[u] >= 0}
        c = 0
        while c in used:
            c += 1
        greedy[v] = c
    ub = max(greedy) + 1

    def try_k(k: int) -> Optional[list[int]]:
        colors = [-1] * n
        for i, v in enumerate(bits(clique)):
            colors[v] = i

        def admissible(v: int) -> set[int]:
            used = {colors[u] for u in bits(adj[v]) if colors[u] >= 0}
            hi = min(k, max((c for c in colors if c >= 0), default=-1) + 2)
            return {c for c in range(hi) if c not in used}

        def rec() -> bool:
            pending = [v for v in range(n) if colors[v] < 0]
            if not pending:
                return True
            v = max(
                pending,
                key=lambda x: (
                    len({colors[u] for u in bits(adj[x]) if colors[u] >= 0}),
                    adj[x].bit_count(),
                    -x,
                ),
            )
            for c in sorted(admissible(v)):
                colors[v] = c
                if rec():
                    return True
                colors[v] = -1
            return False

        return colors if rec() else None

    for k in range(lb, ub):
        got = try_k(k)
        if got is not None:
            return k, Coloring(tuple(got), k)
    return ub, Coloring(tuple(greedy), ub)


def saturate_by_scan(rows: Sequence[int], j: int, clique: int) -> Optional[list[int]]:
    """The previous ``coloring._saturate``: the same DSATUR search, picking
    each vertex by a scan of every uncolored vertex for the (saturation,
    degree, -label) maximum, where ``seen[x]`` holds the colors of x's
    colored neighbors as bits, set on assign and cleared on undo."""
    n = len(rows)
    trial, seen = [0] * j, [0] * n
    for c, v in enumerate(bits(clique)):
        trial[c] = 1 << v
        for u in bits(rows[v]):
            seen[u] |= 1 << c

    def rec(pending: int, used: int) -> bool:
        if not pending:
            return True
        v = max(bits(pending), key=lambda x: (seen[x].bit_count(), rows[x].bit_count(), -x))
        bit = 1 << v
        pending ^= bit
        near = rows[v] & pending
        free = ~seen[v] & ((1 << min(j, used + 1)) - 1)
        while free:
            color = free & -free
            free ^= color
            c = color.bit_length() - 1
            fresh = [u for u in bits(near) if not seen[u] & color]
            for u in fresh:
                seen[u] |= color
            trial[c] |= bit
            if rec(pending, max(used, c + 1)):
                return True
            trial[c] ^= bit
            for u in fresh:
                seen[u] ^= color
        return False

    return trial if rec((1 << n) - 1 & ~clique, clique.bit_count()) else None


# -- reference contraction-criticality ---------------------------------------

def _single_deletions(g: Graph) -> Iterator[MinorWitness]:
    """G - v for every vertex v, then G - e for every edge e."""
    singletons = tuple(1 << v for v in range(g.n))
    edges = tuple(g.edges())
    for v in range(g.n):
        kept = tuple((i - (i > v), j - (j > v)) for i, j in edges if v not in (i, j))
        yield MinorWitness(g, singletons[:v] + singletons[v + 1:], kept)
    for e in edges:
        yield MinorWitness(g, singletons, tuple(f for f in edges if f != e))


def quotients_by_class(g: Graph) -> Iterator[MinorWitness]:
    """The previous ``contraction_quotients``: G/F for every nonempty edge
    set F, one per isomorphism class. Each level keeps the first quotient of
    each ``canonical_form`` and only those are contracted further."""
    level = [(g, tuple(1 << v for v in range(g.n)))]
    while level:
        found: dict = {}
        for q, branch_sets in level:
            for u, v in q.edges():
                h = Graph(q.n - 1, _contract_rows(q.adj, u, v))
                key = canonical_form(h)
                if key in found:
                    continue
                merged = list(branch_sets)
                merged[u] |= merged.pop(v)  # u < v, so u keeps its index
                bs = tuple(merged)
                found[key] = (h, bs)
                yield MinorWitness(g, bs, tuple(h.edges()))
        level = list(found.values())


def critical_by_scan(g: Graph, k: int) -> tuple[bool, Optional[MinorWitness]]:
    """Contraction-criticality by asking ``chromatic_number`` of every vertex
    deletion, then every edge deletion, then every contraction quotient of
    :func:`quotients_by_class`, and returning the first that needs k
    colors."""
    if chromatic_number(g)[0] != k:
        return False, None
    for wit in itertools.chain(_single_deletions(g), quotients_by_class(g)):
        if chromatic_number(wit.quotient())[0] >= k:
            return False, wit
    return True, None


# -- reference constructor check, clique search and encoders -----------------

def graph_rows_by_scan(n: int, adj: tuple[int, ...]) -> None:
    """The previous ``Graph.__init__`` check: raise ``InputError`` with the
    constructor's message when the rows are not a simple graph, walking
    every edge for symmetry."""
    if not 0 <= n <= MAX_VERTICES:
        raise InputError(f"vertex count {n} outside supported range 0..{MAX_VERTICES}")
    adj = tuple(adj)
    if len(adj) != n:
        raise InputError("adjacency table length does not match vertex count")
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        if row & ~full:
            raise InputError(f"adjacency of vertex {v} mentions out-of-range vertices")
        if (row >> v) & 1:
            raise InputError(f"vertex {v} has a loop")
    for v, row in enumerate(adj):
        for u in bits(row):
            if not (adj[u] >> v) & 1:
                raise InputError(f"edge {v},{u} is not symmetric")


def clique_by_branching(g: Graph) -> int:
    """The previous ``max_clique``: the same search, descending into every
    candidate set, clique or not."""
    adj = g.adj
    best_mask = 0
    best_size = 0

    def color_sort(cand: int) -> list[tuple[int, int]]:
        # greedy coloring of the candidate set; bound for v = its color index + 1
        order = []
        rest = cand
        color = 0
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append((v, color))
                avail &= ~adj[v] & ~(1 << v)
                rest &= ~(1 << v)
        return order

    def expand(cur: int, size: int, cand: int) -> None:
        nonlocal best_mask, best_size
        order = color_sort(cand)
        for v, bound in reversed(order):
            if size + bound <= best_size:
                return
            newcand = cand & adj[v]
            if size + 1 + newcand.bit_count() > best_size:
                expand(cur | (1 << v), size + 1, newcand)
            if size + 1 > best_size:
                best_size = size + 1
                best_mask = cur | (1 << v)
            cand &= ~(1 << v)

    expand(0, 0, g.full_mask)
    return best_mask


def graph6_by_bit_lists(g: Graph) -> str:
    """The previous ``write_graph6``: one list entry per upper-triangle bit,
    packed six at a time."""
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + chr(63 + ((n >> 12) & 63)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    bits_out = []
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            bits_out.append((col >> i) & 1)
    while len(bits_out) % 6:
        bits_out.append(0)
    chars = []
    for k in range(0, len(bits_out), 6):
        val = 0
        for b in bits_out[k:k + 6]:
            val = (val << 1) | b
        chars.append(chr(63 + val))
    return head + "".join(chars)


def complete_minus_matching_by_edges(n: int, m: int) -> Graph:
    """The previous ``complete_minus_matching``: K_n minus {0,1}, ...,
    {2m-2, 2m-1}, built from its edge list."""
    if 2 * m > n:
        raise InputError("matching does not fit")
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not (u % 2 == 0 and v == u + 1 and u < 2 * m)
    ]
    return Graph.from_edges(n, edges)


# -- reference separator sweep, two-pair linkage and graph6 decoder ----------

def separations_by_flows(l: Graph, s: int, max_order: int) -> bool:
    """The previous ``separations_exist``: one capped flow per vertex
    outside ``s``, with no bound taken first."""
    if max_order >= s.bit_count():
        raise InputError("shortcut requires max_order < |s|")
    full = l.full_mask
    for b in bits(full & ~s):
        # fan from b: paths share only b, so its neighbors act as the sources
        flow = max_vertex_disjoint_flow(
            l.adj, l.adj[b] & ~(1 << b), s, full & ~s & ~(1 << b), cap=max_order + 1
        )
        if flow <= max_order:
            return True
    return False


def massed_by_separations(l: Graph, s: int, p: int) -> MassedReport:
    """The previous ``is_p_massed``: condition (ii) walks every separation
    of order below |s| that ``enumerate_separations`` lists, unions of
    free components included, and reports the first whose B - A is
    dense."""
    outside = l.full_mask & ~s
    rv = rho(l, outside)
    size = outside.bit_count()
    cond_i = 2 * rv > p * size
    violator = None
    if s:
        for sep in enumerate_separations(l, s, s.bit_count() - 1):
            bpriv = sep.b & ~sep.a
            if 2 * rho(l, bpriv) > p * bpriv.bit_count():
                violator = sep
                break
    return MassedReport(
        satisfied=cond_i and violator is None,
        rho_value=rv,
        threshold=Fraction(p * size, 2),
        violating_separation=violator,
        condition_i=cond_i,
        condition_ii=violator is None,
    )


def link_by_obstruction_first(
    g: Graph, pairs: Sequence[tuple[int, int]], blocked: int
) -> Optional[tuple[tuple[int, ...], ...]]:
    """The linkage ``_link`` returns, by a plainer search: two pairs, neither
    an edge, go to the two-paths test before any path is read (here
    :func:`obstruction_by_flows`, not the code under test), and every
    node with two or more pairs left runs its flow bound on entry. A node
    branches on the pair of least component bound, the earlier on a tie,
    and tries its paths in (length, lex) order. Where a node with two pairs
    left finds that its first path does not extend, the pair takes the
    first path in lexicographic order, by plain enumeration, that leaves
    the other pair a path, and the other pair takes ``shortest_path`` in
    what is left."""
    chosen = list(pairs)
    # a direct edge uses no interior vertex, so it can never conflict with the
    # other paths; taking it loses no solutions
    todo = [(idx, p) for idx, p in enumerate(pairs) if not g.has_edge(*p)]
    if len(pairs) == len(todo) == 2 and obstruction_by_flows(g, pairs, blocked) is not None:
        return None
    free = g.full_mask & ~blocked

    def search(used: int, remaining: list[tuple[int, tuple[int, int]]]) -> bool:
        if not remaining:
            return True
        interior = free & ~used
        best = remaining[0]
        if len(remaining) > 1:
            srcs = mask_of(p[0] for _, p in remaining)
            snks = mask_of(p[1] for _, p in remaining)
            if max_vertex_disjoint_flow(g.adj, srcs, snks, interior, cap=len(remaining)) < len(remaining):
                return False
            comps = components(g.adj, interior)
            bounds = [sum((c & g.adj[a]).bit_count() * (c & g.adj[b]).bit_count() for c in comps)
                      for _, (a, b) in remaining]
            if 0 in bounds:
                return False
            best = remaining[bounds.index(min(bounds))]
        idx, (u, v) = best
        rest = [it for it in remaining if it is not best]
        for path in iter_paths_by_length(g, u, v, interior, g.n):
            chosen[idx] = path
            if search(used | mask_of(path[1:-1]), rest):
                return True
            if len(remaining) == 2:
                (other, (s, t)), = rest
                for path in all_simple_paths(g, u, v, set(bits(g.full_mask & ~interior))):
                    tail = shortest_path(g.adj, s, 1 << t, interior & ~mask_of(path) | 1 << t)
                    if tail:
                        chosen[idx], chosen[other] = tuple(path), (s, *tail)
                        return True
                return False
        return False

    return tuple(chosen) if search(0, todo) else None


def graph6_parse_by_bit_lists(text: str) -> Graph:
    """The previous ``parse_graph6``: one list entry per data bit, read back
    one upper-triangle bit at a time."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    pos = 0
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise Graph6Error("graph too large for this package", 1)
        if len(s) < 4:
            raise Graph6Error("truncated extended size header", len(s))
        vals = []
        for k in range(1, 4):
            c = ord(s[k]) - 63
            if not 0 <= c <= 63:
                raise Graph6Error("invalid size character", k)
            vals.append(c)
        n = (vals[0] << 12) | (vals[1] << 6) | vals[2]
        pos = 4
    else:
        c = ord(s[0]) - 63
        if not 0 <= c <= 62:
            raise Graph6Error("invalid size character", 0)
        n = c
        pos = 1
    if n > MAX_VERTICES:
        raise Graph6Error(f"graph order {n} exceeds the {MAX_VERTICES}-vertex envelope", 0)
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(s) - pos != nchars:
        raise Graph6Error(
            f"expected {nchars} data characters for n={n}, found {len(s) - pos}",
            min(len(s), pos + nchars),
        )
    bitstream = []
    for k in range(nchars):
        c = ord(s[pos + k]) - 63
        if not 0 <= c <= 63:
            raise Graph6Error("invalid data character", pos + k)
        for shift in range(5, -1, -1):
            bitstream.append((c >> shift) & 1)
    for extra in bitstream[nbits:]:
        if extra:
            raise Graph6Error("nonzero padding bits", pos + nchars - 1)
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bitstream[idx]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    return Graph(n, tuple(rows))


# -- reference planarity and two-paths test -----------------------------------
# The embedding that rebuilt every fragment at every step, and the two-paths
# test that ran one capped flow per non-terminal vertex, before the
# fragments were kept between steps and known fans skipped the flow; kept to
# pin faces, rotations and certificates.

def path_by_parents(adj: Sequence[int], src: int, first: int, domain: int, dst: int) -> list[int]:
    """The previous ``planar._path``: a shortest path src, w1, ..., wk, dst
    with w1 in ``first``, every wi in ``domain``, and wk adjacent to dst,
    each vertex's parent the first vertex of the previous layer to reach
    it; the caller guarantees one exists."""
    parent = dict.fromkeys(bits(first), src)
    frontier = seen = first
    while True:
        nxt = 0
        for w in bits(frontier):
            if (adj[w] >> dst) & 1:
                path = [dst]
                while w != src:
                    path.append(w)
                    w = parent[w]
                path.append(src)
                return path[::-1]
            new = adj[w] & domain & ~seen
            seen |= new
            nxt |= new
            for x in bits(new):
                parent[x] = w
        frontier = nxt


def block_faces_by_rebuild(adj: Sequence[int], block: int) -> Optional[list[list[int]]]:
    """The previous ``planar._block_faces``: Demoucron-Malgrange-Pertuiset
    with every fragment and every fragment's faces found afresh at each
    step."""
    nb = {v: adj[v] & block for v in bits(block)}
    if sum(m.bit_count() for m in nb.values()) // 2 > 3 * block.bit_count() - 6:
        return None
    a = (block & -block).bit_length() - 1
    b = (nb[a] & -nb[a]).bit_length() - 1
    rest = block & ~(1 << a) & ~(1 << b)
    cycle = path_by_parents(nb, b, nb[b] & rest, rest, a)
    faces = [cycle, cycle[::-1]]
    masks = [mask_of(cycle)] * 2
    drawn = masks[0]
    drawn_adj = dict.fromkeys(nb, 0)
    for x, y in zip(cycle, cycle[1:] + cycle[:1]):
        drawn_adj[x] |= 1 << y
        drawn_adj[y] |= 1 << x
    while True:
        fragments = []  # (attachments, undrawn vertices; 0 for one edge)
        for x in bits(drawn):
            for y in bits(nb[x] & drawn & ~drawn_adj[x] & ~((2 << x) - 1)):
                fragments.append(((1 << x) | (1 << y), 0))
        left = block & ~drawn
        while left:
            comp = frontier = left & -left
            while frontier:
                nxt = 0
                for w in bits(frontier):
                    nxt |= nb[w]
                frontier = nxt & left & ~comp
                comp |= frontier
            attach = 0
            for w in bits(comp):
                attach |= nb[w]
            fragments.append((attach & drawn, comp))
            left &= ~comp
        if not fragments:
            return faces
        pick = None
        for attach, comp in fragments:
            fits = [i for i, m in enumerate(masks) if not attach & ~m]
            if not fits:
                return None
            if pick is None or len(fits) == 1:
                pick = (attach, comp, fits[0])
                if len(fits) == 1:
                    break
        attach, comp, i = pick
        u = (attach & -attach).bit_length() - 1
        w = (attach & (attach - 1) & -(attach & (attach - 1))).bit_length() - 1
        path = [u, w] if not comp else path_by_parents(nb, u, nb[u] & comp, comp, w)
        face = faces[i]
        iu, iw = face.index(u), face.index(w)
        if iu < iw:
            there, back = face[iu:iw + 1], face[iw:] + face[:iu + 1]
        else:
            there, back = face[iu:] + face[:iw + 1], face[iw:iu + 1]
        inner = path[1:-1]
        faces[i] = there + inner[::-1]
        faces.append(back + inner)
        masks[i] = mask_of(faces[i])
        masks.append(mask_of(faces[-1]))
        for x, y in zip(path, path[1:]):
            drawn_adj[x] |= 1 << y
            drawn_adj[y] |= 1 << x
            drawn |= 1 << y


def biconnected_blocks(adj: Sequence[int]) -> list[int]:
    """The vertex masks of the biconnected blocks of the graph with adjacency
    bitmasks ``adj`` that hold an edge, from networkx."""
    h = nx.Graph((v, w) for v, row in enumerate(adj) for w in bits(row) if v < w)
    return [mask_of(block) for block in nx.biconnected_components(h)]


def rotation_by_rebuild(adj: Sequence[int]) -> Optional[list[list[int]]]:
    """A plane rotation system of any graph, or None: each block's faces
    from :func:`block_faces_by_rebuild`, the blocks from networkx, and the
    rotations of a cut vertex's blocks concatenated, which draws each block
    inside one face of the others."""
    rotation: list[list[int]] = [[] for _ in adj]
    for block in biconnected_blocks(adj):
        if block.bit_count() == 2:
            x, y = bits(block)
            rotation[x].append(y)
            rotation[y].append(x)
            continue
        faces = block_faces_by_rebuild(adj, block)
        if faces is None:
            return None
        after = {}
        for face in faces:
            for i, y in enumerate(face):
                after[y, face[i - 1]] = face[(i + 1) % len(face)]
        for y in bits(block):
            first = x = (adj[y] & block & -(adj[y] & block)).bit_length() - 1
            while True:
                rotation[y].append(x)
                x = after[y, x]
                if x == first:
                    break
    return rotation


def obstruction_by_flows(
    g: Graph, pairs: Sequence[tuple[int, int]], blocked: int
) -> Optional[PlanarObstruction]:
    """The two-paths certificate as a previous ``solver._obstruction`` made
    it: one capped flow for every
    non-terminal vertex still in the graph at its turn, then the embedding
    of :func:`rotation_by_rebuild`."""
    (s1, t1), (s2, t2) = pairs
    ends = mask_of((s1, t1, s2, t2))
    live, adj = _deleted(g, ends, blocked)
    reductions = []
    for v in bits(live & ~ends):
        if (live >> v) & 1:
            r = terminal_free_side_by_walk(adj, v, ends, live, 4)
            if r is not None:
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
    rotation = rotation_by_rebuild(adj)
    if rotation is None:
        return None
    for a, b in added:
        rotation[a].remove(b)
        rotation[b].remove(a)
    return PlanarObstruction(tuple(reductions), tuple(map(tuple, rotation)))


def terminal_free_side_by_walk(adj: list[int], v: int, ends: int, live: int, k: int) -> Optional[tuple[int, int]]:
    """The previous ``solver._terminal_free_side``: the separator and the
    least terminal-free side around the non-terminal ``v`` that fewer than
    ``k`` vertices cut off from ``ends``, or None.

    A flow capped at k paths from v's neighbours to the ends, inside
    ``live`` without v, finds whether there is one. Its side is then the set
    of vertices whose out-node the residual reaches from v, in the
    node-split network with unbounded edge arcs, walked afresh from the
    flow's paths, and the separator is the set of vertices whose in-node
    alone is reached."""
    allowed = live & ~(1 << v)
    flow, paths, _ = max_vertex_disjoint_flow(adj, adj[v], ends, allowed, cap=k, collect=True)
    if flow == k:
        return None
    on = starts = 0
    pred = {}
    for p in paths:
        on |= mask_of(p)
        starts |= 1 << p[0]
        pred.update(zip(p[1:], p))
    reach_in = todo = adj[v]
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
            todo |= adj[x] & allowed
        todo = (todo | (out & on)) & ~reach_in
        reach_in |= todo
    return reach_in & ~reach_out, reach_out | (1 << v)


def small_cuts_by_walk(adj: list[int], ends: int, live: int, k: int) -> Iterator[tuple[int, int]]:
    """The previous ``solver._small_cuts``: the fan of
    :func:`fan_by_shortest_paths` marks a vertex good, and otherwise
    :func:`terminal_free_side_by_walk` gives its side, which is yielded,
    deleted and its separator made a clique on ``adj`` in place."""
    good = ends
    for v in bits(live & ~ends):
        if not (live >> v) & 1:
            continue
        if fan_by_shortest_paths(adj, v, good, live, k):
            good |= 1 << v
            continue
        cut = terminal_free_side_by_walk(adj, v, ends, live, k)
        if cut is None:
            good |= 1 << v
            continue
        yield cut
        _reduce(adj, *cut)
        live &= ~cut[1]


def fan_by_shortest_paths(adj: Sequence[int], v: int, good: int, live: int, k: int) -> bool:
    """The previous ``solver._fan_of_four``, for any ``k``: whether k
    successive shortest paths from ``v`` inside ``live``, each avoiding the
    vertices of the ones before, end at k vertices of ``good``."""
    free = live & ~(1 << v)
    for _ in range(k):
        path = shortest_path(adj, v, good, free)
        if not path:
            return False
        free &= ~mask_of(path)
    return True


def terminal_spec_by_sorting(parts, forbidden: int = 0):
    """The previous ``TerminalSpec.__post_init__``: the normalised parts and
    their mask, or the message of the ``InputError`` it raised."""
    seen = 0
    norm = []
    for part in parts:
        if not all(type(x) is int and x >= 0 for x in part):
            return f"part {part} must hold vertex indices"
        t = tuple(sorted(part))
        if len(t) not in (1, 2) or len(set(t)) != len(t):
            return f"part {part} must have one or two distinct vertices"
        m = mask_of(t)
        if m & seen:
            return "terminal parts overlap"
        seen |= m
        norm.append(t)
    if seen & forbidden:
        return "terminals overlap the forbidden set"
    return tuple(norm), seen


# -- previous generators and biconnectivity test ------------------------------

def min_degree_by_rescan(n: int, delta: int, seed: int) -> Graph:
    """The previous ``gen_min_degree``: after the binomial base, every
    repair rescans all vertices for the least deficient one."""
    rng = random.Random(seed)
    p = min(0.95, (delta + 1) / max(1, n - 1))
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    while True:
        deficient = [v for v in range(n) if rows[v].bit_count() < delta]
        if not deficient:
            break
        v = deficient[0]
        options = [w for w in range(n) if w != v and not (rows[v] >> w) & 1]
        w = rng.choice(options)
        rows[v] |= 1 << w
        rows[w] |= 1 << v
    return Graph(n, tuple(rows))


def split_host_by_edges(seed: int, blob_size: int) -> tuple[Graph, tuple[int, ...], int]:
    """The previous ``gen_split_host``, which listed every edge and built
    the host with ``Graph.from_edges``: its graph, terminals and straddling
    count."""
    rng = random.Random(seed)
    straddling = rng.choice([1, 2])
    m = blob_size
    a0, b0 = 0, m
    nxt = 2 * m
    u0 = nxt
    nxt += 1
    mid_a, mid_b, mid_ab, pairs, edges = [], [], [], [], []
    bridge_pairs = 4 - straddling
    for i in range(bridge_pairs):
        ua, vb = nxt, nxt + 1
        nxt += 2
        (mid_ab if rng.random() < 0.5 else mid_a).append(ua)
        (mid_ab if rng.random() < 0.5 else mid_b).append(vb)
        if i < bridge_pairs - 1:
            edges.append((ua, vb))
            pairs.append((ua, vb))
        else:
            w = nxt
            nxt += 1
            mid_b.append(w)
            edges.append((ua, w))
            edges.append((w, vb))
            pairs.append((ua, vb))
    for i in range(straddling):
        pairs.append((a0 + 1 + i, b0 + 1 + i))
    n = nxt
    for base in (a0, b0):
        for u in range(base, base + m):
            for v in range(u + 1, base + m):
                if rng.random() < 0.9:
                    edges.append((u, v))
    for x in mid_a + [u0]:
        for v in range(a0, a0 + m):
            edges.append((x, v))
    for x in mid_b:
        for v in range(b0, b0 + m):
            edges.append((x, v))
    for x in mid_ab:
        for v in range(a0, b0 + m):
            edges.append((x, v))
    terminals = (u0,) + tuple(x for p in pairs for x in p)
    return Graph.from_edges(n, edges), terminals, straddling


def biconnected_by_sweep(g: Graph, domain: int) -> bool:
    """The previous ``campaigns._is_biconnected``: G[domain] has at least 3
    vertices and stays connected with any one of them deleted, tested by one
    search for the whole domain and one per vertex."""
    if domain.bit_count() < 3 or not is_connected(g, domain):
        return False
    for v in bits(domain):
        if not is_connected(g, domain & ~(1 << v)):
            return False
    return True
