"""Seeded graph generators: minimum-degree random graphs, universal-vertex
graphs, complete graphs minus matchings, and the split hosts used by the
coverage-score campaign."""

from __future__ import annotations

import random

from .errors import InputError, check_ints
from .graphs import Graph, _Value, _check_count, bits, symmetric_closure


def gen_min_degree(n: int, delta: int, seed: int) -> Graph:
    """Random graph with minimum degree at least ``delta``: a binomial base
    augmented by random edges at deficient vertices. Deterministic per seed."""
    check_ints(n=n, delta=delta, seed=seed)
    if not 0 <= delta < n:
        raise InputError(f"need 0 <= delta < n, got delta={delta}, n={n}")
    rng = random.Random(seed)
    p = min(0.95, (delta + 1) / max(1, n - 1))
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    # each repair joins the least deficient vertex to a random non-neighbor;
    # an added edge leaves no vertex deficient that was not, so the least
    # deficient vertex only moves up
    full = (1 << n) - 1
    for v in range(n):
        while rows[v].bit_count() < delta:
            w = rng.choice(list(bits(full & ~rows[v] & ~(1 << v))))
            rows[v] |= 1 << w
            rows[w] |= 1 << v
    return Graph(n, tuple(rows))


def gen_universal_vertex(n: int, delta: int, seed: int) -> tuple[Graph, int]:
    """Graph whose vertex 0 is adjacent to everything, minimum degree at
    least ``delta`` overall."""
    check_ints(n=n, delta=delta, seed=seed)
    if not 1 <= delta < n:
        raise InputError(f"need 1 <= delta < n, got delta={delta}, n={n}")
    base = gen_min_degree(n - 1, delta - 1, seed)
    rows = [((1 << (n - 1)) - 1) << 1]
    for v in range(n - 1):
        rows.append((base.adj[v] << 1) | 1)
    return Graph(n, tuple(rows)), 0


def complete_minus_matching(n: int, m: int) -> Graph:
    """Complete graph minus the matching {0,1}, {2,3}, ..., {2m-2, 2m-1}."""
    check_ints(n=n, m=m)
    if m < 0:
        raise InputError(f"matching size m must be nonnegative, not {m}")
    if 2 * m > n:
        raise InputError("matching does not fit")
    full = (1 << n) - 1
    return Graph(n, tuple(
        full ^ 1 << v ^ 1 << (v ^ 1) if v < 2 * m else full ^ 1 << v for v in range(n)
    ))


class SplitHost(_Value):
    """Two dense blobs joined only through a sparse middle layer. Built so
    that the straddling terminal pairs can never connect within the path cap
    and the blob sides stay in separate components once the middle is used.
    ``terminals`` lists u0, then the four pairs; ``straddling`` is how many
    of the pairs straddle the blobs (1 or 2)."""

    def __init__(self, graph: Graph, terminals: tuple[int, ...], straddling: int):
        self.__dict__.update(graph=graph, terminals=terminals, straddling=straddling)


def gen_split_host(seed: int, blob_size: int = 12) -> SplitHost:
    """Host whose best configuration leaves one or two blocks disconnected.

    Middle-layer pairs sit one endpoint per side with their connecting
    vertices inside the middle, so every block lives in the middle; the
    straddling pairs' endpoints see only their own blob, forcing any
    connection to run through at least four intermediate vertices. The
    straddling pairs take vertices 1 and 2 of each blob, so ``blob_size``
    is at least 3.
    """
    check_ints(seed=seed, blob_size=blob_size)
    if blob_size < 3:
        raise InputError(f"blob_size must be at least 3, got {blob_size}")
    rng = random.Random(seed)
    straddling = rng.choice([1, 2])
    m = blob_size
    bridge_pairs = 4 - straddling
    # layout: blob A = [0, m); blob B = [m, 2m); then u0, the bridge pairs
    # and the last pair's connecting vertex
    n = 2 * m + 2 * bridge_pairs + 2
    _check_count(n)
    a0, b0 = 0, m
    nxt = 2 * m
    u0 = nxt
    nxt += 1
    mid_a = [u0]  # middle vertices attached to blob A only
    mid_b = []
    mid_ab = []  # middle terminals attached to both blobs; safe because
    pairs = []   # terminals are never interior to a connecting path
    # each row holds its neighbors above it, and a middle row its blobs too;
    # the symmetric closure adds the rest
    rows = [0] * n
    for i in range(bridge_pairs):
        ua, vb = nxt, nxt + 1
        nxt += 2
        (mid_ab if rng.random() < 0.5 else mid_a).append(ua)
        (mid_ab if rng.random() < 0.5 else mid_b).append(vb)
        if i < bridge_pairs - 1:
            rows[ua] |= 1 << vb  # adjacent cross pair
        else:
            w = nxt
            nxt += 1
            mid_b.append(w)
            rows[ua] |= 1 << w
            rows[vb] |= 1 << w
        pairs.append((ua, vb))
    for i in range(straddling):
        pairs.append((a0 + 1 + i, b0 + 1 + i))
    random01 = rng.random
    for base in (a0, b0):
        for u in range(base, base + m):
            row, bit = 0, 1 << (u + 1)
            for _ in range(base + m - u - 1):
                if random01() < 0.9:
                    row |= bit
                bit <<= 1
            rows[u] = row
    blob_a = ((1 << m) - 1) << a0
    blob_b = ((1 << m) - 1) << b0
    for side, blob in ((mid_a, blob_a), (mid_b, blob_b), (mid_ab, blob_a | blob_b)):
        for x in side:
            rows[x] |= blob
    g = Graph(n, symmetric_closure(tuple(rows)))
    terminals = (u0,) + tuple(x for p in pairs for x in p)
    return SplitHost(
        graph=g,
        terminals=terminals,
        straddling=straddling,
    )
