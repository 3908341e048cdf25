"""Sufficient-condition certifiers: connectivity threshold formulas, greedy
common-neighbor linking, and the dense-neighborhood classification that
drives the knitted-subgraph search."""

from __future__ import annotations

import random

from .errors import InputError, check_ints
from .graphs import Graph, _Value, induced, mask_of, max_clique, neighbors_closed, set_of
from .solver import Linkage, TerminalSpec, _check_sampling, _sampled_unknitted, least_unknitted


def mader_threshold(s: int, t: int) -> int:
    """Chromatic threshold above which a separator of size <= s with
    independence defect t cannot exist: s + 2^(t-1) - t."""
    check_ints(s=s, t=t)
    if t < 3:
        raise InputError("t must be at least 3")
    if s < 1:
        raise InputError("s must be at least 1")
    return s + (1 << (t - 1)) - t


def easy_connectivity_threshold(t: int) -> int:
    """Chromatic threshold forcing t-connectedness: 2^(t-4) + 2."""
    check_ints(t=t)
    if t < 6:
        raise InputError("t must be at least 6")
    return (1 << (t - 4)) + 2


def main_theorem_table(k: int) -> int:
    """Best proven connectivity of a noncomplete k-contraction-critical graph."""
    check_ints(k=k)
    if k < 5:
        raise InputError("k must be at least 5")
    if k >= 41:
        return 10
    if k >= 29:
        return 9
    if k >= 17:
        return 8
    if k >= 7:
        return 7
    if k == 6:
        return 6
    return 5


class GreedyLinkResult(_Value):
    def __init__(self, linkage: Linkage | None, ordering: tuple[int, ...], failed_pair: tuple[int, int] | None):
        self.__dict__.update(linkage=linkage, ordering=ordering, failed_pair=failed_pair)


def greedy_link(l: Graph, spec: TerminalSpec) -> GreedyLinkResult:
    """Link each pair by its edge or by a fresh common neighbor, processing
    non-adjacent pairs in ascending order of common-neighbor count so the
    tightest pair meets the weakest demand.

    Interior vertices avoid the terminals and the spec's forbidden set, so a
    returned linkage passes ``Linkage.validate(l, spec)``. All paths have at
    most three vertices.
    """
    spec.check_in_graph(l)
    if any(len(p) != 2 for p in spec.parts):
        raise InputError("greedy_link takes pair parts only")
    pairs = spec.parts
    k = len(pairs)
    if l.n < 2 * k + 1:
        raise InputError(f"need at least {2 * k + 1} vertices for {k} pairs")
    nonadj = [p for p in pairs if not l.has_edge(*p)]
    nonadj.sort(key=lambda p: ((l.adj[p[0]] & l.adj[p[1]]).bit_count(), p))
    adj = [p for p in pairs if l.has_edge(*p)]
    ordering = tuple(pairs.index(p) for p in nonadj + adj)
    avoid = spec.terminal_mask | spec.forbidden
    used_interior = 0
    link_of: dict[tuple[int, int], tuple[int, ...]] = {}
    for p in nonadj:
        cands = l.adj[p[0]] & l.adj[p[1]] & ~avoid & ~used_interior
        if not cands:
            return GreedyLinkResult(None, ordering, p)
        c = (cands & -cands).bit_length() - 1
        used_interior |= 1 << c
        link_of[p] = (p[0], c, p[1])
    for p in adj:
        link_of[p] = p
    return GreedyLinkResult(Linkage(tuple(link_of[p] for p in pairs)), ordering, None)


def common_neighbor_certificate(
    l: Graph, k: int, knitted_variant: bool = False
) -> tuple[bool, tuple[int, int] | None]:
    """Every non-adjacent pair has at least 3k-2 common neighbors (3k-1 for
    the variant that also dodges one forbidden vertex)."""
    if type(k) is not int or k < 1:
        raise InputError(f"k must be a positive int, not {k!r}")
    if l.n < 2 * k + 1:
        raise InputError(f"need at least {2 * k + 1} vertices")
    bound = 3 * k - 1 if knitted_variant else 3 * k - 2
    for u in range(l.n):
        for v in range(u + 1, l.n):
            if not l.has_edge(u, v) and (l.adj[u] & l.adj[v]).bit_count() < bound:
                return False, (u, v)
    return True, None


class DenseNeighborhoodReport(_Value):
    """``case`` is "i", "ii", "iii" or "none"; ``low_degree_vertices`` is the
    bitset of the vertices of degree exactly floor(p/2)."""

    def __init__(self, case: str, n_h: int, delta_h: int, low_degree_vertices: int):
        self.__dict__.update(case=case, n_h=n_h, delta_h=delta_h, low_degree_vertices=low_degree_vertices)


def _check_p(p: int) -> None:
    if type(p) is not int or p < 0:
        raise InputError("p must be a nonnegative integer")


def dense_conditions(h: Graph, p: int) -> DenseNeighborhoodReport:
    """Classify a graph against the three density shapes for threshold p."""
    _check_p(p)
    if h.n == 0:
        raise InputError("graph is empty")
    half = p // 2
    n = h.n
    delta = h.min_degree()
    low = mask_of(v for v in range(n) if h.degree(v) == half)
    case = "none"
    if n <= p and delta >= half + 1:
        case = "i"
    elif n <= p - 2 and delta >= half and low.bit_count() <= 2 and (
        low.bit_count() < 2 or not h.has_edge(*set_of(low))
    ):
        case = "ii"
    elif n <= p - 4 and delta >= half:
        case = "iii"
    return DenseNeighborhoodReport(case, n, delta, low)


def find_dense_neighborhood(
    l: Graph, s: int, p: int
) -> tuple[int, DenseNeighborhoodReport] | None:
    """First vertex outside ``s`` whose closed neighborhood classifies densely."""
    check_ints(s=s)
    _check_p(p)
    if s & ~l.full_mask:
        raise InputError(f"the set holds vertex {s.bit_length() - 1}, outside 0..{l.n - 1}")
    for v in range(l.n):
        if (s >> v) & 1:
            continue
        sub, _ = induced(l, neighbors_closed(l, v))
        rep = dense_conditions(sub, p)
        if rep.case != "none":
            return v, rep
    return None


_TARGETS = {
    42: (4, True, 9),   # profile (2,2,2,2,1): four pairs plus an avoided vertex
    30: (4, False, 8),  # plain four-pair linkage
    18: (3, True, 7),   # profile (2,2,2,1)
}


class Knitted1Verdict(_Value):
    """``status`` is "certified" or "not-found"; ``route`` is "clique",
    "common-neighbor" or "exhaustive", or "" when not found; ``failures``
    holds (pairs, forbidden mask) per failing system, in host labels."""

    def __init__(self, status: str, route: str, candidate: int, samples_run: int, failures: tuple):
        self.__dict__.update(status=status, route=route, candidate=candidate, samples_run=samples_run,
                             failures=failures)


def knitted1_check(h: Graph, p: int, samples: int, seed: int) -> Knitted1Verdict:
    """Search for the knitted or linked subgraph promised at threshold p.

    Only a proof answers "certified". Route "clique": a clique as large as
    the clique bound links every system inside it by edges. Route
    "common-neighbor": a candidate on which every non-adjacent pair has
    3k - 2 common neighbors (3k - 1 in the variant that avoids a forbidden
    vertex), where :func:`greedy_link` links every system, since a pair
    loses at most 3k - 3 (3k - 2) of them: the other 2k - 2 terminals, the
    forbidden vertex and the k - 1 interiors already used. Route "exhaustive": a
    candidate of at most 12 vertices that :func:`least_unknitted` clears,
    or whose least violating system goes into ``failures``. A larger
    candidate is only searched for a counterexample, on ``samples`` systems
    drawn from one ``random.Random(seed)`` by the search of
    ``is_k_linked(mode="sampled")`` (:func:`_sampled_unknitted`), whose first
    failing system goes into ``failures``; passing samples certify nothing.
    """
    if p not in _TARGETS:
        raise InputError(f"threshold must be one of {sorted(_TARGETS)}")
    _check_sampling(samples, seed)
    k, variant, clique_bound = _TARGETS[p]
    if dense_conditions(h, p).case == "none":
        raise InputError("graph does not satisfy any dense-neighborhood shape")
    if not any(h.degree(z) == h.n - 1 for z in range(h.n)):
        raise InputError("graph must have a universal vertex")

    clique = max_clique(h)
    if clique.bit_count() >= clique_bound:
        cand = mask_of(set_of(clique)[: max(clique_bound, 2 * k + 1)])
        return Knitted1Verdict("certified", "clique", cand, 0, ())

    # every dense shape has minimum degree at least p // 2, so the graph is
    # its own p // 2 core and no smaller core is a candidate
    candidates = [h.full_mask]
    for z in sorted(range(h.n), key=lambda x: -h.degree(x)):
        candidates.append(neighbors_closed(h, z))
    # each distinct candidate once: the universal vertex's closed
    # neighbourhood repeats the whole graph
    candidates = list(dict.fromkeys(c for c in candidates if c.bit_count() >= 2 * k + 1))
    for cand in candidates:
        if common_neighbor_certificate(induced(h, cand)[0], k, variant)[0]:
            return Knitted1Verdict("certified", "common-neighbor", cand, 0, ())

    profile = (2,) * k + ((1,) if variant else ())
    rng = random.Random(seed)
    failures = []
    run = 0
    for cand in candidates:
        sub, vmap = induced(h, cand)
        if sub.n <= 12:
            wit = least_unknitted(sub, profile)
            if wit is None:
                return Knitted1Verdict("certified", "exhaustive", cand, run, tuple(failures))
        else:
            drawn, wit = _sampled_unknitted(sub, profile, samples, rng)
            run += drawn
        if wit is not None:
            failures.append(_in_host(wit, vmap))
    return Knitted1Verdict("not-found", "", 0, run, tuple(failures))


def _in_host(parts: tuple, vmap) -> tuple:
    """A partition of an induced subgraph's vertices, singletons first, as a
    (pairs, forbidden mask) system in host labels."""
    pairs = tuple(tuple(vmap[x] for x in part) for part in parts if len(part) == 2)
    return pairs, mask_of(vmap[part[0]] for part in parts if len(part) == 1)
