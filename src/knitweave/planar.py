"""Planarity testing that returns a plane rotation system.

Graphs here are sequences of adjacency bitmasks, like ``Graph.adj`` but of
any length, so that a 64-vertex graph can take one extra vertex. A rotation
system lists, for each vertex, its neighbours in the cyclic order in which
they leave it in a drawing. Its faces are the orbits of the darts under
``(x, y) -> (y, z)``, where z follows x in the rotation at y. A connected
graph's rotation system is a plane drawing exactly when V - E + F = 2
(Euler's formula), which is what a validator checks with
:func:`face_count`.

The drawing is the left-right planarity algorithm (de Fraysseix and
Rosenstiehl 1985, in the form of Brandes 2009), in two phases:
:func:`lr_test` decides planarity and returns its state, and
:func:`lr_rotation` turns that state into the rotation system, so a caller
that needs only the verdict runs the first phase alone.
"""

from __future__ import annotations

from collections.abc import Sequence

from .graphs import bits


def face_count(rotation: Sequence[Sequence[int]]) -> int:
    """Number of faces of ``rotation``, whose lists must name every neighbour
    of each vertex exactly once and be symmetric (y in x's list iff x in
    y's)."""
    after = {}
    for y, order in enumerate(rotation):
        for i, x in enumerate(order):
            after[x, y] = (y, order[(i + 1) % len(order)])
    faces = 0
    for dart in list(after):
        if dart in after:
            faces += 1
            while dart in after:
                dart = after.pop(dart)
    return faces


def lr_test(adj: Sequence[int]) -> tuple | None:
    """The left-right test's state for the graph with rows ``adj``, whose
    non-isolated vertices must be connected; None if it is not planar.

    A graph on V >= 3 vertices with more than 3V - 6 edges is not planar.
    Otherwise a depth-first search from the least non-isolated vertex,
    neighbours in increasing order, orients each edge: a tree edge away
    from the root, a back edge towards it. An edge's lowpoint is the least
    height (distance from the root in the tree) that a back edge from it
    or from below it returns to, and lowpt2 the next least, or the height
    of its tail where there is none. Its nesting depth is twice its
    lowpoint, plus one when lowpt2 is below its tail (a chordal edge).

    Each vertex's out-edges are sorted by nesting depth, ties in search
    order, and a second search takes them in that order with a stack of
    conflict pairs. A pair holds two intervals of back edges, each a
    chain of ``ref`` links from its high edge to its low one, that must
    lie on opposite sides of the tree; the edges of one interval lie on
    one side. An out-edge e_i of v after the first must lie on the other
    side of every back edge of e_1 ... e_(i-1) that returns above the
    lowpoint of e_i: the edges of e_i's return intervals that return above
    the lowpoint of v's parent edge merge into one interval, and the
    conflicting intervals below it into the other. An interval that
    conflicts on both sides shows the graph is not planar. When the search
    leaves v's child, the back edges returning to v leave the stack, and
    each edge's side is set relative to another edge's (its ``ref``) by a
    sign (``side``).

    The state is the root, the out-edges of each vertex, each edge's head,
    each vertex's tree edge, and each edge's nesting depth, sign and
    ``ref``; edges are numbered as the first search orients them.
    """
    n = len(adj)
    verts = [v for v, row in enumerate(adj) if row]
    m = sum(row.bit_count() for row in adj) // 2
    if len(verts) > 2 and m > 3 * len(verts) - 6:
        return None
    # edge m is the root's parent edge, so every vertex has one
    root = verts[0] if verts else 0
    height: list[int | None] = [None] * n
    height[root] = 0
    parent = [m] * n
    out: list[list[int]] = [[] for _ in adj]
    head: list[int] = []
    low = [0] * (m + 1)
    low2 = [0] * (m + 1)
    depth = [0] * (m + 1)

    def orient(v: int, e: int) -> None:
        h = height[v]
        edges = out[v]
        for w in bits(adj[v]):
            hw = height[w]
            if hw is not None and hw >= h - 1:
                continue  # the tree edge to v's parent, or a back edge to v
            k = len(head)
            head.append(w)
            edges.append(k)
            low2[k] = h
            if hw is None:
                parent[w] = k
                height[w] = h + 1
                low[k] = h
                orient(w, k)
            else:
                low[k] = hw
            lk, l2 = low[k], low2[k]
            depth[k] = 2 * lk + (l2 < h)
            le = low[e]
            if lk < le:
                low2[e] = min(le, l2)
                low[e] = lk
            elif lk > le:
                low2[e] = min(low2[e], lk)
            else:
                low2[e] = min(low2[e], l2)

    orient(root, m)
    for edges in out:
        edges.sort(key=depth.__getitem__)

    # a conflict pair is [left low, left high, right low, right high], an
    # empty interval None at both ends
    stack: list[list] = []
    ref: list[int | None] = [None] * (m + 1)
    side = [1] * (m + 1)
    lowedge = [0] * (m + 1)
    bottom: list[list | None] = [None] * m

    def lowest(p: list) -> int:
        if p[0] is None:
            return low[p[2]]
        if p[2] is None:
            return low[p[0]]
        return min(low[p[0]], low[p[2]])

    def constrain(ei: int, e: int) -> bool:
        p = [None, None, None, None]
        floor, top = low[e], bottom[ei]
        while True:  # e_i's return edges: merged into p's right, or aligned
            q = stack.pop()
            if q[0] is not None:
                q = q[2:] + q[:2]
                if q[0] is not None:
                    return False
            if low[q[2]] > floor:
                if p[2] is None:
                    p[3] = q[3]
                else:
                    ref[p[2]] = q[3]
                p[2] = q[2]
            else:
                ref[q[2]] = lowedge[e]
            if (stack[-1] if stack else None) is top:
                break
        mark = low[ei]
        while stack:  # the conflicting return edges of e_1 ... e_(i-1): p's left
            q = stack[-1]
            right = q[3] is not None and low[q[3]] > mark
            if not (right or q[1] is not None and low[q[1]] > mark):
                break
            stack.pop()
            if right:
                q = q[2:] + q[:2]
                if q[3] is not None and low[q[3]] > mark:
                    return False
            if p[2] is not None:
                ref[p[2]] = q[3]
            if q[2] is not None:
                p[2] = q[2]
            if p[0] is None:
                p[1] = q[1]
            else:
                ref[p[0]] = q[1]
            p[0] = q[0]
        if p[0] is not None or p[2] is not None:
            stack.append(p)
        return True

    def test(v: int, e: int) -> bool:
        h = height[v]
        edges = out[v]
        for ei in edges:
            bottom[ei] = stack[-1] if stack else None
            w = head[ei]
            if parent[w] != ei:
                lowedge[ei] = ei
                stack.append([None, None, ei, ei])
            else:
                if not test(w, ei):
                    return False
                # the back edges returning to v leave the stack
                while stack and lowest(stack[-1]) == h:
                    p = stack.pop()
                    if p[0] is not None:
                        side[p[0]] = -1
                if stack:
                    p = stack[-1]
                    for lo, hi in (0, 1), (2, 3):
                        while p[hi] is not None and head[p[hi]] == v:
                            p[hi] = ref[p[hi]]
                        if p[hi] is None and p[lo] is not None:
                            ref[p[lo]] = p[2 - lo]
                            side[p[lo]] = -1
                            p[lo] = None
                if low[ei] < h:  # e_i takes the side of a highest return edge
                    hl, hr = stack[-1][1], stack[-1][3]
                    ref[ei] = hl if hl is not None and (hr is None or low[hl] > low[hr]) else hr
            if low[ei] < h:
                if ei == edges[0]:
                    lowedge[e] = lowedge[ei]
                elif not constrain(ei, e):
                    return False
        return True

    if not test(root, m):
        return None
    return root, out, head, parent, depth, side, ref


def lr_rotation(state: tuple) -> list[list[int]]:
    """The rotation system of the plane drawing that :func:`lr_test`'s
    ``state`` shows: each non-isolated vertex lists its neighbours in cyclic
    order from its least neighbour on.

    Each edge's side is its sign times that of its ``ref``, resolved along
    the chain once. The out-edges of each vertex are sorted again, by
    nesting depth times side, and a third search places them: a vertex's
    list starts as its sorted out-edges, a tree edge vw puts v first in w's
    list, and a back edge from v to w goes just after the tree edge by
    which the search left w (right side), or just before the leftmost edge
    placed there so far (left side)."""
    root, out, head, parent, depth, side, ref = state

    def sign(e: int) -> int:
        r = ref[e]
        if r is not None:
            side[e] *= sign(r)
            ref[e] = None
        return side[e]

    signed = [d * sign(e) for e, d in enumerate(depth)]
    out = [sorted(edges, key=signed.__getitem__) for edges in out]
    rotation = [[head[e] for e in edges] for edges in out]
    left = [0] * len(out)
    right = [0] * len(out)

    def embed(v: int) -> None:
        for e in out[v]:
            w = head[e]
            at = rotation[w]
            if parent[w] == e:
                at.insert(0, v)
                left[v] = right[v] = w
                embed(w)
            elif side[e] > 0:
                at.insert(at.index(right[w]) + 1, v)
            else:
                at.insert(at.index(left[w]), v)
                left[w] = v

    embed(root)
    for at in rotation:
        if at:
            i = at.index(min(at))
            at[:] = at[i:] + at[:i]
    return rotation
