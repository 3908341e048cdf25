"""Planarity testing that returns a plane rotation system.

Graphs here are sequences of adjacency bitmasks, like ``Graph.adj`` but of
any length, so that a 64-vertex graph can take one extra vertex. A rotation
system lists, for each vertex, its neighbours in the cyclic order in which
they leave it in a drawing. Its faces are the orbits of the darts under
``(x, y) -> (y, z)``, where z follows x in the rotation at y. A connected
graph's rotation system is a plane drawing exactly when V - E + F = 2
(Euler's formula), which is what a validator checks with
:func:`face_count`.
"""

from __future__ import annotations

from collections.abc import Sequence

from .graphs import bits, components, mask_of, shortest_path


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


def rotation_from_faces(adj: Sequence[int], faces: Sequence[Sequence[int]]) -> list[list[int]]:
    """The rotation system of the plane drawing whose faces
    :func:`_block_faces` returned for the graph: each non-isolated vertex
    lists its neighbours in the cyclic order the faces give, from its least
    neighbour on."""
    # a face runs ... x, y, z ...: z follows x in the rotation at y
    after = {}
    for face in faces:
        for i, y in enumerate(face):
            after[y, face[i - 1]] = face[(i + 1) % len(face)]
    rotation: list[list[int]] = [[] for _ in adj]
    for y, row in enumerate(adj):
        if row:
            first = x = (row & -row).bit_length() - 1
            while True:
                rotation[y].append(x)
                x = after[y, x]
                if x == first:
                    break
    return rotation


def _block_faces(adj: Sequence[int], block: int) -> list[list[int]] | None:
    """The faces of a plane drawing of a biconnected block with at least three
    vertices, each a vertex cycle oriented so that every edge is run once each
    way; None if the block is not planar.

    Demoucron-Malgrange-Pertuiset: draw one cycle, then repeatedly take the
    fragments of the block relative to the drawn part H (an undrawn edge
    between two drawn vertices, or a component of the undrawn vertices with
    its edges to H) and the faces of H that hold all of a fragment's
    attachment vertices. If some fragment fits no face the block is not
    planar; otherwise draw a path through a fragment that fits one face only,
    else through the first fragment, inside the first face it fits.
    Fragments are ordered edges first, by their ends, then components, by
    their least vertex.

    The fragments and the faces each fits, as a bitmask, are kept from step
    to step rather than found afresh. Drawing a path through a fragment in
    face i splits face i into two, kept at i and at the end of the list, and
    changes no other fragment's vertices or attachments: another component
    is not adjacent to the drawn one. So only fragments that fit face i can
    fit either new face (every new face lies within face i and the path's
    new vertices), and only they are refitted. The drawn fragment gives way
    to the components of its undrawn rest and to the undrawn edges at the
    path's new vertices; each attaches at a new vertex, which lies on the
    two new faces only, so it is fitted against those two. The fragments
    and their faces are thus those a rebuild finds, and so is the pick. A
    fragment that fits no face never fits one later, since faces only
    split, so a rebuild would return None as well: returning at once gives
    the same answer (``tests/oracles.py`` keeps the rebuild as
    ``block_faces_by_rebuild``).

    Each face's vertex mask is kept beside it. Face i is a cycle, which u
    and w split into two sides that share only u and w. One new face is
    the side ``there`` plus the path's new vertices; the other is face i
    less that side's vertices other than u and w, plus the same new
    vertices. So only the side is read vertex by vertex, not the faces.

    The first cycle runs from b, the least neighbour of the block's least
    vertex a, along a shortest path to N(a) inside the block less a and b,
    and closes at a. It has no chord, so at the start no undrawn edge joins
    two drawn vertices: the path's vertices lie in successive breadth-first
    layers from b, so two of them more than one step apart are not
    adjacent, and the search stops at the first layer that meets N(a), so
    no path vertex before the last is adjacent to a.
    """
    nb = {v: adj[v] & block for v in bits(block)}
    if sum(m.bit_count() for m in nb.values()) // 2 > 3 * block.bit_count() - 6:
        return None
    a = (block & -block).bit_length() - 1
    b = (nb[a] & -nb[a]).bit_length() - 1
    rest = block & ~(1 << a) & ~(1 << b)
    cycle = [b, *shortest_path(nb, b, nb[a], rest), a]
    faces = [cycle, cycle[::-1]]
    masks = [mask_of(cycle)] * 2
    drawn = masks[0]
    drawn_adj = dict.fromkeys(nb, 0)
    for x, y in zip(cycle, cycle[1:] + cycle[:1]):
        drawn_adj[x] |= 1 << y
        drawn_adj[y] |= 1 << x
    # key -> [attachments, undrawn vertices (0 for one edge), faces it fits];
    # an edge's key (0, x, y) with x < y sorts before a component's (1, least).
    # The cycle has no chord, so the first fragments are components; both
    # faces of the cycle hold every drawn vertex, so every fragment fits both.
    frags = {}
    for comp in components(nb, block & ~drawn):
        attach = 0
        for w in bits(comp):
            attach |= nb[w]
        frags[1, (comp & -comp).bit_length() - 1] = [attach & drawn, comp, 0b11]
    while frags:
        one = [key for key, f in frags.items() if not f[2] & (f[2] - 1)]
        attach, comp, fits = frags.pop(min(one or frags))
        i = (fits & -fits).bit_length() - 1
        u = (attach & -attach).bit_length() - 1
        w = (attach & (attach - 1) & -(attach & (attach - 1))).bit_length() - 1
        path = [u, *shortest_path(nb, u, nb[w], comp), w] if comp else [u, w]
        face = faces[i]
        iu, iw = face.index(u), face.index(w)
        if iu < iw:
            there, back = face[iu:iw + 1], face[iw:] + face[:iu + 1]
        else:
            there, back = face[iu:] + face[:iw + 1], face[iw:iu + 1]
        inner = path[1:-1]
        new_mask = mask_of(inner)
        side = mask_of(there)
        faces[i] = there + inner[::-1]
        faces.append(back + inner)
        masks.append(masks[i] & ~side | 1 << u | 1 << w | new_mask)
        masks[i] = side | new_mask
        drawn |= new_mask
        for x, y in zip(path, path[1:]):
            drawn_adj[x] |= 1 << y
            drawn_adj[y] |= 1 << x
        if comp:
            # the rest of the drawn fragment, each piece attached at a new
            # vertex: it can fit only the two new faces, refitted below
            for part in components(nb, comp & ~new_mask):
                attach = 0
                for x in bits(part):
                    attach |= nb[x]
                frags[1, (part & -part).bit_length() - 1] = [attach & drawn, part, 1 << i]
            for x in inner:
                for y in bits(nb[x] & drawn & ~drawn_adj[x]):
                    frags[(0, x, y) if x < y else (0, y, x)] = [(1 << x) | (1 << y), 0, 1 << i]
        new = len(faces) - 1
        for f in frags.values():
            if (f[2] >> i) & 1:
                fits = f[2] & ~(1 << i)
                if not f[0] & ~masks[i]:
                    fits |= 1 << i
                if not f[0] & ~masks[new]:
                    fits |= 1 << new
                if not fits:
                    return None
                f[2] = fits
    return faces
