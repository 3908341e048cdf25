"""graph6 and edge-list text formats.

graph6 follows the McKay convention bit for bit: size header, then the upper
triangle read column by column, packed into 6-bit printable characters.
"""

from __future__ import annotations

import binascii

from .errors import Graph6Error, InputError
from .graphs import Graph, MAX_VERTICES

_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127))
)


def write_graph6(g: Graph) -> str:
    """Encode under the given labeling; no canonical relabeling is applied.

    The upper triangle is one bit string: column j = 1..n-1 gives bits 0..j-1
    of row j, lowest first. Padded to a multiple of 24 bits it is a whole
    number of bytes, whose base64 text has one character per 6 bits in the
    same order; mapping the base64 alphabet onto chr(63)..chr(126) and
    dropping the characters that hold only padding gives the graph6 body.
    """
    n, adj = g.n, g.adj
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + chr(63 + ((n >> 12) & 63)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    nbits = n * (n - 1) // 2
    upper = "".join([format(adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n)])
    upper += "0" * (-nbits % 24)
    data = int("0" + upper, 2).to_bytes(len(upper) // 8, "big")
    body = binascii.b2a_base64(data, newline=False).translate(_BASE64_TO_GRAPH6)
    return head + body[:(nbits + 5) // 6].decode()


def parse_graph6(text: str) -> Graph:
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


def write_edge_list(g: Graph) -> str:
    """Edge list with a leading vertex-count line so isolated vertices survive."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1 and n is None and not edges:
            n = int(parts[0])
            continue
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {raw!r}")
        u, v = int(parts[0]), int(parts[1])
        edges.append((u, v))
    if n is None:
        n = max((max(u, v) for u, v in edges), default=-1) + 1
    return Graph.from_edges(n, edges)


def parse_graph_auto(text: str) -> Graph:
    """Accept either format: a single graph6 line or an edge list."""
    stripped = text.strip()
    if "\n" not in stripped and stripped and not stripped.split()[0].isdigit():
        return parse_graph6(stripped)
    try:
        return parse_edge_list(text)
    except (InputError, ValueError):
        return parse_graph6(stripped)
