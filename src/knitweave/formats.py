"""graph6, edge-list and indented JSON text formats, and the JSON form of
every certificate the CLI prints.

graph6 follows the McKay convention bit for bit: size header, then the upper
triangle read column by column, packed into 6-bit printable characters.
"""

from __future__ import annotations

import binascii
import re
from json.encoder import encode_basestring_ascii

from .coloring import Coloring
from .errors import Graph6Error, InputError
from .graphs import Graph, MAX_VERTICES, MinorWitness, mask_of, set_of, symmetric_closure
from .solver import Knit, Linkage, PlanarObstruction
from .structure import Separation

_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_BASE64_TO_GRAPH6 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_GRAPH6_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)), _BASE64)
_NOT_GRAPH6_DATA = re.compile("[^?-~]")
_REVERSE_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def write_graph6(g: Graph) -> str:
    """Encode under the given labeling; no canonical relabeling is applied.

    The upper triangle is one int: the edge ij with i < j is bit
    j(j-1)/2 + i, so column j = 1..n-1 holds bits 0..j-1 of row j, lowest
    first. graph6 reads it as a bit stream from bit 0 up, padded to a
    multiple of 24 bits, each byte taking eight bits most significant
    first: the int's little-endian bytes with the bits of each byte
    reversed. Whole 3-byte groups have one base64 character per 6 bits in
    the same order; mapping the base64 alphabet onto chr(63)..chr(126) and
    dropping the characters that hold only padding gives the graph6 body.
    """
    n, adj = g.n, g.adj
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + chr(63 + ((n >> 12) & 63)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    upper = 0
    for j in range(n - 1, 0, -1):
        upper = (upper << j) | (adj[j] & ((1 << j) - 1))
    nbits = n * (n - 1) // 2
    data = upper.to_bytes((nbits + 23) // 24 * 3, "little").translate(_REVERSE_BITS)
    body = binascii.b2a_base64(data, newline=False).translate(_BASE64_TO_GRAPH6)
    return head + body[:(nbits + 5) // 6].decode()


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string, with or without the ``>>graph6<<`` header;
    a malformed one raises ``Graph6Error`` at its first fault.

    The inverse of :func:`write_graph6`: the body, mapped back onto the
    base64 alphabet and padded with zero characters to whole 4-character
    groups, decodes to bytes that the encoder's bit-reversal table and a
    little-endian read turn back into one int, whose bit j(j-1)/2 + i is
    the edge ij (i < j); its bits from n(n-1)/2 up must be zero.
    """
    # the header may stand on its own line
    s = text.strip().removeprefix(">>graph6<<").lstrip()
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
    body = s[pos:]
    bad = _NOT_GRAPH6_DATA.search(body)
    if bad:
        raise Graph6Error("invalid data character", pos + bad.start())
    data = binascii.a2b_base64(body.encode().translate(_GRAPH6_TO_BASE64) + b"A" * (-nchars % 4))
    upper = int.from_bytes(data.translate(_REVERSE_BITS), "little")
    if upper >> nbits:
        raise Graph6Error("nonzero padding bits", pos + nchars - 1)
    cols = tuple((upper >> (j * (j - 1) // 2)) & ((1 << j) - 1) for j in range(n))
    return Graph(n, symmetric_closure(cols))


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def write_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, written directly.

    With ``indent`` set, ``json`` drops to its pure-Python encoder, which
    walks the value through nested generators and yields one fragment per
    token. This writer makes the same walk as one recursive function that
    returns each value's text whole; a container writes its items of type
    int, str, bool or None in its own loop, with the same text the function
    would return for them, and calls the function only for the others. It
    takes values whose type is exactly
    str, int, float, bool, None, list, tuple or dict with str keys; any
    other type, subclasses included, raises ``TypeError``. On those values
    the text cannot differ from the encoder's: strings go through the same
    ``encode_basestring_ascii``, ints and floats through the same
    ``__repr__`` (NaN and the infinities spelled as ``json`` spells them),
    the three constants as ``null``, ``true`` and ``false``, and each
    nonempty container puts its items on their own lines, two spaces deeper
    than the container's line, separated by ``,``, with the closing bracket
    back at the container's indent; dict entries are ``key: value`` in
    sorted key order, and an empty container is ``[]`` or ``{}``.
    """
    return _json_text(obj, "\n")


def _json_text(obj, nl: str) -> str:
    # nl: a newline and the indent of the line that holds ``obj``; the
    # common types are tested first
    t = type(obj)
    if t is str:
        return encode_basestring_ascii(obj)
    if t is int:
        return int.__repr__(obj)
    if t is list or t is tuple:
        if not obj:
            return "[]"
        inner = nl + "  "
        items = []
        for v in obj:
            tv = type(v)
            if tv is int:
                text = int.__repr__(v)
            elif tv is str:
                text = encode_basestring_ascii(v)
            elif v is None:
                text = "null"
            elif tv is bool:
                text = "true" if v else "false"
            else:
                text = _json_text(v, inner)
            items.append(text)
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if t is dict:
        if not obj:
            return "{}"
        inner = nl + "  "
        entries = []
        # a key that is not a str fails the sort or the escape with TypeError
        for k, v in sorted(obj.items()):
            tv = type(v)
            if tv is int:
                text = int.__repr__(v)
            elif tv is str:
                text = encode_basestring_ascii(v)
            elif v is None:
                text = "null"
            elif tv is bool:
                text = "true" if v else "false"
            else:
                text = _json_text(v, inner)
            entries.append(encode_basestring_ascii(k) + ": " + text)
        return "{" + inner + ("," + inner).join(entries) + nl + "}"
    if obj is None:
        return "null"
    if t is bool:
        return "true" if obj else "false"
    if t is float:
        text = float.__repr__(obj)
        return _NONFINITE.get(text, text)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def write_edge_list(g: Graph) -> str:
    """Edge list with a leading vertex-count line so isolated vertices survive."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            ints = [int(x) for x in raw.split("#", 1)[0].split()]
        except ValueError:
            raise InputError(f"line {lineno}: expected integers, got {raw!r}") from None
        if len(ints) == 1 and n is None and not edges:
            n = ints[0]
        elif len(ints) == 2:
            edges.append(tuple(ints))
        elif ints:
            raise InputError(f"line {lineno}: expected 'u v', got {raw!r}")
    if n is None:
        n = max((max(u, v) for u, v in edges), default=-1) + 1
    return Graph.from_edges(n, edges)


def parse_graph_auto(text: str) -> Graph:
    """Read graph6 or an edge list, told apart by the first non-blank
    character: graph6 starts in ``>``..``~`` (``>`` only for its
    ``>>graph6<<`` header), and anything else, such as the digit, sign or
    ``#`` an edge list starts with, is read as an edge list. The format is
    picked once, so a malformed text raises its own format's error; blank
    text is the empty edge list."""
    body = text.lstrip()
    if ">" <= body[:1] <= "~":
        return parse_graph6(body)
    return parse_edge_list(text)



def certificate_to_json(obj):
    """The JSON value of one certificate, as the CLI prints it; a vertex
    mask is written as its sorted vertex list.

    - ``Linkage``: its paths, each a vertex list;
    - ``Knit``: its subgraphs, each a vertex list;
    - ``PlanarObstruction``: ``{"reductions": [{"separator", "side"}, ...],
      "rotation"}``, the rotation's last entry the apex's;
    - ``MinorWitness``: ``{"branch_sets", "model_edges"}``, without the host;
    - ``Separation``: ``{"a", "b"}``;
    - ``Coloring``: the colors, 1-based, without the palette size.

    Any other type raises ``TypeError``.
    """
    t = type(obj)
    if t is Linkage:
        return [list(path) for path in obj.paths]
    if t is Knit:
        return [list(set_of(sub)) for sub in obj.subgraphs]
    if t is PlanarObstruction:
        reductions = [{"separator": list(set_of(sep)), "side": list(set_of(side))} for sep, side in obj.reductions]
        return {"reductions": reductions, "rotation": [list(order) for order in obj.rotation]}
    if t is MinorWitness:
        edges = [list(e) for e in obj.model_edges]
        return {"branch_sets": [list(set_of(b)) for b in obj.branch_sets], "model_edges": edges}
    if t is Separation:
        return {"a": list(set_of(obj.a)), "b": list(set_of(obj.b))}
    if t is Coloring:
        return [c + 1 for c in obj.colors]
    raise TypeError(f"{t.__name__} is not a certificate")


def certificate_from_json(cls: type, g: Graph, data):
    """The certificate of class ``cls`` that :func:`certificate_to_json`
    wrote as ``data``; the JSON names no kind, so the caller does. A
    ``MinorWitness`` gets ``g`` as its host, and a ``Coloring`` its largest
    color as its palette size (0 with no vertex).

    It only decodes: lists become tuples and vertex lists masks. Every list
    of vertices, branch-set indices or colors must be a list of ints in
    0..MAX_VERTICES (a 64-vertex graph's rotation names the apex 64);
    anything else, a bool or a float included, and a missing key raise
    ``InputError`` naming the field. Other keys are ignored. Every other
    check is left to the class's ``validate`` (``check_proper`` for a
    coloring), which the caller runs. Another class raises ``TypeError``.
    """
    if cls is Linkage:
        return Linkage(_rows(data, "paths"))
    if cls is Knit:
        return Knit(_masks(data, "subgraphs"))
    if cls is PlanarObstruction:
        return PlanarObstruction(_field(data, "reductions", _reductions), _field(data, "rotation", _rows))
    if cls is MinorWitness:
        return MinorWitness(g, _field(data, "branch_sets", _masks), _field(data, "model_edges", _rows))
    if cls is Separation:
        return Separation(_field(data, "a", _mask), _field(data, "b", _mask))
    if cls is Coloring:
        colors = _ints(data, "coloring")
        return Coloring(tuple(c - 1 for c in colors), max(colors, default=0))
    raise TypeError(f"{cls!r} is not a certificate class")


def _field(data, key: str, read, where: str = ""):
    """``read`` of the field ``key`` of the JSON object ``data``; ``where``
    prefixes its name."""
    if type(data) is not dict or key not in data:
        raise InputError(f"the certificate has no field {where}{key}")
    return read(data[key], where + key)


def _ints(data, name: str) -> tuple[int, ...]:
    if type(data) is not list or not all(type(x) is int and 0 <= x <= MAX_VERTICES for x in data):
        raise InputError(f"{name} must be a list of ints in 0..{MAX_VERTICES}, not {data!r}")
    return tuple(data)


def _mask(data, name: str) -> int:
    return mask_of(_ints(data, name))


def _list_of(read):
    """The reader of a list whose items ``read`` reads, each named by its index."""

    def read_list(data, name: str) -> tuple:
        if type(data) is not list:
            raise InputError(f"{name} must be a list, not {data!r}")
        return tuple(read(item, f"{name}[{i}]") for i, item in enumerate(data))

    return read_list


_rows = _list_of(_ints)
_masks = _list_of(_mask)
_reductions = _list_of(lambda r, at: (_field(r, "separator", _mask, at + "."), _field(r, "side", _mask, at + ".")))
