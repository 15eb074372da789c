"""Byte-exact file formats: graph6 for undirected graphs, arc lists for
oriented graphs.

graph6 carries no orientation, so witnesses travel as plain text arc lists.
Both parsers are strict; anything malformed raises FormatError rather than
guessing, because census inputs must be trustworthy. An arc list above
ARCLIST_ORDER_LIMIT vertices is refused from its header, whoever the caller.
"""

from __future__ import annotations

import re
from math import isqrt

from .graphs import Graph, OrientedGraph

_G6_HEADER = ">>graph6<<"
GRAPH6_ORDER_LIMIT = 1 << 18
# the energy takes the SVD of the dense n x n matrix S (numpy's takes about
# 1.6 s at n = 2000 and 14 s at n = 4000), so larger arc lists are refused
ARCLIST_ORDER_LIMIT = 2000
_PLUS_63 = bytes((b + 63) % 256 for b in range(256))
_G6_OUT_OF_RANGE = re.compile(rb"[^?-~]")  # bytes outside 63..126
_G6_NONZERO = re.compile(rb"[^?]")  # bytes holding a set bit
# str.split would split arc lists at VT, FF, FS, GS, RS and US; CR ends lines
_ARC_CONTROL = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]|\r(?!\n|\Z)")


class FormatError(ValueError):
    pass


def _ascii(data) -> str:
    if isinstance(data, (bytes, bytearray)):
        try:
            return bytes(data).decode("ascii")
        except UnicodeDecodeError as exc:
            raise FormatError(f"input is not ASCII: {exc}") from None
    text = str(data)
    if not text.isascii():
        raise FormatError("input is not ASCII")
    return text


def _integer(field: str) -> int:
    # int() would also take "+1", "1_0" and non-ASCII digits
    digits = field[1:] if field.startswith("-") else field
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {field!r}")
    return int(field)


def parse_graph6(data) -> Graph:
    """Decode one graph6 record (optional >>graph6<< header, strict padding)."""
    text = _ascii(data).removesuffix("\n").removesuffix("\r")
    if text.startswith(_G6_HEADER):
        text = text[len(_G6_HEADER):]
    if not text:
        raise FormatError("empty graph6 record")
    raw = text.encode("ascii")
    if _G6_OUT_OF_RANGE.search(raw):
        raise FormatError("graph6 bytes must lie in 63..126")
    if raw[0] == 126:
        if len(raw) < 4:
            raise FormatError("truncated graph6 order field")
        if raw[1] == 126:
            raise FormatError(f"orders >= {GRAPH6_ORDER_LIMIT} are not supported")
        n = ((raw[1] - 63) << 12) | ((raw[2] - 63) << 6) | (raw[3] - 63)
        if n < 63:
            raise FormatError("non-canonical long order field")
        body = raw[4:]
    else:
        n = raw[0] - 63
        body = raw[1:]
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) != nbytes:
        raise FormatError(f"graph6 body for n={n} needs {nbytes} bytes, got {len(body)}")
    if nbytes and (body[-1] - 63) & ((1 << (6 * nbytes - nbits)) - 1):
        raise FormatError("nonzero padding bits")
    # bit 6i + j is bit j, from the high end, of byte i and stands for the
    # pair u < v with v(v-1)/2 + u == bit; only bytes with a set bit are read
    edges = []
    for hit in _G6_NONZERO.finditer(body):
        i = hit.start()
        val = body[i] - 63
        for j in range(6):
            if val & (32 >> j):
                bit = 6 * i + j
                v = (1 + isqrt(8 * bit + 1)) // 2
                edges.append((bit - v * (v - 1) // 2, v))
    return Graph(n, edges)


def emit_graph6(g: Graph) -> bytes:
    """Canonical graph6 bytes, no header, no newline."""
    n = g.n
    if n >= GRAPH6_ORDER_LIMIT:
        raise FormatError(f"orders >= {GRAPH6_ORDER_LIMIT} are not supported")
    if n < 63:
        head = bytes([n + 63])
    else:
        head = bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    # bit v(v-1)/2 + u stands for the pair u < v; each byte holds six bits,
    # the first in its high place, and is emitted as value + 63
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for u, v in g.edges:
        bit = v * (v - 1) // 2 + u
        body[bit // 6] |= 32 >> (bit % 6)
    return head + body.translate(_PLUS_63)


def parse_graph6_lines(data) -> list[Graph]:
    """Decode a corpus: one graph6 record per line, blank lines ignored."""
    graphs = []
    # LF only, and blank means spaces and tabs: splitlines and strip would
    # also take VT, FF, FS, GS and RS, hiding a malformed line
    for lineno, line in enumerate(_ascii(data).split("\n"), start=1):
        if not line.removesuffix("\r").strip(" \t"):
            continue
        try:
            graphs.append(parse_graph6(line))
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    return graphs


def parse_arclist(data) -> OrientedGraph:
    """Decode "n m" followed by m lines "tail head".

    An order above ARCLIST_ORDER_LIMIT raises ValueError (not FormatError: the
    input may be well-formed) before any vertex is allocated.
    """
    text = _ascii(data)
    bad = _ARC_CONTROL.search(text)
    if bad:
        lineno = text.count("\n", 0, bad.start()) + 1
        raise FormatError(f"line {lineno}: control byte {bad.group()!r}")
    lines = text.split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise FormatError("empty arc list")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = _integer(head[0]), _integer(head[1])
    except ValueError:
        raise FormatError(f"header must be two integers, got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise FormatError("n and m must be nonnegative")
    if n > ARCLIST_ORDER_LIMIT:
        raise ValueError(f"arc list has {n} vertices; at most {ARCLIST_ORDER_LIMIT} are accepted")
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} arc lines, got {len(lines) - 1}")
    arcs = []
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'tail head', got {line!r}")
        try:
            t, h = _integer(parts[0]), _integer(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer vertex") from None
        if t == h:
            raise FormatError(f"line {lineno}: self-loop on vertex {t}")
        if not (0 <= t < n and 0 <= h < n):
            raise FormatError(f"line {lineno}: vertex out of range 0..{n - 1}")
        key = (t, h) if t < h else (h, t)
        if key in seen:
            raise FormatError(f"line {lineno}: edge {key} appears more than once")
        seen.add(key)
        arcs.append((t, h))
    return OrientedGraph(Graph(n, arcs), arcs)


def emit_arclist(og: OrientedGraph) -> bytes:
    """Emit "n m" then the arcs, stored sorted by (tail, head), LF endings."""
    lines = [f"{og.base.n} {len(og.arcs)}"]
    lines.extend(f"{t} {h}" for t, h in og.arcs)
    return ("\n".join(lines) + "\n").encode("ascii")
