from __future__ import annotations

import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewopt import (
    C4, G1, G3, K2, Q4, FormatError, Graph, OrientedGraph, build_family,
    emit_arclist, emit_graph6, gi, hj, orient_family, parse_arclist,
    parse_graph6, parse_graph6_lines,
)
from skewopt.formats import ARCLIST_ORDER_LIMIT, GRAPH6_ORDER_LIMIT
from skewopt.search import enumerate_connected_k_regular


def test_graph6_tiny_examples():
    assert parse_graph6(b"A_") == Graph(2, [(0, 1)])
    assert parse_graph6(b"A?") == Graph(2, [])
    assert parse_graph6(b"?") == Graph(0, [])
    assert parse_graph6(b"@") == Graph(1, [])
    assert emit_graph6(Graph(2, [(0, 1)])) == b"A_"
    assert emit_graph6(Graph(0, [])) == b"?"
    assert emit_graph6(Graph(1, [])) == b"@"
    # column-major upper triangle: edges (0,1),(0,2),(1,2),(0,3) set the
    # first four bits
    assert parse_graph6(b"C~") == Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3),
                                            (1, 3), (2, 3)])


def test_graph6_header_and_whitespace():
    assert parse_graph6(b">>graph6<<A_") == Graph(2, [(0, 1)])
    assert parse_graph6(b"A_\n") == Graph(2, [(0, 1)])
    assert parse_graph6(b"A_\r\n") == Graph(2, [(0, 1)])


def test_graph6_round_trip_on_members():
    # hj(30) (n=124) takes the long order field, hj(499) (n=2000) is the
    # largest member the arc-list commands accept
    for label in (K2, C4, G1, G3, Q4, gi(1), gi(3), hj(2), hj(4), hj(30), hj(499)):
        g = build_family(label)
        assert parse_graph6(emit_graph6(g)) == g


def test_graph6_parse_reads_only_set_bits():
    # hj(499) (n=2000) has 4000 edges among 1,999,000 pairs; a parser that
    # looks at every pair took about 0.5 s, one that walks the set bits 10 ms
    g = build_family(hj(499))
    blob = emit_graph6(g)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        parsed = parse_graph6(blob)
        best = min(best, time.perf_counter() - start)
        assert parsed == g
    assert best < 0.15


def test_graph6_round_trip_on_enumerated_corpus():
    for n, k in ((6, 3), (7, 4), (8, 4)):
        for g in enumerate_connected_k_regular(n, k):
            blob = emit_graph6(g)
            assert parse_graph6(blob) == g
            assert emit_graph6(parse_graph6(blob)) == blob


def test_graph6_long_order_field():
    g = Graph(63, [(i, i + 1) for i in range(62)])
    blob = emit_graph6(g)
    assert blob.startswith(b"~")
    assert parse_graph6(blob) == g
    with pytest.raises(FormatError, match="not supported"):
        emit_graph6(Graph(GRAPH6_ORDER_LIMIT))


def test_graph6_rejects_malformed_records():
    cases = [
        b"",                 # empty
        b"A",                # truncated body
        b"A__",              # oversized body
        b"A" + bytes([200]), # byte out of range
        b"A" + bytes([32]),  # byte out of range, low side
        b"AW",               # nonzero padding for n=2
        b"~??@",             # non-canonical long form for a small order
        b"~?",               # truncated long order field
        b"A_\r\r",           # a record ends in at most one LF, after one CR
        b"A_\n\n",
        b"A_\r\r\n",
    ]
    for blob in cases:
        with pytest.raises(FormatError):
            parse_graph6(blob)
    # the 8-byte order field of orders >= 2**18
    with pytest.raises(FormatError, match="not supported"):
        parse_graph6(b"~~??")


def test_graph6_lines_reports_position():
    blob = b"A_\n\nC~\n"
    graphs = parse_graph6_lines(blob)
    assert [g.n for g in graphs] == [2, 4]
    with pytest.raises(FormatError, match="line 3"):
        parse_graph6_lines(b"A_\nC~\nA\n")


def test_graph6_lines_end_at_line_feeds_only():
    # str.splitlines also ends lines at VT, FF, FS, GS and RS
    for sep in b"\x0b\x0c\x1c\x1d\x1e":
        with pytest.raises(FormatError, match="line 1"):
            parse_graph6_lines(b"C~" + bytes([sep]) + b"C~\n")
    graphs = parse_graph6_lines(b"A_\r\n\r\nC~\r\n")
    assert graphs == [Graph(2, [(0, 1)]), Graph(4, list(combinations(range(4), 2)))]
    # a blank line holds spaces and tabs only
    assert parse_graph6_lines(b"A_\n \t\r\nC~\n") == graphs
    with pytest.raises(FormatError, match="line 2"):
        parse_graph6_lines(b"A_\n\x1c\x0b\nC~\n")


def test_arclist_round_trip():
    og = orient_family(G1)
    blob = emit_arclist(og)
    assert parse_arclist(blob) == og
    assert emit_arclist(parse_arclist(blob)) == blob


def test_arclist_layout():
    og = OrientedGraph(Graph(3, [(0, 1), (1, 2)]), [(1, 0), (1, 2)])
    blob = emit_arclist(og)
    assert blob == b"3 2\n1 0\n1 2\n"
    assert parse_arclist(b"2 1\n0 1\n") == OrientedGraph(Graph(2, [(0, 1)]), [(0, 1)])


def test_arclist_tolerates_trailing_blank_lines():
    assert parse_arclist(b"2 1\n0 1\n\n\n").base == Graph(2, [(0, 1)])
    # CRLF line ends, tabs, and blank lines of spaces and tabs
    for blob in (b"2 1\r\n0 1\r\n\r\n \t\n", b"2\t1\n 0 \t 1 \n", b"2 1\n0 1\r"):
        assert parse_arclist(blob).base == Graph(2, [(0, 1)])


def test_arclist_rejects_malformed_records():
    cases = [
        b"",                      # empty
        b"2\n",                   # header missing arc count
        b"a b\n",                 # non-numeric header
        b"2 -1\n",                # negative count
        b"2 2\n0 1\n",            # fewer arcs than promised
        b"2 1\n0 1\n1 0\n",       # more arcs than promised
        b"2 1\n0 0\n",            # self-loop
        b"2 1\n0 2\n",            # vertex out of range
        b"3 2\n0 1\n1 0\n",       # same edge in both directions
        b"3 2\n0 1\n0 1\n",       # duplicate arc
        b"2 1\n0\n",              # short arc line
        b"2 1\nx y\n",            # non-integer vertices
        b"2\x1c1\n0\x1f1\n",      # FS and US are not separators
        b"2 1\n0 1\n\x0b\n\x0c\n",  # VT and FF do not make a line blank
        b"2 1\n0 1\r\r\n",        # one CR may end a line
        b"2 1\n0\r1\n",           # and only end it
        b"2 1\n0 1\x00\n",        # any other control byte
    ] + [b"2 1\n0" + bytes([c]) + b"1\n" for c in b"\x0b\x0c\x1c\x1d\x1e\x1f"]
    for blob in cases:
        with pytest.raises(FormatError):
            parse_arclist(blob)


def test_arclist_order_limit_binds_every_caller():
    # checked from the header, before one neighbour list is allocated
    assert parse_arclist(f"{ARCLIST_ORDER_LIMIT} 0\n").base.n == 2000
    start = time.perf_counter()
    for order in (ARCLIST_ORDER_LIMIT + 1, 10**12):
        with pytest.raises(ValueError, match="at most 2000") as info:
            parse_arclist(f"{order} 0\n".encode("ascii"))
        assert not isinstance(info.value, FormatError)
    assert time.perf_counter() - start < 1.0


def test_parsers_reject_non_ascii_and_loose_integers():
    for text in ("A\u00e9", "\u0661", ">>graph6<<\u00a0A_"):
        with pytest.raises(FormatError):
            parse_graph6(text)
        with pytest.raises(FormatError):
            parse_graph6_lines(text)
    # int() takes all of these; an arc list takes ASCII digits only
    for blob in ("2 1\n0_1 1\n", "2 1\n+0 1\n", "2 1\n\u0661 0\n",
                 "+2 1\n0 1\n", "2 0_1\n0 1\n", "2 1\n0 1.0\n"):
        with pytest.raises(FormatError):
            parse_arclist(blob)
    assert parse_arclist("2 1\n1 0\n").arcs == ((1, 0),)


_FIELD = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["+0", "0_1", "\u0661", "1.0", "x", "-", "", "00"]),
)
_ARC_TEXT = st.lists(
    st.lists(_FIELD, max_size=3).map(" ".join), max_size=6,
).map("\n".join)
_GRAPH6_TEXT = st.lists(
    st.binary(max_size=12).map(lambda b: bytes(63 + x % 64 for x in b)),
    max_size=3,
).map(b"\n".join)
_ANY_INPUT = st.one_of(st.binary(), st.text(), _ARC_TEXT, _ARC_TEXT.map(str.encode),
                       _GRAPH6_TEXT, _GRAPH6_TEXT.map(bytes.decode))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_ANY_INPUT)
def test_parsers_raise_only_format_errors(data):
    for parse in (parse_graph6, parse_graph6_lines, parse_arclist):
        try:
            parse(data)
        except FormatError:
            pass


def test_arclist_line_numbers_in_errors():
    with pytest.raises(FormatError, match="line 3"):
        parse_arclist(b"3 2\n0 1\n1 1\n")
    with pytest.raises(FormatError, match="line 3"):
        parse_arclist(b"2 1\n0 1\n\x0c\n")


def test_format_error_is_value_error():
    assert issubclass(FormatError, ValueError)


def test_round_trip_survives_all_orders_up_to_eight():
    for n in range(9):
        edges = list(combinations(range(n), 2))[: max(0, 2 * n - 3)]
        g = Graph(n, edges)
        assert parse_graph6(emit_graph6(g)) == g
