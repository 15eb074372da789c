"""Constructors for every known graph admitting an optimum orientation
(one whose Gram matrix S^T S equals k*I) and their canonical orientations,
each stated as arcs.

Family labels:
  g1, g2     sporadic 4-regular members containing triangles
  g3         sporadic triangle-free 4-regular member
  q4         the 4-dimensional hypercube
  gi(i)      ladder-like 4-regular sequence, 4i+6 vertices
  hj(j)      ladder-like 4-regular sequence, 4j+4 vertices; hj(1) = K_{4,4}
  k2, c4, k4, q3   the optimum-orientable graphs of degree below 4

The table _FIXED is the one place a fixed member is stated: its order, its
degree and its canonical arcs, whose pairs are its edges. Label validation,
family_order, candidate_members, build_family and orient_family all read it.
The cubes k2, q3 and q4 are iterated K2 lifts S' = [[S, I], [-I, -S]]
(_lift_arcs). gi(i) and hj(j) come from _block_arcs, which lays the paper's
four bridge blocks A, B, C, D, stated once below as tuples, along the
block-tridiagonal skew matrix.

Every constructor fixes a vertex ordering, so the skew-adjacency matrices are
reproducible byte for byte.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .graphs import Graph, OrientedGraph
from .matrices import is_optimum

# ---------------------------------------------------------------------------
# fixed members: named vertex orderings and canonical arcs, one table
# ---------------------------------------------------------------------------

_G1_ORDER = ("u1", "u2", "u3", "u4", "v1", "v2", "v3", "v4")
_G1_ARCS = (
    ("u1", "u2"), ("u1", "u3"), ("u1", "u4"), ("u1", "v1"),
    ("u3", "u2"), ("u2", "u4"), ("u2", "v2"),
    ("u4", "u3"), ("u3", "v3"),
    ("u4", "v4"),
    ("v2", "v1"), ("v3", "v1"), ("v4", "v1"),
    ("v2", "v3"), ("v4", "v2"),
    ("v3", "v4"),
)

_G2_ORDER = ("u1", "u2", "u3", "u4", "u5", "u6")
_G2_ARCS = (
    ("u1", "u2"), ("u1", "u3"), ("u1", "u4"), ("u1", "u5"),
    ("u3", "u2"), ("u2", "u5"), ("u6", "u2"),
    ("u4", "u3"), ("u3", "u6"),
    ("u5", "u4"), ("u6", "u4"),
    ("u5", "u6"),
)

_G3_ORDER = ("u", "u1", "u2", "v1", "v2", "v", "u3", "u4", "v3", "v4", "w", "u5", "u6", "v5")
_G3_ARCS = (
    ("u", "u1"), ("u", "u2"), ("u", "v1"), ("u", "v2"),
    ("u1", "v"), ("u1", "u3"), ("u1", "u4"),
    ("v", "u2"), ("u2", "v3"), ("u2", "v4"),
    ("u3", "v1"), ("v3", "v1"), ("v1", "w"),
    ("u4", "v2"), ("v4", "v2"), ("w", "v2"),
    ("v", "u5"), ("v", "u6"),
    ("u5", "u3"), ("u3", "v5"),
    ("u6", "u4"), ("v5", "u4"),
    ("v3", "u6"), ("v5", "v3"),
    ("v4", "u5"), ("v4", "v5"),
    ("u5", "w"), ("w", "u6"),
)


def _from_names(order, name_pairs) -> tuple[tuple[int, int], ...]:
    index = {name: i for i, name in enumerate(order)}
    return tuple((index[x], index[y]) for x, y in name_pairs)


def _lift_arcs(n: int, arcs) -> tuple[tuple[int, int], ...]:
    """Arcs of the K2 lift [[S, I], [-I, -S]] of an orientation S on n
    vertices: the arcs, their reversed copy on n..2n-1, and v -> v + n.

    The lift is skew with support G x K2, and its Gram is (k+1)I when S^T S
    is kI, because -S^2 = S^T S.
    """
    return (tuple(arcs) + tuple((h + n, t + n) for t, h in arcs)
            + tuple((v, v + n) for v in range(n)))


_K2_ARCS = _lift_arcs(1, ())
_Q3_ARCS = _lift_arcs(4, _lift_arcs(2, _K2_ARCS))


# kind -> (order, degree, canonical arcs). The c4 and k4 witnesses were found
# once by exhaustive switching-class search over the standard labelings and
# frozen here; orient_family re-checks the Gram exactly on every construction.
_FIXED = {
    "g1": (8, 4, _from_names(_G1_ORDER, _G1_ARCS)),
    "g2": (6, 4, _from_names(_G2_ORDER, _G2_ARCS)),
    "g3": (14, 4, _from_names(_G3_ORDER, _G3_ARCS)),
    "q4": (16, 4, _lift_arcs(8, _Q3_ARCS)),
    "k2": (2, 1, _K2_ARCS),
    "c4": (4, 2, ((0, 1), (0, 3), (1, 2), (2, 3))),
    "k4": (4, 3, ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1))),
    "q3": (8, 3, _Q3_ARCS),
}
# the degrees whose optimum-orientable graphs the catalogue holds in full;
# there is no catalogue for the others
CATALOGUED_DEGREES = frozenset(degree for _, degree, _ in _FIXED.values())
_PARAM_KINDS = ("gi", "hj")

# kind(n) or kindn, nothing between; ASCII only, as \d would also take the
# digits of other scripts
_LABEL_RE = re.compile(r"(gi|hj)(?:\((\d+)\)|(\d+))", re.ASCII)


class _LabelFields(NamedTuple):
    """The fields of FamilyLabel, which checks them."""

    kind: str
    param: int | None = None


class FamilyLabel(_LabelFields):
    """Tagged identifier for a family member; gi/hj carry an index >= 1.

    An immutable named tuple (kind, param), ordered and hashed as that
    tuple; the fields are checked when the label is made.
    """

    __slots__ = ()

    def __new__(cls, kind: str, param: int | None = None):
        if kind in _FIXED:
            if param is not None:
                raise ValueError(f"label {kind!r} takes no parameter")
        elif kind in _PARAM_KINDS:
            # type, not isinstance: True is an int, and would print as hj(True)
            if type(param) is not int or param < 1:
                raise ValueError(f"label {kind!r} needs an integer parameter >= 1")
        else:
            raise ValueError(f"unknown family label kind {kind!r}")
        return super().__new__(cls, kind, param)

    @classmethod
    def _make(cls, iterable):
        # the named tuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

    @property
    def regularity(self) -> int:
        return _FIXED[self.kind][1] if self.kind in _FIXED else 4

    def __str__(self) -> str:
        if self.param is None:
            return self.kind
        return f"{self.kind}({self.param})"

    @classmethod
    def parse(cls, text: str) -> "FamilyLabel":
        # non-ASCII text is refused whole: strip() would drop an em space
        # around a label and lower() turns the Kelvin sign into k
        t = text.strip().lower() if text.isascii() else ""
        if t in _FIXED:
            return cls(t)
        m = _LABEL_RE.fullmatch(t)
        if m:
            return cls(m.group(1), int(m.group(2) or m.group(3)))
        raise ValueError(f"cannot parse family label {text!r}")


G1 = FamilyLabel("g1")
G2 = FamilyLabel("g2")
G3 = FamilyLabel("g3")
Q4 = FamilyLabel("q4")
K2 = FamilyLabel("k2")
C4 = FamilyLabel("c4")
K4 = FamilyLabel("k4")
Q3 = FamilyLabel("q3")


def gi(i: int) -> FamilyLabel:
    return FamilyLabel("gi", i)


def hj(j: int) -> FamilyLabel:
    return FamilyLabel("hj", j)


def family_order(label: FamilyLabel) -> int:
    """Number of vertices of the family member."""
    if label.kind == "gi":
        return 4 * label.param + 6
    if label.kind == "hj":
        return 4 * label.param + 4
    return _FIXED[label.kind][0]


def candidate_members(n: int, k: int) -> list[FamilyLabel]:
    """All k-regular family labels whose member has exactly n vertices:
    the fixed members in table order, then gi, then hj."""
    if k not in CATALOGUED_DEGREES:
        raise ValueError(f"no catalogue of {k}-regular members")
    labels = [FamilyLabel(kind) for kind, (order, degree, _) in _FIXED.items()
              if (order, degree) == (n, k)]
    if k == 4:
        if n >= 10 and n % 4 == 2:
            labels.append(gi((n - 6) // 4))
        if n >= 8 and n % 4 == 0:
            labels.append(hj((n - 4) // 4))
    return labels


# ---------------------------------------------------------------------------
# the two infinite sequences: the paper's bridge blocks, laid out as arcs
# ---------------------------------------------------------------------------

# A is 2x4, B and C are 4x4 (C skew), D is 4x2
_A = ((1, 1, 1, 1),
      (1, 1, -1, -1))
_B = ((1, 1, 0, 0),
      (-1, -1, 0, 0),
      (0, 0, 1, 1),
      (0, 0, -1, -1))
_C = ((0, 0, -1, 1),
      (0, 0, 1, -1),
      (1, -1, 0, 0),
      (-1, 1, 0, 0))
_D = ((-1, 1),
      (1, -1),
      (-1, -1),
      (1, 1))

# nonzero entries (row, col, sign) of A, B, D, and of C above its diagonal
_ENTRIES = tuple(
    tuple((r, c, s) for r, row in enumerate(m) for c, s in enumerate(row)
          if s and (m is not _C or c > r))
    for m in (_A, _B, _C, _D)
)


def _block_arcs(label: FamilyLabel) -> tuple[int, list[tuple[int, int]]]:
    """Order and arcs of the block-tridiagonal skew matrix of gi(i)/hj(j).

    The superdiagonal blocks are A, then B repeated, then D for hj; gi ends
    in the skew block C on the diagonal instead. Entry +1 at (r, c) is the
    arc r -> c, and -1 the arc c -> r; the subdiagonal is the negated
    transpose, so it adds nothing.
    """
    a, b, c, d = _ENTRIES
    if label.kind == "gi":
        dims = [2] + [4] * (label.param + 1)
        supers = [a] + [b] * label.param
    else:
        dims = [2] + [4] * label.param + [2]
        supers = [a] + [b] * (label.param - 1) + [d]
    arcs = []
    row = 0
    for dim, entries in zip(dims, supers):
        col = row + dim
        arcs += [(row + x, col + y) if s > 0 else (col + y, row + x) for x, y, s in entries]
        row = col
    if label.kind == "gi":
        arcs += [(row + x, row + y) if s > 0 else (row + y, row + x) for x, y, s in c]
    return row + dims[-1], arcs


# ---------------------------------------------------------------------------
# public constructors
# ---------------------------------------------------------------------------

def _member(label: FamilyLabel) -> tuple[int, tuple | list]:
    """Order and canonical arcs of a family member."""
    if label.kind in _FIXED:
        n, _, arcs = _FIXED[label.kind]
        return n, arcs
    return _block_arcs(label)


def build_family(label: FamilyLabel) -> Graph:
    """The underlying graph of a family member, in its fixed vertex ordering."""
    return Graph(*_member(label))


def orient_family(label: FamilyLabel) -> OrientedGraph:
    """The canonical optimum orientation; the Gram is re-checked exactly."""
    n, arcs = _member(label)
    og = OrientedGraph(Graph(n, arcs), arcs)
    if not is_optimum(og):
        raise RuntimeError(f"constructed orientation of {label} failed the Gram check")
    return og
