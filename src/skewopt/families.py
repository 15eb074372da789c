"""Constructors for every known graph admitting an optimum orientation
(one whose Gram matrix S^T S equals k*I), their canonical orientations, and
the block-matrix machinery behind the two infinite sequences.

Family labels:
  g1, g2     sporadic 4-regular members containing triangles
  g3         sporadic triangle-free 4-regular member
  q4         the 4-dimensional hypercube
  gi(i)      ladder-like 4-regular sequence, 4i+6 vertices
  hj(j)      ladder-like 4-regular sequence, 4j+4 vertices; hj(1) = K_{4,4}
  k2, c4, k4, q3   the optimum-orientable graphs of degree below 4

The table _FIXED is the one place a fixed member is stated: its order, its
degree and its canonical arcs, whose pairs are its edges. Label validation,
family_order, candidate_members, build_family and orient_family all read it;
gi(i) and hj(j) come from the block assembly _block_arcs instead.

Every constructor fixes a vertex ordering, so the skew-adjacency matrices are
reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
import re

import numpy as np

from .graphs import Graph, OrientedGraph
from .matrices import int_matrix, is_optimum, skew_adjacency

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


def doubling_skew_matrix(d: int) -> np.ndarray:
    """Skew matrix of the d-cube with Gram exactly d*I.

    Level 1 is [[0,1],[-1,0]]; each doubling step embeds two opposite copies
    joined by an identity block, which adds 1 to the Gram multiple.
    """
    if d < 1:
        raise ValueError(f"doubling dimension must be >= 1, got {d}")
    s = int_matrix([[0, 1], [-1, 0]])
    for _ in range(d - 1):
        n = s.shape[0]
        eye = np.eye(n, dtype=np.int64)
        s = np.block([[s, eye], [-eye, -s]])
    return s


def _doubling_arcs(d: int) -> tuple[tuple[int, int], ...]:
    s = doubling_skew_matrix(d)
    return tuple((int(i), int(j)) for i, j in zip(*np.nonzero(s == 1)))


# kind -> (order, degree, canonical arcs). The c4 and k4 witnesses were found
# once by exhaustive switching-class search over the standard labelings and
# frozen here; orient_family re-checks the Gram exactly on every construction.
_FIXED = {
    "g1": (8, 4, _from_names(_G1_ORDER, _G1_ARCS)),
    "g2": (6, 4, _from_names(_G2_ORDER, _G2_ARCS)),
    "g3": (14, 4, _from_names(_G3_ORDER, _G3_ARCS)),
    "q4": (16, 4, _doubling_arcs(4)),
    "k2": (2, 1, _doubling_arcs(1)),
    "c4": (4, 2, ((0, 1), (0, 3), (1, 2), (2, 3))),
    "k4": (4, 3, ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1))),
    "q3": (8, 3, _doubling_arcs(3)),
}
_PARAM_KINDS = ("gi", "hj")

# kind(n) or kindn, nothing between; ASCII only, as \d would also take the
# digits of other scripts
_LABEL_RE = re.compile(r"(gi|hj)(?:\((\d+)\)|(\d+))", re.ASCII)


@dataclass(frozen=True, order=True)
class FamilyLabel:
    """Tagged identifier for a family member; gi/hj carry an index >= 1."""

    kind: str
    param: int | None = None

    def __post_init__(self):
        if self.kind in _FIXED:
            if self.param is not None:
                raise ValueError(f"label {self.kind!r} takes no parameter")
        elif self.kind in _PARAM_KINDS:
            if self.param is None or self.param < 1:
                raise ValueError(f"label {self.kind!r} needs a parameter >= 1")
        else:
            raise ValueError(f"unknown family label kind {self.kind!r}")

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


def candidate_members(n: int, k: int = 4) -> list[FamilyLabel]:
    """All k-regular family labels whose member has exactly n vertices:
    the fixed members in table order, then gi, then hj."""
    if k not in {degree for _, degree, _ in _FIXED.values()}:
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
# the two infinite sequences: bridge blocks, identity checks, sparse assembly
# (the only construction of gi/hj)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BlockSet:
    """The four bridge blocks assembled into the ladder skew matrices.

    Shapes: a is 2x4, b and c are 4x4, d is 4x2; entries in {-1, 0, 1}.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        shapes = {"a": (2, 4), "b": (4, 4), "c": (4, 4), "d": (4, 2)}
        for name, want in shapes.items():
            m = int_matrix(getattr(self, name))
            if m.shape != want:
                raise ValueError(f"block {name} must be {want}, got {m.shape}")
            if np.any(np.abs(m) > 1):
                raise ValueError(f"block {name} entries must lie in -1..1")
            m.setflags(write=False)
            object.__setattr__(self, name, m)


def canonical_blocks() -> BlockSet:
    return BlockSet(
        a=[[1, 1, 1, 1],
           [1, 1, -1, -1]],
        b=[[1, 1, 0, 0],
           [-1, -1, 0, 0],
           [0, 0, 1, 1],
           [0, 0, -1, -1]],
        c=[[0, 0, -1, 1],
           [0, 0, 1, -1],
           [1, -1, 0, 0],
           [-1, 1, 0, 0]],
        d=[[-1, 1],
           [1, -1],
           [-1, -1],
           [1, 1]],
    )


def _identity_table(bs: BlockSet) -> dict[str, bool]:
    a, b, c, d = bs.a, bs.b, bs.c, bs.d
    four_i2 = 4 * np.eye(2, dtype=np.int64)
    four_i4 = 4 * np.eye(4, dtype=np.int64)
    eq = np.array_equal
    return {
        "AAt=4I2": eq(a @ a.T, four_i2),
        "AtA+BBt=4I4": eq(a.T @ a + b @ b.T, four_i4),
        "BtB+BBt=4I4": eq(b.T @ b + b @ b.T, four_i4),
        "BtB+CtC=4I4": eq(b.T @ b + c.T @ c, four_i4),
        "AB=0": not np.any(a @ b),
        "BB=0": not np.any(b @ b),
        "BC=0": not np.any(b @ c),
        "AtA+DDt=4I4": eq(a.T @ a + d @ d.T, four_i4),
        "DtD=4I2": eq(d.T @ d, four_i2),
        "AD=0": not np.any(a @ d),
        "BtB+DDt=4I4": eq(b.T @ b + d @ d.T, four_i4),
        "BD=0": not np.any(b @ d),
    }


_IDENTITY_SETS = {
    1: ("AAt=4I2", "AtA+BBt=4I4", "BtB+BBt=4I4", "BtB+CtC=4I4",
        "AB=0", "BB=0", "BC=0"),
    2: ("AAt=4I2", "AtA+DDt=4I4", "DtD=4I2", "AD=0"),
    3: ("AAt=4I2", "AtA+BBt=4I4", "BtB+DDt=4I4", "DtD=4I2", "AB=0", "BD=0"),
}


def check_block_identities(blocks: BlockSet, which: int) -> dict[str, bool]:
    """Exact pass/fail for each identity in set 1, 2, or 3."""
    if which not in _IDENTITY_SETS:
        raise ValueError(f"identity set selector must be 1, 2, or 3, got {which}")
    table = _identity_table(blocks)
    return {name: table[name] for name in _IDENTITY_SETS[which]}


def _required_identities(label: FamilyLabel) -> tuple[str, ...]:
    # exactly the equalities the Gram of the assembled matrix needs
    if label.kind == "gi":
        if label.param == 1:
            return ("AAt=4I2", "AtA+BBt=4I4", "BtB+CtC=4I4", "AB=0", "BC=0")
        return _IDENTITY_SETS[1]
    if label.param == 1:
        return _IDENTITY_SETS[2]
    if label.param == 2:
        return _IDENTITY_SETS[3]
    return _IDENTITY_SETS[3] + ("BtB+BBt=4I4", "BB=0")


def _block_entries(blocks: BlockSet) -> tuple:
    """Nonzero entries (row, col, sign) of a, b, the upper triangle of c, and d."""

    def nonzero(m):
        return tuple((int(r), int(c), int(m[r, c])) for r, c in zip(*np.nonzero(m)))

    return nonzero(blocks.a), nonzero(blocks.b), nonzero(np.triu(blocks.c, 1)), nonzero(blocks.d)


_CANONICAL_ENTRIES = _block_entries(canonical_blocks())


def _block_arcs(label: FamilyLabel, blocks: tuple) -> tuple[int, list[tuple[int, int]]]:
    """Order and arcs of the block-tridiagonal skew matrix of gi(i)/hj(j).

    blocks holds the nonzero entries from _block_entries. The superdiagonal
    blocks are A, then B repeated, then D for hj; gi ends in the skew block C
    on the diagonal instead. Entry +1 at (r, c) is the arc r -> c, and -1 the
    arc c -> r; the subdiagonal is the negated transpose, so it adds nothing.
    """
    a, b, c, d = blocks
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


def block_skew_matrix(label: FamilyLabel, blocks: BlockSet | None = None) -> np.ndarray:
    """Block-tridiagonal skew matrix of gi(i)/hj(j) from a validated BlockSet.

    Any block set satisfying the identities required for the label yields a
    Gram of exactly 4I; failing identities raise ValueError before assembly.
    With the canonical blocks this is the skew adjacency of orient_family.
    """
    if label.kind not in _PARAM_KINDS:
        raise ValueError(f"block construction applies to gi/hj only, got {label}")
    if blocks is None:
        blocks = canonical_blocks()
    table = _identity_table(blocks)
    failed = [name for name in _required_identities(label) if not table[name]]
    if failed:
        raise ValueError(f"block identities failed for {label}: {', '.join(failed)}")
    if label.kind == "gi" and not np.array_equal(blocks.c.T, -blocks.c):
        raise ValueError("diagonal block c must be skew-symmetric")

    n, arcs = _block_arcs(label, _block_entries(blocks))
    og = OrientedGraph(Graph(n, arcs), arcs)
    if not is_optimum(og, 4):
        raise RuntimeError(f"assembled matrix for {label} has a non-4I Gram")
    return skew_adjacency(og)


# ---------------------------------------------------------------------------
# public constructors
# ---------------------------------------------------------------------------

def _member(label: FamilyLabel) -> tuple[int, tuple | list]:
    """Order and canonical arcs of a family member."""
    if label.kind in _FIXED:
        n, _, arcs = _FIXED[label.kind]
        return n, arcs
    return _block_arcs(label, _CANONICAL_ENTRIES)


def build_family(label: FamilyLabel) -> Graph:
    """The underlying graph of a family member, in its fixed vertex ordering."""
    return Graph(*_member(label))


def orient_family(label: FamilyLabel) -> OrientedGraph:
    """The canonical optimum orientation; the Gram is re-checked exactly."""
    n, arcs = _member(label)
    og = OrientedGraph(Graph(n, arcs), arcs)
    if not is_optimum(og, label.regularity):
        raise RuntimeError(f"constructed orientation of {label} failed the Gram check")
    return og
