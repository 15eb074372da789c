"""Constructors for every known graph admitting an optimum orientation
(one whose Gram matrix S^T S equals k*I), their canonical orientations, and
the block-matrix machinery behind the two infinite sequences.

Family labels:
  g1, g2     sporadic 4-regular members containing triangles (8 and 6 vertices)
  g3         sporadic triangle-free 4-regular member (14 vertices)
  q4         the 4-dimensional hypercube (16 vertices)
  gi(i)      ladder-like 4-regular sequence, 4i+6 vertices
  hj(j)      ladder-like 4-regular sequence, 4j+4 vertices; hj(1) = K_{4,4}
  k2, c4, k4, q3   the optimum-orientable graphs for degrees 1, 2, 3

Every constructor fixes a vertex ordering, so the skew-adjacency matrices are
reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
import re

import numpy as np

from .graphs import Graph, OrientedGraph
from .matrices import int_matrix, is_optimum, skew_adjacency

_FIXED_KINDS = ("g1", "g2", "g3", "q4", "k2", "c4", "k4", "q3")
_PARAM_KINDS = ("gi", "hj")

_REGULARITY = {
    "g1": 4, "g2": 4, "g3": 4, "q4": 4, "gi": 4, "hj": 4,
    "k2": 1, "c4": 2, "k4": 3, "q3": 3,
}

_LABEL_RE = re.compile(r"^(gi|hj)\s*\(?\s*(\d+)\s*\)?$")


@dataclass(frozen=True, order=True)
class FamilyLabel:
    """Tagged identifier for a family member; gi/hj carry an index >= 1."""

    kind: str
    param: int | None = None

    def __post_init__(self):
        if self.kind in _FIXED_KINDS:
            if self.param is not None:
                raise ValueError(f"label {self.kind!r} takes no parameter")
        elif self.kind in _PARAM_KINDS:
            if self.param is None or self.param < 1:
                raise ValueError(f"label {self.kind!r} needs a parameter >= 1")
        else:
            raise ValueError(f"unknown family label kind {self.kind!r}")

    @property
    def regularity(self) -> int:
        return _REGULARITY[self.kind]

    def __str__(self) -> str:
        if self.param is None:
            return self.kind
        return f"{self.kind}({self.param})"

    @classmethod
    def parse(cls, text: str) -> "FamilyLabel":
        t = text.strip().lower()
        if t in _FIXED_KINDS:
            return cls(t)
        m = _LABEL_RE.match(t)
        if m:
            return cls(m.group(1), int(m.group(2)))
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
    fixed = {"g1": 8, "g2": 6, "g3": 14, "q4": 16, "k2": 2, "c4": 4, "k4": 4, "q3": 8}
    if label.kind in fixed:
        return fixed[label.kind]
    if label.kind == "gi":
        return 4 * label.param + 6
    return 4 * label.param + 4


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
# fixed members: named vertex orderings, edges, canonical arcs
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
_G2_NON_EDGES = (("u1", "u6"), ("u2", "u4"), ("u3", "u5"))
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

# degree-2 and degree-3 witnesses found once by exhaustive switching-class
# search over the standard labelings and frozen here; orient_family re-checks
# the Gram exactly on every construction
_C4_EDGES = ((0, 1), (0, 3), (1, 2), (2, 3))
_C4_ARCS = ((0, 1), (0, 3), (1, 2), (2, 3))
_K4_ARCS = ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1))


def _from_names(order, name_pairs) -> list[tuple[int, int]]:
    index = {name: i for i, name in enumerate(order)}
    return [(index[x], index[y]) for x, y in name_pairs]


# ---------------------------------------------------------------------------
# hypercubes via the doubling construction
# ---------------------------------------------------------------------------

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


def _hypercube_edges(d: int) -> list[tuple[int, int]]:
    return [
        (x, x | (1 << b))
        for x in range(1 << d)
        for b in range(d)
        if not x & (1 << b)
    ]


def _arcs_from_matrix(m: np.ndarray) -> list[tuple[int, int]]:
    return [(int(i), int(j)) for i, j in zip(*np.nonzero(m == 1))]


# ---------------------------------------------------------------------------
# public constructors
# ---------------------------------------------------------------------------

def build_family(label: FamilyLabel) -> Graph:
    """The underlying graph of a family member, in its fixed vertex ordering."""
    kind = label.kind
    if kind == "g1":
        # two 4-cliques joined by the matching u_i - v_i
        edges = (
            list(combinations(range(4), 2))
            + list(combinations(range(4, 8), 2))
            + [(i, i + 4) for i in range(4)]
        )
        return Graph(8, edges)
    if kind == "g2":
        non = {tuple(sorted(_from_names(_G2_ORDER, (p,))[0])) for p in _G2_NON_EDGES}
        return Graph(6, [e for e in combinations(range(6), 2) if e not in non])
    if kind == "g3":
        return Graph(14, _from_names(_G3_ORDER, _G3_ARCS))
    if kind == "q4":
        return Graph(16, _hypercube_edges(4))
    if kind == "q3":
        return Graph(8, _hypercube_edges(3))
    if kind == "k2":
        return Graph(2, [(0, 1)])
    if kind == "c4":
        return Graph(4, _C4_EDGES)
    if kind == "k4":
        return Graph(4, list(combinations(range(4), 2)))
    n, arcs = _block_arcs(label, _CANONICAL_ENTRIES)
    return Graph(n, arcs)


def orient_family(label: FamilyLabel) -> OrientedGraph:
    """The canonical optimum orientation; the Gram is re-checked exactly."""
    kind = label.kind
    if kind == "g1":
        og = OrientedGraph(build_family(label), _from_names(_G1_ORDER, _G1_ARCS))
    elif kind == "g2":
        og = OrientedGraph(build_family(label), _from_names(_G2_ORDER, _G2_ARCS))
    elif kind == "g3":
        og = OrientedGraph(build_family(label), _from_names(_G3_ORDER, _G3_ARCS))
    elif kind in ("q4", "q3", "k2"):
        d = {"q4": 4, "q3": 3, "k2": 1}[kind]
        og = OrientedGraph(build_family(label), _arcs_from_matrix(doubling_skew_matrix(d)))
    elif kind == "c4":
        og = OrientedGraph(build_family(label), _C4_ARCS)
    elif kind == "k4":
        og = OrientedGraph(build_family(label), _K4_ARCS)
    else:
        n, arcs = _block_arcs(label, _CANONICAL_ENTRIES)
        og = OrientedGraph(Graph(n, arcs), arcs)
    if not is_optimum(og, label.regularity):
        raise RuntimeError(f"constructed orientation of {label} failed the Gram check")
    return og
