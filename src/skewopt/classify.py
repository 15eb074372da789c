"""Membership decision for the family of optimum-orientable k-regular graphs,
k = 1..4.

A connected 4-regular graph admits an optimum orientation exactly when it is
isomorphic to one of the known members, so classification reduces to
isomorphism tests against the candidates whose order matches.  For k <= 3
the members are K2, C4, K4 and Q3; there is no catalogue for k >= 5.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import (
    C4, G1, G2, G3, K2, K4, Q3, Q4, FamilyLabel, build_family, family_order,
    gi, hj,
)
from .graphs import Graph


@dataclass(frozen=True)
class Classification:
    """label is None when the graph is outside the family; certificate maps
    input vertices onto build_family(label) when inside."""

    label: FamilyLabel | None
    certificate: tuple[int, ...] | None

    @property
    def in_family(self) -> bool:
        return self.label is not None


def _vertex_invariants(g: Graph) -> list[tuple]:
    inv = []
    for v in range(g.n):
        shared = sorted(len(g.common_neighbors(v, w)) for w in g.neighbors(v))
        # twice the number of triangles through v
        inv.append((g.degree(v), tuple(shared), sum(shared)))
    return inv


def isomorphic(g: Graph, h: Graph):
    """An adjacency-preserving bijection g -> h, or None.

    Vertices are matched only within equal refinement classes
    (degree, sorted common-neighbor counts, triangle count), then verified
    by backtracking.
    """
    if g.n != h.n or g.edge_count != h.edge_count:
        return None
    gi_ = _vertex_invariants(g)
    hi_ = _vertex_invariants(h)
    if sorted(gi_) != sorted(hi_):
        return None
    candidates = {v: [w for w in range(h.n) if hi_[w] == gi_[v]] for v in range(g.n)}
    # most constrained vertex first, then fixed index order for determinism
    order = sorted(range(g.n), key=lambda v: (len(candidates[v]), v))
    mapping = [-1] * g.n
    used = [False] * h.n

    def extend(pos: int) -> bool:
        if pos == g.n:
            return True
        v = order[pos]
        for w in candidates[v]:
            if used[w]:
                continue
            ok = True
            for x in range(g.n):
                y = mapping[x]
                if y >= 0 and g.has_edge(v, x) != h.has_edge(w, y):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used[w] = True
            if extend(pos + 1):
                return True
            mapping[v] = -1
            used[w] = False
        return False

    if extend(0):
        return tuple(mapping)
    return None


_SMALL_DEGREE_MEMBERS = {1: (K2,), 2: (C4,), 3: (K4, Q3)}


def candidate_members(n: int, k: int = 4) -> list[FamilyLabel]:
    """All k-regular family labels whose member has exactly n vertices."""
    if k in _SMALL_DEGREE_MEMBERS:
        return [label for label in _SMALL_DEGREE_MEMBERS[k] if family_order(label) == n]
    if k != 4:
        raise ValueError(f"no catalogue of {k}-regular members")
    labels = []
    if n == 6:
        labels.append(G2)
    if n == 8:
        labels.append(G1)
    if n == 14:
        labels.append(G3)
    if n == 16:
        labels.append(Q4)
    if n >= 10 and n % 4 == 2:
        labels.append(gi((n - 6) // 4))
    if n >= 8 and n % 4 == 0:
        labels.append(hj((n - 4) // 4))
    return labels


def classify(g: Graph, k: int = 4) -> Classification:
    """Match a connected k-regular graph (k = 1..4) against the known members."""
    if not g.is_regular(k):
        raise ValueError(f"classification applies to {k}-regular graphs")
    if not g.is_connected():
        raise ValueError("classification applies to connected graphs")
    for label in candidate_members(g.n, k):
        mapping = isomorphic(g, build_family(label))
        if mapping is not None:
            return Classification(label, mapping)
    return Classification(None, None)
