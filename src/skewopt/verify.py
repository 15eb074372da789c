"""Structural necessary conditions and walk-based oracles.

Two independent routes to the same Gram statement: common-neighborhood parity
filters on the underlying graph, and explicit signed-walk enumeration on the
orientation. Neither shares code with the matrix pipeline, so both can
cross-check it. The parity report runs on the production path (the search
prefilter, `verify`) and counts common neighbours with the graph's bitsets;
the walk counts are deliberately naive oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, OrientedGraph
from .matrices import power, skew_adjacency

WALK_LENGTH_CAP = 8


@dataclass(frozen=True)
class NeighborhoodReport:
    """Pairs with an odd number of common neighbors.

    Each violation is (u, v, common_count, adjacent).
    """

    violations: tuple[tuple[int, int, int, bool], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class SignedWalkCount:
    positive: int
    negative: int

    @property
    def total(self) -> int:
        return self.positive + self.negative

    @property
    def difference(self) -> int:
        return self.positive - self.negative


def neighbor_parity_report(g: Graph) -> NeighborhoodReport:
    """Every vertex pair with an odd number of common neighbors.

    An optimum orientation balances the signed 2-walks between any two
    vertices, so their count is even. In a simple 4-regular graph an adjacent
    pair shares at most 3 neighbors and a non-adjacent pair at most 4, so
    evenness is exactly the paper's k = 4 condition: counts 0 or 2 for
    adjacent pairs, 0, 2 or 4 for non-adjacent ones.
    """
    # only pairs at distance two share a neighbour, and a count of 0 is even,
    # so each u scans the bits above it in its 2-ball
    adj = g.adj
    violations = []
    for u, a in enumerate(adj):
        ball = 0
        for w in g.around[u]:
            ball |= adj[w]
        ball >>= u + 1
        while ball:
            low = ball & -ball
            ball ^= low
            v = u + low.bit_length()
            count = (a & adj[v]).bit_count()
            if count & 1:
                violations.append((u, v, count, bool(a >> v & 1)))
    return NeighborhoodReport(tuple(violations))


def signed_walk_counts(og: OrientedGraph, u: int, v: int, k: int) -> SignedWalkCount:
    """Count positive and negative length-k walks u -> v by explicit search.

    A walk's sign is the product of the skew entries along its steps. The
    enumeration is a plain depth-first expansion, intentionally not a matrix
    power, so it can serve as an oracle for one.
    """
    base = og.base
    if not 0 <= u < base.n or not 0 <= v < base.n:
        raise ValueError(f"vertices must lie in 0..{base.n - 1}")
    if not 1 <= k <= WALK_LENGTH_CAP:
        raise ValueError(f"walk length must lie in 1..{WALK_LENGTH_CAP}, got {k}")
    positive = 0
    negative = 0
    # stack of (vertex, steps taken, sign so far)
    stack = [(u, 0, 1)]
    while stack:
        x, steps, sign = stack.pop()
        if steps == k:
            if x == v:
                if sign > 0:
                    positive += 1
                else:
                    negative += 1
            continue
        for y in base.neighbors(x):
            stack.append((y, steps + 1, sign * og.sign(x, y)))
    return SignedWalkCount(positive, negative)


def walk_identity_holds(og: OrientedGraph, k_max: int) -> bool:
    """True iff enumerated signed-walk differences match skew-matrix powers.

    Checks every ordered vertex pair and every length 1..k_max.
    """
    if not 1 <= k_max <= WALK_LENGTH_CAP:
        raise ValueError(f"k_max must lie in 1..{WALK_LENGTH_CAP}, got {k_max}")
    s = skew_adjacency(og)
    n = og.base.n
    for k in range(1, k_max + 1):
        sk = power(s, k)
        for u in range(n):
            for v in range(n):
                if signed_walk_counts(og, u, v, k).difference != sk[u, v]:
                    return False
    return True


def two_walk_balanced(og: OrientedGraph) -> bool:
    """True iff every pair of distinct vertices has balanced signed 2-walks.

    For a k-regular oriented graph this is equivalent to the Gram matrix
    being exactly k times the identity; non-regular inputs are rejected so
    the equivalence is never silently weakened.
    """
    base = og.base
    degrees = set(base.degrees())
    if len(degrees) > 1:
        raise ValueError("two-walk balance test needs a regular graph")
    for u in range(base.n):
        for v in range(u + 1, base.n):
            counts = signed_walk_counts(og, u, v, 2)
            if counts.positive != counts.negative:
                return False
    return True
