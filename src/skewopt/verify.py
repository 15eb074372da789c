"""The common-neighbour parity condition, a necessary condition for an
optimum orientation read off the underlying graph alone.

S^T S = kI balances the signed 2-walks between any two vertices, so every
pair has an even number of common neighbours. The report runs on the
production path (the search prefilter and `skewopt verify`) and counts
common neighbours with the graph's bitsets; `tests/oracles.py` checks it
against a pair-by-pair count, and holds the signed-walk counters that check
the Gram condition walk by walk.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph


@dataclass(frozen=True)
class NeighborhoodReport:
    """Pairs with an odd number of common neighbors.

    Each violation is (u, v, common_count, adjacent).
    """

    violations: tuple[tuple[int, int, int, bool], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


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
