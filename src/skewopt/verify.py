"""The common-neighbour parity condition, a necessary condition for an
optimum orientation read off the underlying graph alone.

S^T S = kI balances the signed 2-walks between any two vertices, so every
pair has an even number of common neighbours. One scan, `_odd_pairs`,
serves the production path: `neighbor_parity_report` (for `skewopt verify`
and a `search` that finds no orientation) collects every odd pair, and the
search prefilter stops at the first. It counts common neighbours with the
graph's bitsets; `tests/oracles.py` checks it against a pair-by-pair count,
and holds the signed-walk counters that check the Gram condition walk by
walk.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import Graph


class NeighborhoodReport(NamedTuple):
    """Pairs with an odd number of common neighbors.

    Each violation is (u, v, common_count, adjacent).
    """

    violations: tuple[tuple[int, int, int, bool], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _odd_pairs(g: Graph):
    """Yield (u, v, common_count, adjacent) for every pair u < v with an odd
    number of common neighbours, in increasing order."""
    # only pairs at distance two share a neighbour, and a count of 0 is even,
    # so each u scans the bits above it in its 2-ball
    adj = g.adj
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
                yield u, v, count, bool(a >> v & 1)


def neighbor_parity_report(g: Graph) -> NeighborhoodReport:
    """Every vertex pair with an odd number of common neighbors.

    An optimum orientation balances the signed 2-walks between any two
    vertices, so their count is even. In a simple 4-regular graph an adjacent
    pair shares at most 3 neighbors and a non-adjacent pair at most 4, so
    evenness is exactly the paper's k = 4 condition: counts 0 or 2 for
    adjacent pairs, 0, 2 or 4 for non-adjacent ones.
    """
    return NeighborhoodReport(tuple(_odd_pairs(g)))
