"""Simple undirected graphs and edge orientations.

Vertices are dense integers 0..n-1.  Both graph classes are immutable after
construction.  A Graph keeps `n`, its sorted `edges` and `around`, each
vertex's sorted neighbours; its bitsets `adj` (bit w of adj[v] set when vw is
an edge, about n^2/15 bytes in all) and its connectivity are built on first
request and kept.  An OrientedGraph keeps its base and its sorted `arcs`, one
(tail, head) per edge; the entry (u, v) of its skew-adjacency matrix is +1
for an arc u -> v.
"""

from __future__ import annotations

from typing import Iterable


def _normalize_edge(u: int, v: int, n: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Duplicate edge pairs in the input (in either endpoint order) are
    collapsed; self-loops and out-of-range endpoints are rejected.
    """

    __slots__ = ("n", "edges", "around", "_bits", "_connected")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if type(n) is not int or n < 0:
            raise ValueError(f"vertex count must be an integer >= 0, got {n!r}")
        self.n = n
        self.edges = tuple(sorted({_normalize_edge(u, v, self.n) for u, v in edges}))
        # sorted edges: each vertex meets its neighbours in ascending order
        around: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            around[u].append(v)
            around[v].append(u)
        self.around = tuple(map(tuple, around))
        self._bits: tuple[int, ...] | None = None
        self._connected: bool | None = None

    @property
    def adj(self) -> tuple[int, ...]:
        if self._bits is None:
            self._bits = tuple(sum(1 << w for w in a) for a in self.around)
        return self._bits

    def max_degree(self) -> int:
        return max(map(len, self.around), default=0)

    def is_regular(self, k: int) -> bool:
        return all(len(a) == k for a in self.around)

    def is_connected(self) -> bool:
        """True iff the graph has a single component (vacuously for n=0)."""
        if self._connected is None:
            seen = {0} if self.n else set()
            stack = list(seen)
            while stack:
                for w in self.around[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            self._connected = len(seen) == self.n
        return self._connected

    def defect(self, k: int) -> str | None:
        """Why this is no connected k-regular graph with a vertex, or None:
        the search, the classifier and the census take only such graphs."""
        if self.n == 0:
            return "empty graph"
        if not self.is_regular(k):
            return f"not {k}-regular"
        if not self.is_connected():
            return "not connected"
        return None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


class OrientedGraph:
    """A Graph plus one direction (tail, head) per edge; `arcs` is sorted."""

    __slots__ = ("base", "arcs")

    def __init__(self, base: Graph, arcs: Iterable[tuple[int, int]]):
        self.base = base
        self.arcs = tuple(sorted((t, h) for t, h in arcs))
        # one arc per edge: an arc off the graph, a loop, an end out of range,
        # an edge oriented twice or an edge left out all break the equality
        edges = tuple(sorted((t, h) if t < h else (h, t) for t, h in self.arcs))
        if edges != base.edges:
            raise ValueError("arcs must orient each edge of the base graph exactly once")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrientedGraph)
            and self.base == other.base
            and self.arcs == other.arcs
        )

    def __hash__(self) -> int:
        return hash((self.base, self.arcs))

    def __repr__(self) -> str:
        return f"OrientedGraph(n={self.base.n}, arcs={len(self.arcs)})"

