"""Simple undirected graphs and edge orientations.

Vertices are dense integers 0..n-1.  Both graph classes are immutable after
construction.  A Graph keeps `around`, each vertex's sorted neighbours; its
bitsets `adj` (bit w of adj[v] set when vw is an edge, about n^2/15 bytes in
all) and its connectivity are built on first request and kept.
"""

from __future__ import annotations

from typing import Iterable, Sequence


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
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        self.n = int(n)
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

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        return [len(a) for a in self.around]

    def max_degree(self) -> int:
        return max(map(len, self.around), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        # a shift by a negative count raises, so v is range-checked too
        return 0 <= u < self.n and 0 <= v and bool(self.adj[u] >> v & 1)

    def common_neighbors(self, u: int, v: int) -> frozenset[int]:
        """N(u) intersect N(v) for distinct vertices u, v."""
        if u == v:
            raise ValueError(f"common_neighbors needs distinct vertices, got {u} twice")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex out of range: ({u}, {v}) with n={self.n}")
        return frozenset(self.around[u]).intersection(self.around[v])

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

    def is_triangle_free(self) -> bool:
        return not any(self.adj[u] & self.adj[v] for u, v in self.edges)

    def relabel(self, permutation: Sequence[int]) -> "Graph":
        """Image under vertex map v -> permutation[v]."""
        p = list(permutation)
        if sorted(p) != list(range(self.n)):
            raise ValueError("relabel needs a permutation of 0..n-1")
        return Graph(self.n, [(p[u], p[v]) for u, v in self.edges])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


class OrientedGraph:
    """A Graph plus one direction (tail, head) per edge."""

    __slots__ = ("base", "arcs", "_sign")

    def __init__(self, base: Graph, arcs: Iterable[tuple[int, int]]):
        self.base = base
        edge_set = set(base.edges)
        sign: dict[tuple[int, int], int] = {}
        for t, h in arcs:
            e = (t, h) if t < h else (h, t)
            if e not in edge_set:
                raise ValueError(f"arc ({t}, {h}) is not an edge of the base graph")
            if e in sign:
                raise ValueError(f"edge {e} oriented more than once")
            sign[e] = 1 if (t, h) == e else -1
        if len(sign) != len(base.edges):
            missing = sorted(edge_set - sign.keys())
            raise ValueError(f"orientation missing edges: {missing[:5]}")
        self._sign = sign
        self.arcs = tuple(
            sorted((u, v) if s == 1 else (v, u) for (u, v), s in sign.items())
        )

    def sign(self, u: int, v: int) -> int:
        """+1 if arc u->v, -1 if arc v->u, 0 if u,v non-adjacent.

        This is exactly the (u, v) entry of the skew-adjacency matrix.
        """
        if u == v:
            return 0
        e = (u, v) if u < v else (v, u)
        s = self._sign.get(e)
        if s is None:
            return 0
        return s if u < v else -s

    def switch(self, vertices: Iterable[int]) -> "OrientedGraph":
        """Reverse every arc with exactly one endpoint in the given set."""
        s = set(vertices)
        for v in s:
            if not (0 <= v < self.base.n):
                raise ValueError(f"switch vertex {v} out of range")
        flipped = [
            (h, t) if (t in s) != (h in s) else (t, h) for t, h in self.arcs
        ]
        return OrientedGraph(self.base, flipped)

    def relabel(self, permutation: Sequence[int]) -> "OrientedGraph":
        p = list(permutation)
        return OrientedGraph(
            self.base.relabel(p), [(p[t], p[h]) for t, h in self.arcs]
        )

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

