"""Membership decision for the family of optimum-orientable k-regular graphs,
k = 1..4.

A connected 4-regular graph admits an optimum orientation exactly when it is
isomorphic to one of the known members, so classification reduces to
isomorphism tests against the candidates whose order matches.  For k <= 3
the members are K2, C4, K4 and Q3; there is no catalogue for k >= 5.

The isomorphism engine, also used by the enumerator's deduplication, works
on adjacency bitsets (one Python int per vertex). Colour refinement splits
the vertices from local invariants, and two graphs are rejected at the first
refinement round whose signature lists differ. Otherwise an iterative matcher
maps the vertices breadth-first from a vertex of the rarest colour, drawing
each vertex's candidates from the neighbours of its parent's image (the
refinement-then-matching scheme of McKay and Piperno, "Practical graph
isomorphism II", 2014, without individualization).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

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


def _bitsets(g: Graph) -> list[int]:
    """Adjacency as one int per vertex, bit w of entry v set when vw is an edge."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _members(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _rounds(adj: list[int], around: list[list[int]]):
    """Colour refinement of a graph given as bitsets and neighbour lists:
    yield each round's colours and sorted signature list, up to the first
    round that splits no colour class.

    A vertex starts from (degree, sorted common-neighbour counts with its
    neighbours, size of its closed 2-ball); each round's signature is (colour,
    sorted neighbour colours), and a colour is the rank of its signature, so
    equal signature lists give the same colours in both graphs.
    """
    sigs = []
    for v, a in enumerate(adj):
        ball = a | 1 << v
        shared = []
        for w in around[v]:
            ball |= adj[w]
            shared.append((a & adj[w]).bit_count())
        shared.sort()
        sigs.append((len(shared), tuple(shared), ball.bit_count()))
    classes = 0
    while True:
        ordered = sorted(sigs)
        rank = {s: i for i, s in enumerate(dict.fromkeys(ordered))}
        colours = [rank[s] for s in sigs]
        yield colours, ordered
        if len(rank) == classes:
            return
        classes = len(rank)
        sigs = [(colours[v], tuple(sorted([colours[w] for w in nbrs])))
                for v, nbrs in enumerate(around)]


def colouring(adj: list[int], around: list[list[int]]) -> tuple[list[int], tuple]:
    """Stable colours of a graph, and the trace of every refinement round;
    isomorphic graphs have equal traces."""
    trace = []
    for colours, ordered in _rounds(adj, around):
        trace.append(tuple(ordered))
    return colours, tuple(trace)


def match_plan(adj: list[int], colours: list[int]):
    """The order in which `match` maps the vertices of a coloured graph:
    breadth-first from a vertex of the rarest colour, component by component.

    Returns the order and, per step, (colour, step of the BFS parent or -1 at
    a component root, steps of the neighbours mapped before).
    """
    n = len(adj)
    size: dict[int, int] = {}
    for c in colours:
        size[c] = size.get(c, 0) + 1
    order: list[int] = []
    parent: list[int] = []
    step = [0] * n
    seen = 0
    for root in sorted(range(n), key=lambda v: (size[colours[v]], colours[v], v)):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        head = len(order)
        order.append(root)
        parent.append(-1)
        while head < len(order):
            p = order[head]
            for w in _members(adj[p] & ~seen):
                seen |= 1 << w
                order.append(w)
                parent.append(head)
            head += 1
    done = 0
    steps = []
    for d, v in enumerate(order):
        step[v] = d
        steps.append((colours[v], parent[d], [step[u] for u in _members(adj[v] & done)]))
        done |= 1 << v
    return order, steps


def match(plan, adj: list[int], colours: list[int]):
    """A colour- and adjacency-preserving map from the planned graph onto
    this one, as a list, or None.

    A step's candidates are the unused vertices of its colour adjacent to
    its parent's image (any of its colour at a component root); one is
    accepted when its adjacency to the used vertices is the image of the
    step's earlier neighbours, a single bitset compare. The search
    backtracks with an explicit stack of candidate bitsets.
    """
    order, steps = plan
    n = len(order)
    if n == 0:
        return []
    of_colour: dict[int, int] = {}
    for w, c in enumerate(colours):
        of_colour[c] = of_colour.get(c, 0) | 1 << w
    image = [0] * n
    bit = [0] * n
    used = 0
    stack = [of_colour.get(steps[0][0], 0)]
    while stack:
        d = len(stack) - 1
        want = 0
        for e in steps[d][2]:
            want |= bit[e]
        left = stack[d]
        while left:
            low = left & -left
            left ^= low
            w = low.bit_length() - 1
            if adj[w] & used == want:
                break
        else:
            stack.pop()
            if d:
                used ^= bit[d - 1]
            continue
        stack[d] = left
        image[d] = w
        bit[d] = low
        used |= low
        if d + 1 == n:
            mapping = [0] * n
            for v, w in zip(order, image):
                mapping[v] = w
            return mapping
        colour, p, _ = steps[d + 1]
        free = of_colour.get(colour, 0) & ~used
        stack.append(free if p < 0 else free & adj[image[p]])
    return None


def isomorphic(g: Graph, h: Graph):
    """An adjacency-preserving bijection g -> h as a tuple, or None.

    Both graphs are refined in step and rejected at the first round whose
    signature lists differ; otherwise their stable colours guide `match`.
    """
    if g.n != h.n or g.edge_count != h.edge_count:
        return None
    g_adj, h_adj = _bitsets(g), _bitsets(h)
    g_rounds = _rounds(g_adj, [_members(a) for a in g_adj])
    h_rounds = _rounds(h_adj, [_members(a) for a in h_adj])
    for g_round, h_round in zip_longest(g_rounds, h_rounds):
        if g_round is None or h_round is None or g_round[1] != h_round[1]:
            return None
    mapping = match(match_plan(g_adj, g_round[0]), h_adj, h_round[0])
    return None if mapping is None else tuple(mapping)


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
