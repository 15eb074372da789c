"""Membership decision for the family of optimum-orientable k-regular graphs,
k = 1..4, with k read off the input as its largest degree.

A connected k-regular graph of a catalogued degree
(`families.CATALOGUED_DEGREES`, 1..4) admits an optimum orientation exactly
when it is isomorphic to one of the known members, so classification
reduces to isomorphism tests against the candidates whose order and degree
match (`families.candidate_members`); there is no catalogue for k = 0 or
k >= 5.

The isomorphism engine reads a graph's `adj` (one int bitset per vertex) and
`around` (sorted neighbour tuples), built once by `Graph`; the enumerator in
`search` passes growing lists of the same shape. One invariant colouring,
then the matcher: each vertex is coloured by local invariants, and two
graphs are rejected when their sorted signature lists differ. Otherwise an
iterative matcher maps the vertices breadth-first from a vertex of the
rarest colour, drawing each vertex's candidates from the neighbours of its
parent's image (the matcher of McKay and Piperno, "Practical graph
isomorphism II", 2014, without refinement rounds or individualization: the
catalogue members tested all colour uniformly, so refinement splits
nothing). One side of every test is a certificate: the signature list and
the match plan over its colours. A member's certificate is computed once per
label and cached, so classification colours only the input graph;
`isomorphic(g, h)` is the same routine with h's certificate built on the
spot, and the enumerator's state check in `search` keys and matches its
small completions and partial graphs on the same colouring.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .families import FamilyLabel, build_family, candidate_members
from .graphs import Graph


class Classification(NamedTuple):
    """label is None when the graph is outside the family; certificate maps
    input vertices onto build_family(label) when inside."""

    label: FamilyLabel | None
    certificate: tuple[int, ...] | None


def _members(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _colouring(adj: Sequence[int], around: Sequence[Sequence[int]]):
    """The invariant colouring of a graph given as bitsets and neighbour
    lists: the colour of each vertex, and the sorted signature list.

    A vertex's signature is (degree, sorted common-neighbour counts with its
    neighbours, size of its closed 2-ball), which an isomorphism carries
    over, and its colour is the rank of its signature in the sorted list;
    so equal signature lists give the same colours in both graphs, and every
    isomorphism between them preserves the colours.
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
    ordered = sorted(sigs)
    rank = {s: i for i, s in enumerate(dict.fromkeys(ordered))}
    return [rank[s] for s in sigs], ordered


def match_plan(adj: Sequence[int], colours: list[int]):
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


def match(plan, adj: Sequence[int], colours: list[int]):
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


def _certificate(g: Graph) -> tuple[list, tuple]:
    """What matching a graph onto g needs of g: its signature list, and the
    `match_plan` over its colours (which carries g's adjacency)."""
    colours, signatures = _colouring(g.adj, g.around)
    return signatures, match_plan(g.adj, colours)


# a certificate is about the size of its graph; the bound keeps a long run
# over many orders from holding all
@lru_cache(maxsize=64)
def _member_certificate(label: FamilyLabel) -> tuple[list, tuple]:
    return _certificate(build_family(label))


def _onto(g: Graph, cert: tuple[list, tuple]):
    """An adjacency-preserving bijection from g onto the certified graph, as
    a tuple, or None.

    g is rejected when its signature list differs from the certificate's,
    as it does when the orders or the degree sequences differ. Equal lists
    give colours that every isomorphism preserves, so `match` finds one from
    the planned graph onto g when there is one, and it is inverted.
    """
    signatures, plan = cert
    colours, ordered = _colouring(g.adj, g.around)
    if ordered != signatures:
        return None
    found = match(plan, g.adj, colours)
    if found is None:
        return None
    mapping = [0] * g.n
    for v, w in enumerate(found):
        mapping[w] = v
    return tuple(mapping)


def isomorphic(g: Graph, h: Graph):
    """An adjacency-preserving bijection g -> h as a tuple, or None; the
    classifier's routine with h's certificate built on the spot."""
    if g.n != h.n or len(g.edges) != len(h.edges):
        return None  # before h is coloured for nothing
    return _onto(g, _certificate(h))


def classify(g: Graph) -> Classification:
    """Match a connected k-regular graph against the known members of degree
    k, its largest degree; ValueError for any other input, and for a degree
    with no catalogue."""
    k = g.max_degree()
    defect = g.defect(k)
    if defect is not None:
        raise ValueError(f"cannot classify: {defect}")
    for label in candidate_members(g.n, k):
        mapping = _onto(g, _member_certificate(label))
        if mapping is not None:
            return Classification(label, mapping)
    return Classification(None, None)
