from __future__ import annotations

import random
from itertools import combinations

import pytest

from oracles import arc_signs, disjoint_union, relabel, switch
from skewopt import (
    G1, G2, Graph, OrientedGraph, build_family, gi, hj, is_optimum, orient_family,
    skew_adjacency,
)


def shared(g: Graph, u: int, v: int) -> int:
    """The number of common neighbours of u and v, read off the bitsets."""
    return (g.adj[u] & g.adj[v]).bit_count()


def test_build_dedupes_and_normalizes():
    g = Graph(4, [(0, 1), (1, 0), (0, 1), (2, 3)])
    assert g.edges == ((0, 1), (2, 3))


def test_build_k2():
    g = Graph(2, [(0, 1)])
    assert g.edges == ((0, 1),)
    assert g.around == ((1,), (0,))
    assert g.adj == (0b10, 0b01)


def test_build_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(2, [(-1, 0)])


def test_build_rejects_non_integer_orders():
    # 2.7 would build 2 vertices, and True would stand for 1
    for n in (2.7, 2.0, True, "2"):
        with pytest.raises(ValueError, match="integer"):
            Graph(n, [(0, 1)])


def test_k4_structure():
    g = Graph(4, combinations(range(4), 2))
    assert g.is_regular(3)
    for u, v in combinations(range(4), 2):
        assert shared(g, u, v) == 2


def test_g1_build_is_4_regular_16_edges():
    g = build_family(G1)
    assert g.n == 8
    assert len(g.edges) == 16
    assert g.is_regular(4)


def test_common_neighbors_octahedron():
    g = build_family(G2)
    for u in range(6):
        for v in range(u + 1, 6):
            want = 2 if (u, v) in g.edges else 4
            assert shared(g, u, v) == want


def test_common_neighbors_bipartite_same_side():
    g = build_family(hj(1))  # complete bipartite, parts {0,1,6,7} / {2,3,4,5}
    assert shared(g, 0, 1) == 4
    assert shared(g, 2, 5) == 4
    assert shared(g, 0, 2) == 0


def test_is_regular():
    assert Graph(4, combinations(range(4), 2)).is_regular(3)
    assert not Graph(3, [(0, 1), (1, 2)]).is_regular(2)
    assert build_family(gi(1)).is_regular(4)
    assert Graph(0, []).is_regular(0)


def test_triangle_free():
    # a triangle is an edge whose ends share a neighbour
    def triangle_free(g):
        return all(shared(g, u, v) == 0 for u, v in g.edges)

    assert triangle_free(build_family(hj(1)))
    assert not triangle_free(Graph(4, combinations(range(4), 2)))
    assert not triangle_free(build_family(G1))


def test_connectivity():
    assert Graph(2, [(0, 1)]).is_connected()
    assert not Graph(4, [(0, 1), (2, 3)]).is_connected()
    assert build_family(hj(2)).is_connected()
    assert Graph(0, []).is_connected()
    assert Graph(1, []).is_connected()
    assert not Graph(2, []).is_connected()


def test_defect_names_the_first_failed_requirement():
    k5 = Graph(5, combinations(range(5), 2))
    assert k5.defect(4) is None
    assert Graph(0, []).defect(4) == "empty graph"
    assert Graph(0, []).defect(0) == "empty graph"
    assert Graph(4, combinations(range(4), 2)).defect(4) == "not 4-regular"
    # regularity is checked before connectivity
    assert Graph(5, [(0, 1), (2, 3), (3, 4)]).defect(1) == "not 1-regular"
    assert Graph(4, [(0, 1), (2, 3)]).defect(1) == "not connected"
    assert Graph(1, []).defect(0) is None
    assert build_family(hj(2)).defect(4) is None


def test_common_neighbors_bounded_by_degrees():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 9)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        g = Graph(n, edges)
        for u in range(n):
            for v in range(u + 1, n):
                common = set(g.around[u]) & set(g.around[v])
                assert shared(g, u, v) == len(common)
                assert len(common) <= min(len(g.around[u]), len(g.around[v]))


def test_relabel_preserves_structure():
    g = build_family(G2)
    rng = random.Random(3)
    perm = list(range(6))
    rng.shuffle(perm)
    h = relabel(g, perm)
    assert sorted(map(len, h.around)) == sorted(map(len, g.around))
    for u, v in g.edges:
        assert perm[u] in h.around[perm[v]]


def test_adjacency_forms_agree_with_edges():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(0, 12)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.4])
        perm = list(range(n))
        rng.shuffle(perm)
        for h in (g, relabel(g, perm)):
            arcs = set(h.edges) | {(v, u) for u, v in h.edges}
            for u in range(n):
                assert h.around[u] == tuple(v for v in range(n) if (u, v) in arcs)
                assert h.adj[u] == sum(1 << v for v in h.around[u])


def test_relabel_rejects_non_permutation():
    with pytest.raises(ValueError):
        relabel(Graph(3, [(0, 1)]), [0, 0, 1])


def test_orientation_validation():
    g = Graph(3, [(0, 1), (1, 2)])
    for arcs in (
        [(0, 2), (1, 2)],  # not an edge
        [(0, 1), (1, 0), (1, 2)],  # both directions
        [(0, 1)],  # missing an edge
        [(0, 1), (1, 1), (1, 2)],  # self-loop
        [(0, 1), (1, 2), (2, 3)],  # end out of range
        [(0, 1), (1, 2), (1, 2)],  # the same arc twice
        [(0, 1), (2, 1), (0, 2)],  # an extra arc off the base graph
        [(1, 1), (2, 1)],  # a loop standing in for an edge
    ):
        with pytest.raises(ValueError):
            OrientedGraph(g, arcs)
    og = OrientedGraph(g, [(2, 1), (0, 1)])
    assert og.arcs == ((0, 1), (2, 1))  # stored sorted
    listed = OrientedGraph(g, [[2, 1], [0, 1]])
    assert listed.arcs == og.arcs and isinstance(listed.arcs[0], tuple)
    assert listed == og and hash(listed) == hash(og)


def test_sign_convention():
    s = skew_adjacency(OrientedGraph(Graph(2, [(0, 1)]), [(0, 1)]))
    assert s[0, 1] == 1
    assert s[1, 0] == -1
    assert OrientedGraph(Graph(2, []), []).base.edges == ()


def test_switch_identity_and_involution():
    og = orient_family(G2)
    assert switch(og, []) == og
    rng = random.Random(5)
    for _ in range(20):
        s = [v for v in range(6) if rng.random() < 0.5]
        assert switch(switch(og, s), s) == og


def test_switch_k2():
    og = OrientedGraph(Graph(2, [(0, 1)]), [(0, 1)])
    assert switch(og, [0]).arcs == ((1, 0),)


def test_switch_rejects_out_of_range():
    og = OrientedGraph(Graph(2, [(0, 1)]), [(0, 1)])
    with pytest.raises(ValueError):
        switch(og, [2])


def test_disjoint_union_small():
    k2 = OrientedGraph(Graph(2, [(0, 1)]), [(0, 1)])
    u = disjoint_union(k2, k2)
    assert u.base.n == 4
    assert u.arcs == ((0, 1), (2, 3))


def test_disjoint_union_empty_identity():
    k2 = OrientedGraph(Graph(2, [(0, 1)]), [(0, 1)])
    empty = OrientedGraph(Graph(0, []), [])
    assert disjoint_union(empty, k2) == k2


def test_disjoint_union_of_two_optimum_members():
    u = disjoint_union(orient_family(G1), orient_family(G2))
    assert u.base.n == 14
    assert is_optimum(u)


def test_disjoint_union_preserves_regularity():
    a = orient_family(G1)
    b = orient_family(gi(1))
    assert disjoint_union(a, b).base.is_regular(4)


def _all_walks(g: Graph, start: int, length: int):
    if length == 0:
        yield (start,)
        return
    for rest in _all_walks(g, start, length - 1):
        for w in g.around[rest[-1]]:
            yield rest + (w,)


def walk_sign(og: OrientedGraph, vertices) -> int:
    """Product of the arc signs along a vertex sequence; every step must
    follow an edge."""
    if not vertices:
        raise ValueError("a walk needs at least one vertex")
    entry = arc_signs(og)
    total = 1
    for a, b in zip(vertices, vertices[1:]):
        s = entry.get((a, b), 0)
        if s == 0:
            raise ValueError(f"walk step ({a}, {b}) is not an edge")
        total *= s
    return total


def test_walk_reversal_sign_rule():
    for og in (orient_family(G2), OrientedGraph(
            Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
            [(0, 1), (1, 2), (2, 3), (3, 0)])):
        for length in range(1, 5):
            for start in range(og.base.n):
                for vertices in _all_walks(og.base, start, length):
                    flipped = walk_sign(og, vertices[::-1])
                    sign = walk_sign(og, vertices)
                    expect = sign if length % 2 == 0 else -sign
                    assert flipped == expect


def test_walk_validation():
    og = OrientedGraph(Graph(3, [(0, 1)]), [(0, 1)])
    with pytest.raises(ValueError):
        walk_sign(og, ())
    with pytest.raises(ValueError):
        walk_sign(og, (0, 2))
    assert walk_sign(og, (0, 1, 0)) == -1


def test_graph_equality_and_hash():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 2), (0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Graph(3, [(0, 1)])
