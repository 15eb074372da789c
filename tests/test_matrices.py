from __future__ import annotations

import math
import random
import time
from itertools import combinations

import numpy as np
import pytest

from skewopt import (
    C4, G1, G2, G3, K2, K4, Q3, Q4, Graph, OrientedGraph, build_family, gi, gram,
    gram_eigenvalues, hj, int_matrix, is_optimum, orient_family, power,
    skew_adjacency, skew_energy, switching_classes, symmetric_eigenvalues,
)
from skewopt.search import enumerate_connected_k_regular

from oracles import eigenvalues_by_bisection


def _clockwise_c4() -> OrientedGraph:
    return OrientedGraph(
        Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        [(0, 1), (1, 2), (2, 3), (3, 0)],
    )


def _random_orientation(g: Graph, rng: random.Random) -> OrientedGraph:
    return OrientedGraph(
        g, [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges]
    )


def test_skew_adjacency_k2():
    og = OrientedGraph(Graph(2, [(0, 1)]), [(0, 1)])
    assert np.array_equal(skew_adjacency(og), [[0, 1], [-1, 0]])


def test_skew_adjacency_empty_orientation():
    og = OrientedGraph(Graph(3, []), [])
    assert np.array_equal(skew_adjacency(og), np.zeros((3, 3), dtype=np.int64))


def test_skew_adjacency_is_exactly_skew():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(2, 8)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        og = _random_orientation(Graph(n, edges), rng)
        s = skew_adjacency(og)
        assert np.array_equal(s.T, -s)
        assert not np.any(np.diag(s))


def test_skew_adjacency_ordering():
    og = orient_family(G2)
    order = [5, 4, 3, 2, 1, 0]
    s = skew_adjacency(og)
    t = skew_adjacency(og, order)
    for i in range(6):
        for j in range(6):
            assert t[i, j] == s[order[i], order[j]]
    with pytest.raises(ValueError):
        skew_adjacency(og, [0, 0, 1, 2, 3, 4])


def test_gram_k2():
    assert np.array_equal(gram(int_matrix([[0, 1], [-1, 0]])), np.eye(2, dtype=np.int64))


def test_gram_diagonal_is_degree():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(2, 8)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        og = _random_orientation(Graph(n, edges), rng)
        q = gram(skew_adjacency(og))
        assert np.array_equal(q.T, q)
        assert list(np.diag(q)) == og.base.degrees()
        assert min(np.linalg.eigvalsh(q.astype(float))) > -1e-9


def test_power_basics():
    s = int_matrix([[0, 1], [-1, 0]])
    assert np.array_equal(power(s, 1), s)
    assert np.array_equal(power(s, 2), -np.eye(2, dtype=np.int64))
    with pytest.raises(ValueError):
        power(s, 0)
    with pytest.raises(ValueError):
        power(int_matrix([[1, 2, 3]]), 2)


def test_power_g2_square():
    s = skew_adjacency(orient_family(G2))
    assert np.array_equal(power(s, 2), -4 * np.eye(6, dtype=np.int64))


def test_is_optimum_examples():
    k2 = OrientedGraph(Graph(2, [(0, 1)]), [(0, 1)])
    assert is_optimum(k2, 1)
    assert not is_optimum(_clockwise_c4(), 2)
    reversed_one = OrientedGraph(
        Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        [(0, 1), (2, 1), (2, 3), (3, 0)],
    )
    assert is_optimum(reversed_one, 2)
    with pytest.raises(ValueError):
        is_optimum(k2, 0)


def test_is_optimum_matches_matrix_square():
    rng = random.Random(41)
    members = [orient_family(G1), orient_family(G2)]
    candidates = list(members)
    for og in members:
        for _ in range(10):
            s = [v for v in range(og.base.n) if rng.random() < 0.5]
            candidates.append(og.switch(s))
    for g in (build_family(G1), build_family(G2)):
        for _ in range(5):
            candidates.append(_random_orientation(g, rng))
    for og in candidates:
        s = skew_adjacency(og)
        n = og.base.n
        via_square = np.array_equal(power(s, 2), -4 * np.eye(n, dtype=np.int64))
        assert is_optimum(og, 4) == via_square


def test_is_optimum_agrees_with_dense_gram():
    rng = random.Random(17)
    cases = []
    for n, k in ((6, 3), (8, 3), (8, 4), (9, 4), (8, 5), (8, 6)):
        for g in enumerate_connected_k_regular(n, k):
            cases += [_random_orientation(g, rng) for _ in range(3)]
    # members switched at random vertex sets stay optimum; one reversed arc
    # breaks that
    for label in (K2, C4, K4, Q3, G1, G2, G3, Q4, gi(1), hj(1), hj(2)):
        og = orient_family(label)
        for _ in range(5):
            switched = og.switch([v for v in range(og.base.n) if rng.random() < 0.5])
            arcs = list(switched.arcs)
            arcs[0] = arcs[0][::-1]
            cases += [switched, OrientedGraph(og.base, arcs)]
    for m in range(1, 7):
        star = Graph(m + 1, [(0, v) for v in range(1, m + 1)])
        path = Graph(m + 1, [(v, v + 1) for v in range(m)])
        cases += [_random_orientation(star, rng), _random_orientation(path, rng),
                  OrientedGraph(Graph(m, []), [])]
    cases.append(OrientedGraph(Graph(5, [(0, 1), (2, 3)]), [(1, 0), (2, 3)]))
    hits = 0
    for og in cases:
        s = skew_adjacency(og)
        for k in range(1, 8):
            dense = np.array_equal(gram(s), k * np.eye(og.base.n, dtype=np.int64))
            assert is_optimum(og, k) == dense, (og.arcs, k)
            hits += dense
    assert hits >= 55  # every switched member


def test_is_optimum_at_two_thousand_vertices():
    og = orient_family(hj(499))
    assert og.base.n == 2000
    start = time.perf_counter()
    assert is_optimum(og, 4)
    arcs = list(og.arcs)
    arcs[0] = arcs[0][::-1]
    assert not is_optimum(OrientedGraph(og.base, arcs), 4)
    assert time.perf_counter() - start < 1.0


def test_symmetric_eigenvalues_trivial():
    assert symmetric_eigenvalues(np.eye(3)) == [1.0, 1.0, 1.0]
    got = symmetric_eigenvalues(np.diag([4.0, 1.0, 0.0]))
    assert got == [4.0, 1.0, 0.0]


def test_symmetric_eigenvalues_gram_g1():
    quad = gram(skew_adjacency(orient_family(G1)))
    got = symmetric_eigenvalues(quad)
    assert len(got) == 8
    assert all(abs(x - 4.0) < 1e-10 for x in got)


def test_symmetric_eigenvalues_rejects_non_symmetric():
    with pytest.raises(ValueError):
        symmetric_eigenvalues(int_matrix([[0, 1], [-1, 0]]))
    with pytest.raises(ValueError):
        symmetric_eigenvalues(int_matrix([[1, 2, 3], [4, 5, 6]]))


def test_symmetric_eigenvalues_against_charpoly_bisection():
    rng = random.Random(97)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-2, 2)
        got = symmetric_eigenvalues(int_matrix(m))
        want = eigenvalues_by_bisection(m)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-8


def test_symmetric_eigenvalues_sum_is_trace():
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randint(2, 12)
        m = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.uniform(-3, 3)
        got = symmetric_eigenvalues(m)
        assert got == sorted(got, reverse=True)
        assert abs(sum(got) - np.trace(m)) < 1e-8


def test_gram_eigenvalues_of_member():
    vals = gram_eigenvalues(orient_family(G2))
    assert len(vals) == 6
    assert all(abs(v - 4.0) < 1e-10 for v in vals)
    assert all(v >= 0 for v in vals)


def test_skew_energy_k2():
    summary = skew_energy(OrientedGraph(Graph(2, [(0, 1)]), [(0, 1)]))
    assert abs(summary.skew_energy - 2.0) < 1e-12
    assert abs(summary.upper_bound - 2.0) < 1e-12
    assert summary.attains_bound()


def test_skew_energy_g1():
    summary = skew_energy(orient_family(G1))
    assert abs(summary.skew_energy - 16.0) < 1e-8
    assert abs(summary.upper_bound - 16.0) < 1e-12
    assert summary.attains_bound()


def test_skew_energy_directed_path():
    og = OrientedGraph(Graph(3, [(0, 1), (1, 2)]), [(0, 1), (1, 2)])
    summary = skew_energy(og)
    assert abs(summary.skew_energy - 2.0 * math.sqrt(2.0)) < 1e-10
    assert abs(summary.upper_bound - 3.0 * math.sqrt(2.0)) < 1e-12
    assert not summary.attains_bound()


def test_skew_energy_never_exceeds_bound():
    rng = random.Random(67)
    checked = 0
    for n, k in [(5, 4), (6, 4), (7, 4), (8, 3), (6, 2), (4, 3)]:
        g = Graph(n, combinations(range(n), 2)) if k == n - 1 else None
        base_graphs = [g] if g else []
        if not base_graphs:
            from skewopt import enumerate_connected_k_regular
            base_graphs = list(enumerate_connected_k_regular(n, k))
        for base in base_graphs:
            for _ in range(5):
                og = _random_orientation(base, rng)
                summary = skew_energy(og)
                assert summary.skew_energy <= summary.upper_bound + 1e-8
                checked += 1
    assert checked >= 50


def test_skew_energy_of_trees_in_closed_form():
    # every orientation of a tree has the graph's energy; stars and odd paths
    # have a zero eigenvalue, so S is singular
    rng = random.Random(83)
    for m in range(2, 41):
        star = Graph(m + 1, [(0, i) for i in range(1, m + 1)])
        summary = skew_energy(_random_orientation(star, rng))
        want = 2.0 * math.sqrt(m)
        assert abs(summary.skew_energy - want) <= 1e-12 * want, m
        mus = list(summary.gram_eigenvalues)
        assert mus == sorted(mus, reverse=True) and min(mus) >= 0.0
    for n in range(3, 60, 2):
        path = Graph(n, [(i, i + 1) for i in range(n - 1)])
        want = sum(abs(2.0 * math.cos(math.pi * j / (n + 1))) for j in range(1, n + 1))
        got = skew_energy(_random_orientation(path, rng)).skew_energy
        assert abs(got - want) <= 1e-12 * want, n


def test_switch_preserves_optimum():
    rng = random.Random(71)
    og = orient_family(G1)
    non_opt = next(
        o for o in switching_classes(build_family(G1)) if not is_optimum(o, 4)
    )
    for _ in range(50):
        s = [v for v in range(8) if rng.random() < 0.5]
        assert is_optimum(og.switch(s), 4)
        assert not is_optimum(non_opt.switch(s), 4)
