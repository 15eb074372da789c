from __future__ import annotations

import random
from itertools import combinations

import networkx as nx
import pytest

from oracles import (
    neighbor_parity_violations, signed_walk_counts, two_walk_balanced,
    walk_identity_holds,
)
from skewopt import (
    G1, G2, Graph, OrientedGraph, gi, hj, is_optimum, neighbor_parity_report,
    orient_family,
)
from skewopt.search import enumerate_connected_k_regular


def complete_graph(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)))


def random_orientation(g: Graph, rng: random.Random) -> OrientedGraph:
    arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges]
    return OrientedGraph(g, arcs)


def test_parity_k5_fails_four_regular():
    report = neighbor_parity_report(complete_graph(5))
    assert not report.passed
    # every pair is adjacent with three shared neighbors
    assert len(report.violations) == 10
    for u, v, count, adjacent in report.violations:
        assert u < v and count == 3 and adjacent


def test_parity_g1_passes_four_regular():
    report = neighbor_parity_report(orient_family(G1).base)
    assert report.passed
    assert report.violations == ()


def test_parity_members_pass_four_regular():
    for label in (G2, gi(1), gi(3), hj(1), hj(2)):
        g = orient_family(label).base
        assert neighbor_parity_report(g).passed


def test_parity_general_even():
    assert neighbor_parity_report(Graph(2, [(0, 1)])).passed
    triangle = complete_graph(3)
    report = neighbor_parity_report(triangle)
    assert not report.passed
    assert report.violations == ((0, 1, 1, True), (0, 2, 1, True), (1, 2, 1, True))


def test_parity_report_agrees_with_pair_loop():
    # the report scans distance-2 pairs with bitsets; the oracle counts the
    # common neighbours of every pair, so both must list the same violations
    # in the same order. On a simple 4-regular graph the report's evenness
    # rule is also the oracle's four-regular rule (adjacent pairs 0 or 2,
    # non-adjacent pairs 0, 2 or 4).
    rng = random.Random(13)
    graphs = [g for k, top in ((3, 10), (4, 9), (5, 10), (6, 10))
              for n in range(k + 1, top + 1)
              for g in enumerate_connected_k_regular(n, k)]
    graphs += [orient_family(label).base for label in (G1, G2, gi(2), hj(3))]
    for n in (10, 21, 40, 77):
        seed = rng.randrange(1 << 30)
        graphs.append(Graph(n, nx.random_regular_graph(4, n, seed=seed).edges))
        p = rng.choice((0.1, 0.3, 0.6))
        graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    checked = {"general-even": 0, "four-regular": 0}
    for g in graphs:
        got = neighbor_parity_report(g).violations
        for mode in checked if g.is_regular(4) else ("general-even",):
            assert got == neighbor_parity_violations(g.n, g.edges, mode), (g, mode)
            checked[mode] += bool(got)
    # both modes saw graphs with violations, not only passing ones
    assert min(checked.values()) >= 5, checked


def test_signed_walk_counts_single_edge():
    og = OrientedGraph(Graph(2, [(0, 1)]), [(0, 1)])
    counts = signed_walk_counts(og, 0, 1, 1)
    assert (counts.positive, counts.negative) == (1, 0)
    assert counts.total == 1 and counts.difference == 1
    back = signed_walk_counts(og, 1, 0, 1)
    assert (back.positive, back.negative) == (0, 1)
    assert signed_walk_counts(og, 0, 1, 2).total == 0


def test_signed_walk_counts_directed_triangle():
    og = OrientedGraph(complete_graph(3), [(0, 1), (1, 2), (2, 0)])
    counts = signed_walk_counts(og, 0, 2, 2)
    assert (counts.positive, counts.negative) == (1, 0)


def test_signed_walk_counts_on_balanced_member():
    og = orient_family(G2)
    for u in range(6):
        for v in range(6):
            counts = signed_walk_counts(og, u, v, 2)
            if u == v:
                assert (counts.positive, counts.negative) == (0, 4)
            else:
                assert counts.positive == counts.negative


def test_signed_walk_counts_validation():
    og = OrientedGraph(Graph(2, [(0, 1)]), [(0, 1)])
    with pytest.raises(ValueError):
        signed_walk_counts(og, 0, 2, 1)
    with pytest.raises(ValueError):
        signed_walk_counts(og, -1, 1, 1)
    with pytest.raises(ValueError):
        signed_walk_counts(og, 0, 1, 0)
    with pytest.raises(ValueError):
        signed_walk_counts(og, 0, 1, 9)


def test_walk_identity_small_cases():
    og = OrientedGraph(Graph(2, [(0, 1)]), [(0, 1)])
    assert walk_identity_holds(og, 4)
    assert walk_identity_holds(orient_family(G1), 3)
    with pytest.raises(ValueError):
        walk_identity_holds(og, 0)
    with pytest.raises(ValueError):
        walk_identity_holds(og, 9)


def test_walk_identity_random_orientations():
    rng = random.Random(7)
    pool = [g for n in range(4, 7) for g in enumerate_connected_k_regular(n, 3)]
    pool += list(enumerate_connected_k_regular(5, 4))
    for g in pool:
        assert walk_identity_holds(random_orientation(g, rng), 4)


def test_two_walk_balanced_members_and_counterexamples():
    assert two_walk_balanced(orient_family(hj(2)))
    assert two_walk_balanced(OrientedGraph(Graph(2, [(0, 1)]), [(0, 1)]))
    ring = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    clockwise = OrientedGraph(ring, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert not two_walk_balanced(clockwise)
    path = OrientedGraph(Graph(3, [(0, 1), (1, 2)]), [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        two_walk_balanced(path)


def test_two_walk_balance_matches_gram_condition():
    # walk-level balance and the exact matrix condition must never disagree
    rng = random.Random(11)
    cases = [g for n in (5, 6, 7) for g in enumerate_connected_k_regular(n, 4)]
    cases += enumerate_connected_k_regular(6, 3)
    cases += [Graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in (4, 5, 6)]
    for g in cases:
        for _ in range(8):
            og = random_orientation(g, rng)
            assert two_walk_balanced(og) == is_optimum(og)
