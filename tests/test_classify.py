from __future__ import annotations

import importlib
import random
import time
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from oracles import is_isomorphism, relabel
from skewopt import (
    C4, G1, G2, G3, K2, K4, Q3, Q4, FamilyLabel, Graph, build_family,
    candidate_members, classify, enumerate_connected_k_regular, family_order,
    gi, hj, isomorphic, parse_graph6, theorem_crosscheck,
)

classify_module = importlib.import_module("skewopt.classify")


def complete_graph(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)))


def shuffled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def two_switched(g: Graph, rng: random.Random, times: int) -> Graph:
    """Replace edges ab, cd by ac, bd (a, b, c, d distinct, ac and bd
    absent) `times` times; degrees are kept."""
    edges = set(g.edges)
    for _ in range(times):
        while True:
            (a, b), (c, d) = rng.sample(sorted(edges), 2)
            if rng.random() < 0.5:
                c, d = d, c
            ac, bd = tuple(sorted((a, c))), tuple(sorted((b, d)))
            if len({a, b, c, d}) == 4 and ac not in edges and bd not in edges:
                break
        edges -= {(a, b), tuple(sorted((c, d)))}
        edges |= {ac, bd}
    return Graph(g.n, edges)


def spectrum(g: Graph) -> np.ndarray:
    adj = np.zeros((g.n, g.n))
    for u, v in g.edges:
        adj[u, v] = adj[v, u] = 1.0
    return np.round(np.linalg.eigvalsh(adj), 6)


ALL_MEMBERS = [G1, G2, G3, Q4] + [gi(i) for i in range(1, 6)] + [
    hj(j) for j in range(1, 6)
]


def test_members_classify_to_their_labels():
    for label in ALL_MEMBERS:
        result = classify(build_family(label))
        assert result.label == label


def test_classification_survives_relabeling():
    rng = random.Random(19)
    for label in ALL_MEMBERS:
        g = build_family(label)
        for _ in range(3):
            result = classify(shuffled(g, rng))
            assert result.label == label


def test_certificate_is_adjacency_preserving():
    # every census graph up to n = 10, relabeled gi/hj members up to n = 60
    # and the members of degree below 4, each classified twice: once with
    # the member certificates cleared and once from the cache
    rng = random.Random(23)
    inputs = [g for n in range(1, 11) for g in enumerate_connected_k_regular(n, 4)]
    inputs += [shuffled(build_family(label), rng) for label in (
        [G1, G2, G3, Q4] + [gi(i) for i in range(1, 14)] + [hj(j) for j in range(1, 15)]
        + [K2, C4, K4, Q3])]
    members = 0
    for g in inputs:
        classify_module._member_certificate.cache_clear()
        results = [classify(g), classify(g)]
        # the second call reads every certificate the first one built
        info = classify_module._member_certificate.cache_info()
        assert info.hits == info.misses
        for result in results:
            if result.label is None:
                assert result.certificate is None
                continue
            assert is_isomorphism(g, build_family(result.label), result.certificate)
            members += 1
    # the census members are g2, g1, hj(1) and gi(1)
    assert members == 2 * (len(inputs) - 85 + 4)


def test_candidate_members_by_order():
    assert candidate_members(6, 4) == [G2]
    assert candidate_members(7, 4) == []
    assert candidate_members(8, 4) == [G1, hj(1)]
    assert candidate_members(10, 4) == [gi(1)]
    assert candidate_members(12, 4) == [hj(2)]
    assert candidate_members(14, 4) == [G3, gi(2)]
    assert candidate_members(16, 4) == [Q4, hj(3)]
    assert candidate_members(5, 4) == []
    for n in range(6, 40):
        labels = candidate_members(n, 4)
        assert len(labels) == len(set(labels))
        for label in labels:
            assert build_family(label).n == n
    # the lookup inverts family_order: every member is found from its own
    # order and degree, and every candidate has the order and degree asked for
    for label in [G1, G2, G3, Q4, K2, C4, K4, Q3] + [
            f(i) for f in (gi, hj) for i in range(1, 41)]:
        assert label in candidate_members(family_order(label), label.regularity), label
    for k in range(1, 5):
        for n in range(201):
            for label in candidate_members(n, k):
                assert (family_order(label), label.regularity) == (n, k), (n, k, label)


def test_small_degree_members_classify():
    assert candidate_members(2, 1) == [K2]
    assert candidate_members(4, 2) == [C4]
    assert candidate_members(4, 3) == [K4]
    assert candidate_members(8, 3) == [Q3]
    assert candidate_members(6, 3) == []
    rng = random.Random(37)
    for label in (K2, C4, K4, Q3):
        assert classify(shuffled(build_family(label), rng)).label == label
    assert classify(Graph(5, [(i, (i + 1) % 5) for i in range(5)])).label is None
    with pytest.raises(ValueError):
        candidate_members(8, 7)
    with pytest.raises(ValueError):
        classify(complete_graph(8))


def test_same_order_members_are_distinct():
    for a, b in ((G3, gi(2)), (G1, hj(1)), (Q4, hj(3))):
        assert isomorphic(build_family(a), build_family(b)) is None


def test_isomorphic_finds_self_relabelings():
    rng = random.Random(29)
    for label in (G2, Q3, gi(1)):
        g = build_family(label)
        h = shuffled(g, rng)
        mapping = isomorphic(g, h)
        assert mapping is not None
        assert is_isomorphism(g, h, mapping)
    assert isomorphic(Graph(0), Graph(0)) == ()


def test_isomorphic_rejects_structural_lookalikes():
    assert isomorphic(build_family(Q3), build_family(hj(1))) is None
    # same order, size, and degree sequence; only the cycle structure differs
    hexagon = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert isomorphic(hexagon, triangles) is None


def test_isomorphic_agrees_with_networkx():
    # relabelings, and relabeled members with one or two 2-switches, which
    # may be disconnected or land back in the member's class; pairs with
    # different adjacency spectra are not isomorphic, and networkx decides
    # the rest (its matchers take seconds on some non-isomorphic pairs)
    rng = random.Random(43)
    labels = [C4, Q3, G1, G2, G3, Q4] + [
        label for i in range(1, 7) for label in (gi(i), hj(i))
        if family_order(label) <= 30
    ]
    hits = misses = 0
    for label in labels:
        g = build_family(label)
        for times in (0, 0, 1, 1, 2, 2):
            h = shuffled(two_switched(g, rng, times), rng)
            for a, b in ((g, h), (h, shuffled(h, rng))):
                mapping = isomorphic(a, b)
                want = np.array_equal(spectrum(a), spectrum(b)) and nx.is_isomorphic(
                    nx.Graph(a.edges), nx.Graph(b.edges))
                assert (mapping is not None) == want, (label, times)
                if mapping is not None:
                    assert is_isomorphism(a, b, mapping)
                hits += want
                misses += not want
    assert hits > 100 and misses > 40


def test_near_misses_are_rejected_in_bounded_time():
    # one or two 2-switches of every member up to n = 56, relabeled; a
    # different adjacency spectrum certifies that the pair is not isomorphic
    rng = random.Random(47)
    labels = [G1, G2, G3, Q4] + [gi(i) for i in range(1, 13)] + [
        hj(j) for j in range(1, 14)]
    rejected = 0
    elapsed = 0.0
    for label in labels:
        g = build_family(label)
        for times in (1, 1, 1, 2, 2, 2):
            h = shuffled(two_switched(g, rng, times), rng)
            start = time.perf_counter()
            mapping = isomorphic(g, h)
            elapsed += time.perf_counter() - start
            if np.array_equal(spectrum(g), spectrum(h)):
                assert mapping is None or is_isomorphism(g, h, mapping)
            else:
                assert mapping is None
                rejected += 1
    assert rejected >= 160
    assert elapsed < 5.0


def signatures(g: Graph) -> list:
    return classify_module._colouring(g.adj, g.around)[1]


def test_members_colour_uniformly():
    # the matcher works on one colouring with no refinement rounds, which
    # could split no colour class of a one-colour graph; a member that
    # colours unevenly is named here, since classify may backtrack more on it
    labels = [G1, G2, G3, Q4, K2, C4, K4, Q3] + [
        f(i) for f in (gi, hj) for i in range(1, 41)]
    uneven = [label for label in labels
              if len(set(signatures(build_family(label)))) != 1]
    assert uneven == []


@pytest.mark.parametrize("text, label", [
    # seeded 2-switches of g3 and hj(2), both connected
    ("Ms`aaOoI?o?r@[?y?", G3),
    ("K]q@`gKBAD_]", hj(2)),
])
def test_matcher_alone_rejects_lookalikes(text, label):
    h = parse_graph6(text.encode("ascii"))
    member = build_family(label)
    assert h.defect(4) is None
    assert label in candidate_members(h.n, 4)
    # the colouring cannot tell them apart, so the rejection is the matcher's
    assert signatures(h) == signatures(member)
    assert classify(h).label is None
    assert isomorphic(member, h) is None
    assert not nx.is_isomorphic(nx.Graph(member.edges), nx.Graph(h.edges))


def test_classify_rejects_bad_inputs():
    # k is the largest degree, so K4 is judged as a cubic graph and answers
    assert classify(complete_graph(4)).label == K4
    edges = list(combinations(range(5), 2))
    edges += [(u + 5, v + 5) for u, v in combinations(range(5), 2)]
    with pytest.raises(ValueError, match="not connected"):
        classify(Graph(10, edges))
    with pytest.raises(ValueError, match="not 2-regular"):
        classify(Graph(3, [(0, 1), (1, 2)]))
    # there is no catalogue of 0- or 5-regular members
    for g in (Graph(1, []), complete_graph(6)):
        with pytest.raises(ValueError, match="no catalogue"):
            classify(g)
    # the empty graph is vacuously regular and connected; that is no answer
    with pytest.raises(ValueError, match="empty"):
        classify(Graph(0, []))


def test_classify_nonmember():
    result = classify(complete_graph(5))
    assert result.label is None and result.certificate is None


def test_theorem_crosscheck_member_and_nonmember():
    record = theorem_crosscheck(build_family(G1))
    assert not record.violation
    assert record.classification == str(G1) and record.has_optimum
    assert record.witness is not None
    record = theorem_crosscheck(complete_graph(5))
    assert not record.violation
    assert record.classification is None and not record.has_optimum
    assert record.witness is None
    # k is read off the graph, so the paper's cubic answer, K4 and Q3, comes
    # with no k given, as do K2 and C4
    for label in (K2, C4, K4, Q3):
        record = theorem_crosscheck(build_family(label))
        assert record.classification == str(label), label
        assert record.has_optimum and not record.violation, label


def test_label_ordering_is_stable():
    assert sorted([hj(1), G1]) == [FamilyLabel("g1"), hj(1)]
