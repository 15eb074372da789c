from __future__ import annotations

import hashlib
import random
import time
from itertools import combinations
from math import gcd

import numpy as np
import pytest

from oracles import brute_force_has_optimum, connected_regular_class_count
from skewopt import (
    C4, G2, K4, Graph, OrientedGraph, SwitchingClassIndex, build_family,
    census, emit_graph6, find_optimum_orientation, gi, hj, is_optimum, isomorphic,
    neighbor_parity_report, orient_family, parse_graph6, switching_classes,
    theorem_crosscheck,
)
from skewopt.cli import run
from skewopt.search import (
    ENUMERATION_ORDER_CAP, _switching_frame, enumerate_connected_k_regular,
)


def complete_graph(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)))


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def two_cliques(n: int) -> Graph:
    edges = list(combinations(range(n), 2))
    edges += [(u + n, v + n) for u, v in combinations(range(n), 2)]
    return Graph(2 * n, edges)


def all_orientations(g: Graph):
    m = g.edge_count
    for mask in range(1 << m):
        yield OrientedGraph(
            g,
            [(u, v) if not (mask >> i) & 1 else (v, u)
             for i, (u, v) in enumerate(g.edges)],
        )


def first_optimum_class(g: Graph, k: int):
    """Arcs of the first class of switching_classes(g) whose Gram is k*I,
    with the Grams of the same assignments taken in numpy batches."""
    tree_arcs, free = _switching_frame(g)
    n, f = g.n, len(free)
    base = np.zeros((n, n))
    for t, h in tree_arcs:
        base[t, h], base[h, t] = 1, -1
    units = np.zeros((f, n, n))
    for i, (a, b) in enumerate(free):
        units[i, a, b], units[i, b, a] = 1, -1
    for start in range(0, 1 << f, 4096):
        assignments = np.arange(start, min(start + 4096, 1 << f))
        signs = 1 - 2 * ((assignments[:, None] >> np.arange(f)) & 1)
        s = base + np.tensordot(signs, units, axes=1)
        optimum = (s.transpose(0, 2, 1) @ s == k * np.eye(n)).all(axis=(1, 2))
        hits = np.flatnonzero(optimum)
        if hits.size:
            index = SwitchingClassIndex(tree_arcs, free, int(assignments[hits[0]]))
            return tuple(sorted(index.arcs()))
    return None


def switch_equivalent(a: OrientedGraph, b: OrientedGraph) -> bool:
    n = a.base.n
    return any(
        a.switch([v for v in range(n) if (mask >> v) & 1]) == b
        for mask in range(1 << n)
    )


def test_switching_class_counts():
    assert len(list(switching_classes(Graph(2, [(0, 1)])))) == 1
    assert len(list(switching_classes(cycle_graph(4)))) == 2
    assert len(list(switching_classes(complete_graph(5)))) == 64


def test_switching_classes_reject_disconnected():
    with pytest.raises(ValueError):
        list(switching_classes(Graph(4, [(0, 1), (2, 3)])))


def test_switching_index_arcs():
    idx = SwitchingClassIndex(
        tree_arcs=((0, 1), (0, 3)), free_edges=((1, 2), (2, 3)), assignment=2
    )
    assert idx.arcs() == ((0, 1), (0, 3), (1, 2), (3, 2))


def test_switching_classes_are_complete_and_distinct():
    # every orientation reaches exactly one representative by switching
    for g in (cycle_graph(4), complete_graph(4)):
        reps = list(switching_classes(g))
        assert all(r.base == g for r in reps)
        assert len(set(reps)) == len(reps)
        for og in all_orientations(g):
            matches = [r for r in reps if switch_equivalent(og, r)]
            assert len(matches) == 1


def test_find_optimum_matches_fixed_orientations():
    found = find_optimum_orientation(build_family(K4), 3)
    assert found is not None and found.arcs == orient_family(K4).arcs
    found = find_optimum_orientation(build_family(C4), 2)
    assert found is not None and found.arcs == orient_family(C4).arcs


def test_find_optimum_negative_cases():
    assert find_optimum_orientation(complete_graph(5), 4) is None
    assert find_optimum_orientation(cycle_graph(6), 2) is None
    with pytest.raises(ValueError):
        find_optimum_orientation(Graph(3, [(0, 1), (1, 2)]), 2)
    with pytest.raises(ValueError):
        find_optimum_orientation(two_cliques(5), 4)
    with pytest.raises(ValueError, match="empty"):
        find_optimum_orientation(Graph(0, []), 4)


def test_find_optimum_exhausts_past_parity_filter():
    # all-pairs parity holds for K6, yet no orientation attains Gram 5I,
    # so the search must reject it after the parity filter
    k6 = complete_graph(6)
    assert neighbor_parity_report(k6, "general-even").passed
    assert find_optimum_orientation(k6, 5) is None


def test_search_agrees_with_exhaustive_orientation_scan():
    cases = [
        (complete_graph(4), 3), (cycle_graph(4), 2), (cycle_graph(6), 2),
        (complete_graph(5), 4), (complete_graph(6), 5),
        (build_family(G2), 4),
    ]
    cases += [(g, 4) for g in enumerate_connected_k_regular(7, 4)]
    for g, k in cases:
        found = find_optimum_orientation(g, k)
        assert (found is not None) == brute_force_has_optimum(g, k)
        if found is not None:
            assert is_optimum(found, k)


def test_witness_is_first_optimum_class():
    # the elimination must return the very class the assignment order puts
    # first, which fixes the witnesses and the census JSON bytes
    cases = [(g, k) for k, top in ((2, 9), (3, 10), (4, 9))
             for n in range(1, top + 1)
             for g in enumerate_connected_k_regular(n, k)]
    cases += [(complete_graph(6), 5),
              (Graph(8, [(i, j) for i in range(4) for j in range(4, 8)]), 4)]
    cases += [(build_family(lb), 4)
              for lb in (gi(1), gi(2), gi(3), hj(1), hj(2), hj(3))]
    optima = 0
    for g, k in cases:
        expected = first_optimum_class(g, k)
        if len(_switching_frame(g)[1]) <= 10:
            direct = next((og.arcs for og in switching_classes(g)
                           if is_optimum(og, k)), None)
            assert direct == expected
        found = find_optimum_orientation(g, k)
        assert (None if found is None else found.arcs) == expected, emit_graph6(g)
        optima += expected is not None
    assert optima == 13


def test_search_scales_polynomially():
    start = time.perf_counter()
    for i in (5, 10, 20, 40):
        for label in (gi(i), hj(i)):
            found = find_optimum_orientation(build_family(label), 4)
            assert found is not None and is_optimum(found, 4), label
    assert time.perf_counter() - start < 3.0


def test_search_survives_relabeling_and_switching():
    rng = random.Random(6)
    for label in (gi(6), hj(6)):
        og = orient_family(label)
        n = og.base.n
        perm = list(range(n))
        rng.shuffle(perm)
        moved = og.relabel(perm).switch([v for v in range(n) if rng.random() < 0.5])
        assert is_optimum(moved, 4)
        found = find_optimum_orientation(moved.base, 4)
        assert found is not None and found.base == moved.base
        assert is_optimum(found, 4)


def test_enumeration_counts():
    # OEIS counts: cubic A002851, quartic A006820, quintic A006821, sextic
    # A006822; the cubic enumeration up to n=12 once took 100 s when its
    # deduplication lost a discriminating key
    frozen = {(5, 4): 1, (6, 4): 1, (7, 4): 2, (8, 4): 6, (9, 4): 16,
              (11, 4): 265, (8, 5): 3, (10, 5): 60, (9, 6): 4, (10, 6): 21,
              (4, 3): 1, (6, 3): 2, (8, 3): 5, (10, 3): 19, (12, 3): 85,
              (2, 1): 1, (4, 1): 0}
    elapsed = 0.0
    for (n, k), want in frozen.items():
        start = time.perf_counter()
        graphs = list(enumerate_connected_k_regular(n, k))
        elapsed += time.perf_counter() - start
        assert len(graphs) == want, (n, k)
        for g in graphs:
            assert g.n == n and g.is_regular(k) and g.is_connected()
        for a, b in combinations(graphs, 2):
            assert isomorphic(a, b) is None
    assert elapsed < 15.0


def test_enumeration_and_census_bytes_are_pinned(capsysbinary):
    # sha256 of the graph6 lines yielded for n = 1..top, and of the census
    # report, as the search printed them before it skipped twin-symmetric
    # branches; the bound holds only with that prune (about 30 s without)
    expected = {
        (3, 12): "b9c43465470bc59ab9add85428dae63af1a3e2949fa465e5c4f2bb08330e9d05",
        (4, 10): "5bdf21b2434a848e49bd5209c811f19f645a4af7cd490974185fa1e0d82d84f8",
        (5, 10): "4148fd27cc7274f4a5d2768ac3f249ce1129cc320e4c09ad39611dba4a004feb",
        (6, 10): "218dfad41b1168e758f19f3da0ca51ed295ebf46856f5d4198144cf571a4b719",
    }
    start = time.perf_counter()
    for (k, top), want in expected.items():
        digest = hashlib.sha256()
        for n in range(1, top + 1):
            for g in enumerate_connected_k_regular(n, k):
                digest.update(emit_graph6(g) + b"\n")
        assert digest.hexdigest() == want, k
    assert time.perf_counter() - start < 10.0
    assert run(["census", "--max-n", "10", "--k", "4"]) == 0
    out = capsysbinary.readouterr().out
    assert hashlib.sha256(out).hexdigest() == (
        "8b792706e8ebe4715d419b2040a9ae0fc512875db76043a1d2bf25321a765c98")


def circulant(n: int, a: int, b: int) -> Graph:
    return Graph(n, [(v, (v + s) % n) for v in range(n) for s in (a, b)])


def test_theorem_holds_on_quartic_circulants_through_thirty():
    # every connected C_n(a, b), 1 <= a < b < n/2, with 10 <= n <= 30
    graphs = [
        circulant(n, a, b)
        for n in range(10, 31)
        for b in range(2, (n + 1) // 2)
        for a in range(1, b)
        if 2 * b != n and gcd(gcd(a, b), n) == 1
    ]
    assert len(graphs) == 784
    start = time.perf_counter()
    records = [theorem_crosscheck(g) for g in graphs]
    assert time.perf_counter() - start < 20.0
    assert all(r.consistent for r in records)
    assert sum(r.optimum_found for r in records) == 33


def test_enumeration_matches_labeled_count_oracle():
    for n, k in ((4, 3), (5, 4), (6, 3), (6, 4), (7, 4)):
        ours = len(list(enumerate_connected_k_regular(n, k)))
        assert ours == connected_regular_class_count(n, k), (n, k)


def test_enumeration_small_degree():
    for n in range(3, 9):
        graphs = list(enumerate_connected_k_regular(n, 2))
        assert len(graphs) == 1
        assert isomorphic(graphs[0], cycle_graph(n)) is not None
    assert list(enumerate_connected_k_regular(1, 0)) == [Graph(1, [])]
    assert list(enumerate_connected_k_regular(2, 0)) == []
    assert list(enumerate_connected_k_regular(5, 3)) == []
    assert list(enumerate_connected_k_regular(4, 4)) == []
    k5 = list(enumerate_connected_k_regular(5, 4))
    assert len(k5) == 1 and k5[0] == complete_graph(5)


def test_enumeration_order_cap():
    with pytest.raises(ValueError, match="graph6"):
        list(enumerate_connected_k_regular(ENUMERATION_ORDER_CAP + 1, 4))
    with pytest.raises(ValueError):
        list(enumerate_connected_k_regular(0, 2))
    with pytest.raises(ValueError):
        list(enumerate_connected_k_regular(4, -1))


def test_census_of_four_regular_graphs_up_to_eight():
    inputs = [g for n in range(5, 9) for g in enumerate_connected_k_regular(n, 4)]
    report = census(inputs, 4)
    assert report.skipped == ()
    assert report.violations == ()
    assert report.totals() == ((5, 1, 0), (6, 1, 1), (7, 2, 0), (8, 6, 2))
    found = sorted(r.classification for r in report.records if r.has_optimum)
    assert found == ["g1", "g2", "hj(1)"]
    for r in report.records:
        assert r.has_optimum == (r.classification is not None)
        if r.has_optimum:
            g = parse_graph6(r.graph6.encode("ascii"))
            assert is_optimum(OrientedGraph(g, r.witness), 4)
        else:
            assert r.witness is None


def test_census_small_degrees():
    two = census((g for n in range(3, 8)
                  for g in enumerate_connected_k_regular(n, 2)), 2)
    assert two.violations == ()
    assert [r.classification for r in two.records if r.has_optimum] == ["c4"]
    three = census((g for n in (4, 6, 8)
                    for g in enumerate_connected_k_regular(n, 3)), 3)
    assert three.violations == ()
    found = sorted(r.classification for r in three.records if r.has_optimum)
    assert found == ["k4", "q3"]


def test_census_past_the_catalogue_records_no_violation():
    # K8 has an optimum orientation at k=7 and K6 none at k=5; there is no
    # catalogue of k-regular members for k >= 5
    for g, k, found in ((complete_graph(8), 7, True), (complete_graph(6), 5, False)):
        (record,) = census([g], k).records
        assert record.has_optimum == found
        assert record.classification is None and not record.violation
        check = theorem_crosscheck(g, k)
        assert check.consistent and check.label is None
        assert check.optimum_found == found


def test_census_skips_bad_inputs():
    inputs = [complete_graph(4), two_cliques(5), Graph(0, []), complete_graph(5)]
    report = census(inputs, 4)
    assert len(report.records) == 1
    reasons = [reason for _, reason in report.skipped]
    assert reasons == ["not 4-regular", "not connected", "empty graph"]


def test_census_workers_validation_and_determinism():
    with pytest.raises(ValueError):
        census([], 4, workers=0)
    inputs = [g for n in range(5, 9) for g in enumerate_connected_k_regular(n, 4)]
    seq = census(inputs, 4)
    par = census(inputs, 4, workers=2)
    assert seq == par


def test_census_members_have_no_violations():
    labels = [G2, gi(1), gi(2), hj(1), hj(2), hj(3)]
    report = census((build_family(lb) for lb in labels), 4)
    assert report.violations == ()
    assert all(r.has_optimum for r in report.records)
    assert [r.classification for r in report.records] == [str(lb) for lb in labels]


def test_random_orientations_stay_in_enumerated_classes():
    # switching preserves the Gram matrix, so a hit in any class certifies
    # the representative; spot-check random orientations land somewhere
    rng = random.Random(3)
    g = cycle_graph(4)
    reps = list(switching_classes(g))
    for _ in range(20):
        arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges]
        og = OrientedGraph(g, arcs)
        assert any(switch_equivalent(og, r) for r in reps)
