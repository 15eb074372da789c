from __future__ import annotations

import gc
import hashlib
import random
import time
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_has_optimum, connected_regular_class_count, first_touch_code,
    relabel_oriented, row_fill_optimum, smaller_first_touch_relabeling, switch,
    switching_classes, switching_frame,
)
from skewopt import (
    C4, G2, K4, Graph, OrientedGraph, build_family, candidate_members, census,
    classify, emit_arclist, emit_graph6, find_optimum_orientation, gi, hj,
    is_optimum, isomorphic, neighbor_parity_report, orient_family,
    parse_graph6, theorem_crosscheck,
)
from skewopt.cli import run
from skewopt.search import ENUMERATION_ORDER_CAP, enumerate_connected_k_regular


def complete_graph(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)))


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def two_cliques(n: int) -> Graph:
    edges = list(combinations(range(n), 2))
    edges += [(u + n, v + n) for u, v in combinations(range(n), 2)]
    return Graph(2 * n, edges)


def walk_invariant(g: Graph):
    """The sorted multiset over vertices v of (sorted row v of A^2, (A^3)[v, v],
    sorted row v of A^3): exact integers, unchanged by relabeling, and unlike
    1-WL colours it separates regular graphs of one order and degree."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1
    a2 = a @ a
    a3 = (a2 @ a).tolist()
    a2 = a2.tolist()
    return tuple(sorted(
        (tuple(sorted(a2[v])), a3[v][v], tuple(sorted(a3[v]))) for v in range(g.n)
    ))


def all_orientations(g: Graph):
    m = len(g.edges)
    for mask in range(1 << m):
        yield OrientedGraph(
            g,
            [(u, v) if not (mask >> i) & 1 else (v, u)
             for i, (u, v) in enumerate(g.edges)],
        )


def first_optimum_class(g: Graph, k: int):
    """Arcs of the first class of the oracle's switching_classes(g) whose
    Gram is k*I, with the Grams of those assignments taken in numpy batches."""
    tree_arcs, free = switching_frame(g)
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
            assignment = int(assignments[hits[0]])
            free_arcs = [(b, a) if (assignment >> i) & 1 else (a, b)
                         for i, (a, b) in enumerate(free)]
            return tuple(sorted([*tree_arcs, *free_arcs]))
    return None


def switch_equivalent(a: OrientedGraph, b: OrientedGraph) -> bool:
    n = a.base.n
    return any(
        switch(a, [v for v in range(n) if (mask >> v) & 1]) == b
        for mask in range(1 << n)
    )


def test_switching_class_counts():
    assert len(list(switching_classes(Graph(2, [(0, 1)])))) == 1
    assert len(list(switching_classes(cycle_graph(4)))) == 2
    assert len(list(switching_classes(complete_graph(5)))) == 64


def test_switching_classes_reject_disconnected():
    with pytest.raises(ValueError):
        list(switching_classes(Graph(4, [(0, 1), (2, 3)])))


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
    found = find_optimum_orientation(build_family(K4))
    assert found is not None and found.arcs == orient_family(K4).arcs
    found = find_optimum_orientation(build_family(C4))
    assert found is not None and found.arcs == orient_family(C4).arcs


def test_find_optimum_negative_cases():
    assert find_optimum_orientation(complete_graph(5)) is None
    assert find_optimum_orientation(cycle_graph(6)) is None
    with pytest.raises(ValueError):
        find_optimum_orientation(Graph(3, [(0, 1), (1, 2)]))
    with pytest.raises(ValueError):
        find_optimum_orientation(two_cliques(5))
    with pytest.raises(ValueError, match="empty"):
        find_optimum_orientation(Graph(0, []))


def test_find_optimum_exhausts_past_parity_filter():
    # all-pairs parity holds for K6, yet no orientation attains Gram 5I,
    # so the search must reject it after the parity filter
    k6 = complete_graph(6)
    assert neighbor_parity_report(k6).passed
    assert find_optimum_orientation(k6) is None


def test_search_agrees_with_exhaustive_orientation_scan():
    cases = [
        (complete_graph(4), 3), (cycle_graph(4), 2), (cycle_graph(6), 2),
        (complete_graph(5), 4), (complete_graph(6), 5),
        (build_family(G2), 4),
    ]
    cases += [(g, 4) for g in enumerate_connected_k_regular(7, 4)]
    for g, k in cases:
        found = find_optimum_orientation(g)
        assert (found is not None) == brute_force_has_optimum(g, k)
        if found is not None:
            assert is_optimum(found)


def test_search_agrees_with_row_by_row_fill():
    # CP(5), K10 minus a perfect matching, passes the parity filter and its
    # GF(2) system is consistent: only the exhausted descent rejects it
    cocktail_party = parse_graph6(b"I~~v]}~^w")
    assert cocktail_party.is_regular(8) and len(cocktail_party.edges) == 40
    assert neighbor_parity_report(cocktail_party).passed
    assert row_fill_optimum(cocktail_party) is None
    assert find_optimum_orientation(cocktail_party) is None
    graphs = [g for k, top in ((1, 8), (2, 10), (3, 10), (4, 10), (5, 10), (6, 9))
              for n in range(1, top + 1)
              for g in enumerate_connected_k_regular(n, k)]
    graphs += [Graph(2 * m, [(i, m + j) for i in range(m) for j in range(m)])
               for m in range(2, 7)]
    graphs.append(cocktail_party)
    found = 0
    for g in graphs:
        filled = row_fill_optimum(g)
        assert (filled is None) == (find_optimum_orientation(g) is None), emit_graph6(g)
        if filled is not None:
            assert is_optimum(filled), emit_graph6(g)
            found += 1
    assert (len(graphs), found) == (197, 12)


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
        if len(switching_frame(g)[1]) <= 10:
            direct = next((og.arcs for og in switching_classes(g)
                           if is_optimum(og)), None)
            assert direct == expected
        found = find_optimum_orientation(g)
        assert (None if found is None else found.arcs) == expected, emit_graph6(g)
        optima += expected is not None
    assert optima == 13


def test_witnesses_are_pinned():
    # sha256 of each graph's graph6 line followed by its witness arc list, or
    # "-" when it has none: every census class of these orders, then every
    # catalogue member of order <= 60
    graphs = [g for k, top in ((1, 10), (2, 10), (3, 12), (4, 10), (5, 10), (6, 10))
              for n in range(1, top + 1)
              for g in enumerate_connected_k_regular(n, k)]
    graphs += [build_family(label) for n in range(1, 61) for k in range(1, 5)
               for label in candidate_members(n, k)]
    digest = hashlib.sha256()
    witnesses = 0
    for g in graphs:
        found = find_optimum_orientation(g)
        digest.update(emit_graph6(g) + b"\n")
        digest.update(b"-\n" if found is None else emit_arclist(found))
        witnesses += found is not None
    assert (len(graphs), witnesses) == (332, 45)
    assert digest.hexdigest() == (
        "1cbaf93c0f259df73311720ee0ca9041b4973e42afa6b51d46e5b484c9dea270")


def test_complete_bipartite_optimum_iff_hadamard_order():
    # K_{m,m} has an optimum orientation exactly when a Hadamard matrix of
    # order m exists: m = 1, 2 or a multiple of 4 through 12. Two vertices
    # on one side share m neighbours, the most counted terms any test reaches.
    start = time.perf_counter()
    for m in range(1, 13):
        g = Graph(2 * m, [(i, m + j) for i in range(m) for j in range(m)])
        found = find_optimum_orientation(g)
        assert (found is not None) == (m in (1, 2) or m % 4 == 0), m
        if found is not None:
            assert is_optimum(found), m
        if m <= 4:
            direct = next((og.arcs for og in switching_classes(g)
                           if is_optimum(og)), None)
            assert (None if found is None else found.arcs) == direct, m
    assert time.perf_counter() - start < 1.0


def test_search_scales_polynomially():
    start = time.perf_counter()
    for i in (5, 10, 20, 40):
        for label in (gi(i), hj(i)):
            found = find_optimum_orientation(build_family(label))
            assert found is not None and is_optimum(found), label
    assert time.perf_counter() - start < 3.0


def test_search_survives_relabeling_and_switching():
    rng = random.Random(6)
    for label in (gi(6), hj(6)):
        og = orient_family(label)
        n = og.base.n
        perm = list(range(n))
        rng.shuffle(perm)
        moved = switch(relabel_oriented(og, perm),
                       [v for v in range(n) if rng.random() < 0.5])
        assert is_optimum(moved)
        found = find_optimum_orientation(moved.base)
        assert found is not None and found.base == moved.base
        assert is_optimum(found)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.sampled_from([lb for n in range(61) for lb in candidate_members(n, 4)]),
       st.data())
def test_answers_survive_relabeling_and_switching_to_sixty(label, data):
    og = orient_family(label)
    n = og.base.n
    perm = data.draw(st.permutations(range(n)))
    moved = switch(relabel_oriented(og, perm),
                   data.draw(st.sets(st.integers(0, n - 1))))
    assert is_optimum(moved)
    g = moved.base
    found = find_optimum_orientation(g)
    assert found is not None and found.base == g and is_optimum(found)
    assert classify(g).label == label
    # a 2-switch, ab and cd to ac and bd, keeps the graph 4-regular
    (a, b), (c, d) = data.draw(
        st.lists(st.sampled_from(g.edges), min_size=2, max_size=2, unique=True))
    if data.draw(st.booleans()):
        c, d = d, c
    ac, bd = (min(a, c), max(a, c)), (min(b, d), max(b, d))
    edges = set(g.edges)
    assume(len({a, b, c, d}) == 4 and ac not in edges and bd not in edges)
    near = Graph(n, edges - {(a, b), (min(c, d), max(c, d))} | {ac, bd})
    assume(near.is_connected())
    assert not theorem_crosscheck(near).violation


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
        # isomorphic graphs share their walk invariant, so only graphs in one
        # bucket need the pairwise check
        buckets = {}
        for g in graphs:
            buckets.setdefault(walk_invariant(g), []).append(g)
        for bucket in buckets.values():
            for a, b in combinations(bucket, 2):
                assert isomorphic(a, b) is None
    assert elapsed < 15.0


def test_enumeration_and_census_bytes_are_pinned(capsysbinary):
    # sha256 of the graph6 lines yielded for n = 1..top, and of the census
    # report, as the search printed them before it skipped twin-symmetric
    # branches; (4, 11) was taken later, with the twin prune but before the
    # first-round buckets and the degree cut, (4, 12) before the root-edge
    # cut, and k = 1, 2, 7 and 8 before the vertex-2 cut (k = 1 reaches
    # n = 2, where vertex 2 does not exist). The vertex-2 cut left every
    # digest as it was. The bound holds only with the twin prune and the
    # root-edge cut (about 24 s without the latter)
    expected = {
        (3, 12): "b9c43465470bc59ab9add85428dae63af1a3e2949fa465e5c4f2bb08330e9d05",
        (4, 10): "5bdf21b2434a848e49bd5209c811f19f645a4af7cd490974185fa1e0d82d84f8",
        (4, 11): "33049e10dfd4de515655e35267064c2dcb32fc67e4ec09d8891856abb0ea1bfc",
        (4, 12): "7541d69dca9e3e0a706cc1123536db49e01804c278570400e8a61cc1167fbde9",
        (5, 10): "4148fd27cc7274f4a5d2768ac3f249ce1129cc320e4c09ad39611dba4a004feb",
        (6, 10): "218dfad41b1168e758f19f3da0ca51ed295ebf46856f5d4198144cf571a4b719",
        (1, 10): "fae4bfc454bd04363dcd5222772f2973b1193e1ff6f676e822a427323a677ef9",
        (2, 10): "d01211080cfa240db0be9bbe312593709fa6a92991f4ac79311b7d83082f1011",
        (7, 10): "30f7a4a4fa38fdb004d049c199aea32f5c5c2a08315363845648080c3874a110",
        (8, 10): "e9b1eb21a55d172e60c40d64b3265d91d8909425bccb6d5c45255ce5301a701d",
    }
    start = time.perf_counter()
    for (k, top), want in expected.items():
        digest = hashlib.sha256()
        for n in range(1, top + 1):
            count = 0
            for g in enumerate_connected_k_regular(n, k):
                digest.update(emit_graph6(g) + b"\n")
                count += 1
        assert digest.hexdigest() == want, (k, top)
        if (k, top) == (4, 12):
            assert count == 1544  # A006820
    assert time.perf_counter() - start < 10.0
    assert run(["census", "--max-n", "10", "--k", "4"]) == 0
    out = capsysbinary.readouterr().out
    assert hashlib.sha256(out).hexdigest() == (
        "8b792706e8ebe4715d419b2040a9ae0fc512875db76043a1d2bf25321a765c98")


def test_first_edge_has_the_most_common_neighbours():
    # the root-edge cut keeps only completions whose edge (0, 1) has the
    # largest common-neighbour count of any edge; the search yielded such
    # representatives before the cut existed, which this checks on plain
    # neighbour sets
    checked = 0
    for k, top in ((3, 12), (4, 11), (5, 10), (6, 10)):
        for n in range(1, top + 1):
            for g in enumerate_connected_k_regular(n, k):
                nbrs = [set() for _ in range(n)]
                for u, v in g.edges:
                    nbrs[u].add(v)
                    nbrs[v].add(u)
                assert 1 in nbrs[0], (k, n)
                root = len(nbrs[0] & nbrs[1])
                assert all(len(nbrs[u] & nbrs[v]) <= root for u, v in g.edges), (
                    k, n, emit_graph6(g))
                checked += 1
    assert checked == 112 + 350 + 64 + 27  # classes of orders up to top


def test_third_vertex_sees_the_most_of_the_first_edge():
    # the vertex-2 cut keeps only completions where T(0, 1, 2) is the
    # largest T(a, b, x) = |N(x) & (N[a] | N[b])| over the edges (a, b) with
    # as many common neighbours c as (0, 1) and their eligible x: a common
    # neighbour of a and b when c >= 1, else a neighbour of either other than
    # a and b; vertex 2 is eligible for (0, 1) itself. The search yielded
    # such representatives before the cut existed, which this checks on
    # plain neighbour sets
    checked = 0
    for k, top in ((3, 12), (4, 11), (5, 10), (6, 10)):
        for n in range(1, top + 1):
            for g in enumerate_connected_k_regular(n, k):
                nbrs = [set() for _ in range(n)]
                for u, v in g.edges:
                    nbrs[u].add(v)
                    nbrs[v].add(u)

                def seen(a, b, x):
                    return len(nbrs[x] & (nbrs[a] | {a} | nbrs[b] | {b}))

                root = len(nbrs[0] & nbrs[1])
                assert 2 in (nbrs[0] & nbrs[1] if root else nbrs[0] - {1} - nbrs[1])
                best = seen(0, 1, 2)
                for a, b in g.edges:
                    common = nbrs[a] & nbrs[b]
                    if len(common) != root:
                        continue
                    eligible = common if root else (nbrs[a] | nbrs[b]) - {a, b}
                    assert all(seen(a, b, x) <= best for x in eligible), (
                        k, n, emit_graph6(g))
                checked += 1
    assert checked == 112 + 350 + 64 + 27  # classes of orders up to top


def test_yielded_labelings_have_the_least_first_touch_code():
    # every cut rests on the first completion of a class being its
    # first-touch labeling with the least code; the oracle tries every root
    # and every order of every fresh block
    checked = 0
    for k, top in ((4, 11), (3, 12), (5, 10), (6, 10)):
        for n in range(1, top + 1):
            for g in enumerate_connected_k_regular(n, k):
                assert smaller_first_touch_relabeling(n, g.edges) is None, (
                    k, n, emit_graph6(g))
                checked += 1
    assert checked == 350 + 112 + 64 + 27  # classes of orders up to top


def first_touch_relabeling(g: Graph, root: int) -> list[tuple[int, int]]:
    """g's edges relabeled first-touch from root, each fresh block in
    increasing order of g's labels."""
    label = {root: 0}
    order = [root]
    for x in order:
        for w in g.around[x]:
            if w not in label:
                label[w] = len(order)
                order.append(w)
    return [(label[u], label[w]) for u, w in g.edges]


def test_least_code_oracle_finds_smaller_labelings():
    assert first_touch_code(3, [(0, 2), (1, 2)]) is None  # 2 touched before 1
    assert first_touch_code(4, [(0, 1), (0, 2), (1, 3), (2, 3)]) == (
        (2, ()), (1, ()), (0, (3,)))
    with pytest.raises(ValueError):
        smaller_first_touch_relabeling(3, [(0, 2), (1, 2)])
    beaten = 0
    for g in enumerate_connected_k_regular(9, 4):
        for root in range(g.n):
            edges = first_touch_relabeling(g, root)
            if first_touch_code(g.n, edges) != first_touch_code(g.n, g.edges):
                assert smaller_first_touch_relabeling(g.n, edges) is not None
                beaten += 1
    assert beaten > 0


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
    assert all(not r.violation for r in records)
    assert sum(r.has_optimum for r in records) == 33


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


def test_enumeration_leaves_no_cyclic_garbage():
    # the search state goes by reference counting when an enumeration ends
    # or is closed; the cycle collector would find nothing left to free
    gc.disable()
    try:
        gc.collect()
        for n, k in ((8, 4), (10, 3)):
            for _ in enumerate_connected_k_regular(n, k):
                pass
            assert gc.collect() == 0, (n, k)
        graphs = enumerate_connected_k_regular(10, 4)
        next(graphs)
        graphs.close()
        assert gc.collect() == 0
    finally:
        gc.enable()


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
            assert is_optimum(OrientedGraph(g, r.witness))
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
    # K8 has an optimum orientation at k=7, K6 none at k=5, and K1 S^T S = 0I
    # with no arcs; there is no catalogue of k-regular members for k = 0 or
    # k >= 5
    for g, k, found in ((complete_graph(8), 7, True), (complete_graph(6), 5, False),
                        (Graph(1), 0, True)):
        (record,) = census([g], k).records
        assert record.has_optimum == found
        assert record.classification is None and not record.violation
        assert theorem_crosscheck(g) == record


def test_census_skips_bad_inputs():
    inputs = [complete_graph(4), two_cliques(5), Graph(0, []), complete_graph(5)]
    report = census(inputs, 4)
    assert len(report.records) == 1
    reasons = [reason for _, reason in report.skipped]
    assert reasons == ["not 4-regular", "not connected", "empty graph"]
    # classify and search reject the disconnected and the empty input with
    # the reason the census records
    for g, reason in zip(inputs[1:3], reasons[1:]):
        for decide in (classify, find_optimum_orientation):
            with pytest.raises(ValueError) as info:
                decide(g)
            assert reason in str(info.value), (decide.__name__, reason)
    # K4, skipped at k = 4, is answered at its own degree
    assert classify(inputs[0]).label == K4
    assert find_optimum_orientation(inputs[0]) is not None


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
