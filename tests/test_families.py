from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from oracles import ladder_arcs
from skewopt import (
    C4, G1, G2, G3, K2, K4, Q3, Q4, BlockSet, FamilyLabel, block_skew_matrix,
    build_family, canonical_blocks, check_block_identities,
    doubling_skew_matrix, family_order, gi, gram, hj, int_matrix, is_optimum,
    orient_family, skew_adjacency,
)

# Independently transcribed skew-adjacency matrices of the three sporadic
# members, in their fixed vertex orderings. These anchor the arc-list
# constants in the package: any transcription slip on either side breaks the
# entrywise comparison.

TRANSCRIBED_8 = [
    [0, 1, 1, 1, 1, 0, 0, 0],
    [-1, 0, -1, 1, 0, 1, 0, 0],
    [-1, 1, 0, -1, 0, 0, 1, 0],
    [-1, -1, 1, 0, 0, 0, 0, 1],
    [-1, 0, 0, 0, 0, -1, -1, -1],
    [0, -1, 0, 0, 1, 0, 1, -1],
    [0, 0, -1, 0, 1, -1, 0, 1],
    [0, 0, 0, -1, 1, 1, -1, 0],
]

TRANSCRIBED_6 = [
    [0, 1, 1, 1, 1, 0],
    [-1, 0, -1, 0, 1, -1],
    [-1, 1, 0, -1, 0, 1],
    [-1, 0, 1, 0, -1, -1],
    [-1, -1, 0, 1, 0, 1],
    [0, 1, -1, 1, -1, 0],
]

TRANSCRIBED_14 = [
    [0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, -1, 0, 0, 1, 1, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0, -1, 0, -1, 0, 1, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0, 0, -1, 0, -1, -1, 0, 0, 0],
    [0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0],
    [0, -1, 0, 1, 0, 0, 0, 0, 0, 0, 0, -1, 0, 1],
    [0, -1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, -1, -1],
    [0, 0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1],
    [0, 0, -1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1],
    [0, 0, 0, -1, 1, 0, 0, 0, 0, 0, 0, -1, 1, 0],
    [0, 0, 0, 0, 0, -1, 1, 0, 0, -1, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, -1, 0, 1, -1, 0, -1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, -1, 1, 1, -1, 0, 0, 0, 0],
]


@pytest.mark.parametrize("label,transcribed", [
    (G1, TRANSCRIBED_8), (G2, TRANSCRIBED_6), (G3, TRANSCRIBED_14),
])
def test_sporadic_orientations_match_transcriptions(label, transcribed):
    assert np.array_equal(skew_adjacency(orient_family(label)), transcribed)


@pytest.mark.parametrize("transcribed", [TRANSCRIBED_8, TRANSCRIBED_6, TRANSCRIBED_14])
def test_transcriptions_have_4i_gram(transcribed):
    s = int_matrix(transcribed)
    assert np.array_equal(gram(s), 4 * np.eye(s.shape[0], dtype=np.int64))


def test_label_parse_and_format():
    assert FamilyLabel.parse("g2") == G2
    assert FamilyLabel.parse("GI(3)") == gi(3)
    assert FamilyLabel.parse("hj2") == hj(2)
    assert str(gi(3)) == "gi(3)"
    assert str(Q4) == "q4"
    for bad in ("gi", "gi(0)", "hj(-1)", "k5", ""):
        with pytest.raises(ValueError):
            FamilyLabel.parse(bad)
    with pytest.raises(ValueError):
        FamilyLabel("g1", 2)
    with pytest.raises(ValueError):
        FamilyLabel("gi")


def test_family_orders():
    assert family_order(G1) == 8
    assert family_order(G2) == 6
    assert family_order(G3) == 14
    assert family_order(Q4) == 16
    assert family_order(gi(2)) == 14
    assert family_order(hj(3)) == 16
    assert family_order(K2) == 2
    assert family_order(Q3) == 8
    for label in (G1, G2, G3, Q4, K2, C4, K4, Q3, gi(1), gi(4), hj(1), hj(5)):
        assert build_family(label).n == family_order(label)


def test_regularity_by_kind():
    assert G1.regularity == 4
    assert K2.regularity == 1
    assert C4.regularity == 2
    assert K4.regularity == 3
    assert Q3.regularity == 3
    assert gi(7).regularity == 4


def test_members_are_connected_regular_with_2n_edges():
    for label in (G1, G2, G3, Q4, gi(1), gi(3), hj(1), hj(4)):
        g = build_family(label)
        assert g.is_connected()
        assert g.is_regular(4)
        assert g.edge_count == 2 * g.n


def test_triangle_split():
    assert not build_family(G1).is_triangle_free()
    assert not build_family(G2).is_triangle_free()
    for label in (G3, Q4, gi(1), gi(2), gi(3), hj(1), hj(2), hj(3)):
        assert build_family(label).is_triangle_free(), str(label)


def test_g2_is_octahedron():
    g = build_family(G2)
    non_edges = [
        (u, v) for u, v in combinations(range(6), 2) if not g.has_edge(u, v)
    ]
    # exactly a perfect matching of non-edges
    assert len(non_edges) == 3
    assert sorted(v for e in non_edges for v in e) == list(range(6))


def test_g1_is_two_cliques_plus_matching():
    g = build_family(G1)
    for u, v in combinations(range(4), 2):
        assert g.has_edge(u, v)
        assert g.has_edge(u + 4, v + 4)
    for i in range(4):
        assert g.has_edge(i, i + 4)


def test_hj1_is_complete_bipartite():
    g = build_family(hj(1))
    sides = ({0, 1, 6, 7}, {2, 3, 4, 5})
    for u, v in combinations(range(8), 2):
        same_side = any(u in s and v in s for s in sides)
        assert g.has_edge(u, v) == (not same_side)


def test_hypercube_support():
    for label, d in ((Q3, 3), (Q4, 4)):
        g = build_family(label)
        assert g.n == 1 << d
        for u, v in combinations(range(g.n), 2):
            differ_one_bit = bin(u ^ v).count("1") == 1
            assert g.has_edge(u, v) == differ_one_bit


def test_doubling_matrices():
    s1 = doubling_skew_matrix(1)
    assert np.array_equal(s1, [[0, 1], [-1, 0]])
    for d in range(1, 6):
        s = doubling_skew_matrix(d)
        assert np.array_equal(s.T, -s)
        assert np.array_equal(gram(s), d * np.eye(1 << d, dtype=np.int64))
    with pytest.raises(ValueError):
        doubling_skew_matrix(0)


def test_edge_recursion_sizes_and_membership():
    # each ladder step drops the previous inner 4-cycle and adds 12 edges
    for i in range(2, 6):
        prev = build_family(gi(i - 1))
        cur = build_family(gi(i))
        assert cur.edge_count == prev.edge_count - 4 + 12
        prev_edges = set(prev.edges)
        cur_edges = set(cur.edges)
        removed = prev_edges - cur_edges
        assert len(removed) == 4
    for j in range(2, 6):
        prev = build_family(hj(j - 1))
        cur = build_family(hj(j))
        assert cur.edge_count == prev.edge_count - 4 + 12


def test_orientation_base_matches_build():
    for label in (G1, G2, G3, Q4, K2, C4, K4, Q3, gi(1), gi(4), hj(1), hj(4)):
        assert orient_family(label).base == build_family(label)


def test_every_orientation_is_optimum():
    for label in (G1, G2, G3, Q4, K2, C4, K4, Q3,
                  gi(1), gi(2), gi(5), hj(1), hj(2), hj(5)):
        assert is_optimum(orient_family(label), label.regularity), str(label)


def test_canonical_blocks_transcription():
    bs = canonical_blocks()
    assert np.array_equal(bs.a, [[1, 1, 1, 1], [1, 1, -1, -1]])
    assert np.array_equal(
        bs.b, [[1, 1, 0, 0], [-1, -1, 0, 0], [0, 0, 1, 1], [0, 0, -1, -1]]
    )
    assert np.array_equal(
        bs.c, [[0, 0, -1, 1], [0, 0, 1, -1], [1, -1, 0, 0], [-1, 1, 0, 0]]
    )
    assert np.array_equal(bs.d, [[-1, 1], [1, -1], [-1, -1], [1, 1]])
    assert not np.any(bs.b @ bs.b)
    assert np.array_equal(bs.d.T @ bs.d, 4 * np.eye(2, dtype=np.int64))


def test_all_identity_sets_pass_for_canonical_blocks():
    bs = canonical_blocks()
    for which in (1, 2, 3):
        report = check_block_identities(bs, which)
        assert report and all(report.values()), (which, report)
    with pytest.raises(ValueError):
        check_block_identities(bs, 4)


def test_flipped_entry_fails_identity():
    bs = canonical_blocks()
    a = bs.a.copy()
    a[0, 0] = -1
    broken = BlockSet(a=a, b=bs.b, c=bs.c, d=bs.d)
    report = check_block_identities(broken, 1)
    assert not report["AAt=4I2"]


def test_blockset_shape_validation():
    bs = canonical_blocks()
    with pytest.raises(ValueError):
        BlockSet(a=bs.b, b=bs.b, c=bs.c, d=bs.d)
    with pytest.raises(ValueError):
        BlockSet(a=2 * bs.a, b=bs.b, c=bs.c, d=bs.d)


def test_block_skew_matrix_shapes_and_grams():
    for label, n in ((gi(1), 10), (gi(2), 14), (hj(1), 8), (hj(2), 12)):
        m = block_skew_matrix(label)
        assert m.shape == (n, n)
        assert np.array_equal(m.T, -m)
        assert np.array_equal(gram(m), 4 * np.eye(n, dtype=np.int64))
    with pytest.raises(ValueError):
        block_skew_matrix(G1)


def ladder_matrix(kind: str, index: int) -> np.ndarray:
    """Skew-adjacency matrix of the oracle's named-vertex recursion."""
    n, arcs = ladder_arcs(kind, index)
    m = np.zeros((n, n), dtype=np.int64)
    for t, h in arcs:
        m[t, h], m[h, t] = 1, -1
    return m


def test_block_matrix_agrees_with_recursive_orientation():
    for kind, make in (("gi", gi), ("hj", hj)):
        for index in range(1, 41):
            label = make(index)
            n, arcs = ladder_arcs(kind, index)
            edges = tuple(sorted((min(t, h), max(t, h)) for t, h in arcs))
            g = build_family(label)
            og = orient_family(label)
            assert (g.n, g.edges) == (n, edges), str(label)
            assert (og.base.n, og.base.edges) == (n, edges), str(label)
            assert og.arcs == tuple(sorted(arcs)), str(label)
            assert np.array_equal(block_skew_matrix(label), ladder_matrix(kind, index))


def test_block_substitution_row_permuted_b():
    bs = canonical_blocks()
    permuted = BlockSet(a=bs.a, b=bs.b[[1, 0, 2, 3], :], c=bs.c, d=bs.d)
    m = block_skew_matrix(gi(1), permuted)
    assert np.array_equal(gram(m), 4 * np.eye(10, dtype=np.int64))


def test_block_substitution_failure_is_reported():
    bs = canonical_blocks()
    zero_d = BlockSet(a=bs.a, b=bs.b, c=bs.c, d=np.zeros((4, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="DtD"):
        block_skew_matrix(hj(2), zero_d)
    flipped_b = bs.b.copy()
    flipped_b[0, 0] = -1
    with pytest.raises(ValueError):
        block_skew_matrix(gi(2), BlockSet(a=bs.a, b=flipped_b, c=bs.c, d=bs.d))
