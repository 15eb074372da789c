from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import block_identities, ladder_arcs
from skewopt import (
    C4, G1, G2, G3, K2, K4, Q3, Q4, FamilyLabel, build_family, family_order,
    gi, hj, is_optimum, orient_family, skew_adjacency,
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
    s = np.array(transcribed, dtype=np.int64)
    assert np.array_equal(s.T @ s, 4 * np.eye(s.shape[0], dtype=np.int64))


def test_label_parse_and_format():
    assert FamilyLabel.parse("g2") == G2
    assert FamilyLabel.parse("GI(3)") == gi(3)
    assert FamilyLabel.parse("hj2") == hj(2)
    assert str(gi(3)) == "gi(3)"
    assert str(Q4) == "q4"
    # digits and spaces of other scripts, and text that strip() or lower()
    # would map onto a label (an em space, the Kelvin sign)
    for bad in ("gi", "gi(0)", "hj(-1)", "k5", "", "gi(\u0663)", "hj(\uff15)",
                "gi\u2003(3)", "\u2003g2", "\u212a2",
                # only kind(n) and kindn
                "gi(3", "gi3)", "hj 2", "hj ( 2 )", "gi( 3)", "gi()"):
        with pytest.raises(ValueError):
            FamilyLabel.parse(bad)
    with pytest.raises(ValueError):
        FamilyLabel("g1", 2)
    with pytest.raises(ValueError):
        FamilyLabel("gi")
    with pytest.raises(ValueError):
        FamilyLabel("zz")
    # a named tuple's _make and _replace check the fields too
    assert gi(3)._replace(param=4) == gi(4) == FamilyLabel._make(("gi", 4))
    with pytest.raises(ValueError):
        G2._replace(param=3)
    with pytest.raises(ValueError):
        FamilyLabel._make(("gi", 0))


def test_label_parameter_is_an_integer():
    # gi(2.5) would have order 16.0, and hj(True) print as hj(True) yet
    # equal hj(1)
    for param in (2.5, 1.0, True, "2"):
        for kind in ("gi", "hj"):
            with pytest.raises(ValueError, match="integer"):
                FamilyLabel(kind, param)


_LABELS = st.one_of(
    st.sampled_from(["g1", "g2", "g3", "q4", "k2", "c4", "k4", "q3"]).map(FamilyLabel),
    st.builds(FamilyLabel, st.sampled_from(["gi", "hj"]), st.integers(1, 10**30)),
)


@settings(max_examples=300, deadline=None)
@given(_LABELS)
def test_label_parse_inverts_str(label):
    assert FamilyLabel.parse(str(label)) == label
    assert FamilyLabel.parse(str(label).upper()) == label
    if label.param is not None:
        assert FamilyLabel.parse(f"{label.kind}{label.param}") == label


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
        assert len(g.edges) == 2 * g.n


def test_triangle_split():
    # a triangle is an edge whose ends share a neighbour in the bitsets
    def triangle_free(label):
        g = build_family(label)
        return not any(g.adj[u] & g.adj[v] for u, v in g.edges)

    assert not triangle_free(G1)
    assert not triangle_free(G2)
    for label in (G3, Q4, gi(1), gi(2), gi(3), hj(1), hj(2), hj(3)):
        assert triangle_free(label), str(label)


def test_g2_is_octahedron():
    g = build_family(G2)
    non_edges = sorted(set(combinations(range(6), 2)) - set(g.edges))
    # exactly a perfect matching of non-edges
    assert len(non_edges) == 3
    assert sorted(v for e in non_edges for v in e) == list(range(6))


def test_g1_is_two_cliques_plus_matching():
    g = build_family(G1)
    cliques = {(u + s, v + s) for u, v in combinations(range(4), 2) for s in (0, 4)}
    matching = {(i, i + 4) for i in range(4)}
    assert set(g.edges) == cliques | matching


def test_hj1_is_complete_bipartite():
    g = build_family(hj(1))
    sides = ({0, 1, 6, 7}, {2, 3, 4, 5})
    across = {
        (u, v) for u, v in combinations(range(8), 2)
        if not any(u in s and v in s for s in sides)
    }
    assert set(g.edges) == across


def test_hypercube_support():
    for label, d in ((Q3, 3), (Q4, 4)):
        g = build_family(label)
        assert g.n == 1 << d
        one_bit = {
            (u, v) for u, v in combinations(range(g.n), 2) if bin(u ^ v).count("1") == 1
        }
        assert set(g.edges) == one_bit


def test_edge_recursion_sizes_and_membership():
    # each ladder step drops the previous inner 4-cycle and adds 12 edges
    for i in range(2, 6):
        prev = build_family(gi(i - 1))
        cur = build_family(gi(i))
        assert len(cur.edges) == len(prev.edges) - 4 + 12
        prev_edges = set(prev.edges)
        cur_edges = set(cur.edges)
        removed = prev_edges - cur_edges
        assert len(removed) == 4
    for j in range(2, 6):
        prev = build_family(hj(j - 1))
        cur = build_family(hj(j))
        assert len(cur.edges) == len(prev.edges) - 4 + 12


def test_orientation_base_matches_build():
    for label in (G1, G2, G3, Q4, K2, C4, K4, Q3, gi(1), gi(4), hj(1), hj(4)):
        assert orient_family(label).base == build_family(label)


def test_every_orientation_is_optimum():
    for label in (G1, G2, G3, Q4, K2, C4, K4, Q3,
                  gi(1), gi(2), gi(5), hj(1), hj(2), hj(5)):
        og = orient_family(label)
        assert og.base.is_regular(label.regularity) and is_optimum(og), str(label)


def member_blocks():
    """The paper's bridge blocks as the package emits them: A, B and C read
    off the skew matrix of gi(1), D off that of hj(1)."""
    g = skew_adjacency(orient_family(gi(1)))
    h = skew_adjacency(orient_family(hj(1)))
    return g[0:2, 2:6], g[2:6, 6:10], g[6:10, 6:10], h[2:6, 6:8]


def test_canonical_blocks_transcription():
    a, b, c, d = member_blocks()
    assert np.array_equal(a, [[1, 1, 1, 1], [1, 1, -1, -1]])
    assert np.array_equal(
        b, [[1, 1, 0, 0], [-1, -1, 0, 0], [0, 0, 1, 1], [0, 0, -1, -1]]
    )
    assert np.array_equal(
        c, [[0, 0, -1, 1], [0, 0, 1, -1], [1, -1, 0, 0], [-1, 1, 0, 0]]
    )
    assert np.array_equal(d, [[-1, 1], [1, -1], [-1, -1], [1, 1]])
    assert not np.any(b @ b)
    assert np.array_equal(d.T @ d, 4 * np.eye(2, dtype=np.int64))


def test_all_identity_sets_pass_for_canonical_blocks():
    # every gi(i) and hj(j) lays the same blocks along its superdiagonal, A,
    # then B repeated, then D for hj; gi ends in C on the diagonal instead
    a, b, c, d = member_blocks()
    report = block_identities(a, b, c, d)
    assert len(report) == 12 and all(report.values()), report
    for index in range(1, 5):
        for label, supers in ((gi(index), [a] + [b] * index),
                              (hj(index), [a] + [b] * (index - 1) + [d])):
            s = skew_adjacency(orient_family(label))
            row = 0
            for block in supers:
                height, width = block.shape
                col = row + height
                assert np.array_equal(s[row:col, col:col + width], block), str(label)
                row = col
            if label.kind == "gi":
                assert np.array_equal(s[row:, row:], c), str(label)


def test_flipped_entry_fails_identity():
    a, b, c, d = member_blocks()
    a = a.copy()
    a[0, 0] = -1
    report = block_identities(a, b, c, d)
    assert not report["AAt=4I2"]


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
            assert np.array_equal(skew_adjacency(og), ladder_matrix(kind, index))
