"""Oriented graphs whose skew-adjacency Gram matrix is a multiple of the
identity: constructions, verification oracles, exhaustive search, and the
classification of the 4-regular case."""

from __future__ import annotations

from .classify import Classification, candidate_members, classify, isomorphic
from .families import (
    C4, G1, G2, G3, K2, K4, Q3, Q4, BlockSet, FamilyLabel, block_skew_matrix,
    build_family, canonical_blocks, check_block_identities,
    doubling_skew_matrix, family_order, gi, hj, orient_family,
)
from .formats import (
    FormatError, emit_arclist, emit_graph6, parse_arclist, parse_graph6,
    parse_graph6_lines,
)
from .graphs import Graph, OrientedGraph, Walk, disjoint_union
from .matrices import (
    SpectralSummary, gram, gram_eigenvalues, int_matrix, is_optimum, power,
    skew_adjacency, skew_energy, symmetric_eigenvalues,
)
from .search import (
    CensusRecord, CensusReport, ConsistencyRecord, SwitchingClassIndex, census,
    enumerate_connected_k_regular, find_optimum_orientation, switching_classes,
    theorem_crosscheck,
)
from .verify import (
    NeighborhoodReport, SignedWalkCount, neighbor_parity_report,
    signed_walk_counts, two_walk_balanced, walk_identity_holds,
)

__version__ = "0.1.0"

__all__ = [
    "BlockSet", "C4", "CensusRecord", "CensusReport", "Classification",
    "ConsistencyRecord", "FamilyLabel", "FormatError", "G1", "G2", "G3",
    "Graph", "K2", "K4", "NeighborhoodReport", "OrientedGraph", "Q3", "Q4",
    "SignedWalkCount", "SpectralSummary", "SwitchingClassIndex", "Walk",
    "block_skew_matrix", "build_family", "candidate_members",
    "canonical_blocks", "census", "check_block_identities", "classify",
    "disjoint_union", "doubling_skew_matrix", "emit_arclist", "emit_graph6",
    "enumerate_connected_k_regular", "family_order",
    "find_optimum_orientation", "gi", "gram", "gram_eigenvalues", "hj",
    "int_matrix", "is_optimum", "isomorphic", "neighbor_parity_report",
    "orient_family", "parse_arclist", "parse_graph6", "parse_graph6_lines",
    "power", "signed_walk_counts", "skew_adjacency", "skew_energy",
    "switching_classes", "symmetric_eigenvalues", "theorem_crosscheck",
    "two_walk_balanced", "walk_identity_holds",
]
