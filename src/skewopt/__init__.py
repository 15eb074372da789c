"""Oriented graphs whose skew-adjacency Gram matrix is a multiple of the
identity: constructions, the exact Gram test and the parity filter, the
GF(2) search and census, and the classification of the regular graphs of
degree 1..4."""

from __future__ import annotations

from .classify import Classification, classify, isomorphic
from .families import (
    C4, G1, G2, G3, K2, K4, Q3, Q4, FamilyLabel, build_family,
    candidate_members, family_order, gi, hj, orient_family,
)
from .formats import (
    FormatError, emit_arclist, emit_graph6, parse_arclist, parse_graph6,
    parse_graph6_lines,
)
from .graphs import Graph, OrientedGraph
from .matrices import SpectralSummary, is_optimum, skew_adjacency, skew_energy
from .search import (
    CensusRecord, CensusReport, census, enumerate_connected_k_regular,
    find_optimum_orientation, theorem_crosscheck,
)
from .verify import NeighborhoodReport, neighbor_parity_report

__version__ = "0.1.0"

__all__ = [
    "C4", "CensusRecord", "CensusReport", "Classification", "FamilyLabel",
    "FormatError", "G1", "G2", "G3", "Graph", "K2", "K4",
    "NeighborhoodReport", "OrientedGraph", "Q3", "Q4", "SpectralSummary",
    "build_family", "candidate_members", "census", "classify",
    "emit_arclist", "emit_graph6", "enumerate_connected_k_regular",
    "family_order", "find_optimum_orientation", "gi", "hj", "is_optimum",
    "isomorphic", "neighbor_parity_report", "orient_family", "parse_arclist",
    "parse_graph6", "parse_graph6_lines", "skew_adjacency", "skew_energy",
    "theorem_crosscheck",
]
