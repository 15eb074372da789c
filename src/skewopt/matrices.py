"""Exact integer matrix algebra for skew-adjacency matrices, plus the
spectral figures computed by LAPACK.

Matrices are numpy int64 arrays; every structural predicate is decided in
exact integer arithmetic.  Floats appear only in eigenvalue and energy
reporting: the energy and the Gram spectrum come from one SVD of S, and
symmetric spectra from eigvalsh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import OrientedGraph


def int_matrix(rows) -> np.ndarray:
    """Validated dense integer matrix (int64 is ample for every use here)."""
    m = np.array(rows, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    return m


def skew_adjacency(og: OrientedGraph, ordering: Sequence[int] | None = None) -> np.ndarray:
    """The n x n matrix with entry (i, j) = +1 iff arc ordering[i] -> ordering[j].

    With the identity ordering, entry (u, v) is og.sign(u, v).
    """
    n = og.base.n
    if ordering is None:
        pos = list(range(n))
    else:
        order = list(ordering)
        if sorted(order) != list(range(n)):
            raise ValueError("ordering must be a permutation of 0..n-1")
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
    m = np.zeros((n, n), dtype=np.int64)
    for t, h in og.arcs:
        i, j = pos[t], pos[h]
        m[i, j] = 1
        m[j, i] = -1
    return m


def gram(m: np.ndarray) -> np.ndarray:
    """Exact M^T M."""
    return m.T @ m


def power(m: np.ndarray, k: int) -> np.ndarray:
    """Exact M^k for k >= 1."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("power needs a square matrix")
    if k < 1:
        raise ValueError(f"power exponent must be >= 1, got {k}")
    return np.linalg.matrix_power(m, k)


def is_optimum(og: OrientedGraph, k: int) -> bool:
    """True iff the Gram of the skew-adjacency matrix equals k*I exactly.

    Decided from the arcs in O(n k^2) integer steps, without forming S: the
    diagonal entry (u, u) of S^T S is the degree of u, and the off-diagonal
    entry (u, v) sums S[w, u] * S[w, v] over the common neighbours w.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rows: list[dict[int, int]] = [{} for _ in range(og.base.n)]
    for t, h in og.arcs:
        rows[t][h] = 1
        rows[h][t] = -1
    if any(len(row) != k for row in rows):
        return False
    entries: dict[tuple[int, int], int] = {}
    for row in rows:
        signs = sorted(row.items())
        for i, (u, a) in enumerate(signs):
            for v, b in signs[i + 1:]:
                entries[u, v] = entries.get((u, v), 0) + a * b
    return not any(entries.values())


def symmetric_eigenvalues(matrix) -> list[float]:
    """All eigenvalues of a symmetric matrix, nonincreasing (LAPACK eigvalsh)."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("eigensolver needs a square matrix")
    if not np.array_equal(a, a.T):
        raise ValueError("eigensolver needs a symmetric matrix")
    if a.shape[0] == 0:
        return []
    return sorted((float(x) for x in np.linalg.eigvalsh(a)), reverse=True)


def gram_eigenvalues(og: OrientedGraph) -> list[float]:
    """Eigenvalues of S^T S, nonincreasing: the squared singular values of S."""
    return list(skew_energy(og).gram_eigenvalues)


@dataclass(frozen=True)
class SpectralSummary:
    """Gram spectrum of an orientation plus the derived energy figures.

    S is real and skew-symmetric, hence normal, so its eigenvalues are
    +-i*sigma for its singular values sigma, and the eigenvalues of S^T S are
    sigma**2. The energy (sum of absolute values of the eigenvalues of S)
    is therefore sum(sigma).
    """

    gram_eigenvalues: tuple[float, ...]
    skew_energy: float
    upper_bound: float

    def attains_bound(self, tolerance: float = 1e-8) -> bool:
        return self.skew_energy >= self.upper_bound - tolerance


def skew_energy(og: OrientedGraph) -> SpectralSummary:
    """Energy summary from one SVD of S; upper_bound is n*sqrt(max degree)."""
    # nonnegative and nonincreasing, as LAPACK returns them
    sigma = np.linalg.svd(skew_adjacency(og), compute_uv=False).tolist()
    bound = og.base.n * math.sqrt(og.base.max_degree())
    return SpectralSummary(tuple(x * x for x in sigma), sum(sigma, 0.0), bound)
