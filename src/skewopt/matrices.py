"""Skew-adjacency matrices, the exact Gram test, and the spectral figures
computed by LAPACK.

Matrices are numpy int64 arrays; `is_optimum` decides S^T S = kI, k the
largest degree, in exact integer arithmetic from the arcs alone.  Floats
appear only in energy reporting: the energy and the Gram spectrum come from
one SVD of S.  numpy is imported by the two functions that build S, so the
commands that build no matrix (`generate` to graph6 or arcs, `classify`,
`census`, and a `search` that finds no orientation) never load it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .graphs import OrientedGraph

if TYPE_CHECKING:
    import numpy as np


def skew_adjacency(og: OrientedGraph) -> np.ndarray:
    """The n x n matrix with entry (u, v) +1 iff arc u -> v, -1 iff v -> u, else 0."""
    import numpy as np

    n = og.base.n
    m = np.zeros((n, n), dtype=np.int64)
    for t, h in og.arcs:
        m[t, h] = 1
        m[h, t] = -1
    return m


def is_optimum(og: OrientedGraph) -> bool:
    """True iff S^T S = kI exactly for the skew matrix S, k the largest degree.

    Decided from the arcs in O(n k^2) integer steps, without forming S: entry
    (u, u) of S^T S is the degree of u, so an irregular orientation fails,
    and entry (u, v) sums S[w, u] * S[w, v] over the common neighbours w.
    With no arcs S^T S = 0I; an empty graph is an argument error, as every
    statement about its Gram holds vacuously.
    """
    if og.base.n == 0:
        raise ValueError("cannot judge an empty graph")
    rows: list[dict[int, int]] = [{} for _ in range(og.base.n)]
    for t, h in og.arcs:
        rows[t][h] = 1
        rows[h][t] = -1
    if any(len(row) != len(rows[0]) for row in rows):
        return False
    entries: dict[tuple[int, int], int] = {}
    for row in rows:
        signs = sorted(row.items())
        for i, (u, a) in enumerate(signs):
            for v, b in signs[i + 1:]:
                entries[u, v] = entries.get((u, v), 0) + a * b
    return not any(entries.values())


class SpectralSummary(NamedTuple):
    """Gram spectrum of an orientation plus the derived energy figures.

    S is real and skew-symmetric, hence normal, so its eigenvalues are
    +-i*sigma for its singular values sigma, and the eigenvalues of S^T S are
    sigma**2. The energy (sum of absolute values of the eigenvalues of S)
    is therefore sum(sigma). It reaches upper_bound exactly when S^T S is
    (max degree) * I, which `is_optimum(og)` decides from the arcs alone.
    """

    gram_eigenvalues: tuple[float, ...]
    skew_energy: float
    upper_bound: float


def skew_energy(og: OrientedGraph) -> SpectralSummary:
    """Energy summary from one SVD of S; upper_bound is n*sqrt(max degree)."""
    import numpy as np

    # nonnegative and nonincreasing, as LAPACK returns them
    sigma = np.linalg.svd(skew_adjacency(og), compute_uv=False).tolist()
    bound = og.base.n * math.sqrt(og.base.max_degree())
    return SpectralSummary(tuple(x * x for x in sigma), sum(sigma, 0.0), bound)
