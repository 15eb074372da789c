"""Independent oracles used to pin expected values in the test suite.

Everything here is deliberately written against different algorithms than the
package under test: exact rational characteristic polynomials with Sturm
bisection instead of LAPACK eigensolvers, direct enumeration of all 2^m
orientations instead of switching classes, labeled-graph backtracking with
networkx isomorphism and automorphism counts instead of orderly generation,
and a pair-by-pair common-neighbour count instead of adjacency bitsets.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial

import networkx as nx

# ---------------------------------------------------------------------------
# exact polynomial arithmetic (coefficients low degree first)
# ---------------------------------------------------------------------------


def _trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _add(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def _scale(p, c):
    return _trim([x * c for x in p])


def _mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _divmod(p, q):
    p = list(p)
    quot = [Fraction(0)] * max(1, len(p) - len(q) + 1)
    while len(p) >= len(q) and _trim(p) != [Fraction(0)]:
        if len(_trim(p)) < len(q):
            break
        p = _trim(p)
        shift = len(p) - len(q)
        factor = p[-1] / q[-1]
        quot[shift] = factor
        for i, c in enumerate(q):
            p[shift + i] -= factor * c
        p = p[:-1]
    return _trim(quot), _trim(p if p else [Fraction(0)])


def _monic(p):
    lead = p[-1]
    if lead == 0:
        return p
    return [c / lead for c in p]


def _gcd(p, q):
    p, q = _trim(list(p)), _trim(list(q))
    while q != [Fraction(0)]:
        _, r = _divmod(p, q)
        p, q = q, r
    return _monic(p)


def _deriv(p):
    if len(p) == 1:
        return [Fraction(0)]
    return _trim([i * c for i, c in enumerate(p)][1:])


def _eval(p, x):
    acc = Fraction(0) if isinstance(x, Fraction) else 0.0
    for c in reversed(p):
        acc = acc * x + (c if isinstance(x, Fraction) else float(c))
    return acc


def charpoly(matrix) -> list:
    """Monic characteristic polynomial det(xI - M) over Fractions, by the
    Faddeev-LeVerrier recurrence."""
    n = len(matrix)
    # arbitrary-precision ints only; numpy scalars would overflow C long
    a = [
        [v if isinstance(v, Fraction) else Fraction(int(v)) for v in row]
        for row in matrix
    ]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += coeffs[n - k + 1]
        m = [
            [sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        coeffs[n - k] = -sum(m[i][i] for i in range(n)) / k
    return _trim(coeffs)


def square_free_decomposition(p) -> list:
    """Yun's algorithm: returns [(factor, multiplicity)] with each factor
    square-free and p = prod factor^multiplicity up to a constant."""
    p = _monic(_trim(list(p)))
    dp = _deriv(p)
    g = _gcd(p, dp)
    if len(g) == 1:
        return [(p, 1)]
    c, _ = _divmod(p, g)
    d = _add(_divmod(dp, g)[0], _scale(_deriv(c), Fraction(-1)))
    out = []
    i = 1
    while len(c) > 1:
        a = _gcd(c, d)
        if len(a) > 1:
            out.append((a, i))
        c, _ = _divmod(c, a)
        d = _add(_divmod(d, a)[0], _scale(_deriv(c), Fraction(-1)))
        i += 1
    return out


def _sturm_chain(p):
    chain = [_trim(list(p)), _deriv(p)]
    while len(chain[-1]) > 1 or chain[-1][0] != 0:
        _, r = _divmod(chain[-2], chain[-1])
        if r == [Fraction(0)]:
            break
        chain.append(_scale(r, Fraction(-1)))
    return chain


def _sign_changes(chain, x):
    signs = []
    for p in chain:
        v = _eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _roots_square_free(p, tol=Fraction(1, 10**12)) -> list:
    """All real roots of a square-free rational polynomial, by Sturm-sequence
    isolation and bisection."""
    p = _monic(p)
    if len(p) == 1:
        return []
    bound = Fraction(1) + max(abs(c) for c in p[:-1])
    chain = _sturm_chain(p)

    def count(lo, hi):
        return _sign_changes(chain, lo) - _sign_changes(chain, hi)

    roots = []
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        c = count(lo, hi)
        if c == 0:
            continue
        if c == 1:
            while hi - lo > tol:
                mid = (lo + hi) / 2
                if _eval(p, mid) == 0:
                    lo = hi = mid
                    break
                if count(lo, mid) == 1:
                    hi = mid
                else:
                    lo = mid
            roots.append(float((lo + hi) / 2))
            continue
        mid = (lo + hi) / 2
        while _eval(p, mid) == 0:
            mid = (lo + mid) / 2
        stack.append((lo, mid))
        stack.append((mid, hi))
    return roots


def eigenvalues_by_bisection(matrix) -> list:
    """Eigenvalue multiset (descending) of a symmetric integer/rational
    matrix, via the exact characteristic polynomial."""
    p = charpoly(matrix)
    values = []
    for factor, mult in square_free_decomposition(p):
        for r in _roots_square_free(factor):
            values.extend([r] * mult)
    assert len(values) == len(matrix)
    return sorted(values, reverse=True)


# ---------------------------------------------------------------------------
# direct orientation search: all 2^m arc choices, no switching quotient
# ---------------------------------------------------------------------------


def brute_force_has_optimum(g, k: int) -> bool:
    """Check every one of the 2^m orientations for Gram = kI, using plain
    integer dot products (no numpy, no switching reduction)."""
    edges = list(g.edges)
    m = len(edges)
    n = g.n
    for mask in range(1 << m):
        s = [[0] * n for _ in range(n)]
        for idx, (u, v) in enumerate(edges):
            if (mask >> idx) & 1:
                u, v = v, u
            s[u][v] = 1
            s[v][u] = -1
        ok = True
        for i in range(n):
            for j in range(n):
                want = k if i == j else 0
                if sum(s[t][i] * s[t][j] for t in range(n)) != want:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# labeled k-regular enumeration + networkx isomorphism classes
# ---------------------------------------------------------------------------


def _labeled_k_regular(n: int, k: int):
    """Yield edge sets of all labeled k-regular graphs on n vertices by
    pair-by-pair backtracking with degree-feasibility pruning."""
    pairs = list(combinations(range(n), 2))
    deg = [0] * n
    chosen = []

    def remaining_slots(idx, v):
        return sum(1 for (a, b) in pairs[idx:] if v in (a, b))

    def rec(idx):
        if idx == len(pairs):
            if all(d == k for d in deg):
                yield list(chosen)
            return
        a, b = pairs[idx]
        # option 1: skip the pair, if both endpoints can still reach degree k
        if deg[a] + remaining_slots(idx + 1, a) >= k and deg[b] + remaining_slots(idx + 1, b) >= k:
            yield from rec(idx + 1)
        # option 2: take the pair
        if deg[a] < k and deg[b] < k:
            deg[a] += 1
            deg[b] += 1
            chosen.append((a, b))
            yield from rec(idx + 1)
            chosen.pop()
            deg[a] -= 1
            deg[b] -= 1

    yield from rec(0)


def _is_connected_edge_list(n: int, edges) -> bool:
    if n == 0:
        return True
    adj = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_regular_class_count(n: int, k: int) -> int:
    """Number of isomorphism classes of connected k-regular graphs on n
    vertices, from scratch: labeled backtracking + networkx VF2."""
    reps = []
    for edges in _labeled_k_regular(n, k):
        if not _is_connected_edge_list(n, edges):
            continue
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        tri = sorted(nx.triangles(g).values())
        if not any(
            key == tri and nx.is_isomorphic(g, rep) for key, rep in reps
        ):
            reps.append((tri, g))
    return len(reps)


def labeled_connected_regular_count(n: int, k: int) -> int:
    """Number of connected k-regular graphs on the labeled vertex set
    0..n-1, by the same labeled backtracking."""
    return sum(
        1 for edges in _labeled_k_regular(n, k) if _is_connected_edge_list(n, edges)
    )


def _nx_graph(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def labeling_count(n: int, k: int, edges) -> int:
    """n!/|Aut G|, the number of labeled graphs isomorphic to a connected
    k-regular graph G, with automorphisms counted by networkx VF2."""
    g = _nx_graph(n, edges)
    if not nx.is_connected(g) or any(d != k for _, d in g.degree()):
        raise ValueError("labeling_count needs a connected k-regular graph")
    matcher = nx.algorithms.isomorphism.GraphMatcher(g, g)
    return factorial(n) // sum(1 for _ in matcher.isomorphisms_iter())


def pairwise_non_isomorphic(n: int, edge_lists) -> bool:
    """True iff no two of the graphs on n vertices are isomorphic (networkx)."""
    graphs = [_nx_graph(n, edges) for edges in edge_lists]
    return not any(nx.is_isomorphic(a, b) for a, b in combinations(graphs, 2))


# ---------------------------------------------------------------------------
# common-neighbour parity, pair by pair
# ---------------------------------------------------------------------------


def neighbor_parity_violations(n: int, edges, mode: str) -> tuple:
    """(u, v, common count, adjacent) for every pair u < v whose count of
    common neighbours breaks the mode, by a loop over all n(n-1)/2 pairs.

    general-even: any odd count. four-regular: adjacent pairs outside
    {0, 2}, non-adjacent pairs outside {0, 2, 4}.
    """
    around = [set() for _ in range(n)]
    for u, v in edges:
        around[u].add(v)
        around[v].add(u)
    violations = []
    for u in range(n):
        for v in range(u + 1, n):
            count = len(around[u] & around[v])
            adjacent = v in around[u]
            if mode == "general-even":
                bad = count % 2 != 0
            elif adjacent:
                bad = count not in (0, 2)
            else:
                bad = count not in (0, 2, 4)
            if bad:
                violations.append((u, v, count, adjacent))
    return tuple(violations)
