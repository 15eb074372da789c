"""Independent oracles used to pin expected values in the test suite.

Everything here is deliberately written against different algorithms than the
package under test: exact rational characteristic polynomials with Sturm
bisection instead of LAPACK eigensolvers, direct enumeration of all 2^m
orientations instead of switching classes, labeled-graph backtracking with
networkx isomorphism and automorphism counts instead of orderly generation,
a first-touch relabeler that tries every root and every order of every fresh
block instead of the enumerator's cuts, a pair-by-pair common-neighbour count
instead of adjacency bitsets, signed walks counted one by one instead of
matrix products, relabeling and switching written out on the edge and arc
lists, a switching-class enumerator with its own breadth-first frame, a
row-by-row fill of the skew matrix with orthogonality checks instead of
elimination over GF(2), the named-vertex recursion for the ladder families
gi/hj instead of the paper's block matrices, and numpy products for the
paper's block identities, checked on blocks read off the package's own
matrices. Only public names of skewopt are imported, and no single-underscore
attribute is read, as test_oracles checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import networkx as nx
import numpy as np

from skewopt import Graph, OrientedGraph, skew_adjacency

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
# first-touch codes, every relabeling tried
# ---------------------------------------------------------------------------


def _neighbour_sets(n: int, edges) -> list[set]:
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def first_touch_code(n: int, edges) -> tuple | None:
    """The choices that build this labeling in a first-touch search, or None
    when it is not a first-touch labeling.

    The vertices are finished in label order. Vertex 0 is touched, and
    finishing v touches its neighbours. A vertex with a neighbour above it
    makes the choice (number of those neighbours not yet touched, sorted
    labels of the touched ones); the untouched ones must be the next labels.
    """
    nbrs = _neighbour_sets(n, edges)
    touched = 1 if n else 0  # the touched vertices are 0 .. touched - 1
    code = []
    for v in range(n):
        above = sorted(w for w in nbrs[v] if w > v)
        if not above:
            continue
        old = tuple(w for w in above if w < touched)
        fresh = [w for w in above if w >= touched]
        if v >= touched or fresh != list(range(touched, touched + len(fresh))):
            return None
        touched += len(fresh)
        code.append((len(fresh), old))
    return tuple(code)


def smaller_first_touch_relabeling(n: int, edges) -> dict | None:
    """A first-touch relabeling whose code (`first_touch_code`) is smaller
    than that of the labeling given, as {vertex: new label}, or None.

    Every root and every order of every block of newly touched vertices is
    tried; a branch is dropped at its first choice that differs from the
    given labeling's, and returned if that choice is the smaller.
    """
    target = first_touch_code(n, edges)
    if target is None:
        raise ValueError("the labeling given is not first-touch")
    nbrs = _neighbour_sets(n, edges)

    def extend(label: dict, order: list, v: int, step: int):
        # order lists the vertices by new label; v is the next one to finish
        while v < len(order):
            x = order[v]
            old = tuple(sorted(label[w] for w in nbrs[x] if w in label and label[w] > v))
            fresh = [w for w in nbrs[x] if w not in label]
            if old or fresh:
                break
            v += 1
        else:
            return None  # every touched vertex finished with the same code
        choice = (len(fresh), old)
        if choice != target[step]:
            return dict(label) if choice < target[step] else None
        for block in permutations(fresh):
            for w in block:
                label[w] = len(order)
                order.append(w)
            found = extend(label, order, v + 1, step + 1)
            for w in block:
                del label[w]
                order.pop()
            if found is not None:
                return found
        return None

    for root in range(n):
        found = extend({root: 0}, [root], 0, 0)
        if found is not None:
            return found
    return None


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


# ---------------------------------------------------------------------------
# signed walks, one by one; relabeling, switching and the disjoint union
# ---------------------------------------------------------------------------

WALK_LENGTH_CAP = 8


@dataclass(frozen=True)
class SignedWalkCount:
    positive: int
    negative: int

    @property
    def total(self) -> int:
        return self.positive + self.negative

    @property
    def difference(self) -> int:
        return self.positive - self.negative


def arc_signs(og) -> dict:
    """The skew entry of every adjacent ordered pair: +1 for (t, h) and -1
    for (h, t), for each arc t -> h."""
    entry = {}
    for t, h in og.arcs:
        entry[t, h], entry[h, t] = 1, -1
    return entry


def signed_walk_counts(og, u: int, v: int, k: int) -> SignedWalkCount:
    """Count positive and negative length-k walks u -> v by explicit search.

    A walk's sign is the product of the skew entries along its steps. The
    enumeration is a plain depth-first expansion, intentionally not a matrix
    power, so it can serve as an oracle for one.
    """
    base = og.base
    if not 0 <= u < base.n or not 0 <= v < base.n:
        raise ValueError(f"vertices must lie in 0..{base.n - 1}")
    if not 1 <= k <= WALK_LENGTH_CAP:
        raise ValueError(f"walk length must lie in 1..{WALK_LENGTH_CAP}, got {k}")
    entry = arc_signs(og)
    counts = [0, 0]  # positive, negative
    # stack of (vertex, steps taken, sign so far)
    stack = [(u, 0, 1)]
    while stack:
        x, steps, sign = stack.pop()
        if steps == k:
            if x == v:
                counts[sign < 0] += 1
            continue
        for y in base.around[x]:
            stack.append((y, steps + 1, sign * entry[x, y]))
    return SignedWalkCount(*counts)


def walk_identity_holds(og, k_max: int) -> bool:
    """True iff enumerated signed-walk differences match the powers of the
    package's skew matrix, for every ordered vertex pair and every length
    1..k_max."""
    if not 1 <= k_max <= WALK_LENGTH_CAP:
        raise ValueError(f"k_max must lie in 1..{WALK_LENGTH_CAP}, got {k_max}")
    s = skew_adjacency(og)
    powers = [np.linalg.matrix_power(s, k) for k in range(1, k_max + 1)]
    vertices = range(og.base.n)
    return all(
        signed_walk_counts(og, u, v, k).difference == sk[u, v]
        for k, sk in enumerate(powers, 1) for u in vertices for v in vertices
    )


def two_walk_balanced(og) -> bool:
    """True iff every pair of distinct vertices has balanced signed 2-walks.

    For a k-regular oriented graph this is equivalent to the Gram matrix
    being exactly k times the identity; non-regular inputs are rejected so
    the equivalence is never silently weakened.
    """
    if len({len(a) for a in og.base.around}) > 1:
        raise ValueError("two-walk balance test needs a regular graph")
    return all(
        signed_walk_counts(og, u, v, 2).difference == 0
        for u, v in combinations(range(og.base.n), 2)
    )


def relabel(g, perm):
    """The image of g under the vertex map v -> perm[v]."""
    p = list(perm)
    if sorted(p) != list(range(g.n)):
        raise ValueError("relabel needs a permutation of 0..n-1")
    return Graph(g.n, [(p[u], p[v]) for u, v in g.edges])


def relabel_oriented(og, perm):
    """The image of og, base and arcs, under the vertex map v -> perm[v]."""
    p = list(perm)
    return OrientedGraph(relabel(og.base, p), [(p[t], p[h]) for t, h in og.arcs])


def switch(og, vertices):
    """Reverse every arc with exactly one end in the given vertex set."""
    s = set(vertices)
    if not s <= set(range(og.base.n)):
        raise ValueError(f"switch vertices must lie in 0..{og.base.n - 1}")
    return OrientedGraph(og.base, [
        (h, t) if (t in s) != (h in s) else (t, h) for t, h in og.arcs
    ])


def small_orientations(max_n: int):
    """Every orientation of every labeled graph on 1..max_n vertices: each
    vertex pair is absent, u -> v or v -> u, so 3^C(n,2) per order (760 in
    all for max_n = 4)."""
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for code in range(3 ** len(pairs)):
            arcs = []
            for t, h in pairs:
                code, digit = divmod(code, 3)
                if digit:
                    arcs.append((t, h) if digit == 1 else (h, t))
            yield OrientedGraph(Graph(n, arcs), arcs)


def is_isomorphism(g, h, mapping) -> bool:
    """True iff mapping is a bijection of 0..n-1 that carries the edge set
    of g onto exactly the edge set of h."""
    if g.n != h.n or sorted(mapping) != list(range(g.n)):
        return False
    image = {frozenset((mapping[u], mapping[v])) for u, v in g.edges}
    return image == {frozenset(e) for e in h.edges}


def disjoint_union(a, b):
    """Side-by-side union of two oriented graphs; b's vertices are shifted
    up by a's vertex count."""
    off = a.base.n
    shifted = [(u + off, v + off) for u, v in b.base.edges]
    return OrientedGraph(Graph(off + b.base.n, a.base.edges + tuple(shifted)),
                         a.arcs + tuple((t + off, h + off) for t, h in b.arcs))


# ---------------------------------------------------------------------------
# switching classes in the search's witness frame, written out separately
# ---------------------------------------------------------------------------


def switching_frame(g) -> tuple[list, list]:
    """(tree arcs, free edges): the arcs parent -> child of the breadth-first
    tree from vertex 0 that visits children in ascending order, and the
    other edges, sorted."""
    parent = {0: None} if g.n else {}
    order = list(parent)
    for p in order:  # the list grows while it is read: a queue
        for c in sorted(g.around[p]):
            if c not in parent:
                parent[c] = p
                order.append(c)
    tree = [(parent[c], c) for c in order[1:]]
    tree_edges = {(min(e), max(e)) for e in tree}
    free = sorted({(min(e), max(e)) for e in g.edges} - tree_edges)
    return tree, free


def switching_classes(g):
    """Yield one orientation per switching class of a connected graph, in
    assignment order: the tree arcs are fixed, and free edge i runs from its
    smaller end to its larger unless bit i of the assignment reverses it."""
    tree, free = switching_frame(g)
    if len(tree) < g.n - 1:
        raise ValueError("switching classes are enumerated for connected graphs")
    for assignment in range(1 << len(free)):
        yield OrientedGraph(g, tree + [
            (b, a) if assignment >> i & 1 else (a, b) for i, (a, b) in enumerate(free)
        ])


# ---------------------------------------------------------------------------
# optimum orientations by filling S row by row, no elimination
# ---------------------------------------------------------------------------


def row_fill_optimum(g):
    """An orientation of a regular graph whose skew matrix S has pairwise
    orthogonal rows, so that S^T S = S S^T = kI, or None; S is filled row by
    row instead of solved for.

    Switching a vertex v negates row and column v, so the first cell of
    column v from an earlier row, S[p, v] with p the least neighbour of v, is
    fixed to +1 whenever p < v. Row u takes every sign pattern on its other
    cells right of the diagonal (those left of it follow from the earlier
    rows), and each completed row must be orthogonal to every earlier one."""
    nbrs = [sorted(a) for a in g.around]
    if len({len(a) for a in nbrs}) > 1:
        return None
    s = [{} for _ in range(g.n)]

    def fill(u: int) -> bool:
        if u == g.n:
            return True
        later = [v for v in nbrs[u] if v > u]
        free = [v for v in later if nbrs[v][0] != u]
        for pattern in range(1 << len(free)):
            for v in later:
                s[u][v] = 1
            for i, v in enumerate(free):
                if pattern >> i & 1:
                    s[u][v] = -1
            for v in later:
                s[v][u] = -s[u][v]
            if all(sum(a * s[w].get(x, 0) for x, a in s[u].items()) == 0
                   for w in range(u)) and fill(u + 1):
                return True
        return False

    if not fill(0):
        return None
    return OrientedGraph(g, [(u, v) if s[u][v] == 1 else (v, u) for u, v in g.edges])


# ---------------------------------------------------------------------------
# the two ladder sequences by the named-vertex recursion: each step tears
# open the previous inner 4-cycle (gi) or re-wires the last rung (hj)
# ---------------------------------------------------------------------------


def _gi_order(i: int) -> list[str]:
    names = ["u", "v"]
    for t in range(1, i + 2):
        names += [f"u{2 * t - 1}", f"u{2 * t}", f"v{2 * t - 1}", f"v{2 * t}"]
    return names


def _hj_order(j: int) -> list[str]:
    names = ["u", "v"]
    for t in range(1, j + 1):
        names += [f"u{2 * t - 1}", f"u{2 * t}", f"v{2 * t - 1}", f"v{2 * t}"]
    names += [f"u{2 * j + 1}", f"u{2 * j + 2}"]
    return names


def _norm_pair(pair):
    x, y = pair
    return (x, y) if x <= y else (y, x)


def _gi_removed_cycle(t: int) -> set:
    # the inner 4-cycle of the previous step, torn open when level t arrives
    a, b = f"u{2 * t - 1}", f"u{2 * t}"
    c, d = f"v{2 * t - 1}", f"v{2 * t}"
    return {_norm_pair(p) for p in ((a, d), (d, b), (b, c), (c, a))}


def _gi_step_arcs(t: int) -> list[tuple[str, str]]:
    uo, ue = f"u{2 * t - 1}", f"u{2 * t}"
    vo, ve = f"v{2 * t - 1}", f"v{2 * t}"
    nu1, nu2 = f"u{2 * t + 1}", f"u{2 * t + 2}"
    nv1, nv2 = f"v{2 * t + 1}", f"v{2 * t + 2}"
    return [
        (uo, nu1), (uo, nu2), (nu1, ue), (nu2, ue),
        (vo, nv1), (vo, nv2), (nv1, ve), (nv2, ve),
        (nu1, nv2), (nv2, nu2), (nu2, nv1), (nv1, nu1),
    ]


_GI_BASE_ARCS = [
    ("u", "u1"), ("u", "u2"), ("u", "v1"), ("u", "v2"),
    ("v", "u1"), ("v", "u2"), ("v1", "v"), ("v2", "v"),
    ("u1", "u3"), ("u1", "u4"), ("u3", "u2"), ("u4", "u2"),
    ("v1", "v3"), ("v1", "v4"), ("v3", "v2"), ("v4", "v2"),
    ("v3", "u3"), ("u3", "v4"), ("u4", "v3"), ("v4", "u4"),
]


def _gi_named_arcs(i: int) -> list[tuple[str, str]]:
    arcs = list(_GI_BASE_ARCS)
    for t in range(2, i + 1):
        gone = _gi_removed_cycle(t)
        arcs = [arc for arc in arcs if _norm_pair(arc) not in gone]
        arcs += _gi_step_arcs(t)
    return arcs


def _gi_named_edges(i: int) -> set:
    edges = {_norm_pair(arc) for arc in _GI_BASE_ARCS}
    for t in range(2, i + 1):
        gone = _gi_removed_cycle(t)
        missing = gone - edges
        if missing:
            raise RuntimeError(f"ladder step {t} removes absent edges {missing}")
        edges -= gone
        edges |= {_norm_pair(arc) for arc in _gi_step_arcs(t)}
    return edges


_HJ_BASE_ARCS = [
    ("u", "u1"), ("u", "u2"), ("u", "v1"), ("u", "v2"),
    ("v", "u1"), ("v", "u2"), ("v1", "v"), ("v2", "v"),
    ("u3", "u1"), ("u1", "u4"), ("u2", "u3"), ("u4", "u2"),
    ("u3", "v1"), ("u4", "v1"), ("v2", "u3"), ("v2", "u4"),
]


def _hj_dropped(t: int) -> tuple[set, set]:
    # edges deleted outright vs edges kept but re-oriented at step t
    vo, ve = f"v{2 * t - 3}", f"v{2 * t - 2}"
    uo, ue = f"u{2 * t - 1}", f"u{2 * t}"
    po, pe = f"u{2 * t - 3}", f"u{2 * t - 2}"
    deleted = {_norm_pair(p) for p in ((vo, uo), (vo, ue), (ve, uo), (ve, ue))}
    reoriented = {_norm_pair(p) for p in ((po, uo), (po, ue), (pe, uo), (pe, ue))}
    return deleted, reoriented


def _hj_step_arcs(t: int) -> list[tuple[str, str]]:
    po, pe = f"u{2 * t - 3}", f"u{2 * t - 2}"
    qo, qe = f"v{2 * t - 3}", f"v{2 * t - 2}"
    uo, ue = f"u{2 * t - 1}", f"u{2 * t}"
    vo, ve = f"v{2 * t - 1}", f"v{2 * t}"
    nu1, nu2 = f"u{2 * t + 1}", f"u{2 * t + 2}"
    return [
        (po, uo), (po, ue), (uo, pe), (ue, pe),
        (qo, vo), (qo, ve), (vo, qe), (ve, qe),
        (nu1, uo), (uo, nu2), (ue, nu1), (nu2, ue),
        (nu1, vo), (nu2, vo), (ve, nu1), (ve, nu2),
    ]


def _hj_named_arcs(j: int) -> list[tuple[str, str]]:
    arcs = list(_HJ_BASE_ARCS)
    for t in range(2, j + 1):
        deleted, reoriented = _hj_dropped(t)
        gone = deleted | reoriented
        arcs = [arc for arc in arcs if _norm_pair(arc) not in gone]
        arcs += _hj_step_arcs(t)
    return arcs


def _hj_named_edges(j: int) -> set:
    edges = {_norm_pair(arc) for arc in _HJ_BASE_ARCS}
    for t in range(2, j + 1):
        deleted, _ = _hj_dropped(t)
        missing = deleted - edges
        if missing:
            raise RuntimeError(f"ladder step {t} removes absent edges {missing}")
        edges -= deleted
        edges |= {_norm_pair(arc) for arc in _hj_step_arcs(t)}
    return edges


def ladder_arcs(kind: str, index: int) -> tuple:
    """(n, arcs) of gi(index) or hj(index) in the fixed vertex ordering u, v,
    u1, u2, v1, v2, ..., built by the named-vertex recursion rather than from
    the block matrices. The arcs must cover the recursion's edge set exactly."""
    if kind == "gi":
        order = _gi_order(index)
        arcs, edges = _gi_named_arcs(index), _gi_named_edges(index)
    elif kind == "hj":
        order = _hj_order(index)
        arcs, edges = _hj_named_arcs(index), _hj_named_edges(index)
    else:
        raise ValueError(f"ladder kind must be gi or hj, got {kind!r}")
    if {_norm_pair(arc) for arc in arcs} != edges or len(arcs) != len(edges):
        raise RuntimeError(f"{kind}({index}): the arc and edge recursions disagree")
    index_of = {name: i for i, name in enumerate(order)}
    return len(order), [(index_of[x], index_of[y]) for x, y in arcs]


# ---------------------------------------------------------------------------
# the paper's bridge-block identities, which make the block-tridiagonal
# matrices of gi/hj optimum
# ---------------------------------------------------------------------------


def block_identities(a, b, c, d) -> dict[str, bool]:
    """Exact pass/fail of each of the twelve identities over the bridge
    blocks A (2x4), B and C (4x4) and D (4x2), given as int64 arrays: the
    union of the paper's identity sets 1 (gi), 2 (hj(1)) and 3 (hj(j >= 2))."""
    four_i2 = 4 * np.eye(2, dtype=np.int64)
    four_i4 = 4 * np.eye(4, dtype=np.int64)
    eq = np.array_equal
    return {
        "AAt=4I2": eq(a @ a.T, four_i2),
        "AtA+BBt=4I4": eq(a.T @ a + b @ b.T, four_i4),
        "BtB+BBt=4I4": eq(b.T @ b + b @ b.T, four_i4),
        "BtB+CtC=4I4": eq(b.T @ b + c.T @ c, four_i4),
        "AB=0": not np.any(a @ b),
        "BB=0": not np.any(b @ b),
        "BC=0": not np.any(b @ c),
        "AtA+DDt=4I4": eq(a.T @ a + d @ d.T, four_i4),
        "DtD=4I2": eq(d.T @ d, four_i2),
        "AD=0": not np.any(a @ d),
        "BtB+DDt=4I4": eq(b.T @ b + d @ d.T, four_i4),
        "BD=0": not np.any(b @ d),
    }
