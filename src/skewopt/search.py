"""Optimum-orientation search by GF(2) elimination, and the small-order census.

S^T S = kI asks every off-diagonal Gram entry (u, v), the sum of
S[w, u] * S[w, v] over the common neighbours w, to vanish. Switching at a
vertex set conjugates S by a diagonal sign matrix and preserves the Gram, so
the arcs of a breadth-first spanning tree are fixed and each of the
2^(m-n+1) assignments of the remaining edges names one switching class. The
search writes each S[w, u] as (-1)**v, v the value of a GF(2) form over the
free edges' direction bits plus a constant, so a Gram term is (-1) to the
sum of the forms of its two entries. The parity filter rejects odd term
counts first; an entry with 2c terms vanishes exactly when they split c and
c, so their parity is one linear equation over GF(2), and for c >= 2 the
split is also counted. Elimination over Python-int bitsets solves the
equations; a descent over the remaining free bits, highest first, checks the
counts and returns the smallest assignment, the same witness as trying the
assignments in increasing order. Search and classifier both read k off
the graph, as its largest degree: S^T S has the degrees on its diagonal, so
it can be kI at no other k. The census pairs the two and flags any graph
where they disagree; its built-in enumerator rejects isomorphic search
states with the classifier's colouring and matcher.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations
from typing import NamedTuple

from .classify import _colouring, classify, match, match_plan
from .families import CATALOGUED_DEGREES
from .formats import emit_graph6
from .graphs import Graph, OrientedGraph
from .matrices import is_optimum
from .verify import _odd_pairs

ENUMERATION_ORDER_CAP = 12


def _least_orientation(g: Graph) -> tuple[tuple[int, int], ...] | None:
    """The arcs of the switching class with the smallest assignment that
    makes every off-diagonal Gram entry vanish, or None. The graph must be
    connected, and every vertex pair must have an even number of common
    neighbours, as the parity filter checks."""
    # A form is an int over the free edges' direction bits (bit i is free
    # edge i) plus a constant bit `one`; its value is the parity of the bits
    # it selects from the assignment with `one` set. sign[w][u] is the form
    # whose value v gives S[w, u] = (-1)**v. A connected graph has
    # m - n + 1 edges off its spanning tree.
    f = len(g.edges) - g.n + 1
    one = 1 << f
    variables = one - 1
    sign: list[dict[int, int]] = [{} for _ in range(g.n)]
    # breadth-first tree from vertex 0, children in ascending order, its arcs
    # parent -> child; a free edge (a, b) runs a -> b unless its bit is set
    seen = {0}
    queue = deque(seen)
    while queue:
        p = queue.popleft()
        for c in g.around[p]:
            if c not in seen:
                seen.add(c)
                sign[p][c], sign[c][p] = 0, one
                queue.append(c)
    free = [(a, b) for a, b in g.edges if b not in sign[a]]
    for i, (a, b) in enumerate(free):
        sign[a][b], sign[b][a] = 1 << i, 1 << i | one

    # each Gram term S[w, u] * S[w, v] is (-1)**(value of its form)
    terms: dict[tuple[int, int], list[int]] = {}
    for w in range(g.n):
        row = sign[w]
        around = g.around[w]
        for i, u in enumerate(around):
            for v in around[i + 1:]:
                terms.setdefault((u, v), []).append(row[u] ^ row[v])

    # echelon basis keyed by each row's lowest variable bit (its pivot);
    # a row holds no other bits below its pivot
    basis: dict[int, int] = {}

    def reduce(t: int) -> int:
        rest = t & variables
        while rest:
            low = rest & -rest
            row = basis.get(low)
            if row is not None:
                t ^= row
            rest = t & variables & -(low << 1)
        return t

    # A zero entry needs its 2c terms split c positive, c negative. Their
    # parity is a linear equation; the split itself (c >= 2) is counted
    # during the descent.
    counted = []
    for pair_terms in terms.values():
        c = len(pair_terms) // 2
        eq = one if c % 2 else 0
        for t in pair_terms:
            eq ^= t
        eq = reduce(eq)
        if eq == one:
            return None
        if eq:
            basis[eq & -eq] = eq
        if c >= 2:
            counted.append((c, pair_terms))

    # The non-pivot bits fix a solution of the linear system, and the
    # highest bit where two solutions differ is a non-pivot bit. So the
    # first leaf of a descent over them, highest bit first and 0 before 1,
    # is the smallest assignment.
    order = [1 << i for i in reversed(range(f)) if (1 << i) not in basis]
    depth_of = {bit: d for d, bit in enumerate(order)}
    # settled[d + 1] holds the terms whose value is known once order[d] is
    # set (settled[0] the constant ones); allowance 2j + value is how many
    # more terms of counted pair j may take that value
    settled: list[list[tuple[int, int]]] = [[] for _ in range(len(order) + 1)]
    allowances = []
    for j, (c, pair_terms) in enumerate(counted):
        allowances += [c, c]
        for t in pair_terms:
            r = reduce(t)
            low = r & -r & variables
            settled[depth_of[low] + 1 if low else 0].append((2 * j, r))

    def draw(left: list[int], d: int, x: int) -> list[int] | None:
        # a copy of the allowances with the terms settled at d taken out, or
        # None when one of them overdraws its pair
        left = left.copy()
        for slot, r in settled[d]:
            slot += (r & x).bit_count() & 1
            left[slot] -= 1
            if left[slot] < 0:
                return None
        return left

    # stack[d] holds the allowances once order[:d] is set; a level that
    # overdraws is never pushed, so backtracking only pops
    x = one
    stack = [draw(allowances, 0, x)]
    if stack[0] is None:
        return None
    tried = [0] * len(order)
    while len(stack) <= len(order):
        depth = len(stack) - 1
        if tried[depth] < 2:
            bit = order[depth]
            x = x | bit if tried[depth] else x & ~bit
            tried[depth] += 1
            left = draw(stack[-1], depth + 1, x)
            if left is not None:
                stack.append(left)
            continue
        tried[depth] = 0
        stack.pop()
        if not stack:
            return None

    # each pivot follows from the higher bits of its row
    for pivot in sorted(basis, reverse=True):
        if (basis[pivot] & x).bit_count() & 1:
            x |= pivot
    return tuple((a, b) if not (sign[a][b] & x).bit_count() & 1 else (b, a)
                 for a, b in g.edges)


def find_optimum_orientation(g: Graph):
    """An orientation whose skew matrix S has S^T S = kI exactly, k the
    largest degree, or None. Of the switching classes that qualify it takes
    the one with the smallest assignment of the edges off the breadth-first
    tree, in the representative with S[p, c] = +1 on every tree arc p -> c.

    Empty, irregular or disconnected inputs are argument errors; graphs
    failing the common-neighborhood parity filter return None without
    elimination.
    """
    k = g.max_degree()
    defect = g.defect(k)
    if defect is not None:
        raise ValueError(f"cannot search: {defect}")
    if next(_odd_pairs(g), None) is not None:
        return None

    arcs = _least_orientation(g)
    if arcs is None:
        return None
    og = OrientedGraph(g, arcs)
    if not is_optimum(og):
        raise RuntimeError("GF(2) elimination disagrees with the Gram matrix")
    return og


def enumerate_connected_k_regular(n: int, k: int):
    """One representative per isomorphism class, by orderly backtracking.

    Vertex 0's neighborhood is pinned to 1..k and new vertices are labeled in
    first-touch order, which keeps the labeled search space small while still
    reaching every class. Finishing vertex v takes f_v fresh vertices and a
    subset S_v of the old (touched, unsaturated) vertices above it. Fresh
    counts are tried in increasing order and subsets in lexicographic order,
    so the unpruned search meets the completions in lexicographic order of
    their codes ((f_v, S_v) over the finished vertices v), and the first
    completion of a class is its first-touch labeling with the least code.
    Such a labeling is fixed by the vertex labeled 0 and the order of each
    block of fresh vertices, and the cuts below compare the node with
    relabelings of that kind.

    State check: isomorph rejection by a table of the states met so far
    (McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998). A
    state is the graph so far on all n vertices, the untouched ones
    isolated. Isomorphic states with the same number of untouched vertices
    have isomorphic completion sets in the unpruned search: map the touched
    vertices by the isomorphism and label the rest first-touch. The check
    runs on entering a completion (v = n) and on entering the first node of
    its path with at least d finished vertices, d the fewest that can hold
    two thirds of the nk/2 edges (vertex 0 holds k, each later one at most
    k - 1 more). No node of either layer lies below another, so of two
    isomorphic ones the node met first has the smaller code prefix, the
    later node holds no first completion, and it is cut. At v = n this is
    the deduplication of completions, and the first completion of each class
    is yielded. A state is bucketed by the signature list of the
    classifier's colouring (the degrees keep completions, partial states and
    untouched counts apart) and matched, under those colours, against the
    states kept in its bucket; every isomorphism between two states of a
    bucket preserves the colours, so `match` finds it. A kept state holds
    its adjacency and colours, and its match plan is built when a later
    state first lands in its bucket. Of the layers tried at k = 3..6 and
    n = 9..12, that d was the fastest or within 2 % of it: at a shallower
    layer few states are rejected, and at a deeper one more states are
    checked than the cut saves.

    Twin prune: when vertex v picks neighbours among the touched vertices
    after it, those with the same neighbours so far are twins, and a subset
    that takes a twin without every earlier twin of its group is skipped.
    This never cuts the first completion of a class. Swapping twins a < b
    fixes the finished part, so a completion that takes b but not a at v,
    swapped and with its untouched vertices relabeled in first-touch order,
    is an isomorphic completion that agrees with it before v and takes a
    lexicographically smaller subset with the same fresh count at v; the
    search reaches that one first.

    Root-edge cut: vertex 1 takes k-1-c fresh vertices, c the number of
    common neighbours of the edge (0, 1), and fresh counts are tried in
    increasing order. Any edge (a, b) of a completion can be relabeled as
    (0, 1), the rest in first-touch order, which gives an isomorphic
    completion of the unpruned search whose c is the common-neighbour count
    of (a, b); the twin prune keeps the fresh count at every vertex. So the
    first completion of a class has the largest common-neighbour count of
    any of its edges at (0, 1). Once both ends of an edge are saturated its
    count is final, and a node where it exceeds that of (0, 1) is cut; only
    the edges at vertices saturated since the parent need checking.

    Vertex-2 cut: the same argument one level down. With c the count of
    (0, 1), the largest of any edge, the least code has S1 = {2..c+1}; so
    vertex 2 is a common neighbour of 0 and 1 when c >= 1, and another
    neighbour of 0 when c = 0, and it takes f2 = k - T(0, 1, 2) fresh
    vertices, where T(a, b, x) is |N(x) & (N[a] | N[b])|. Take any edge
    (a, b) with c common neighbours and an x eligible in the same sense: a
    common neighbour when c >= 1, a neighbour of a or b other than a and b
    when c = 0. Relabeling a, b, x as 0, 1, 2 (orienting (a, b) so that x is
    a neighbour of a) and the rest in first-touch order gives a completion
    of the unpruned search with the same (f1, S1), so the first completion
    has the largest T(0, 1, 2) of any such triple. T(0, 1, 2) is final once
    0, 1 and 2 are saturated, and T(a, b, x) once a, b and x are; a node
    where a saturated edge tied with (0, 1) has a saturated eligible x with
    a larger T is cut.

    Vertex-2 tie-break: for such an x with T(a, b, x) = T(0, 1, 2), either
    orientation with x next to a will do. The old vertices x can reach are,
    in label order, G1 = N(a) & N(b) - {x} (labels 3..c+1), G2 = N(a) - N[b]
    - {x} (up to k) and G3 = N(b) - N[a] (vertex 1's fresh block). The order
    within each group is free, so the least S2 gives x's neighbours the
    first labels of each group, and as |S2| = |N(x) & (G1 | G2 | G3)| is
    tied, more of them in G1, then in G2, make S2 smaller. The first
    completion therefore has the lexicographically largest pair
    (|N(2) & G1|, |N(2) & G2|), compared as (|N(x) & N(a) & N(b)|,
    |N(x) & N(a)|), which orders alike because N(x) holds b exactly when
    c >= 1; a node where a tied triple has the larger pair is cut.

    The vertex-2 checks run when a tied edge's count becomes final, over the
    x saturated by then, and only while T(0, 1, 2) < k (no triple exceeds
    k); the count of (0, 1) is taken once, when vertex 1 is finished, and
    T(0, 1, 2) and its pair once, when vertex 2 is saturated.

    Sealed cut: when the next vertex to finish is untouched, the finished
    vertices are saturated and none of them is adjacent to the rest, so no
    completion below is connected.

    Degree cut: on entering v, every vertex below v is saturated and no two
    vertices >= v are adjacent yet (edges are added only at the vertex being
    finished), so an unsaturated touched vertex w >= v can still be joined
    to the untouched vertices and to the other unsaturated touched vertices.
    If some deficit exceeds their number, no completion lies below. For any
    fresh count f >= 1 a fresh vertex has at most (fresh_avail - f) +
    (len(old) + f - 1) such partners, so when that is below k - 1 only
    f = 0 is tried.

    The twin prune, the root-edge and vertex-2 cuts and the state check
    remove no first completion of a class, and the sealed and degree cuts no
    connected completion at all, so the yielded graphs, their labels and
    their order are those of the unpruned search. The cuts are tested in the
    child loop, before a child node is entered, the state check last. The
    search state lives in closures, and the recursive one refers to itself;
    that cycle is broken when the generator ends or is closed, so reference
    counting frees the state then.
    """
    if n < 1 or k < 0:
        raise ValueError("order must be >= 1 and degree >= 0")
    if n > ENUMERATION_ORDER_CAP:
        raise ValueError(
            f"built-in enumeration stops at n={ENUMERATION_ORDER_CAP}; "
            "ingest an external graph6 corpus instead"
        )
    if (n * k) % 2 or k >= n or k == 0:
        if n == 1 and k == 0:
            yield Graph(1, [])
        return

    deficit = [k] * n
    adj = [0] * n
    around: list[list[int]] = [[] for _ in range(n)]
    # signature list -> [adjacency, colours, match plan or None]
    # of the states kept with it; a plan is built when a later state lands
    # in the bucket
    buckets: dict[tuple, list] = {}
    # common neighbours of the edge (0, 1), final once vertex 1 is finished
    # (0 before: vertex 1 has no other neighbour yet)
    root = 0
    # T(0, 1, 2) and how vertex 2's old neighbours split, final once vertex 2
    # is saturated (k before: no triple exceeds it)
    third = k
    split = (0, 0)
    # the interior layer of the state check: the fewest finished vertices
    # that can hold two thirds of the edges, d(k - 1) + 1 >= nk/3
    depth = -(-(n * k - 3) // (3 * max(k - 1, 1)))

    def tie_beaten(s: int, t: int, x: int) -> bool:
        # x ties with vertex 2 on T; an end of (s, t) next to x is label 0
        nx = adj[x]
        both = (nx & adj[s] & adj[t]).bit_count()
        for a in (s, t):
            if adj[a] >> x & 1 and (both, (nx & adj[a]).bit_count()) > split:
                return True
        return False

    def novel() -> bool:
        # the state check: True, and the graph so far kept, unless it is
        # isomorphic to a state kept before
        colours, signatures = _colouring(adj, around)
        kept = buckets.setdefault(tuple(signatures), [])
        for entry in kept:
            if entry[2] is None:
                entry[2] = match_plan(entry[0], entry[1])
            if match(entry[2], adj, colours) is not None:
                return False
        kept.append([adj[:], colours, None])
        return True

    def complete(v: int, next_fresh: int):
        nonlocal root, third, split
        if v == n:
            yield Graph(n, [(u, w) for u in range(n) for w in around[u] if u < w])
            return
        fresh_avail = n - next_fresh
        old = [w for w in range(v + 1, next_fresh) if deficit[w]]
        # old vertices with the same neighbours so far are twins; a subset
        # may take a twin only together with the twin before it
        twins = []
        last_with = {}
        for w in old:
            if adj[w] in last_with:
                twins.append((w, last_with[adj[w]]))
            last_with[adj[w]] = w
        need = deficit[v]
        row = adj[v]
        bit = 1 << v
        deficit[v] = 0
        # degree cut for every f >= 1 at once: a fresh vertex has at most
        # fresh_avail + len(old) - 1 partners left
        for f in range(min(need, fresh_avail) + 1 if k <= fresh_avail + len(old) else 1):
            r = need - f
            if r > len(old):
                continue
            top = next_fresh + f
            fresh = tuple(range(next_fresh, top))
            for subset in combinations(old, r):
                if twins and any(w in subset and b not in subset for w, b in twins):
                    continue
                chosen = subset + fresh
                settled = [v]
                for w in chosen:
                    deficit[w] -= 1
                    adj[w] |= bit
                    row |= 1 << w
                    around[w].append(v)
                    if not deficit[w]:
                        settled.append(w)
                adj[v] = row
                around[v] += chosen
                if v == 1:
                    root = (adj[0] & row).bit_count()
                if 0 < v < 3:
                    # vertex 2 is saturated when it is finished, or when
                    # vertex 1 fills it; vertex 1 is finished only for k >= 2,
                    # so vertex 2 exists
                    if deficit[2]:
                        third = k
                    else:
                        two = adj[2] & adj[0]
                        third = (adj[2] & (adj[0] | adj[1])).bit_count()
                        split = (two & adj[1]).bit_count(), two.bit_count()
                u = v + 1
                while u < n and not deficit[u]:
                    u += 1
                # the cuts, before the child finishing u is entered
                if u == n:
                    enter = True
                elif u == top:
                    enter = False  # untouched u: the finished part is sealed off
                else:
                    # degree cut; no two unsaturated touched vertices are
                    # adjacent yet
                    touched = deficit[u:top]
                    enter = max(touched) < n - top + len(touched) - touched.count(0)
                if enter:
                    done = 0
                    for s in settled:
                        # root-edge cut: the edges at vertices saturated here
                        # are the ones whose count just became final, each
                        # taken once
                        a = adj[s]
                        done |= 1 << s
                        for t in around[s]:
                            if deficit[t] or done >> t & 1:
                                continue
                            b = adj[t]
                            c = (a & b).bit_count()
                            if c > root:
                                enter = False
                                break
                            if c == root and third < k:
                                # vertex-2 cuts on the saturated eligible x
                                near = a | b
                                xs = a & b if c else near & ~(1 << s | 1 << t)
                                while xs:
                                    low = xs & -xs
                                    xs ^= low
                                    x = low.bit_length() - 1
                                    if deficit[x]:
                                        continue
                                    seen = (adj[x] & near).bit_count()
                                    if seen > third or seen == third and tie_beaten(s, t, x):
                                        enter = False
                                        break
                                if not enter:
                                    break
                        if not enter:
                            break
                if enter and (u == n or v < depth <= u):
                    enter = novel()
                if enter:
                    yield from complete(u, top)
                for w in chosen:
                    deficit[w] += 1
                    adj[w] ^= bit
                    row ^= 1 << w
                    around[w].pop()
                del around[v][-need:]
        adj[v] = row
        deficit[v] = need

    # complete refers to itself through its closure cell; deleting the name
    # when the generator ends or is closed breaks that cycle, so reference
    # counting frees the search state at once
    try:
        yield from complete(0, 1)
    finally:
        del complete


class CensusRecord(NamedTuple):
    graph6: str
    n: int
    has_optimum: bool
    classification: str | None
    witness: tuple[tuple[int, int], ...] | None
    violation: bool


class CensusReport(NamedTuple):
    records: tuple[CensusRecord, ...]
    skipped: tuple[tuple[str, str], ...]

    @property
    def violations(self) -> tuple[CensusRecord, ...]:
        return tuple(r for r in self.records if r.violation)

    def totals(self) -> tuple[tuple[int, int, int], ...]:
        """(order, graphs, graphs with an optimum orientation), sorted."""
        counts: dict[int, list[int]] = {}
        for r in self.records:
            row = counts.setdefault(r.n, [0, 0])
            row[0] += 1
            row[1] += r.has_optimum
        return tuple((n, c[0], c[1]) for n, c in sorted(counts.items()))


def theorem_crosscheck(g: Graph) -> CensusRecord:
    """Classify a connected regular graph against the catalogue and search
    it for an optimum orientation by GF(2) elimination; the record is a
    violation when the graph is optimum-orientable but not a catalogue
    member, or the other way round. For a degree with no catalogue (0 or
    >= 5) the classification is None and there is no violation."""
    catalogued = g.max_degree() in CATALOGUED_DEGREES
    label = classify(g).label if catalogued else None
    witness = find_optimum_orientation(g)
    return CensusRecord(
        graph6=emit_graph6(g).decode("ascii"),
        n=g.n,
        has_optimum=witness is not None,
        classification=None if label is None else str(label),
        witness=None if witness is None else witness.arcs,
        violation=catalogued and (label is not None) != (witness is not None),
    )


def census(inputs, k: int, *, workers: int = 1) -> CensusReport:
    """Search + classify every input graph; disagreements become violation
    records, inputs that are no connected k-regular graph become skip
    diagnostics instead of errors."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    graphs = []
    skipped = []
    for g in inputs:
        defect = g.defect(k)
        if defect is None:
            graphs.append(g)
        else:
            skipped.append((emit_graph6(g).decode("ascii"), defect))
    if workers == 1 or len(graphs) < 2:
        records = [theorem_crosscheck(g) for g in graphs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(theorem_crosscheck, graphs, chunksize=4))
    return CensusReport(tuple(records), tuple(skipped))
