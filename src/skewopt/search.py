"""Optimum-orientation search by GF(2) elimination, and the small-order census.

Switching at a vertex set conjugates the skew matrix by a diagonal sign
matrix and preserves the Gram, so the arcs of a breadth-first spanning tree
are fixed and each of the 2^(m-n+1) assignments of the remaining edges names
one switching class. With edge signs written (-1)**bit, every off-diagonal
Gram entry (u, v) is a sum of +-1 terms, one per common neighbour, each the
parity of two direction bits plus a constant. The parity filter rejects odd
term counts first; an entry with 2c terms vanishes exactly when they split c
and c, so their parity is one linear equation over GF(2), and for c >= 2 the
split is also counted. Elimination over Python-int bitsets solves the
equations; a descent over the remaining free bits, highest first, checks the
counts and returns the smallest assignment, the same witness as trying the
assignments in increasing order. The census pairs that search with the
family classifier and flags any graph where the two disagree; its built-in
enumerator deduplicates with the classifier's refinement and matcher.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations

from .classify import classify, colouring, match, match_plan
from .families import FamilyLabel
from .formats import emit_graph6
from .graphs import Graph, OrientedGraph
from .matrices import is_optimum
from .verify import neighbor_parity_report

ENUMERATION_ORDER_CAP = 12


@dataclass(frozen=True)
class SwitchingClassIndex:
    """One representative orientation: a fixed spanning-tree orientation plus
    one bit per non-tree edge (bit 0 = arc from smaller to larger endpoint)."""

    tree_arcs: tuple[tuple[int, int], ...]
    free_edges: tuple[tuple[int, int], ...]
    assignment: int

    def arcs(self) -> tuple[tuple[int, int], ...]:
        free = tuple(
            (a, b) if not (self.assignment >> i) & 1 else (b, a)
            for i, (a, b) in enumerate(self.free_edges)
        )
        return self.tree_arcs + free


def _switching_frame(g: Graph):
    # breadth-first tree from vertex 0, children in ascending order
    tree_arcs = []
    seen = {0} if g.n else set()
    queue = deque(seen)
    while queue:
        p = queue.popleft()
        for c in sorted(g.neighbors(p)):
            if c not in seen:
                seen.add(c)
                tree_arcs.append((p, c))
                queue.append(c)
    tree_edges = {(min(a, b), max(a, b)) for a, b in tree_arcs}
    free = tuple(e for e in g.edges if e not in tree_edges)
    return tuple(tree_arcs), free


def switching_classes(g: Graph):
    """Yield one orientation per switching class, in assignment order."""
    if not g.is_connected():
        raise ValueError("switching classes are enumerated for connected graphs")
    tree_arcs, free = _switching_frame(g)
    for assignment in range(1 << len(free)):
        yield OrientedGraph(g, SwitchingClassIndex(tree_arcs, free, assignment).arcs())


def _least_assignment(g: Graph, tree_arcs, free) -> int | None:
    """Smallest assignment of the free edges that makes every off-diagonal
    Gram entry vanish, or None. Every vertex pair must have an even number
    of common neighbours, as the parity filter checks."""
    # A form is an int over the free edges' direction bits (bit i is free
    # edge i) plus a constant bit `one`; its value is the parity of the bits
    # it selects from the assignment with `one` set.
    f = len(free)
    one = 1 << f
    variables = one - 1
    # direction bit of each edge: 1 when its arc runs from the larger
    # endpoint to the smaller, so that the edge's sign is (-1)**bit
    direction = {e: 1 << i for i, e in enumerate(free)}
    for p, c in tree_arcs:
        direction[(min(p, c), max(p, c))] = one if p > c else 0

    # (S^T S)[u, v] sums S[w, u] * S[w, v] over the common neighbours w;
    # each product is (-1)**(value of the term's form)
    terms: dict[tuple[int, int], list[int]] = {}
    for w in range(g.n):
        around = sorted(g.neighbors(w))
        for i, u in enumerate(around):
            for v in around[i + 1:]:
                t = direction[(min(w, u), max(w, u))] ^ direction[(min(w, v), max(w, v))]
                terms.setdefault((u, v), []).append(t ^ (one if (w < u) != (w < v) else 0))

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
    # set (settled[0] the constant ones); left[2j + value] is how many more
    # terms of counted pair j may take that value
    settled: list[list[tuple[int, int]]] = [[] for _ in range(len(order) + 1)]
    left = []
    for j, (c, pair_terms) in enumerate(counted):
        left += [c, c]
        for t in pair_terms:
            r = reduce(t)
            low = r & -r & variables
            settled[depth_of[low] + 1 if low else 0].append((2 * j, r))

    def count(d: int, x: int, step: int) -> bool:
        # step -1 takes the terms settled at d from their pairs' allowances,
        # +1 gives them back; an overdrawn allowance is restored and fails
        done = []
        for slot, r in settled[d]:
            slot += (r & x).bit_count() & 1
            left[slot] += step
            done.append(slot)
            if left[slot] < 0:
                for s in done:
                    left[s] -= step
                return False
        return True

    x = one
    if not count(0, x, -1):
        return None
    tried = [0] * len(order)
    depth = 0
    while depth < len(order):
        if tried[depth] < 2:
            bit = order[depth]
            x = x | bit if tried[depth] else x & ~bit
            tried[depth] += 1
            if count(depth + 1, x, -1):
                depth += 1
            continue
        tried[depth] = 0
        depth -= 1
        if depth < 0:
            return None
        count(depth + 1, x, +1)

    # each pivot follows from the higher bits of its row
    for pivot in sorted(basis, reverse=True):
        if (basis[pivot] & x).bit_count() & 1:
            x |= pivot
    return x & variables


def find_optimum_orientation(g: Graph, k: int):
    """The switching-class representative with the smallest assignment whose
    Gram is exactly k*I, or None.

    Empty, non-k-regular or disconnected inputs are argument errors; graphs
    failing the common-neighborhood parity filter return None without
    elimination.
    """
    if g.n == 0:
        raise ValueError("input graph is empty")
    if not g.is_regular(k):
        raise ValueError(f"input must be {k}-regular")
    if not g.is_connected():
        raise ValueError("input must be connected")
    mode = "four-regular" if k == 4 else "general-even"
    if not neighbor_parity_report(g, mode).passed:
        return None

    tree_arcs, free = _switching_frame(g)
    assignment = _least_assignment(g, tree_arcs, free)
    if assignment is None:
        return None
    og = OrientedGraph(g, SwitchingClassIndex(tree_arcs, free, assignment).arcs())
    if not is_optimum(og, k):
        raise RuntimeError("GF(2) elimination disagrees with the Gram matrix")
    return og


def enumerate_connected_k_regular(n: int, k: int):
    """One representative per isomorphism class, by orderly backtracking.

    Vertex 0's neighborhood is pinned to 1..k and new vertices are labeled in
    first-touch order, which keeps the labeled search space small while still
    reaching every class. Each completion is refined to stable colours and
    matched only against the kept classes with the same refinement trace;
    the first completion of each class is yielded.

    Twin prune: when vertex v picks neighbours among the touched vertices
    after it, those with the same neighbours so far are twins, and a subset
    that takes a twin without every earlier twin of its group is skipped.
    This never cuts the first completion of a class. Swapping twins a < b
    fixes the finished part, so a completion that takes b but not a at v,
    swapped and with its untouched vertices relabeled in first-touch order,
    is an isomorphic completion that agrees with it before v and takes a
    lexicographically smaller subset with the same fresh count at v; the
    search reaches that one first. The yielded graphs, their labels and
    their order are therefore those of the unpruned search.
    """
    if n < 1 or k < 0:
        raise ValueError("order must be >= 1 and degree >= 0")
    if n > ENUMERATION_ORDER_CAP:
        raise ValueError(
            f"built-in enumeration stops at n={ENUMERATION_ORDER_CAP}; "
            "ingest an external graph6 corpus instead"
        )
    if (n * k) % 2 or k >= n:
        if k == 0 and n == 1:
            yield Graph(1, [])
        return
    if k == 0:
        if n == 1:
            yield Graph(1, [])
        return

    deficit = [k] * n
    adj = [0] * n
    around: list[list[int]] = [[] for _ in range(n)]
    # refinement trace -> match plans of the classes kept with it
    buckets: dict[tuple, list] = {}

    def complete(v: int, next_fresh: int):
        if v == n:
            colours, trace = colouring(adj, around)
            kept = buckets.setdefault(trace, [])
            if all(match(plan, adj, colours) is None for plan in kept):
                kept.append(match_plan(adj, colours))
                yield Graph(n, [(u, w) for u in range(n) for w in around[u] if u < w])
            return
        if deficit[v] == 0:
            yield from complete(v + 1, next_fresh)
            return
        if v > 0 and v == next_fresh:
            return  # untouched vertex: the finished part is already sealed off
        need = deficit[v]
        old = [w for w in range(v + 1, next_fresh) if deficit[w] > 0]
        # old vertices with the same neighbours so far are twins; a subset
        # may take a twin only together with the twin before it (a vertex
        # without one is its own)
        twin_before = {}
        last_with = {}
        for w in old:
            twin_before[w] = last_with.get(adj[w], w)
            last_with[adj[w]] = w
        fresh_avail = n - next_fresh
        for f in range(min(need, fresh_avail) + 1):
            r = need - f
            if r > len(old):
                continue
            fresh = list(range(next_fresh, next_fresh + f))
            for subset in combinations(old, r):
                if any(twin_before[w] not in subset for w in subset):
                    continue
                chosen = list(subset) + fresh
                deficit[v] = 0
                for w in chosen:
                    deficit[w] -= 1
                    adj[v] ^= 1 << w
                    adj[w] ^= 1 << v
                    around[v].append(w)
                    around[w].append(v)
                yield from complete(v + 1, next_fresh + f)
                for w in chosen:
                    deficit[w] += 1
                    adj[v] ^= 1 << w
                    adj[w] ^= 1 << v
                    around[v].pop()
                    around[w].pop()
                deficit[v] = need

    yield from complete(0, 1)


@dataclass(frozen=True)
class CensusRecord:
    graph6: str
    n: int
    has_optimum: bool
    classification: str | None
    witness: tuple[tuple[int, int], ...] | None
    violation: bool


@dataclass(frozen=True)
class CensusReport:
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


@dataclass(frozen=True)
class ConsistencyRecord:
    """Joint outcome of classification and orientation search. classified is
    False for k >= 5, which has no catalogue to disagree with."""

    label: FamilyLabel | None
    optimum_found: bool
    witness: tuple | None
    classified: bool = True

    @property
    def consistent(self) -> bool:
        return not self.classified or (self.label is not None) == self.optimum_found


def theorem_crosscheck(g: Graph, k: int = 4) -> ConsistencyRecord:
    """Classify a connected k-regular graph against the catalogue and search
    it for an optimum orientation by GF(2) elimination; the record is
    consistent when the graph is optimum-orientable exactly when it is a
    catalogue member."""
    classified = k <= 4
    label = classify(g, k).label if classified else None
    witness = find_optimum_orientation(g, k)
    return ConsistencyRecord(
        label,
        witness is not None,
        None if witness is None else witness.arcs,
        classified,
    )


def _census_worker(args) -> CensusRecord:
    g, k = args
    record = theorem_crosscheck(g, k)
    return CensusRecord(
        graph6=emit_graph6(g).decode("ascii"),
        n=g.n,
        has_optimum=record.optimum_found,
        classification=None if record.label is None else str(record.label),
        witness=record.witness,
        violation=not record.consistent,
    )


def census(inputs, k: int, *, workers: int = 1) -> CensusReport:
    """Search + classify every input graph; disagreements become violation
    records, malformed inputs become skip diagnostics instead of errors."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    jobs = []
    skipped = []
    for g in inputs:
        if g.n == 0:
            skipped.append((emit_graph6(g).decode("ascii"), "empty graph"))
        elif not g.is_regular(k):
            skipped.append((emit_graph6(g).decode("ascii"), f"not {k}-regular"))
        elif not g.is_connected():
            skipped.append((emit_graph6(g).decode("ascii"), "not connected"))
        else:
            jobs.append((g, k))
    if workers == 1 or len(jobs) < 2:
        records = [_census_worker(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_census_worker, jobs, chunksize=4))
    return CensusReport(tuple(records), tuple(skipped))
