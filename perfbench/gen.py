"""Seeded input generator for the skewopt benchmark.

Every workload is a list of Items: one CLI invocation each, plus what the
independent checker needs to judge its output.  Catalogue members are made
with the program's own `generate` subcommand; everything else (relabelings,
2-switches, random quartic graphs, random orientations) is made here with
this file's own graph6 and arc-list codecs, so the program only ever sees the
files.

Non-members carry a certificate that needs no classifier: a vertex pair with
an odd number of common neighbours makes (S^T S)[u, v] a sum of an odd number
of +-1 terms, so no orientation has S^T S = 4I and, by the paper's theorem,
the graph is outside the catalogue.  Random graphs without such a pair are
redrawn from the same generator, never skipped by timing.

Every member with n >= 10 is triangle-free, and the classifier's backtracking
on a triangle-free non-member of a member's order is as slow as on a near
miss.  About 1 random quartic graph in 90 is triangle-free, so per-seed random
graphs would put a whole time limit into one seed in three or so.  The
seeded random graphs therefore contain a triangle, and classify_relabeled
carries a fixed triangle-free (bipartite) non-member at every member order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Relabelings and 2-switches of members take the classifier from milliseconds
# to hangs depending on the permutation drawn, and the Jacobi solver's time on
# a random orientation of one member varies 3-5x with the draw.  Those draws
# are fixed here, not taken from --seed, so one seed's luck does not swing
# wall_s and done_frac by whole items.  The slow and hanging items stay in
# every run.
CATALOGUE_SEED = 20130402

SEARCH_MEMBERS = ["g1", "g2", "g3", "q4"] + [f"gi({i})" for i in range(1, 5)] + [
    f"hj({j})" for j in range(1, 6)
]
SEARCH_NONMEMBER_ORDERS = [10 + i % 31 for i in range(100)]

CLASSIFY_MEMBERS = ["g1", "g2", "g3", "q4"] + [f"gi({i})" for i in range(1, 7)] + [
    f"hj({j})" for j in range(1, 7)
]
CLASSIFY_PERMUTATIONS = 3
CLASSIFY_NEAR_MISSES = ["g3", "q4"] + [f"gi({i})" for i in range(1, 7)] + [
    f"hj({j})" for j in range(2, 7)
]
# random graphs are over half the items, so the median item is one of them
CLASSIFY_RANDOM_ORDERS = [n for n in range(10, 31, 2) for _ in range(7)]
CLASSIFY_TRIANGLE_FREE_ORDERS = list(range(10, 31, 2))

VERIFY_MEMBERS = [f"{kind}({i})" for i in range(10, 41, 6) for kind in ("gi", "hj")]


@dataclass
class Item:
    """One CLI invocation; `expect` is what the checker of its subcommand
    compares the report against."""

    name: str
    argv: list[str]
    expect: dict = field(default_factory=dict)
    seeded: bool = False


# ---------------------------------------------------------------------------
# codecs, written independently of skewopt.formats
# ---------------------------------------------------------------------------

def g6_encode(n: int, edges) -> str:
    if n >= 63:
        raise ValueError("benchmark graphs stay below 63 vertices")
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (u, v) in present else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[i:i + 6])), 2)) for i in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def g6_decode(text: str) -> tuple[int, list[tuple[int, int]]]:
    text = text.strip()
    n = ord(text[0]) - 63
    if n > 62:
        raise ValueError("benchmark graphs stay below 63 vertices")
    bits = "".join(format(ord(c) - 63, "06b") for c in text[1:])
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    return n, [p for p, b in zip(pairs, bits) if b == "1"]


def arcs_encode(n: int, arcs) -> str:
    return f"{n} {len(arcs)}\n" + "".join(f"{t} {h}\n" for t, h in arcs)


def arcs_decode(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = text.split()
    n, m = int(lines[0]), int(lines[1])
    vals = list(map(int, lines[2:]))
    if len(vals) != 2 * m:
        raise ValueError("arc list length does not match its header")
    return n, list(zip(vals[0::2], vals[1::2]))


# ---------------------------------------------------------------------------
# graph operations
# ---------------------------------------------------------------------------

def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        a[u, v] = a[v, u] = 1
    return a


def has_odd_pair(n: int, edges) -> bool:
    """Certificate of non-membership: some pair has an odd common-neighbour count."""
    c = adjacency(n, edges)
    c = c @ c
    np.fill_diagonal(c, 0)
    return bool((c % 2).any())


def has_triangle(n: int, edges) -> bool:
    a = adjacency(n, edges)
    return bool(((a @ a) * a).any())


def is_connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _switch_once(edges: list, present: set, rng: random.Random) -> None:
    """Replace edges ab, cd by ac, bd in place (degrees kept), staying simple."""
    while True:
        i, j = rng.sample(range(len(edges)), 2)
        a, b = edges[i]
        c, d = edges[j] if rng.random() < 0.5 else edges[j][::-1]
        if len({a, b, c, d}) < 4:
            continue
        f1, f2 = (min(a, c), max(a, c)), (min(b, d), max(b, d))
        if f1 in present or f2 in present:
            continue
        present -= {edges[i], edges[j]}
        present |= {f1, f2}
        edges[i], edges[j] = f1, f2
        return


def two_switch(edges, rng: random.Random, times: int = 1):
    edges = sorted(edges)
    present = set(edges)
    for _ in range(times):
        _switch_once(edges, present, rng)
    return sorted(edges)


def random_quartic_nonmember(n: int, rng: random.Random):
    """Connected 4-regular graph on n vertices with a triangle and an odd-pair
    certificate: the circulant C_n(1, 2) scrambled by random 2-switches."""
    base = [(min(v, (v + s) % n), max(v, (v + s) % n)) for v in range(n) for s in (1, 2)]
    while True:
        edges = two_switch(base, rng, times=3 * len(base))
        if is_connected(n, edges) and has_triangle(n, edges) and has_odd_pair(n, edges):
            return edges


def random_bipartite_nonmember(n: int, rng: random.Random):
    """Connected 4-regular bipartite graph (sides 0..n/2-1 and n/2..n-1) with
    an odd-pair certificate, scrambled by side-preserving 2-switches."""
    h = n // 2
    while True:
        edges = [(i, h + (i + s) % h) for i in range(h) for s in range(4)]
        present = set(edges)
        for _ in range(3 * len(edges)):
            i, j = rng.sample(range(len(edges)), 2)
            (a, b), (c, d) = edges[i], edges[j]
            if (a, d) in present or (c, b) in present:
                continue
            present -= {edges[i], edges[j]}
            edges[i], edges[j] = (a, d), (c, b)
            present |= {edges[i], edges[j]}
        if is_connected(n, edges) and has_odd_pair(n, edges):
            return sorted(edges)


def near_miss(n: int, edges, rng: random.Random):
    """One 2-switch away from a member, connected, with a certificate."""
    while True:
        out = two_switch(edges, rng)
        if is_connected(n, out) and has_odd_pair(n, out):
            return out


def relabel(n: int, edges, rng: random.Random):
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Builder:
    """Writes one workload's input files into `work` and lists its Items."""

    def __init__(self, work: Path, cli_run):
        self.work = work
        self.cli_run = cli_run
        self.items: list[Item] = []
        work.mkdir(parents=True, exist_ok=True)

    def member_g6(self, label: str) -> tuple[int, list]:
        path = self.work / "member.g6"
        if self.cli_run(["generate", "--family", label, "--output", str(path)]) != 0:
            raise RuntimeError(f"skewopt generate failed for {label}")
        return g6_decode(path.read_text())

    def member_arcs(self, label: str) -> tuple[int, list]:
        path = self.work / "member.arcs"
        if self.cli_run(["generate", "--family", label, "--oriented",
                         "--output", str(path)]) != 0:
            raise RuntimeError(f"skewopt generate --oriented failed for {label}")
        return arcs_decode(path.read_text())

    def add(self, name: str, command: str, text: str, seeded: bool = False, **expect):
        suffix = "arcs" if command in ("verify", "energy") else "g6"
        path = self.work / f"in{len(self.items):03d}.{suffix}"
        path.write_text(text)
        self.items.append(Item(name, [command, str(path)], expect, seeded))


def census_item(max_n: int) -> Item:
    # the census enumerates its own graphs; nothing to seed
    return Item(f"census --max-n {max_n} --k 4",
                ["census", "--max-n", str(max_n), "--k", "4"], {"max_n": max_n})


def census_quartic(b: Builder, seed: int) -> None:
    b.items.append(census_item(10))


def search_members(b: Builder, seed: int) -> None:
    for label in SEARCH_MEMBERS:
        n, edges = b.member_g6(label)
        b.add(f"search {label}", "search", g6_encode(n, edges) + "\n",
              n=n, edges=edges, label=label)
    rng = random.Random(seed)
    for n in SEARCH_NONMEMBER_ORDERS:
        edges = random_quartic_nonmember(n, rng)
        b.add(f"search random n={n}", "search", g6_encode(n, edges) + "\n", seeded=True,
              n=n, edges=edges, label=None)
    # a small census, so enumeration and census deduplication run beside
    # the search (census_quartic has the full one)
    b.items.append(census_item(9))


def classify_relabeled(b: Builder, seed: int) -> None:
    fixed = random.Random(CATALOGUE_SEED)
    members = {label: b.member_g6(label) for label in CLASSIFY_MEMBERS}
    for label in CLASSIFY_MEMBERS:
        n, edges = members[label]
        for p in range(CLASSIFY_PERMUTATIONS):
            g = relabel(n, edges, fixed)
            b.add(f"classify {label} perm{p}", "classify", g6_encode(n, g) + "\n",
                  n=n, label=label)
    for label in CLASSIFY_NEAR_MISSES:
        n, edges = members[label]
        g = relabel(n, near_miss(n, edges, fixed), fixed)
        b.add(f"classify 2-switched {label}", "classify", g6_encode(n, g) + "\n",
              n=n, label=None)
    for n in CLASSIFY_TRIANGLE_FREE_ORDERS:
        g = random_bipartite_nonmember(n, fixed)
        b.add(f"classify triangle-free n={n}", "classify", g6_encode(n, g) + "\n",
              n=n, label=None)
    rng = random.Random(seed)
    for n in CLASSIFY_RANDOM_ORDERS:
        g = random_quartic_nonmember(n, rng)
        b.add(f"classify random n={n}", "classify", g6_encode(n, g) + "\n", seeded=True,
              n=n, label=None)


def verify_energy(b: Builder, seed: int) -> None:
    # no input here depends on the seed: see CATALOGUE_SEED
    rng = random.Random(CATALOGUE_SEED)
    for label in VERIFY_MEMBERS:
        n, arcs = b.member_arcs(label)
        flipped = sorted((h, t) if rng.random() < 0.5 else (t, h) for t, h in arcs)
        for kind, a in (("optimum", arcs), ("random", flipped)):
            text = arcs_encode(n, a)
            for command in ("verify", "energy"):
                b.add(f"{command} {label} {kind}", command, text,
                      n=n, arcs=a, label=label, optimum=kind == "optimum")


WORKLOADS = {
    "census_quartic": census_quartic,
    "search_members": search_members,
    "classify_relabeled": classify_relabeled,
    "verify_energy": verify_energy,
}


def build(workload: str, seed: int, work: Path, cli_run) -> list[Item]:
    b = Builder(work, cli_run)
    WORKLOADS[workload](b, seed)
    (work / "member.g6").unlink(missing_ok=True)
    (work / "member.arcs").unlink(missing_ok=True)
    # The seeded items are cheap rejects and run first; the catalogue items
    # follow in a fixed shuffled order, so the rounds of repeats that follow
    # their slow items (run.run_pass) spread the cheap items' invocations
    # over the whole pass.
    random.Random(CATALOGUE_SEED).shuffle(b.items)
    b.items.sort(key=lambda item: not item.seeded)
    return b.items
