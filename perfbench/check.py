"""Output checker for the skewopt benchmark, independent of skewopt.

It parses the CLI's JSON reports and recomputes every claim with numpy and
this benchmark's own codecs: Gram matrices from the arcs, energies from the
singular values of S, parity violations from A^2, census totals from the
published counts.  Each check returns None when the report is right and a
one-line reason when it is wrong.
"""

from __future__ import annotations

import math

import numpy as np

import gen

# OEIS A006820: connected 4-regular graphs on n = 5..10 vertices; of those,
# the optimum-orientable ones are g2 (n=6), g1 and hj(1) (n=8), gi(1) (n=10).
CENSUS_TOTALS = [[5, 1, 0], [6, 1, 1], [7, 2, 0], [8, 6, 2], [9, 16, 0], [10, 59, 1]]
CENSUS_MEMBERS = [("g1", 8), ("g2", 6), ("gi(1)", 10), ("hj(1)", 8)]
# The program sums sqrt(mu) over the eigenvalues mu of S^T S.  A singular
# value of S near 0 then carries sqrt(error in mu): with mu good to ~1e-12 *
# |S^T S| that is ~1e-6 absolute (1e-9 relative seen at n=46), while a wrong
# eigenvalue moves the energy by far more than 1e-6 relative.
ENERGY_RTOL = 1e-6


def skew(n: int, arcs) -> np.ndarray:
    s = np.zeros((n, n), dtype=np.int64)
    for t, h in arcs:
        s[t, h], s[h, t] = 1, -1
    return s


def gram_is_kI(n: int, arcs, k: int = 4) -> bool:
    s = skew(n, arcs)
    return bool(np.array_equal(s.T @ s, k * np.eye(n, dtype=np.int64)))


def witness_problem(n: int, edges, witness) -> str | None:
    """None when the arcs orient exactly the given edges and S^T S = 4I."""
    arcs = [tuple(a) for a in witness]
    if sorted((min(t, h), max(t, h)) for t, h in arcs) != sorted(edges):
        return "witness arcs are not an orientation of the input graph"
    if not gram_is_kI(n, arcs):
        return "witness Gram is not 4I"
    return None


def parity_violations(n: int, edges) -> list:
    """Four-regular parity filter: adjacent pairs need 0 or 2 common
    neighbours, non-adjacent pairs 0, 2 or 4."""
    a = gen.adjacency(n, edges)
    c = a @ a
    out = []
    for u in range(n):
        for v in range(u + 1, n):
            adj = bool(a[u, v])
            count = int(c[u, v])
            if count not in ((0, 2) if adj else (0, 2, 4)):
                out.append([u, v, count, adj])
    return out


def _close(x: float, y: float) -> bool:
    return math.isclose(x, y, rel_tol=ENERGY_RTOL, abs_tol=ENERGY_RTOL)


def _header(report: dict, n: int) -> str | None:
    want = {"n": n, "k": 4, "is_regular": True, "is_connected": True}
    got = {key: report.get(key) for key in want}
    return None if got == want else f"header {got} != {want}"


def check_census(report: dict, expect: dict) -> str | None:
    totals = [row for row in CENSUS_TOTALS if row[0] <= expect["max_n"]]
    members = [label for label, n in CENSUS_MEMBERS if n <= expect["max_n"]]
    if report.get("k") != 4:
        return "census k is not 4"
    if report.get("totals") != totals:
        return f"census totals {report.get('totals')} != {totals}"
    if report.get("violations") != [] or report.get("skipped") != []:
        return "census reports violations or skipped graphs"
    records = report.get("records", [])
    if len(records) != sum(row[1] for row in totals):
        return f"census has {len(records)} records"
    labels = sorted(r["classification"] for r in records if r["classification"] is not None)
    if labels != members:
        return f"census classifies {labels}, expected {members}"
    for r in records:
        n, edges = gen.g6_decode(r["graph6"])
        if n != r["n"] or any(len([e for e in edges if v in e]) != 4 for v in range(n)):
            return f"census record {r['graph6']} is not a 4-regular graph on {r['n']} vertices"
        found = r["witness"] is not None
        if r["has_optimum"] != found or (r["classification"] is not None) != found:
            return f"census record {r['graph6']} disagrees with itself"
        if found:
            problem = witness_problem(n, edges, r["witness"])
            if problem:
                return f"census record {r['graph6']}: {problem}"
    return None


def check_search(report: dict, expect: dict) -> str | None:
    n, edges, label = expect["n"], expect["edges"], expect["label"]
    problem = _header(report, n)
    if problem:
        return problem
    if report.get("classification") != label:
        return f"classification {report.get('classification')} != {label}"
    if report.get("violations") != parity_violations(n, edges):
        return "parity violations differ from A^2"
    witness = report.get("optimum_orientation")
    if label is None:
        return None if witness is None else "witness for a certified non-member"
    if witness is None:
        return f"no witness for member {label}"
    if report.get("gram_is_kI") is not True:
        return "witness reported without gram_is_kI"
    return witness_problem(n, edges, witness)


def check_classify(report: dict, expect: dict) -> str | None:
    problem = _header(report, expect["n"])
    if problem:
        return problem
    if report.get("classification") != expect["label"]:
        return f"classification {report.get('classification')} != {expect['label']}"
    return None


def _energy_problem(report: dict, n: int, arcs) -> str | None:
    energy = float(np.linalg.svd(skew(n, arcs).astype(float), compute_uv=False).sum())
    if not _close(report.get("skew_energy", math.nan), energy):
        return f"skew_energy {report.get('skew_energy')} != svd sum {energy}"
    if not _close(report.get("upper_bound", math.nan), 2.0 * n):
        return f"upper_bound {report.get('upper_bound')} != 2n"
    return None


def check_verify(report: dict, expect: dict) -> str | None:
    n, arcs = expect["n"], expect["arcs"]
    problem = _header(report, n) or _energy_problem(report, n, arcs)
    if problem:
        return problem
    optimum = gram_is_kI(n, arcs)
    if optimum != expect["optimum"]:
        return "input orientation is not what the generator produced"
    if report.get("gram_is_kI") != optimum or report.get("optimum") != optimum:
        return f"gram_is_kI/optimum reported {report.get('optimum')}, numpy says {optimum}"
    if optimum and not _close(report["skew_energy"], 2.0 * n):
        return "optimum orientation does not reach energy 2n"
    if report.get("classification") != expect["label"]:
        return f"classification {report.get('classification')} != {expect['label']}"
    if report.get("violations") != []:
        return "parity violations reported for a member"
    return None


def check_energy(report: dict, expect: dict) -> str | None:
    n, arcs = expect["n"], expect["arcs"]
    problem = _header(report, n) or _energy_problem(report, n, arcs)
    if problem:
        return problem
    if expect["optimum"] and not _close(report["skew_energy"], 2.0 * n):
        return "optimum orientation does not reach energy 2n"
    return None


CHECKS = {
    "census": check_census,
    "search": check_search,
    "classify": check_classify,
    "verify": check_verify,
    "energy": check_energy,
}
