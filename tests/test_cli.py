from __future__ import annotations

import json
import random
import time
from itertools import combinations

from skewopt import (
    G1, G2, Graph, OrientedGraph, build_family, emit_arclist, emit_graph6, hj,
    is_optimum, orient_family,
)
from skewopt.cli import ARCLIST_ORDER_LIMIT, run


def write_graph6(tmp_path, name, g):
    path = tmp_path / name
    path.write_bytes(emit_graph6(g) + b"\n")
    return str(path)


def run_json(argv, capsysbinary):
    code = run(argv)
    out = capsysbinary.readouterr().out
    return code, json.loads(out.decode("ascii")), out


def test_generate_oriented_arcs(tmp_path):
    out = tmp_path / "g2.arcs"
    assert run(["generate", "--family", "g2", "--oriented",
                "--output", str(out)]) == 0
    assert out.read_bytes() == emit_arclist(orient_family(G2))


def test_generate_then_classify(tmp_path, capsysbinary):
    out = tmp_path / "g2.g6"
    assert run(["generate", "--family", "g2", "--output", str(out)]) == 0
    assert out.read_bytes() == emit_graph6(build_family(G2)) + b"\n"
    code, report, _ = run_json(["classify", str(out)], capsysbinary)
    assert code == 0
    assert report["classification"] == "g2"
    assert list(report) == ["n", "k", "is_regular", "is_connected",
                            "classification"]


def test_generate_format_validation():
    assert run(["generate", "--family", "g2", "--oriented",
                "--format", "graph6"]) == 3
    assert run(["generate", "--family", "g2", "--format", "arcs"]) == 3
    assert run(["generate", "--family", "k9"]) == 3


def test_generate_json_payloads(capsysbinary):
    code, report, _ = run_json(
        ["generate", "--family", "gi(1)", "--format", "json"], capsysbinary)
    assert code == 0
    assert report["n"] == 10 and report["classification"] == "gi(1)"
    assert len(report["edges"]) == 20
    code, report, _ = run_json(
        ["generate", "--family", "g1", "--oriented", "--format", "json"],
        capsysbinary)
    assert code == 0
    assert report["gram_is_kI"] is True
    assert report["skew_energy"] == 16.0 and report["upper_bound"] == 16.0
    assert len(report["arcs"]) == 16


def test_verify_member(tmp_path, capsysbinary):
    path = tmp_path / "g1.arcs"
    path.write_bytes(emit_arclist(orient_family(G1)))
    code, report, _ = run_json(["verify", str(path), "--strict"], capsysbinary)
    assert code == 0
    assert list(report) == ["n", "k", "is_regular", "is_connected",
                            "gram_is_kI", "skew_energy", "upper_bound",
                            "classification", "violations", "optimum"]
    assert report["optimum"] is True
    assert report["classification"] == "g1"
    assert report["violations"] == []


def test_verify_strict_failure(tmp_path, capsysbinary):
    path = tmp_path / "ring.arcs"
    path.write_bytes(b"4 4\n0 1\n1 2\n2 3\n3 0\n")
    code, report, _ = run_json(["verify", str(path), "--k", "2", "--strict"],
                               capsysbinary)
    assert code == 1
    assert report["optimum"] is False and report["violations"] == []
    assert run(["verify", str(path), "--k", "2"]) == 0
    capsysbinary.readouterr()


def test_energy_report(tmp_path, capsysbinary):
    path = tmp_path / "path.arcs"
    path.write_bytes(b"3 2\n0 1\n1 2\n")
    code, report, out = run_json(["energy", str(path), "--k", "2"], capsysbinary)
    assert code == 0
    assert report["skew_energy"] == 2.82842712475
    assert report["upper_bound"] == 4.24264068712
    assert b'"skew_energy": 2.82842712475' in out
    assert run(["energy", str(path), "--k", "2", "--strict"]) == 1
    capsysbinary.readouterr()


def test_energy_of_singular_star(tmp_path, capsysbinary):
    # K_{1,9} oriented alternately; S is singular and the energy is 2*sqrt(9)
    star = Graph(10, [(0, i) for i in range(1, 10)])
    arcs = [(0, i) if i % 2 else (i, 0) for i in range(1, 10)]
    path = tmp_path / "star.arcs"
    path.write_bytes(emit_arclist(OrientedGraph(star, arcs)))
    code, report, out = run_json(["energy", str(path)], capsysbinary)
    assert code == 0
    assert b'"skew_energy": 6.0,' in out


def test_search_member_and_nonmember(tmp_path, capsysbinary):
    g2_path = write_graph6(tmp_path, "g2.g6", build_family(G2))
    code, report, _ = run_json(["search", g2_path], capsysbinary)
    assert code == 0
    arcs = [tuple(a) for a in report["optimum_orientation"]]
    g = build_family(G2)
    assert is_optimum(OrientedGraph(g, arcs), 4)
    assert report["gram_is_kI"] is True

    k5_path = write_graph6(tmp_path, "k5.g6",
                           Graph(5, list(combinations(range(5), 2))))
    code, report, _ = run_json(["search", k5_path, "--strict"], capsysbinary)
    assert code == 1
    assert report["optimum_orientation"] is None
    assert [v[:3] for v in report["violations"][:1]] == [[0, 1, 3]]


def test_generate_rejects_orders_graph6_cannot_hold(capsysbinary):
    # hj(66000) has 264004 vertices; the order is checked before building
    assert run(["generate", "--family", "hj(66000)"]) == 3
    assert capsysbinary.readouterr().out == b""


def test_generate_oriented_json_above_the_arclist_limit_exits_three(capsysbinary):
    # hj(500) has 2004 vertices; the JSON energy would take the SVD of a
    # dense 2004 x 2004 matrix, so the order is checked before building
    start = time.perf_counter()
    assert run(["generate", "--family", "hj(500)", "--oriented",
                "--format", "json"]) == 3
    assert time.perf_counter() - start < 0.5
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert str(ARCLIST_ORDER_LIMIT).encode("ascii") in captured.err


def test_classify_large_relabeled_member(tmp_path, capsysbinary):
    # hj(300) has 1204 vertices; a matcher recursing once per vertex would
    # overflow the interpreter stack here
    g = build_family(hj(300))
    perm = list(range(g.n))
    random.Random(41).shuffle(perm)
    path = write_graph6(tmp_path, "hj300.g6", g.relabel(perm))
    start = time.perf_counter()
    code, report, out = run_json(["classify", path], capsysbinary)
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert b'"classification": "hj(300)"' in out
    assert report["n"] == 1204


def test_arclist_orders_above_the_limit_exit_three(tmp_path, capsysbinary):
    # checked from the header, before any n x n matrix is allocated
    for order in (ARCLIST_ORDER_LIMIT + 1, 20000, 10**12):
        path = tmp_path / "big.arcs"
        path.write_bytes(f"{order} 0\n".encode("ascii"))
        for command in ("energy", "verify"):
            start = time.perf_counter()
            assert run([command, str(path)]) == 3
            assert time.perf_counter() - start < 1.0
            captured = capsysbinary.readouterr()
            assert captured.out == b""
            assert str(ARCLIST_ORDER_LIMIT).encode("ascii") in captured.err


def test_census_enumerated(capsysbinary):
    code, report, first = run_json(
        ["census", "--max-n", "6", "--strict"], capsysbinary)
    assert code == 0
    assert report["k"] == 4
    assert report["totals"] == [[5, 1, 0], [6, 1, 1]]
    assert report["violations"] == []
    optima = [r for r in report["records"] if r["has_optimum"]]
    assert [r["classification"] for r in optima] == ["g2"]
    assert run(["census", "--max-n", "6", "--strict"]) == 0
    second = capsysbinary.readouterr().out
    assert second == first


def test_census_from_file(tmp_path, capsysbinary):
    corpus = tmp_path / "corpus.g6"
    lines = [emit_graph6(build_family(G2)), emit_graph6(build_family(G1)),
             emit_graph6(Graph(2, [(0, 1)]))]
    corpus.write_bytes(b"\n".join(lines) + b"\n")
    code, report, _ = run_json(["census", "--input", str(corpus)], capsysbinary)
    assert code == 0
    assert [r["classification"] for r in report["records"]] == ["g2", "g1"]
    assert report["skipped"] == [["A_", "not 4-regular"]]


def test_census_argument_validation(tmp_path):
    assert run(["census"]) == 3
    corpus = tmp_path / "c.g6"
    corpus.write_bytes(b"A_\n")
    assert run(["census", "--max-n", "6", "--input", str(corpus)]) == 3
    assert run(["census", "--max-n", "0"]) == 3


def test_flag_validation(tmp_path):
    path = tmp_path / "x.arcs"
    path.write_bytes(b"2 1\n0 1\n")
    assert run(["verify", str(path), "--k", "9"]) == 3
    assert run(["verify", str(path), "--k", "0"]) == 3
    assert run(["census", "--max-n", "4", "--workers", "0"]) == 3
    assert run(["verify", str(path), "--input", str(path)]) == 3
    assert run(["verify"]) == 3
    assert run([]) == 3
    assert run(["--help"]) == 0
    assert run(["frobnicate"]) == 3


def test_flags_that_do_nothing_are_rejected(tmp_path, capsysbinary):
    g2_path = write_graph6(tmp_path, "g2.g6", build_family(G2))
    assert run(["classify", g2_path, "--k", "5"]) == 3
    assert run(["generate", "--family", "g2", "--workers", "7"]) == 3
    for sub in ("search", "classify", "verify", "energy"):
        assert run([sub, g2_path, "--workers", "2"]) == 3
        assert run([sub, g2_path, "--format", "json"]) == 3
    assert run(["census", "--max-n", "5", "--format", "arcs"]) == 3
    for flag in (["--k", "7"], ["--strict"], ["--input", g2_path]):
        assert run(["generate", "--family", "g2", *flag]) == 3
    assert capsysbinary.readouterr().out == b""
    code, report, _ = run_json(["classify", g2_path, "--k", "4"], capsysbinary)
    assert code == 0 and report["classification"] == "g2"


def test_search_empty_graph_exits_three(tmp_path, capsysbinary):
    empty = tmp_path / "empty.g6"
    empty.write_bytes(b"?\n")
    assert run(["search", str(empty)]) == 3
    assert capsysbinary.readouterr().out == b""


def test_empty_arc_list_exits_three(tmp_path, capsysbinary):
    # S^T S = kI holds vacuously on no vertices; that is no answer
    empty = tmp_path / "empty.arcs"
    empty.write_bytes(b"0 0\n")
    for command in ("verify", "energy"):
        for strict in ([], ["--strict"]):
            assert run([command, str(empty), *strict]) == 3
            captured = capsysbinary.readouterr()
            assert captured.out == b"" and b"empty" in captured.err


def test_io_error_codes(tmp_path):
    assert run(["classify", str(tmp_path / "missing.g6")]) == 2
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"A\n")
    assert run(["classify", str(bad)]) == 2
    two = tmp_path / "two.g6"
    two.write_bytes(b"A_\nA_\n")
    assert run(["search", str(two)]) == 2
    bad_arcs = tmp_path / "bad.arcs"
    bad_arcs.write_bytes(b"2 1\n0 0\n")
    assert run(["verify", str(bad_arcs)]) == 2


def test_semantic_errors_exit_three(tmp_path):
    k4 = write_graph6(tmp_path, "k4.g6",
                      Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    assert run(["classify", str(k4)]) == 3
    assert run(["search", str(k4)]) == 3
