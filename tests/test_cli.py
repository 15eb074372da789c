from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

import skewopt
from oracles import relabel, small_orientations
from skewopt import (
    C4, G1, G2, G3, K2, K4, Q3, Q4, Graph, OrientedGraph, build_family,
    emit_arclist, emit_graph6, gi, hj, is_optimum, orient_family, parse_arclist,
)
from skewopt.cli import ARCLIST_ORDER_LIMIT, GRAPH6_BODY_LIMIT, run


def write_graph6(tmp_path, name, g):
    path = tmp_path / name
    path.write_bytes(emit_graph6(g) + b"\n")
    return str(path)


def run_json(argv, capsysbinary):
    code = run(argv)
    out = capsysbinary.readouterr().out
    return code, json.loads(out.decode("ascii")), out


def test_generate_oriented_arcs(tmp_path):
    # gi(498), 1998 vertices, is the largest gi whose arc list the readers
    # accept (ARCLIST_ORDER_LIMIT)
    for label in (G2, gi(498)):
        out = tmp_path / "member.arcs"
        assert run(["generate", "--family", str(label), "--oriented",
                    "--output", str(out)]) == 0
        og = orient_family(label)
        assert out.read_bytes() == emit_arclist(og)
        assert parse_arclist(out.read_bytes()) == og


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


def test_generate_json_reports_the_label_classify_prints(tmp_path, capsysbinary):
    # a generated graph is its label's member at every catalogued degree
    for label in ("g1", "g2", "g3", "q4", "k2", "c4", "k4", "q3", "gi(1)", "hj(1)"):
        g6 = tmp_path / "member.g6"
        assert run(["generate", "--family", label, "--output", str(g6)]) == 0
        code, report, _ = run_json(["classify", str(g6)], capsysbinary)
        assert code == 0 and report["classification"] == label
        for extra in ([], ["--oriented"]):
            code, report, _ = run_json(
                ["generate", "--family", label, *extra, "--format", "json"],
                capsysbinary)
            assert code == 0
            assert report["classification"] == label, (label, extra)


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
    code, report, _ = run_json(["verify", str(path), "--strict"], capsysbinary)
    assert code == 1
    assert report["k"] == 2 and report["is_regular"] is True
    assert report["optimum"] is False and report["violations"] == []
    assert run(["verify", str(path)]) == 0
    capsysbinary.readouterr()


def test_energy_report(tmp_path, capsysbinary):
    path = tmp_path / "path.arcs"
    path.write_bytes(b"3 2\n0 1\n1 2\n")
    code, report, out = run_json(["energy", str(path)], capsysbinary)
    assert code == 0
    assert report["k"] == 2 and report["is_regular"] is False
    assert report["skew_energy"] == 2.82842712475
    assert report["upper_bound"] == 4.24264068712
    assert b'"skew_energy": 2.82842712475' in out
    assert run(["energy", str(path), "--strict"]) == 1
    capsysbinary.readouterr()


def test_energy_strict_asks_the_gram_test(tmp_path, capsysbinary):
    # the bound n*sqrt(d) is attained exactly when S^T S = dI; with no arcs
    # it is 0 and attained
    bare = tmp_path / "bare.arcs"
    bare.write_bytes(b"3 0\n")
    og = orient_family(G2)
    member = tmp_path / "g2.arcs"
    member.write_bytes(emit_arclist(og))
    arcs = list(og.arcs)
    arcs[0] = arcs[0][::-1]
    flipped = tmp_path / "flipped.arcs"
    flipped.write_bytes(emit_arclist(OrientedGraph(og.base, arcs)))
    for path, want in ((bare, 0), (member, 0), (flipped, 1)):
        assert run(["energy", str(path), "--strict"]) == want, path.name
    capsysbinary.readouterr()


def test_members_answer_at_their_own_degree(tmp_path, capsysbinary):
    # S^T S has the degrees on its diagonal, so verify, energy, search and
    # classify judge each input at its largest degree, and every member of
    # every degree passes with no flag, the paper's cubic K4 and Q3 among them
    for label in (K2, C4, K4, Q3, G1, G2, G3, Q4, gi(1), hj(1)):
        og = orient_family(label)
        arcs = tmp_path / "member.arcs"
        arcs.write_bytes(emit_arclist(og))
        code, report, _ = run_json(["verify", str(arcs), "--strict"], capsysbinary)
        assert code == 0, label
        assert report["k"] == label.regularity and report["optimum"] is True, label
        # the classification field takes the same place at every degree
        assert list(report) == [
            "n", "k", "is_regular", "is_connected", "gram_is_kI", "skew_energy",
            "upper_bound", "classification", "violations", "optimum"], label
        assert report["classification"] == str(label), label
        assert run(["energy", str(arcs), "--strict"]) == 0, label
        capsysbinary.readouterr()
        g6 = write_graph6(tmp_path, "member.g6", og.base)
        code, report, _ = run_json(["search", g6, "--strict"], capsysbinary)
        assert code == 0 and report["k"] == label.regularity, label
        assert report["classification"] == str(label), label
        witness = [tuple(a) for a in report["optimum_orientation"]]
        assert is_optimum(OrientedGraph(og.base, witness)), label
        code, report, _ = run_json(["classify", g6, "--strict"], capsysbinary)
        assert code == 0 and report["classification"] == str(label), label


def test_verify_and_energy_strict_agree(tmp_path, capsysbinary):
    path = tmp_path / "o.arcs"
    seen = {True: 0, False: 0}
    for og in small_orientations(4):
        path.write_bytes(emit_arclist(og))
        _, report, _ = run_json(["verify", str(path)], capsysbinary)
        energy = run(["energy", str(path), "--strict"])
        capsysbinary.readouterr()
        assert report["optimum"] == (energy == 0), og.arcs
        seen[report["optimum"]] += 1
    assert seen[True] + seen[False] == 760 and seen[True] > 0 and seen[False] > 0


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
    assert is_optimum(OrientedGraph(g, arcs))
    assert report["gram_is_kI"] is True

    k5_path = write_graph6(tmp_path, "k5.g6",
                           Graph(5, list(combinations(range(5), 2))))
    code, report, _ = run_json(["search", k5_path, "--strict"], capsysbinary)
    assert code == 1
    assert report["optimum_orientation"] is None
    assert [v[:3] for v in report["violations"][:1]] == [[0, 1, 3]]


def test_generate_rejects_orders_graph6_cannot_hold(capsysbinary):
    # hj(66000) has 264004 vertices; the order is checked before building in
    # every format, since building alone runs out of memory near 10**6
    for extra in ([], ["--format", "json"], ["--oriented"],
                  ["--oriented", "--format", "json"]):
        start = time.perf_counter()
        assert run(["generate", "--family", "hj(66000)"] + extra) == 3, extra
        assert time.perf_counter() - start < 0.5, extra
        assert capsysbinary.readouterr().out == b"", extra


def test_generate_graph6_body_limit(capsysbinary):
    # hj(65533) is just under the graph6 order limit, and its body would take
    # about 5.7 GB; the body size is checked before building, in graph6 only
    start = time.perf_counter()
    assert run(["generate", "--family", "hj(65533)"]) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert str(GRAPH6_BODY_LIMIT).encode("ascii") in captured.err
    # the first hj whose body passes the limit is refused as fast, and the
    # limit leaves the small members alone
    j = next(j for j in range(1, 65534) if (4 * j + 4) * (4 * j + 3) // 12 >= GRAPH6_BODY_LIMIT)
    start = time.perf_counter()
    assert run(["generate", "--family", f"hj({j})"]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsysbinary.readouterr().out == b""
    assert run(["generate", "--family", "hj(300)"]) == 0
    assert capsysbinary.readouterr().out == emit_graph6(build_family(hj(300))) + b"\n"


# any text, and text shaped like a label with spacing, parentheses and
# digits in the wrong places
_FAMILY_TEXT = st.one_of(
    st.text(max_size=12),
    st.from_regex(r"\s?(gi|hj|GI|g[1-4]|q[34]|k[24]|c4)\s?\(?\s?-?\d{0,3}\s?\)?\s?",
                  fullmatch=True),
)


@settings(max_examples=300, deadline=None)
@given(_FAMILY_TEXT)
def test_generate_any_family_text_exits_zero_or_three(text):
    assert run(["generate", "--family", text, "--output", os.devnull]) in (0, 3)


_SUBCOMMANDS = ("generate", "verify", "energy", "search", "classify", "census")
_FLAGS = ("--input", "--output", "--k", "--max-n", "--strict", "--family",
          "--format", "--oriented", "--workers", "--help", "-h", "--")
# no order 9..12, so that no example runs a slow census; <a>, <b>, <dir> and
# <missing> stand for the example's input files, its directory and a path
# that does not exist
_VALUES = ("-1", "0", "1", "2", "3", "4", "8", "13", "99", "9" * 30, "4.0",
           "", " ", "x", "-", "g2", "gi(1)", "hj(2)", "k4", "k9", "hj(9999999)",
           "graph6", "arcs", "json", os.devnull, "<a>", "<b>", "<dir>", "<missing>")
_INPUTS = (
    b"", b"?\n", b"A_\n", b"A_\nA_\n", b"~\n", b"~~\n", b"\xff\xfe\n",
    emit_graph6(build_family(G2)) + b"\n",
    emit_graph6(build_family(hj(1))) + b"\n" + emit_graph6(build_family(G1)) + b"\n",
    emit_graph6(Graph(5, list(combinations(range(5), 2)))) + b"\n",
    emit_arclist(orient_family(G2)), b"0 0\n", b"2 1\n0 1\n", b"2 1\n1 0\n0 1\n",
    b"3 1\n0 5\n", b"3 2\n0 1\n0 1\n", b"-1 0\n", b"2 x\n", b"2001 0\n",
)
_FILE = st.one_of(st.sampled_from(_INPUTS), st.binary(max_size=40))
# mostly a subcommand, often with an input file, and flag-value pairs, with
# stray tokens among them
_ARGV = st.tuples(
    st.one_of(
        st.tuples(st.sampled_from(_SUBCOMMANDS)),
        st.tuples(st.sampled_from(_SUBCOMMANDS), st.sampled_from(("<a>", "<b>"))),
        st.tuples(st.sampled_from(_FLAGS + _VALUES)),
    ),
    st.lists(st.one_of(
        st.tuples(st.sampled_from(_FLAGS), st.sampled_from(_VALUES)),
        st.tuples(st.sampled_from(_SUBCOMMANDS + _FLAGS + _VALUES)),
    ), max_size=5),
).map(lambda t: [token for tokens in (t[0], *t[1]) for token in tokens])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_ARGV, _FILE, _FILE)
def test_any_argv_exits_with_a_documented_code(argv, a, b):
    # random argv from the subcommands, flags, junk values and junk input
    # files; run returns a documented exit code and raises nothing. It runs
    # in a scratch directory, so a relative --output lands there
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        paths = {"<a>": os.path.join(root, "a"), "<b>": os.path.join(root, "b"),
                 "<dir>": root, "<missing>": os.path.join(root, "no", "such")}
        with open(paths["<a>"], "wb") as fh:
            fh.write(a)
        with open(paths["<b>"], "wb") as fh:
            fh.write(b)
        os.chdir(root)
        try:
            assert run([paths.get(token, token) for token in argv]) in (0, 1, 2, 3)
        finally:
            os.chdir(cwd)


def test_generate_oriented_json_above_the_arclist_limit_exits_three(tmp_path, capsysbinary):
    # hj(500) has 2004 vertices; the JSON energy would take the SVD of a
    # dense 2004 x 2004 matrix, and gi(499) (2002 vertices) would be an arc
    # list that verify, energy and parse_arclist refuse, so the order is
    # checked before building and nothing is written
    out = tmp_path / "big"
    for argv in (["--family", "hj(500)", "--format", "json"],
                 ["--family", "gi(499)"],
                 ["--family", "gi(499)", "--format", "arcs"]):
        start = time.perf_counter()
        assert run(["generate", "--oriented", *argv]) == 3, argv
        assert time.perf_counter() - start < 0.5, argv
        captured = capsysbinary.readouterr()
        assert captured.out == b"", argv
        assert str(ARCLIST_ORDER_LIMIT).encode("ascii") in captured.err, argv
        assert run(["generate", "--oriented", *argv, "--output", str(out)]) == 3, argv
        assert not out.exists(), argv


# run in a fresh interpreter, so that its peak RSS is this generate's alone
# the peak is VmHWM, this process's own high-water mark in KiB: on Linux
# ru_maxrss also keeps the parent's peak across fork and exec, so it would
# read the test runner's memory, which Hypothesis's first text draw takes to
# about 240 MB when its Unicode cache is not yet on disk
_TIMED_GENERATE = """
import os, sys, time
from skewopt.cli import run
start = time.perf_counter()
code = run(["generate", "--output", os.devnull] + sys.argv[1:])
seconds = time.perf_counter() - start
with open("/proc/self/status") as fh:
    peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(code, seconds, peak)
"""


def _child_env() -> dict:
    # a fresh interpreter that imports this checkout's skewopt
    root = os.path.dirname(os.path.dirname(skewopt.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (root, os.environ.get("PYTHONPATH")))))


def test_generate_large_member_builds_no_bitsets():
    # hj(16383) has 65536 vertices. The JSON report reads only the edges;
    # bitsets for it would take about n^2/15 = 286 MB. On x86-64 Linux with
    # Python 3.11 the peak is about 90-125 MB, and 380-410 MB if Graph
    # builds its bitsets with its edges (oriented output stops at
    # ARCLIST_ORDER_LIMIT vertices)
    done = subprocess.run(
        [sys.executable, "-c", _TIMED_GENERATE, "--family", "hj(16383)",
         "--format", "json"],
        env=_child_env(), capture_output=True, check=True, timeout=60,
    )
    code, seconds, peak_kib = done.stdout.split()
    assert int(code) == 0
    assert float(seconds) < 10.0
    assert int(peak_kib) < 250 * 1024


def test_importing_the_cli_leaves_numpy_unloaded():
    # only the skew matrix needs numpy, which takes most of the import time
    # of the commands that build none
    done = subprocess.run(
        [sys.executable, "-c", "import sys, skewopt.cli; print('numpy' in sys.modules)"],
        env=_child_env(), capture_output=True, check=True, timeout=60,
    )
    assert done.stdout.strip() == b"False"


def test_classify_large_relabeled_member(tmp_path, capsysbinary):
    # hj(300) has 1204 vertices; a matcher recursing once per vertex would
    # overflow the interpreter stack here
    g = build_family(hj(300))
    perm = list(range(g.n))
    random.Random(41).shuffle(perm)
    path = write_graph6(tmp_path, "hj300.g6", relabel(g, perm))
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


def test_search_without_a_witness_runs_one_parity_report(tmp_path, monkeypatch, capsysbinary):
    # the search prefilter stops at K5's first odd pair; only the report's
    # violations take a full scan
    original = sys.modules["skewopt.verify"].neighbor_parity_report
    calls = []

    def counted(g):
        calls.append(g.n)
        return original(g)

    for name, module in list(sys.modules.items()):
        if (name == "skewopt" or name.startswith("skewopt.")) and (
                getattr(module, "neighbor_parity_report", None) is original):
            monkeypatch.setattr(module, "neighbor_parity_report", counted)
    k5_path = write_graph6(tmp_path, "k5.g6", Graph(5, list(combinations(range(5), 2))))
    code, report, _ = run_json(["search", k5_path], capsysbinary)
    assert code == 0
    assert report["optimum_orientation"] is None and report["violations"]
    assert calls == [5]


def test_report_bytes_are_pinned(tmp_path, capsysbinary):
    # sha256 of each report's stdout; only optimum members, whose printed
    # energies (16.0, 24.0) are exact
    g1_path = tmp_path / "g1.arcs"
    g1_path.write_bytes(emit_arclist(orient_family(G1)))
    hj2_path = write_graph6(tmp_path, "hj2.g6", build_family(hj(2)))
    k5_path = write_graph6(tmp_path, "k5.g6",
                           Graph(5, list(combinations(range(5), 2))))
    pins = [
        (["generate", "--family", "gi(2)", "--format", "json"],
         "3d859a1e7e0a8d43441b1a80e6efdd18ae4392c1e2dbe8ae0268bcaa79b8fc33"),
        (["generate", "--family", "hj(2)", "--oriented", "--format", "json"],
         "0555d608fdf5131d3e43bda4aeb07993bed25528626200b0be27db554889b70f"),
        (["verify", str(g1_path)],
         "8f5894dd9a711656600dec368fcb12cd9e173b61fdc034db2d4c6168a7d4f6fa"),
        (["energy", str(g1_path)],
         "662c9f2fbdfa62ea750ecfb0f817af8da89547a7c8983f01d1c772b111ea1b95"),
        (["search", hj2_path],
         "c234ff6760f4489d7065a0f91a01e74290a9280b174a5b9949b5c840382bbe22"),
        (["search", k5_path],
         "ca62e5a190a99952d2a10cf7621a4ca6ef8a3d645fd256795af35d6910575125"),
        (["classify", hj2_path],
         "4f9c13c2cb00934bc314c640d2feb5f1da6262373a43aca50e32cd6335b4e651"),
    ]
    for argv, want in pins:
        assert run(argv) == 0, argv
        out = capsysbinary.readouterr().out
        assert hashlib.sha256(out).hexdigest() == want, argv


def test_catalogue_bytes_are_pinned(capsysbinary):
    # one sha256 over the oriented arc list and the graph6 line of every
    # fixed member and of gi(1..10), hj(1..10), in this order
    labels = ["g1", "g2", "g3", "q4", "k2", "c4", "k4", "q3"]
    labels += [f"{kind}({i})" for kind in ("gi", "hj") for i in range(1, 11)]
    digest = hashlib.sha256()
    for label in labels:
        for extra in (["--oriented"], []):
            assert run(["generate", "--family", label, *extra]) == 0, label
            digest.update(capsysbinary.readouterr().out)
    assert digest.hexdigest() == (
        "1054e6e0bbac2651f8fa7ae409927a23e0ef88719131dbb82ed9b354ce252988")


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
    code, report, _ = run_json(["census", str(corpus)], capsysbinary)
    assert code == 0
    assert [r["classification"] for r in report["records"]] == ["g2", "g1"]
    assert report["skipped"] == [["A_", "not 4-regular"]]


def test_census_strict_fails_when_no_graph_was_checked(tmp_path, capsysbinary):
    # an empty or blank corpus, a corpus of skipped graphs and an order too
    # small for any quartic graph check nothing, which is no "yes"
    empty = tmp_path / "empty.g6"
    empty.write_bytes(b"")
    blank = tmp_path / "blank.g6"
    blank.write_bytes(b"\n \n\t\n")
    skipped = tmp_path / "skipped.g6"
    skipped.write_bytes(emit_graph6(Graph(2, [(0, 1)])) + b"\n"
                        + emit_graph6(build_family(K4)) + b"\n")
    for argv, skips in (([str(empty)], 0), ([str(blank)], 0), ([str(skipped)], 2),
                        (["--max-n", "4", "--k", "4"], 0)):
        code, report, plain = run_json(["census", *argv], capsysbinary)
        assert code == 0, argv
        assert (len(report["records"]), len(report["skipped"])) == (0, skips), argv
        assert run(["census", *argv, "--strict"]) == 1, argv
        assert capsysbinary.readouterr().out == plain


def test_census_argument_validation(tmp_path):
    assert run(["census"]) == 3
    corpus = tmp_path / "c.g6"
    corpus.write_bytes(b"A_\n")
    assert run(["census", str(corpus), "--max-n", "6"]) == 3
    assert run(["census", "--max-n", "6", str(corpus)]) == 3
    assert run(["census", "--max-n", "0"]) == 3


def test_census_above_the_order_cap_exits_three_at_once(capsysbinary):
    # the order is checked before any enumeration; enumerating k=6 up to the
    # cap first would take about 40 s
    start = time.perf_counter()
    assert run(["census", "--max-n", "13", "--k", "6"]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsysbinary.readouterr().out == b""


def test_flag_validation(tmp_path):
    path = tmp_path / "x.arcs"
    path.write_bytes(b"2 1\n0 1\n")
    assert run(["census", "--max-n", "4", "--k", "9"]) == 3
    assert run(["census", "--max-n", "4", "--k", "0"]) == 3
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
        assert run([sub, g2_path, "--k", "4"]) == 3
        assert run([sub, g2_path, "--workers", "2"]) == 3
        assert run([sub, g2_path, "--format", "json"]) == 3
    assert run(["census", "--max-n", "5", "--format", "arcs"]) == 3
    assert run(["census", "--max-n", "4", "--workers", "2"]) == 3
    for flag in (["--k", "7"], ["--strict"], ["--input", g2_path]):
        assert run(["generate", "--family", "g2", *flag]) == 3
    # inputs are positional only, only census takes --k, and classify matches
    # 4-regular graphs only
    for sub in ("search", "classify", "verify", "energy"):
        assert run([sub, "--input", g2_path]) == 3
    assert run(["census", "--input", g2_path]) == 3
    assert capsysbinary.readouterr().out == b""
    code, report, _ = run_json(["classify", g2_path], capsysbinary)
    assert code == 0 and report["classification"] == "g2"


def test_search_empty_graph_exits_three(tmp_path, capsysbinary):
    empty = tmp_path / "empty.g6"
    empty.write_bytes(b"?\n")
    for command in ("search", "classify"):
        assert run([command, str(empty)]) == 3
        captured = capsysbinary.readouterr()
        assert captured.out == b"" and b"empty" in captured.err


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
    # str.split would read FS and US as field separators and accept the arc
    bad_arcs.write_bytes(b"2\x1c1\n0\x1f1\n")
    assert run(["verify", str(bad_arcs)]) == 2


def test_semantic_errors_exit_three(tmp_path, capsysbinary):
    # classify takes k from the largest degree, so K4 answers as a cubic
    # graph; a path is not 2-regular, and there is no 5-regular catalogue
    k4 = write_graph6(tmp_path, "k4.g6",
                      Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    code, report, _ = run_json(["classify", k4], capsysbinary)
    assert code == 0 and report["classification"] == "k4"
    path = write_graph6(tmp_path, "path.g6", Graph(3, [(0, 1), (1, 2)]))
    k6 = write_graph6(tmp_path, "k6.g6", Graph(6, list(combinations(range(6), 2))))
    for g6, why in ((path, b"not 2-regular"), (k6, b"5-regular")):
        assert run(["classify", g6]) == 3
        captured = capsysbinary.readouterr()
        assert captured.out == b"" and why in captured.err
    # search takes k from the largest degree too: an irregular or
    # disconnected graph has no optimum orientation to look for
    k5 = list(combinations(range(5), 2))
    two_k5 = write_graph6(tmp_path, "two-k5.g6",
                          Graph(10, k5 + [(u + 5, v + 5) for u, v in k5]))
    for g6, why in ((path, b"not 2-regular"), (two_k5, b"not connected")):
        assert run(["search", g6]) == 3
        captured = capsysbinary.readouterr()
        assert captured.out == b"" and why in captured.err
