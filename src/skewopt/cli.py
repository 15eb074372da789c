"""Command-line surface.

Subcommands: generate, verify, energy, search, classify, census.
verify, energy, search and classify read the input file named by their one
positional argument; census reads a graph6 corpus named the same way or
enumerates up to --max-n, exactly one of the two. Only census takes --k; the
rest use the input's largest degree, and classify answers on a connected
regular graph of a catalogued degree (1..4).
Exit codes: 0 success, 1 negative answer under --strict (for census, a
violation or no graph checked at all), 2 unreadable or malformed input,
3 invalid arguments (an empty graph, an arc list above the order limit of
formats.parse_arclist, a generate label of order GRAPH6_ORDER_LIMIT or
more, or graph6 output whose body would exceed GRAPH6_BODY_LIMIT bytes,
among them). generate --oriented, to arcs or JSON, refuses a label above
that arc-list limit, whose output no reader would accept, before it builds
anything. A graph6 body takes n(n-1)/12 bytes and is held whole, in a
few copies, while it is written, so generate refuses a label whose body
would pass 16 MiB (n above about 14,000; hj(65533), just under the graph6
order limit, would need about 5.7 GB) before it builds anything.
Reports are JSON with a fixed key order and floats printed to 12 significant
digits, so identical runs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import classify
from .families import (
    CATALOGUED_DEGREES, FamilyLabel, build_family, family_order, orient_family,
)
from .formats import (
    ARCLIST_ORDER_LIMIT, GRAPH6_ORDER_LIMIT, FormatError, emit_arclist, emit_graph6,
    parse_arclist, parse_graph6_lines,
)
from .graphs import Graph, OrientedGraph
from .matrices import is_optimum, skew_energy
from .search import (
    ENUMERATION_ORDER_CAP, census, enumerate_connected_k_regular,
    find_optimum_orientation,
)
from .verify import neighbor_parity_report

# graph6 output is held whole (see the module docstring)
GRAPH6_BODY_LIMIT = 1 << 24


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="skewopt", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # each subcommand takes only the flags it reads, so a misplaced flag is a
    # usage error rather than silently ignored
    def add(name, command, help_text, *, nargs=None):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(command=command)
        p.add_argument("path", nargs=nargs, help="input file")
        p.add_argument("--output", help="write result here instead of stdout")
        p.add_argument("--strict", action="store_true",
                       help="exit 1 when the answer is negative")
        return p

    g = sub.add_parser("generate", help="emit a family member")
    g.set_defaults(command=_cmd_generate)
    g.add_argument("--output", help="write result here instead of stdout")
    g.add_argument("--format", choices=("graph6", "arcs", "json"), dest="fmt")
    g.add_argument("--family", required=True, help="label such as g2 or gi(3)")
    g.add_argument("--oriented", action="store_true",
                   help="emit the canonical optimum orientation")

    add("verify", _cmd_verify, "check S^T S = kI, k the largest degree (arc-list input)")
    add("energy", _cmd_energy, "skew energy and n*sqrt(largest degree) (arc-list input)")
    add("search", _cmd_search, "optimum orientation at the largest degree (graph6 input)")
    add("classify", _cmd_classify,
        "family membership of a regular graph of degree 1..4 (graph6 input)")

    c = add("census", _cmd_census, "search + classify a whole corpus (graph6 input)",
            nargs="?")
    c.add_argument("--k", type=int, choices=range(1, 9), default=4)
    c.add_argument("--max-n", type=int, choices=range(1, ENUMERATION_ORDER_CAP + 1),
                   dest="max_n", help="use the built-in enumerator up to this order")
    return parser


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(args, payload: bytes) -> None:
    if args.output is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        with open(args.output, "wb") as fh:
            fh.write(payload)


def _single_graph(data: bytes) -> Graph:
    graphs = parse_graph6_lines(data)
    if len(graphs) != 1:
        raise FormatError(f"expected exactly one graph6 record, got {len(graphs)}")
    return graphs[0]


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _json_bytes(report: dict) -> bytes:
    return (json.dumps(report, indent=2) + "\n").encode("ascii")


def _graph_report(g: Graph) -> dict:
    # S^T S has the degrees on its diagonal, so it can be kI only at this k
    k = g.max_degree()
    return {
        "n": g.n,
        "k": k,
        "is_regular": g.is_regular(k),
        "is_connected": g.is_connected(),
    }


def _spectral_fields(og: OrientedGraph) -> dict:
    summary = skew_energy(og)
    return {
        "skew_energy": _round12(summary.skew_energy),
        "upper_bound": _round12(summary.upper_bound),
    }


def _classification_field(g: Graph) -> dict:
    k = g.max_degree()
    if k in CATALOGUED_DEGREES and g.defect(k) is None:
        result = classify(g)
        return {"classification": None if result.label is None else str(result.label)}
    return {}


def _cmd_generate(args) -> int:
    label = FamilyLabel.parse(args.family)
    fmt = args.fmt or ("arcs" if args.oriented else "graph6")
    if args.oriented and fmt == "graph6":
        raise ValueError("graph6 cannot carry an orientation; use arcs or json")
    if not args.oriented and fmt == "arcs":
        raise ValueError("arc-list output needs --oriented")
    # checked before building, which takes seconds near the graph6 bound and
    # runs out of memory beyond it, whatever the format
    n = family_order(label)
    if n >= GRAPH6_ORDER_LIMIT:
        raise ValueError(
            f"{label} has {n} vertices; generated orders stop below {GRAPH6_ORDER_LIMIT}"
        )
    if fmt == "graph6" and (n * (n - 1) // 2 + 5) // 6 > GRAPH6_BODY_LIMIT:
        raise ValueError(
            f"{label} has {n} vertices; its graph6 body would pass {GRAPH6_BODY_LIMIT} bytes"
        )
    # the largest arc list the readers accept, and the JSON report's energy
    # takes the SVD of the dense n x n matrix S
    if args.oriented and n > ARCLIST_ORDER_LIMIT:
        raise ValueError(
            f"{label} has {n} vertices; oriented output stops at {ARCLIST_ORDER_LIMIT}"
        )
    if args.oriented:
        og = orient_family(label)
        if fmt == "arcs":
            _write(args, emit_arclist(og))
            return 0
        report = _graph_report(og.base)
        # orient_family raises unless the Gram is exactly kI
        report["gram_is_kI"] = True
        report.update(_spectral_fields(og))
        report["classification"] = str(label)
        report["arcs"] = og.arcs
        _write(args, _json_bytes(report))
        return 0
    g = build_family(label)
    if fmt == "graph6":
        _write(args, emit_graph6(g) + b"\n")
        return 0
    report = _graph_report(g)
    report["classification"] = str(label)
    report["edges"] = g.edges
    _write(args, _json_bytes(report))
    return 0


def _oriented_input(args) -> OrientedGraph:
    og = parse_arclist(_read(args.path))
    if og.base.n == 0:
        # every statement about the Gram of an empty graph holds vacuously
        raise ValueError("input graph is empty")
    return og


def _cmd_verify(args) -> int:
    og = _oriented_input(args)
    report = _graph_report(og.base)
    report["gram_is_kI"] = is_optimum(og)
    report.update(_spectral_fields(og))
    report.update(_classification_field(og.base))
    report["violations"] = neighbor_parity_report(og.base).violations
    report["optimum"] = report["gram_is_kI"]
    _write(args, _json_bytes(report))
    return 1 if args.strict and not report["optimum"] else 0


def _cmd_energy(args) -> int:
    og = _oriented_input(args)
    report = _graph_report(og.base)
    report.update(_spectral_fields(og))
    _write(args, _json_bytes(report))
    # E = n*sqrt(k) exactly when S^T S = kI; with no arcs both are 0
    return 1 if args.strict and not is_optimum(og) else 0


def _cmd_search(args) -> int:
    g = _single_graph(_read(args.path))
    report = _graph_report(g)
    witness = find_optimum_orientation(g)
    report.update(_classification_field(g))
    if witness is None:
        report["violations"] = neighbor_parity_report(g).violations
        report["optimum_orientation"] = None
    else:
        # find_optimum_orientation returns a witness only past the parity
        # filter and raises unless its Gram is exactly kI
        report["violations"] = ()
        report["gram_is_kI"] = True
        report.update(_spectral_fields(witness))
        report["optimum_orientation"] = witness.arcs
    _write(args, _json_bytes(report))
    return 1 if args.strict and witness is None else 0


def _cmd_classify(args) -> int:
    g = _single_graph(_read(args.path))
    result = classify(g)
    report = _graph_report(g)
    report["classification"] = None if result.label is None else str(result.label)
    _write(args, _json_bytes(report))
    return 1 if args.strict and result.label is None else 0


def _cmd_census(args) -> int:
    if (args.max_n is None) == (args.path is None):
        raise ValueError("census needs exactly one of a corpus file or --max-n")
    if args.max_n is not None:
        graphs = [
            g
            for n in range(1, args.max_n + 1)
            for g in enumerate_connected_k_regular(n, args.k)
        ]
    else:
        graphs = parse_graph6_lines(_read(args.path))
    report = census(graphs, args.k)
    payload = {
        "k": args.k,
        "totals": report.totals(),
        # the record's fields are the report's keys, in order
        "records": [r._asdict() for r in report.records],
        "skipped": report.skipped,
        "violations": [r.graph6 for r in report.violations],
    }
    _write(args, _json_bytes(payload))
    # a census that checked no graph answers nothing
    return 1 if args.strict and (report.violations or not report.records) else 0


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.command(args)
    # FormatError is a ValueError, so it is caught first
    except (FormatError, OSError) as exc:
        print(f"skewopt: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"skewopt: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run(sys.argv[1:]))
