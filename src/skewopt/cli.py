"""Command-line surface.

Subcommands: generate, verify, energy, search, classify, census.
Exit codes: 0 success, 1 negative answer under --strict, 2 unreadable or
malformed input, 3 invalid arguments (an empty graph, or an arc list above
ARCLIST_ORDER_LIMIT vertices, among them).
Reports are JSON with a fixed key order and floats printed to 12 significant
digits, so identical runs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .classify import classify
from .families import FamilyLabel, build_family, family_order, orient_family
from .formats import (
    GRAPH6_ORDER_LIMIT, FormatError, emit_arclist, emit_graph6, parse_arclist,
    parse_graph6_lines,
)
from .graphs import Graph, OrientedGraph
from .matrices import is_optimum, skew_energy
from .search import census, enumerate_connected_k_regular, find_optimum_orientation
from .verify import neighbor_parity_report

K_RANGE = (1, 8)
# verify, energy and generate --oriented --format json build dense n x n
# matrices (numpy's SVD of S takes about 1.6 s at n = 2000 and 14 s at
# n = 4000), so larger inputs exit 3
ARCLIST_ORDER_LIMIT = 2000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    input_path: str | None
    output_path: str | None
    fmt: str | None
    family: str | None
    oriented: bool
    k: int
    max_n: int | None
    workers: int
    strict: bool

    def __post_init__(self):
        if not K_RANGE[0] <= self.k <= K_RANGE[1]:
            raise _UsageError(f"--k must lie in {K_RANGE[0]}..{K_RANGE[1]}")
        if self.workers < 1:
            raise _UsageError("--workers must be >= 1")
        if self.max_n is not None and self.max_n < 1:
            raise _UsageError("--max-n must be >= 1")


def _build_parser() -> _Parser:
    parser = _Parser(prog="skewopt", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # each subcommand takes only the flags it reads, so a misplaced flag is a
    # usage error rather than silently ignored
    def add(name, help_text, *, path_arg=True):
        p = sub.add_parser(name, help=help_text)
        if path_arg:
            p.add_argument("path", nargs="?", help="input file (or use --input)")
        p.add_argument("--input", help="input file")
        p.add_argument("--output", help="write result here instead of stdout")
        p.add_argument("--k", type=int, default=4)
        p.add_argument("--strict", action="store_true",
                       help="exit 1 when the answer is negative")
        return p

    g = sub.add_parser("generate", help="emit a family member")
    g.add_argument("--output", help="write result here instead of stdout")
    g.add_argument("--format", choices=("graph6", "arcs", "json"), dest="fmt")
    g.add_argument("--family", required=True, help="label such as g2 or gi(3)")
    g.add_argument("--oriented", action="store_true",
                   help="emit the canonical optimum orientation")

    add("verify", "check an oriented graph (arc-list input)")
    add("energy", "spectral summary of an oriented graph (arc-list input)")
    add("search", "exhaustive optimum-orientation search (graph6 input)")
    add("classify", "family membership of a 4-regular graph (graph6 input)")

    c = add("census", "search + classify a whole corpus", path_arg=False)
    c.add_argument("--max-n", type=int, dest="max_n",
                   help="use the built-in enumerator up to this order")
    c.add_argument("--workers", type=int, default=1)
    return parser


def _config(args) -> RunConfig:
    path = getattr(args, "path", None)
    given = getattr(args, "input", None)
    if path is not None and given is not None:
        raise _UsageError("give the input either positionally or via --input")
    return RunConfig(
        subcommand=args.subcommand,
        input_path=path if path is not None else given,
        output_path=args.output,
        fmt=getattr(args, "fmt", None),
        family=getattr(args, "family", None),
        oriented=getattr(args, "oriented", False),
        k=getattr(args, "k", 4),
        max_n=getattr(args, "max_n", None),
        workers=getattr(args, "workers", 1),
        strict=getattr(args, "strict", False),
    )


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(cfg: RunConfig, payload: bytes) -> None:
    if cfg.output_path is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        with open(cfg.output_path, "wb") as fh:
            fh.write(payload)


def _require_input(cfg: RunConfig) -> bytes:
    if cfg.input_path is None:
        raise _UsageError(f"{cfg.subcommand} needs an input file")
    return _read(cfg.input_path)


def _single_graph(data: bytes) -> Graph:
    graphs = parse_graph6_lines(data)
    if len(graphs) != 1:
        raise FormatError(f"expected exactly one graph6 record, got {len(graphs)}")
    return graphs[0]


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _json_bytes(report: dict) -> bytes:
    return (json.dumps(report, indent=2) + "\n").encode("ascii")


def _parity_violations(g: Graph, k: int) -> list:
    mode = "four-regular" if k == 4 and g.is_regular(4) else "general-even"
    report = neighbor_parity_report(g, mode)
    return [[u, v, count, adj] for u, v, count, adj in report.violations]


def _graph_report(g: Graph, k: int) -> dict:
    degrees = set(g.degrees())
    return {
        "n": g.n,
        "k": k,
        "is_regular": len(degrees) <= 1 and (not degrees or degrees == {k}),
        "is_connected": g.is_connected(),
    }


def _spectral_fields(og: OrientedGraph, k: int) -> dict:
    summary = skew_energy(og)
    return {
        "gram_is_kI": is_optimum(og, k),
        "skew_energy": _round12(summary.skew_energy),
        "upper_bound": _round12(summary.upper_bound),
    }


def _classification_field(g: Graph) -> dict:
    if g.is_regular(4) and g.is_connected():
        result = classify(g)
        return {"classification": None if result.label is None else str(result.label)}
    return {}


def _cmd_generate(cfg: RunConfig) -> int:
    label = FamilyLabel.parse(cfg.family)
    fmt = cfg.fmt or ("arcs" if cfg.oriented else "graph6")
    if cfg.oriented and fmt == "graph6":
        raise _UsageError("graph6 cannot carry an orientation; use arcs or json")
    if not cfg.oriented and fmt == "arcs":
        raise _UsageError("arc-list output needs --oriented")
    # checked before building, which takes seconds at this size
    if fmt == "graph6" and family_order(label) >= GRAPH6_ORDER_LIMIT:
        raise _UsageError(
            f"{label} has {family_order(label)} vertices; graph6 orders "
            f"stop below {GRAPH6_ORDER_LIMIT}"
        )
    # the JSON report's energy takes the SVD of the dense n x n matrix S
    if cfg.oriented and fmt == "json" and family_order(label) > ARCLIST_ORDER_LIMIT:
        raise _UsageError(
            f"{label} has {family_order(label)} vertices; oriented JSON reports "
            f"stop at {ARCLIST_ORDER_LIMIT}"
        )
    if cfg.oriented:
        og = orient_family(label)
        if fmt == "arcs":
            _write(cfg, emit_arclist(og))
            return 0
        report = _graph_report(og.base, label.regularity)
        report.update(_spectral_fields(og, label.regularity))
        report["classification"] = str(label) if label.regularity == 4 else None
        report["arcs"] = [list(a) for a in og.arcs]
        _write(cfg, _json_bytes(report))
        return 0
    g = build_family(label)
    if fmt == "graph6":
        _write(cfg, emit_graph6(g) + b"\n")
        return 0
    report = _graph_report(g, label.regularity)
    report["classification"] = str(label) if label.regularity == 4 else None
    report["edges"] = [list(e) for e in g.edges]
    _write(cfg, _json_bytes(report))
    return 0


def _oriented_input(cfg: RunConfig) -> OrientedGraph:
    og = parse_arclist(_require_input(cfg), ARCLIST_ORDER_LIMIT)
    if og.base.n == 0:
        # every statement about the Gram of an empty graph holds vacuously
        raise ValueError("input graph is empty")
    return og


def _cmd_verify(cfg: RunConfig) -> int:
    og = _oriented_input(cfg)
    report = _graph_report(og.base, cfg.k)
    report.update(_spectral_fields(og, cfg.k))
    report.update(_classification_field(og.base))
    report["violations"] = _parity_violations(og.base, cfg.k)
    report["optimum"] = report["gram_is_kI"]
    _write(cfg, _json_bytes(report))
    return 1 if cfg.strict and not report["optimum"] else 0


def _cmd_energy(cfg: RunConfig) -> int:
    og = _oriented_input(cfg)
    summary = skew_energy(og)
    report = _graph_report(og.base, cfg.k)
    report["skew_energy"] = _round12(summary.skew_energy)
    report["upper_bound"] = _round12(summary.upper_bound)
    _write(cfg, _json_bytes(report))
    return 1 if cfg.strict and not summary.attains_bound() else 0


def _cmd_search(cfg: RunConfig) -> int:
    g = _single_graph(_require_input(cfg))
    witness = find_optimum_orientation(g, cfg.k)
    report = _graph_report(g, cfg.k)
    report.update(_classification_field(g))
    report["violations"] = _parity_violations(g, cfg.k)
    if witness is None:
        report["optimum_orientation"] = None
    else:
        report.update(_spectral_fields(witness, cfg.k))
        report["optimum_orientation"] = [list(a) for a in witness.arcs]
    _write(cfg, _json_bytes(report))
    return 1 if cfg.strict and witness is None else 0


def _cmd_classify(cfg: RunConfig) -> int:
    if cfg.k != 4:
        raise _UsageError("classify matches 4-regular graphs only; --k must be 4")
    g = _single_graph(_require_input(cfg))
    result = classify(g)
    report = _graph_report(g, 4)
    report["classification"] = None if result.label is None else str(result.label)
    _write(cfg, _json_bytes(report))
    return 1 if cfg.strict and result.label is None else 0


def _cmd_census(cfg: RunConfig) -> int:
    if (cfg.max_n is None) == (cfg.input_path is None):
        raise _UsageError("census needs exactly one of --max-n or --input")
    if cfg.max_n is not None:
        graphs = [
            g
            for n in range(1, cfg.max_n + 1)
            for g in enumerate_connected_k_regular(n, cfg.k)
        ]
    else:
        graphs = parse_graph6_lines(_read(cfg.input_path))
    report = census(graphs, cfg.k, workers=cfg.workers)
    payload = {
        "k": cfg.k,
        "totals": [list(row) for row in report.totals()],
        "records": [
            {
                "graph6": r.graph6,
                "n": r.n,
                "has_optimum": r.has_optimum,
                "classification": r.classification,
                "witness": None if r.witness is None else [list(a) for a in r.witness],
                "violation": r.violation,
            }
            for r in report.records
        ],
        "skipped": [[enc, reason] for enc, reason in report.skipped],
        "violations": [r.graph6 for r in report.violations],
    }
    _write(cfg, _json_bytes(payload))
    return 1 if cfg.strict and report.violations else 0


_COMMANDS = {
    "generate": _cmd_generate,
    "verify": _cmd_verify,
    "energy": _cmd_energy,
    "search": _cmd_search,
    "classify": _cmd_classify,
    "census": _cmd_census,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        cfg = _config(args)
        return _COMMANDS[cfg.subcommand](cfg)
    except _UsageError as exc:
        print(f"skewopt: {exc}", file=sys.stderr)
        return 3
    except FormatError as exc:
        print(f"skewopt: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"skewopt: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"skewopt: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run(sys.argv[1:]))
