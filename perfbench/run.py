"""skewopt benchmark: seeded CLI workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload search_members --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from ./src and
driven through its public entry, skewopt.cli.run, in this process, with
--output to a file; every output is checked by perfbench/check.py, which does
not use skewopt.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (see run_passes), --trace 1 the
per-layer metrics of one traced pass and the tracing overhead (see
per_layer).  Full per-item results, and the spans of a traced run, are
written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread: idle BLAS threads spin on the second core and make the
# timings of a small shared machine depend on its neighbours.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402,F401  imported before set-up is timed: the checker needs it too

import check
import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 11
# The machine's speed swings by a third within seconds, and its slow phases
# can last minutes; CPU time swings with wall time.  A CPU-time timer
# therefore times a fixed loop of the benchmark's own (reference_work) every
# SAMPLE_CPU_S of the run, and each invocation's latency is scaled by
# REFERENCE_S / the median of the samples taken during it and in the
# SPEED_WINDOW_S before it: it is given at the reference machine's speed
# when nothing else holds the core (REFERENCE_S is the loop's median time
# then).  In 8 back-to-back gi(4) searches (sampled every 50 ms) this took
# the spread (standard deviation over mean) from 13 % to 3 %.  An item's
# latency is the median of its scaled invocations: every item has at least
# MIN_PASSES, and the items under CHEAP_S also MIN_INVOCATIONS, in rounds
# spread over each pass (run_pass).
CHEAP_S = 0.05
ROUND_S = 0.5
MIN_INVOCATIONS = 8
MIN_PASSES = 2
SAMPLE_CPU_S = 0.025
SPEED_WINDOW_S = 0.5
REFERENCE_S = 0.00016
speed_samples: list[tuple[float, float]] = []  # (end, duration) of each sample

# Per-item limits, each between the slowest finishing item on a busy machine
# and the fastest timed-out item on a quiet one (measurements in
# perfbench/README.md).
TIME_LIMIT_S = {
    "census_quartic": 60.0,
    "search_members": 20.0,
    "classify_relabeled": 1.5,
    "verify_energy": 10.0,
}


class ItemTimeout(BaseException):
    """Raised by SIGALRM inside the program; BaseException so that the CLI's
    own `except ValueError/OSError` handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise ItemTimeout


def load_program():
    """Fresh import of skewopt from ./src; returns the skewopt.cli module."""
    for key in [k for k in sys.modules if k == "skewopt" or k.startswith("skewopt.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    return importlib.import_module("skewopt.cli")


def run_item(item: gen.Item, index: int, out_path: Path, limit: float,
             expected: bytes | None = None) -> dict:
    """One CLI invocation.  The report is checked by check.py, or, when
    `expected` is given, must repeat those already checked bytes."""
    out_path.unlink(missing_ok=True)
    argv = item.argv + ["--output", str(out_path)]
    status, detail, code = "ok", None, None
    first = len(speed_samples)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        code = sys.modules["skewopt.cli"].run(argv)
    except ItemTimeout:
        status = "timeout"
    except Exception as exc:  # a crash is a failed item, not a failed benchmark
        status, detail = "error", f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        latency, scaled, samples = timed_since(start, first)
    if status == "ok" and code != 0:
        status, detail = "error", f"exit code {code}"
    elif status == "ok" and expected is not None:
        if out_path.read_bytes() != expected:
            status, detail = "wrong", "report differs from the checked one"
    elif status == "ok":
        try:
            detail = check.CHECKS[item.argv[0]](json.loads(out_path.read_text()), item.expect)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            detail = f"unreadable report: {exc}"
        if detail:
            status = "wrong"
    size = out_path.stat().st_size if out_path.exists() else 0
    return {"index": index, "item": item.name, "status": status, "latency_s": latency,
            "scaled_s": scaled, "speed_samples": samples, "detail": detail,
            "bytes_out": size}


def run_pass(todo, items, work: Path, limit: float, cheap: dict | None) -> list[dict]:
    """Each (index, item) of `todo` once.  With `cheap` (index -> checked
    report, kept across passes), the items that finished correctly in under
    CHEAP_S are invoked once more in a round every ROUND_S seconds of the
    pass, or every two rounds' time if a round takes longer than half of
    that."""
    results = []
    last_round, spacing = time.perf_counter(), ROUND_S
    for i, item in todo:
        path = work / f"out{i:03d}.json"
        r = run_item(item, i, path, limit)
        results.append(r)
        if cheap is not None and r["status"] == "ok" and r["latency_s"] < CHEAP_S:
            cheap.setdefault(i, path.read_bytes())
        if cheap is not None and time.perf_counter() - last_round >= spacing:
            start = time.perf_counter()
            results.extend(round_of(cheap, items, work, limit))
            last_round = time.perf_counter()
            spacing = max(ROUND_S, 2 * (last_round - start))
    return results


def round_of(cheap: dict, items, work: Path, limit: float) -> list[dict]:
    return [run_item(items[j], j, work / f"out{j:03d}.json", limit, expected)
            for j, expected in cheap.items()]


def reference_work() -> int:
    """Fixed pure-Python work like the program's hot loop in search: a sum
    of signed products over a list."""
    x = [1, -1, -1, 1, 1, 1, -1, 1] * 8
    total = 0
    for i in range(32):
        for j in range(64):
            total += x[j] * x[(i + j) & 63] * ((i ^ j) & 3)
    return total


def _on_profile_timer(signum, frame):
    reference_work()  # warms the caches, as the program's own hot loop is warm
    start = time.perf_counter()
    reference_work()
    end = time.perf_counter()
    speed_samples.append((end, end - start))


def timed_since(start: float, first: int) -> tuple[float, float, int]:
    """Time since `start` less the samples' own time (samples from index
    `first` on were taken since), that time scaled by REFERENCE_S / the
    median sample since SPEED_WINDOW_S before `start`, and that count."""
    end = time.perf_counter()
    warm = 2  # a sample costs two loops, one of them timed
    latency = end - start - warm * sum(d for _, d in speed_samples[first:])
    window = [d for _, d in speed_samples[
        bisect.bisect_left(speed_samples, (start - SPEED_WINDOW_S,)):]]
    return latency, latency * REFERENCE_S / statistics.median(window), len(window)


def run_passes(items, work: Path, limit: float, seconds: float) -> list[list[dict]]:
    """The first pass invokes every item; later passes only the items whose
    invocations so far all finished correctly, since an item that failed has
    failed for the run and one that timed out would only spend its limit
    again.  At least MIN_PASSES passes, more while the next one, at the mean
    time of the later passes, still ends within `seconds`.  Rounds of the
    cheap items then follow until each has MIN_INVOCATIONS in the run."""
    passes, cheap, failed = [], {}, set()
    start = time.perf_counter()
    first = elapsed = 0.0
    while len(passes) < MIN_PASSES or elapsed + (elapsed - first) / (len(passes) - 1) <= seconds:
        todo = [(i, item) for i, item in enumerate(items) if i not in failed]
        passes.append(run_pass(todo, items, work, limit, cheap))
        failed |= {r["index"] for r in passes[-1] if r["status"] != "ok"}
        elapsed = time.perf_counter() - start
        first = first or elapsed
    while cheap and min(sum(r["index"] == j for p in passes for r in p)
                        for j in cheap) < MIN_INVOCATIONS:
        passes[-1].extend(round_of(cheap, items, work, limit))
    return passes


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 items above it,
    and that percentile; with fewer than 11 items, the maximum (100)."""
    xs = sorted(latencies)
    i = len(xs) - 11
    if i < 0:
        return xs[-1], 100.0
    return xs[i], 100.0 * (i + 1) / len(xs)


def end_to_end(passes, setups) -> tuple[dict, dict]:
    results = [r for p in passes for r in p]
    runs: dict[int, list[dict]] = {}
    for r in results:
        runs.setdefault(r["index"], []).append(r)
    missed = {i for i, rs in runs.items() if any(r["status"] != "ok" for r in rs)}
    latency = {i: statistics.median(r["scaled_s"] for r in rs) for i, rs in runs.items()}
    latencies = list(latency.values())
    tail_s, tail_pct = tail(latencies)
    # A timed-out item would add the harness's limit, not the program's time;
    # it counts in done_frac instead.
    finished = [i for i in runs if i not in missed]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(latency[i] for i in finished), "s"),
        "item_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "done_frac": (1.0 - len(missed) / len(runs), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {name: len(results) for name in metrics}
    samples.update(setup_s=len(setups), done_frac=len(runs), peak_rss_mb=1,
                   wall_s=sum(len(runs[i]) for i in finished))
    extra = {
        "samples": samples,
        "unscaled_wall_s": sum(statistics.median(r["latency_s"] for r in runs[i])
                               for i in finished),
        "passes": len(passes),
        "items": len(latencies),
        # too unsteady for a bound (perfbench/README.md), so reported here only
        "item_tail_ms": 1e3 * tail_s,
        "tail_percentile": tail_pct,
        "failed_frac": len(missed) / len(runs),
        "timeouts": sorted({r["item"] for r in results if r["status"] == "timeout"}),
    }
    return metrics, extra


def census_workers(report_path: Path) -> dict:
    """census() on the graphs of a census report with 1 and with 2 workers."""
    formats = sys.modules["skewopt.formats"]
    search = sys.modules["skewopt.search"]
    report = json.loads(report_path.read_text())
    graphs = [formats.parse_graph6(r["graph6"]) for r in report["records"]]
    out = {}
    for workers in (1, 2):
        start = time.perf_counter()
        search.census(graphs, 4, workers=workers)
        out[f"search.census.workers{workers}_s"] = time.perf_counter() - start
    return out


def per_layer(workload, items, work, limit, seconds) -> tuple[dict, dict, list]:
    """Layer metrics of one traced pass over every item, then the tracing
    overhead (see trace_overhead) for the rest of `seconds`."""
    tracer = spans.Tracer()
    start = time.perf_counter()
    tracer.install()
    try:
        traced = run_pass(list(enumerate(items)), items, work, limit, None)
    finally:
        tracer.uninstall()
    metrics = {k: (v, _layer_unit(k)) for k, v in spans.layer_metrics(tracer).items()}
    metrics["cli.bytes_out"] = (sum(r["bytes_out"] for r in traced), "B")
    workers = {"search.census.workers1_s": 0.0, "search.census.workers2_s": 0.0}
    census = [r for r in traced if r["item"].startswith("census") and r["status"] == "ok"]
    if census:
        workers = census_workers(work / f"out{census[0]['index']:03d}.json")
    metrics.update({k: (v, "s") for k, v in workers.items()})
    finished = [r["index"] for r in traced if r["status"] == "ok"]
    overhead, pairs = trace_overhead(items, finished, work, limit,
                                     seconds - (time.perf_counter() - start))
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    summary = tracer.summary()
    pass_s = sum(row["self_s"] for row in summary.values())
    shares = {name: row["self_s"] / pass_s
              for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])}
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload}-spans.jsonl")
    extra = {"traced_pass_s": pass_s, "overhead_pairs": len(pairs),
             "self_share_of_pass": shares}
    return metrics, extra, [traced, pairs]


def trace_overhead(items, finished, work, limit, seconds) -> tuple[float, list]:
    """Traced over untraced time of the finished items, minus 1.  Each item
    is invoked untraced and traced back to back, in alternating order, in
    rounds over the items (at least one, more while the next still ends
    within `seconds`), so both sides see the same machine; each side takes
    the median of an item's scaled invocations, as end_to_end does."""
    results, times = [], {False: {}, True: {}}
    start, rounds = time.perf_counter(), 0
    while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        for i in finished:
            for traced in ((False, True) if (rounds + i) % 2 == 0 else (True, False)):
                tracer = spans.Tracer()
                if traced:
                    tracer.install()
                try:
                    r = run_item(items[i], i, work / f"out{i:03d}.json", limit)
                finally:
                    tracer.uninstall()
                results.append(r)
                times[traced].setdefault(i, []).append(r["scaled_s"])
        rounds += 1
    on, off = (sum(map(statistics.median, times[side].values())) for side in (True, False))
    return on / off - 1.0, results


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "formats.bytes_in":
        return "B"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "skewopt" / "__init__.py").is_file():
        print(f"perfbench: no skewopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGPROF, _on_profile_timer)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_CPU_S, SAMPLE_CPU_S)
    try:
        return measure(args)
    finally:
        # the interpreter restores SIGPROF's default action, which kills it
        signal.setitimer(signal.ITIMER_PROF, 0)


def measure(args) -> int:
    work = OUT / "work" / args.workload
    limit = TIME_LIMIT_S[args.workload]

    setups = []
    for _ in range(SETUP_REPEATS):
        first, start = len(speed_samples), time.perf_counter()
        cli = load_program()
        items = gen.build(args.workload, args.seed, work, cli.run)
        setups.append(timed_since(start, first)[1])
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: skewopt was imported from {cli.__file__}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, extra, passes = per_layer(args.workload, items, work, limit, args.seconds)
    else:
        passes = run_passes(items, work, limit, args.seconds)
        metrics, extra = end_to_end(passes, setups)
    results = [r for p in passes for r in p]
    failed = sum(r["status"] in ("wrong", "error") for r in results)

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    for r in results:
        if r["status"] in ("wrong", "error"):
            print(f"FAILED {r['item']}: {r['detail']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **extra}))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"metrics": metrics, **extra, "results": results}, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
