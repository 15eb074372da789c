"""Steadiness check for the skewopt benchmark.

    python3 perfbench/steady.py [--workload NAME ...] [--trace 1]

Runs the benchmark command from BENCHMARK.json in two sets of ten runs, each
run with another seed (seeds 1..10, then 11..20), for every workload named
(default: all).  For each end-to-end metric it prints each set's median and
spread, the spread being (Q3 - Q1) / median with quartiles from
statistics.quantiles(values, n=4), and the drift, the share by which the
second set's median is worse than the first set's.  It exits 1 when any run
fails or is incorrect, when a run's metric names differ from BENCHMARK.json,
when a spread other than setup_s exceeds the metric's bound (set-up time is
exempt, as in the benchmark's acceptance rule), or when a drift exceeds it.
Each run's result line is saved under perfbench/out/.

With --trace 1 it makes the per-layer runs instead and checks only that they
succeed and report exactly the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
RUNS = 10


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The run's result line and the detail line printed before it."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def drift(first: float, later: float, better: str) -> float:
    worse = later - first if better == "lower" else first - later
    return worse / abs(first)


def summarize(runs: list[tuple[dict, dict]], names: dict) -> dict:
    """Median and quartiles of each metric over the runs, with the run count
    and, for end-to-end metrics, the samples behind one run's value."""
    out = {}
    for name, m in names.items():
        values = [r["metrics"][name]["value"] for r, _ in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        row = {"median": med, "q1": q1, "q3": q3, "unit": m["unit"], "runs": len(values)}
        if "samples" in runs[0][1]:
            row["samples_per_run"] = statistics.median(d["samples"][name] for _, d in runs)
        out[name] = row
    details = [d for _, d in runs]
    if "self_share_of_pass" in details[0]:
        layers = {k for d in details for k in d["self_share_of_pass"]}
        out["self_share_of_pass"] = {
            k: statistics.median(d["self_share_of_pass"].get(k, 0.0) for d in details)
            for k in sorted(layers)}
    else:
        out["tail_percentile"] = details[0]["tail_percentile"]
        out["timeouts"] = details[0]["timeouts"]
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {m["name"]: m for m in declared}
    OUT.mkdir(parents=True, exist_ok=True)

    ok = True
    summary = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        sets = []
        log = OUT / f"steady-{workload}-trace{args.trace}.jsonl"
        with log.open("w") as fh:
            for first_seed in (1, RUNS + 1):
                runs = []
                for seed in range(first_seed, first_seed + RUNS):
                    result, detail = run_once(spec, workload, seed, args.trace)
                    fh.write(json.dumps({"seed": seed, **result, "detail": detail}) + "\n")
                    fh.flush()
                    if not result["correct"] or set(result["metrics"]) != set(names):
                        print(f"{workload} seed {seed}: incorrect or wrong metric names")
                        ok = False
                    runs.append((result, detail))
                sets.append(runs)
        summary[workload] = summarize([r for runs in sets for r in runs], names)
        if args.trace:
            print(f"{workload}: {sum(map(len, sets))} traced runs")
            continue
        print(f"\n{workload}")
        for name, m in names.items():
            medians, cells = [], []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r, _ in runs]
                medians.append(statistics.median(values))
                sp = spread(values)
                bad = name != "setup_s" and sp > m["bound"]
                ok &= not bad
                cells.append(f"median {medians[-1]:10.4g}  spread {sp:6.3f}{' !' if bad else '  '}")
            moved = drift(medians[0], medians[1], m["better"])
            ok &= moved <= m["bound"]
            print(f"  {name:14s} {' | '.join(cells)}  drift {moved:+.3f}"
                  f" (bound {m['bound']}){' !' if moved > m['bound'] else ''}")
    (OUT / f"steady-summary-trace{args.trace}.json").write_text(json.dumps(summary, indent=1))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
