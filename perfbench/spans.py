"""Per-layer tracing for the skewopt benchmark, installed from outside.

The tracer replaces each public layer function on every module binding that
a caller looks it up through (skewopt.cli.classify as well as
skewopt.search.classify, ...), records one span per call (name, start, end,
parent) in memory, and restores the originals afterwards.  Self time is a
span's duration minus the durations of its direct children.

`isomorphic` is traced under two names: the binding in skewopt.search serves
census deduplication, every other binding serves classification.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# span name -> (defining module, attribute, ratio metric, outcome it counts)
LAYERS = {
    "formats.parse_graph6": ("skewopt.formats", "parse_graph6", None, None),
    "formats.emit_graph6": ("skewopt.formats", "emit_graph6", None, None),
    "formats.parse_arclist": ("skewopt.formats", "parse_arclist", None, None),
    "families.build_family": ("skewopt.families", "build_family", None, None),
    "matrices.skew_energy": ("skewopt.matrices", "skew_energy", None, None),
    "matrices.is_optimum": ("skewopt.matrices", "is_optimum", None, None),
    "verify.neighbor_parity_report": (
        "skewopt.verify", "neighbor_parity_report", "pass_ratio", lambda r: r.passed),
    "search.enumerate_connected_k_regular": (
        "skewopt.search", "enumerate_connected_k_regular", None, None),
    "search.find_optimum_orientation": (
        "skewopt.search", "find_optimum_orientation", "found_ratio", lambda r: r is not None),
    "search.census": ("skewopt.search", "census", None, None),
    "classify.classify": (
        "skewopt.classify", "classify", "in_family_ratio", lambda r: r.label is not None),
    "classify.isomorphic": (
        "skewopt.classify", "isomorphic", "hit_ratio", lambda r: r is not None),
    "cli.run": ("skewopt.cli", "run", None, None),
}
# the census deduplication's binding of isomorphic, traced under its own name
DEDUP = ("skewopt.search", "search.isomorphic")
BYTES_IN_LAYERS = ("formats.parse_graph6", "formats.parse_arclist")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.hits: dict[str, int] = defaultdict(int)
        self.yields: dict[str, int] = defaultdict(int)
        self.bytes_in = 0
        self._saved: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        # a timeout can leave a suspended generator's span above this one,
        # or close that generator later, after this span is gone
        if idx in self.stack:
            del self.stack[self.stack.index(idx):]

    def wrap(self, name: str, fn, outcome):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                idx = self._open(name)
                try:
                    for item in fn(*args, **kwargs):
                        self.yields[name] += 1
                        yield item
                finally:
                    self._close(idx)
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in BYTES_IN_LAYERS and args:
                self.bytes_in += len(args[0])
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if outcome is not None and outcome(result):
                self.hits[name] += 1
            return result
        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "skewopt" or key.startswith("skewopt.")]
        for name, (mod_name, attr, _, outcome) in LAYERS.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self.wrap(name, original, outcome)
            for mod in modules:
                if mod.__dict__.get(attr) is not original:
                    continue
                self._saved.append((mod, attr, original))
                if name == "classify.isomorphic" and mod.__name__ == DEDUP[0]:
                    setattr(mod, attr, self.wrap(DEDUP[1], original, outcome))
                else:
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """span name -> number of calls and total self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += end - start - child[i]
        return out

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the traced calls; layers that never ran report 0."""
    rows = tracer.summary()
    ratios = {name: spec[2] for name, spec in LAYERS.items()}
    ratios[DEDUP[1]] = ratios["classify.isomorphic"]
    out: dict[str, float] = {}
    for name, ratio in ratios.items():
        calls = rows.get(name, {}).get("calls", 0)
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = rows.get(name, {}).get("self_s", 0.0)
        if ratio:
            out[f"{name}.{ratio}"] = tracer.hits[name] / calls if calls else 0.0
    out["search.enumerate_connected_k_regular.classes"] = (
        tracer.yields["search.enumerate_connected_k_regular"])
    out["formats.bytes_in"] = tracer.bytes_in
    return out
