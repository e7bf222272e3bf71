"""Span recorder for the traced benchmark run.

The recorder wraps randcube's public functions from outside the library: each
wrapper is rebound under every name that refers to the original function in
any loaded ``randcube`` module (``limits`` and ``verify`` import
``compute_diagram`` directly, ``persistence`` imports ``reduce_columns``, and
so on), and in ``verify.ALL_CHECKS``.  Every call records one span
``[name, start, end, parent]``; spans stay in memory and are written out once
the run ends.  A span's self time is its duration minus the durations of its
child spans (calls are synchronous, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# the library's modules (the layers) and the public functions timed in each
WRAPPED = {
    "rng": ("stream_uniform",),
    "cubes": ("all_cubes_box",),
    "models": ("sample", "format_filtration", "parse_filtration", "restrict_box"),
    "persistence": ("validate", "compute_diagram", "quadrant_mass",
                    "rectangle_mass", "sublevel", "persistent_betti_direct"),
    "homology": ("reduce_columns", "boundary_matrix", "kernel_basis", "betti"),
    "limits": ("histogram", "estimate_pb_density", "estimate_mean_diagram",
               "estimate_log_mgf", "legendre_transform"),
    "verify": ("check_boundary_examples", "check_chain_complex",
               "check_cube_counting", "check_k_triangle", "check_inequalities",
               "check_gap_bounds", "check_mgf_structure", "check_rate_zero",
               "check_lln_drift"),
    "cli": ("main", "parse_config"),
}

# functions that call other wrapped functions, so their self time differs
# from their total time
SELF_TIMED = (
    "models.sample", "persistence.compute_diagram",
    "persistence.persistent_betti_direct", "homology.kernel_basis",
    "homology.betti", "limits.estimate_pb_density",
    "limits.estimate_mean_diagram", "limits.estimate_log_mgf", "cli.main",
) + tuple(f"verify.{fn}" for fn in WRAPPED["verify"])


def _diagram_pairs(args, result):
    finite = infinite = 0
    for pairs in result.pairs.values():
        for _, death in pairs:
            if death == math.inf:
                infinite += 1
            else:
                finite += 1
    return {"persistence.compute_diagram.cubes": len(args[0].births),
            "persistence.pairs.finite": finite,
            "persistence.pairs.infinite": infinite}


# work counters taken from a wrapped call's arguments or result
COUNTERS = {
    "rng.stream_uniform": lambda a, r: {"rng.stream_uniform.keys": len(r)},
    "cubes.all_cubes_box": lambda a, r: {"cubes.all_cubes_box.cubes": len(r)},
    "models.sample": lambda a, r: {"models.finite_births": len(r.births)},
    "models.format_filtration": lambda a, r: {"models.dump_bytes": len(r)},
    "persistence.compute_diagram": _diagram_pairs,
    "homology.reduce_columns":
        lambda a, r: {"homology.reduce_columns.columns": len(a[0])},
}
COUNTERS.update({
    f"verify.{fn}": (lambda key: lambda a, r: {key: r.checks})(
        f"verify.{fn}.comparisons")
    for fn in WRAPPED["verify"]
})

# the lru_cache'd face enumerators of ``cubes``; read through cache_info()
LRU_FUNCTIONS = ("boundary_faces", "faces_contained_in", "cofaces_containing")

# every key the counters above produce: (name, unit, better)
COUNTER_METRICS = (
    ("rng.stream_uniform.keys", "count", "lower"),
    ("cubes.all_cubes_box.cubes", "count", "lower"),
    ("models.finite_births", "count", "lower"),
    ("models.dump_bytes", "bytes", "lower"),
    ("persistence.compute_diagram.cubes", "count", "lower"),
    ("persistence.pairs.finite", "count", "higher"),
    ("persistence.pairs.infinite", "count", "higher"),
    ("homology.reduce_columns.columns", "count", "lower"),
) + tuple((f"verify.{fn}.comparisons", "count", "higher")
          for fn in WRAPPED["verify"])


def per_layer_metrics() -> list[dict]:
    """Every per-layer metric the traced run reports, in report order."""
    out = []
    for layer, fns in WRAPPED.items():
        for fn in fns:
            qual = f"{layer}.{fn}"
            out.append({"name": f"{qual}.calls", "unit": "count", "better": "lower"})
            out.append({"name": f"{qual}.s", "unit": "s", "better": "lower"})
            if qual in SELF_TIMED:
                out.append({"name": f"{qual}.self_s", "unit": "s",
                            "better": "lower"})
    out += [{"name": n, "unit": u, "better": b} for n, u, b in COUNTER_METRICS]
    for fn in LRU_FUNCTIONS:
        out.append({"name": f"cubes.{fn}.hits", "unit": "count", "better": "higher"})
        out.append({"name": f"cubes.{fn}.misses", "unit": "count",
                    "better": "lower"})
    out.append({"name": "cubes.lru_hit_ratio", "unit": "ratio", "better": "higher"})
    out += [
        {"name": "trace.spans", "unit": "count", "better": "lower"},
        {"name": "trace.untraced_round_s", "unit": "s", "better": "lower"},
        {"name": "trace.traced_round_s", "unit": "s", "better": "lower"},
        {"name": "trace.overhead_share", "unit": "ratio", "better": "lower"},
    ]
    return out


class Recorder:
    """In-memory span list plus the work counters of wrapped calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (one workload operation);
        the library spans it causes become its descendants."""
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def discard(self):
        """Drop every span and count recorded inside the block (used for the
        untimed fault probes, which are not part of the measured work)."""
        mark, counts = len(self.spans), dict(self.counts)
        try:
            yield
        finally:
            del self.spans[mark:]
            self.counts.clear()
            self.counts.update(counts)

    def wrap(self, name: str, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, result).items():
                    counts[key] += value
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every wrapped function in every loaded randcube module."""
        mods = {layer: importlib.import_module(f"randcube.{layer}")
                for layer in WRAPPED}
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "randcube" or name.startswith("randcube.")]
        for layer, fns in WRAPPED.items():
            for fn in fns:
                qual = f"{layer}.{fn}"
                orig = getattr(mods[layer], fn)
                wrapper = self.wrap(qual, orig, COUNTERS.get(qual))
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                all_checks = mods["verify"].ALL_CHECKS
                all_checks[:] = [wrapper if c is orig else c for c in all_checks]

    def layer_totals(self) -> dict[str, list[float]]:
        """name -> [calls, total seconds, self seconds] over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list[float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            row = totals.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return totals

    def write(self, path) -> None:
        """Write the spans out as JSON: a name table plus one
        [name index, start, end, parent] row per span."""
        names: dict[str, int] = {}
        rows = [[names.setdefault(n, len(names)), s, e, p]
                for n, s, e, p in self.spans]
        with open(path, "w") as fp:
            json.dump({"names": list(names), "spans": rows}, fp)


def layer_metrics(recorder: Recorder, lru: dict[str, int], rounds: int,
                  untraced_round_s: float, traced_round_s: float) -> dict:
    """Per-layer metrics, each a per-round average over the traced rounds."""
    totals = recorder.layer_totals()
    values: dict[str, float] = {}
    for layer, fns in WRAPPED.items():
        for fn in fns:
            qual = f"{layer}.{fn}"
            calls, total, self_s = totals.get(qual, (0, 0.0, 0.0))
            values[f"{qual}.calls"] = calls / rounds
            values[f"{qual}.s"] = total / rounds
            values[f"{qual}.self_s"] = self_s / rounds
    for key, value in recorder.counts.items():
        values[key] = value / rounds
    hits = misses = 0
    for fn in LRU_FUNCTIONS:
        hits += lru.get(f"{fn}.hits", 0)
        misses += lru.get(f"{fn}.misses", 0)
        values[f"cubes.{fn}.hits"] = lru.get(f"{fn}.hits", 0) / rounds
        values[f"cubes.{fn}.misses"] = lru.get(f"{fn}.misses", 0) / rounds
    values["cubes.lru_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["trace.spans"] = len(recorder.spans) / rounds
    values["trace.untraced_round_s"] = untraced_round_s
    values["trace.traced_round_s"] = traced_round_s
    values["trace.overhead_share"] = traced_round_s / untraced_round_s - 1.0
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in per_layer_metrics()}
