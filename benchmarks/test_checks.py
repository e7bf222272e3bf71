"""Tests of the benchmark itself: each output checker accepts a correct
output and rejects a corrupted one, and BENCHMARK.json lists exactly the
metrics the benchmark reports.

Run from the repository root: python3 -m pytest -q benchmarks/test_checks.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from randcube import (DistributionSpec, ModelSpec, compute_diagram,  # noqa: E402
                      format_diagram, format_filtration, parse_filtration,
                      sample)
from randcube.limits import estimate_log_mgf, estimate_pb_density  # noqa: E402

UNIFORM = DistributionSpec("uniform", (0.0, 1.0))
LOWER2 = ModelSpec("lower", 2, marks=(UNIFORM,) * 3)


@pytest.fixture(scope="module")
def window():
    filt = sample(LOWER2, 2, seed=11)
    diagram = compute_diagram(filt)
    dump = format_filtration(filt)
    return filt.births, diagram.pairs, dump, format_diagram(diagram)


def _window_errors(births, pairs, dump, text):
    return checks.window_errors("lower", 2, 2, 0.25, births, pairs, dump,
                                format_filtration(parse_filtration(dump)),
                                births, text)


def test_window_checker_accepts_a_correct_window(window):
    assert _window_errors(*window) == []


def test_window_checker_rejects_an_altered_birth(window):
    births, pairs, dump, text = window
    altered = dict(births)
    first = min(altered, key=altered.get)  # the earliest vertex
    altered[first] = max(altered.values())
    errors = checks.window_errors("lower", 2, 2, 0.25, altered, pairs, dump,
                                  dump, altered, text)
    assert any("Euler characteristic" in e for e in errors)


def test_window_checker_rejects_a_shifted_pair(window):
    births, pairs, dump, text = window
    t = checks.euler_levels(births.values())[0]
    shifted = {q: list(ps) for q, ps in pairs.items()}
    k = next(i for i, (b, dth) in enumerate(shifted[0]) if b <= t < dth < np.inf)
    b, dth = shifted[0][k]
    delta = t - b + 1e-6
    shifted[0][k] = (b + delta, dth + delta)
    errors = _window_errors(births, shifted, dump, text)
    assert any("Euler characteristic" in e for e in errors)


@pytest.fixture(scope="module")
def mgf():
    pairs = [(0.3, 0.5), (0.5, 0.5)]
    lam = np.linspace(-5.0, 5.0, 11)
    phi = estimate_log_mgf(LOWER2, 0, pairs, [lam, lam], n=3, trials=8, seed=5)
    est = estimate_pb_density(LOWER2, 0, pairs, 3, 8, 5)
    return [lam, lam], phi.values, est.mean


def test_mgf_checker_accepts_a_correct_log_mgf(mgf):
    assert checks.mgf_errors(*mgf) == []


def test_mgf_checker_rejects_a_flipped_lambda_sign(mgf):
    axes, phi, mean = mgf
    flipped = phi[::-1, :]  # the value at lambda_1 is now phi(-lambda_1, .)
    errors = checks.mgf_errors(axes, flipped, mean)
    assert any("Jensen" in e for e in errors)


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert doc["per_layer"] == spans.per_layer_metrics()


def test_self_time_excludes_child_spans():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda: sum(range(20000)))
    outer = rec.wrap("outer", lambda: inner() + inner())
    outer()
    totals = rec.layer_totals()
    calls, total, self_s = totals["outer"]
    assert calls == 1 and totals["inner"][0] == 2
    assert self_s == pytest.approx(total - totals["inner"][1])
