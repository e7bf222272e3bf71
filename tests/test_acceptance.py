"""Acceptance gate: every deterministic bound and drift criterion the library
promises, at the default verification scale.

Each test prints its one-line pass/fail summary (visible with ``pytest -s``)
and asserts the check passed.  ``randcube verify --scale default`` runs the
same checks from the command line.  The smoke-scale pins at the end fix what
the rank-route, gap, rate-zero and LLN checks measure, so a faster path
cannot change it unnoticed.
"""

import os

import pytest

from randcube.verify import (
    SCALES,
    check_boundary_examples,
    check_chain_complex,
    check_cube_counting,
    check_determinism,
    check_gap_bounds,
    check_inequalities,
    check_k_triangle,
    check_lln_drift,
    check_mgf_structure,
    check_rate_zero,
)

SCALE = SCALES["default"]
JOBS = min(4, os.cpu_count() or 1)


def run(check):
    result = check(SCALE, JOBS)
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_01_boundary_fidelity():
    run(check_boundary_examples)


def test_criterion_02_chain_complex_law():
    run(check_chain_complex)


def test_criterion_03_cube_counting():
    run(check_cube_counting)


def test_criterion_04_k_triangle_lemma():
    run(check_k_triangle)


def test_criterion_05_inequality_suite():
    run(check_inequalities)


def test_criterion_06_gap_bounds():
    result = run(check_gap_bounds)
    assert result.worst_margin >= 0.0


def test_criterion_07_log_mgf_structure():
    run(check_mgf_structure)


def test_criterion_08_rate_function_zero():
    run(check_rate_zero)


def test_criterion_09_lln_drift():
    run(check_lln_drift)


def test_criterion_10_determinism_across_jobs():
    run(check_determinism)


SMOKE_PINS = [
    (check_boundary_examples, 4, 0.0),
    (check_cube_counting, 56, 0.0),
    (check_mgf_structure, 6521, 0.0),
    (check_k_triangle, 1500, 0.0),
    (check_inequalities, 5352, 0.0),
    (check_chain_complex, 25437, 0.0),
    (check_gap_bounds, 120, 0.0),
    (check_rate_zero, 61, 0.005182291666666663),
    (check_lln_drift, 3, 0.0018426271562384938),
]


@pytest.mark.parametrize("check, comparisons, margin", SMOKE_PINS,
                         ids=[f"{c.__name__}-{n}" for c, n, _ in SMOKE_PINS])
def test_smoke_scale_comparisons_and_margins_are_pinned(check, comparisons, margin):
    result = check(SCALES["smoke"], 1)
    assert (result.passed, result.checks, result.worst_margin) == (True, comparisons, margin)
