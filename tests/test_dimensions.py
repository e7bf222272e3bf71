"""End-to-end smoke across ambient dimensions: the machinery is generic in d,
so the line and the 3-d grid must work through the full pipeline, not just
d = 2."""

import math

import numpy as np

from randcube import (
    DistributionSpec,
    ModelSpec,
    compute_diagram,
    persistent_betti_direct,
    quadrant_mass,
    sample,
    validate,
)
from randcube.limits import (
    estimate_log_mgf,
    estimate_pb_density,
    gap_reports,
    legendre_transform,
)

UNI = DistributionSpec("uniform", (0.0, 1.0))


def model_for(d, kind="lower"):
    return ModelSpec(kind, d, marks=(UNI,) * (d + 1))


def test_line_full_pipeline():
    model = model_for(1)
    filt = sample(model, 10, seed=3)
    assert validate(filt) is None
    diagram = compute_diagram(filt)
    for s, t in [(0.3, 0.5), (0.5, 0.9), (0.7, 0.7)]:
        assert quadrant_mass(diagram, 0, s, t) == \
            persistent_betti_direct(filt, 0, s, t)
    est = estimate_pb_density(model, 0, [(0.5, 0.5)], 10, trials=5, seed=3)
    assert np.all(est.densities >= 0)
    reports = gap_reports(model, 0, [(0.5, 0.5)], 3, near=((3, 1, 1),),
                          regular=((2, 7),))
    assert len(reports) == 2 and all(g.passed for g in reports)


def test_three_dimensional_pipeline():
    model = model_for(3, "upper")
    filt = sample(model, 2, seed=5)
    assert validate(filt) is None
    diagram = compute_diagram(filt)
    for q in (0, 1, 2):
        for s, t in [(0.3, 0.5), (0.6, 0.8)]:
            assert quadrant_mass(diagram, q, s, t) == \
                persistent_betti_direct(filt, q, s, t)


def test_three_dimensional_mgf_and_rate():
    model = model_for(3)
    lam = np.linspace(-5.0, 5.0, 21)
    phi = estimate_log_mgf(model, 1, [(0.6, 0.8)], [lam], n=2, trials=10,
                           seed=7)
    assert phi.flat_values()[10] == 0.0
    rate = legendre_transform(phi, [np.linspace(0.0, 1.0, 21)])
    assert np.all(rate.flat_values() >= 0.0)


def test_perturbed_lattice_triangle_check_d3():
    model = ModelSpec("perturbed_lattice", 3,
                      perturbation=DistributionSpec("uniform", (-0.2, 0.2)))
    filt = sample(model, 1, seed=11)
    assert validate(filt) is None
    diagram = compute_diagram(filt)
    for q in (0, 1, 2):
        for s, t in [(1.0, 1.1), (1.1, 1.3)]:
            assert quadrant_mass(diagram, q, s, t) == \
                persistent_betti_direct(filt, q, s, t)
