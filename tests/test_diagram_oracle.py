"""Full-diagram cross-validation: rebuild the diagram from nothing but the
rank-based persistent Betti route and compare it, pair for pair, with the
matrix-reduction diagram.

Births live on a known grid, so every pair's multiplicity is an
inclusion-exclusion of quadrant values at grid corners, and essential
multiplicities are quadrant differences past the last birth.  This
reconstructs the entire measure, not just finitely many quadrants.
"""

import math

import numpy as np

from randcube import (
    DistributionSpec,
    ModelSpec,
    compute_diagram,
    persistent_betti_direct,
    quadrant_mass,
    sample,
)
from randcube.verify import random_filtration

INF = math.inf
GRID = [(i + 1) / 10 for i in range(10)]
BELOW = {g: g - 0.05 for g in GRID}  # strictly between grid values
BELOW[GRID[0]] = 0.0
LATE = 1.5  # past every possible birth, hence every finite death


def reconstruct_diagram(filt, q):
    """Degree-q pairs from rank computations alone."""
    corners = sorted({0.0, LATE} | set(GRID) | set(BELOW.values()))
    lo = np.array(corners)[:, None]
    table = persistent_betti_direct(filt, q, lo, np.maximum(lo, corners)).tolist()
    value = {(s, t): table[i][j] for i, s in enumerate(corners)
             for j, t in enumerate(corners) if j >= i}
    pairs = []
    for b in GRID:
        bm = BELOW[b]
        for d in GRID:
            if d <= b:
                continue
            dm = BELOW[d]
            mult = (value[(b, dm)] - value[(b, d)]
                    + value[(bm, d)] - value[(bm, dm)])
            pairs.extend([(b, d)] * mult)
        essential = value[(b, LATE)] - value[(bm, LATE)]
        pairs.extend([(b, INF)] * essential)
    return sorted(pairs)


def test_reduction_equals_rank_reconstruction():
    cases = [(2, 1), (2, 2), (3, 1), (2, 2), (3, 1), (2, 1)]
    for seed, (d, n) in enumerate(cases):
        filt = random_filtration(d, n, 4242 + seed)
        diagram = compute_diagram(filt)
        for q in range(d):
            assert diagram.degree(q) == reconstruct_diagram(filt, q), (
                f"diagram mismatch at d={d}, n={n}, q={q}, seed={4242 + seed}"
            )


# Wider exact corpora for the array rank route, each with its own seed: the
# route must equal the diagram's quadrant masses at every corner.
D4_SEED = 20261018
SAMPLED_SEED = 20261019


def routes_agree(filt, s, t) -> int:
    """Assert both routes agree at every corner of every degree; return the
    number of comparisons."""
    diagram = compute_diagram(filt)
    count = 0
    for q in range(filt.d):
        direct = persistent_betti_direct(filt, q, s, t)
        assert np.array_equal(direct, quadrant_mass(diagram, q, s, t)), (q, filt.meta)
        count += direct.size
    return count


def test_array_rank_route_on_random_d4_corpus():
    """d = 4, n <= 2 random filtrations; corners at birth values, between
    them, below and past every birth."""
    corners = np.array([0.0, 0.1, 0.25, 0.5, 0.75, 1.0, LATE])
    s = corners[:, None]
    t = np.maximum(s, corners)
    rng = np.random.default_rng(D4_SEED)
    comparisons = sum(routes_agree(random_filtration(4, n, int(rng.integers(0, 2**62))), s, t)
                      for n in (1,) * 9 + (2,))
    assert comparisons == 10 * 4 * 49


UNIFORM = DistributionSpec("uniform", (0.0, 1.0))
TIED = DistributionSpec("empirical", (0.2, 0.3, 0.5, 0.7, 0.9, 1.0))
DEFECTIVE = DistributionSpec("uniform", (0.25, 0.75), p_inf=0.3)
LAW = DistributionSpec("uniform", (-0.25, 0.25))
SAMPLED_MODELS = (
    *(ModelSpec(kind, 3, marks=(mark,) * 4)
      for kind in ("lower", "upper") for mark in (UNIFORM, TIED, DEFECTIVE)),
    ModelSpec("perturbed_lattice", 3, perturbation=LAW),
    ModelSpec("ball_cover", 3, perturbation=LAW, m_grid=3),
)


def test_array_rank_route_on_sampled_d3_windows():
    """d = 3, n = 2 windows of all four models, tie-heavy and p_inf > 0
    marks included; corners at the finite births' quantiles."""
    comparisons = 0
    for trial, model in enumerate(SAMPLED_MODELS):
        filt = sample(model, 2, SAMPLED_SEED, trial)
        births = filt.grid[filt.grid < math.inf]
        corners = np.quantile(births, np.linspace(0, 1, 7), method="inverted_cdf")
        s = corners[:, None]
        comparisons += routes_agree(filt, s, np.maximum(s, corners))
    assert comparisons == len(SAMPLED_MODELS) * 3 * 49
