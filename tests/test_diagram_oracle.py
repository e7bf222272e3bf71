"""Full-diagram cross-validation: rebuild the diagram from nothing but the
rank-based persistent Betti route and compare it, pair for pair, with the
matrix-reduction diagram.

Births live on a known grid, so every pair's multiplicity is an
inclusion-exclusion of quadrant values at grid corners, and essential
multiplicities are quadrant differences past the last birth.  This
reconstructs the entire measure, not just finitely many quadrants.
"""

import math

from randcube import (
    compute_diagram,
    persistent_betti_direct,
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
    value = {}
    for i, s in enumerate(corners):
        for t in corners[i:]:
            value[(s, t)] = persistent_betti_direct(filt, q, s, t)
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
