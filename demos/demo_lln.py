#!/usr/bin/env python3
"""Law-of-large-numbers experiments: persistent-Betti densities and mean
persistence diagrams across a ladder of growing windows.

The volume-scaled persistent Betti number beta_q(s, t) / (2n)^d concentrates
as the window grows; its trial spread shrinks and consecutive means drift
together.  The mean diagram is discretized by the dyadic histogram.
"""

import os
import sys

import numpy as np

from randcube import DistributionSpec, ModelSpec
from randcube.limits import (
    estimate_mean_diagram,
    estimate_pb_density,
    rectangle_bounds,
    write_histogram_csv,
)

jobs = min(4, os.cpu_count() or 1)
uniform = DistributionSpec("uniform", (0.0, 1.0))
model = ModelSpec("lower", 2, marks=(uniform,) * 3)

# Density of connected components alive at time 0.5, per unit volume.
print("window ladder for the component density at (s, t) = (0.5, 0.5):")
print(f"{'n':>4} {'mean':>10} {'sample std':>12}")
for n in (4, 8, 12):
    est = estimate_pb_density(model, 0, [(0.5, 0.5)], n, trials=30, seed=819,
                              jobs=jobs)
    print(f"{n:>4} {est.mean[0]:>10.5f} {est.std[0]:>12.5f}")

# Mean diagram, discretized: counts per dyadic rectangle, volume-normalized.
result = estimate_mean_diagram(model, 1, n=8, trials=30, l=2, seed=819,
                               jobs=jobs)
total, trials = result.total, result.trials
occupied = list(zip(*np.nonzero(total.counts)))  # in (i, j) order
print(f"\nmean degree-1 diagram at n=8 (fineness l=2, "
      f"{len(occupied)} occupied rectangles):")
for i, j in sorted(occupied, key=lambda key: -total.counts[key])[:5]:
    count = total.counts[i, j] / trials
    s_lo, s_hi, t_lo, t_hi = rectangle_bounds(2, i, j)
    print(f"  births ({s_lo:.3f},{s_hi:.3f}] x deaths ({t_lo:.3f},{t_hi:.3f}]"
          f": mean count {count:.2f}, density {count / result.volume:.5f}")
print(f"  mean overflow {total.overflow / trials:.2f}, "
      f"mean infinite-death {total.infinite / trials:.2f} (never binned)")

out = sys.argv[1] if len(sys.argv) > 1 else "histogram_q1.csv"
with open(out, "w") as fp:
    write_histogram_csv(fp, result)
print(f"\nwrote {out}")
