#!/usr/bin/env python3
"""Large-deviation objects at desk scale: the empirical log-moment-generating
function of a persistent-Betti tuple and its convex conjugate.

One common set of trials serves the whole lambda grid, which makes the
empirical log-MGF exactly convex with value exactly 0 at lambda = 0; the grid
conjugate is then a nonnegative convex function whose zero set hugs the
empirical mean, the finite-n portrait of the rate function's unique zero.
"""

import os

import numpy as np

from randcube import DistributionSpec, ModelSpec
from randcube.limits import estimate_pb_density, legendre_transform, log_mgf

jobs = min(4, os.cpu_count() or 1)
uniform = DistributionSpec("uniform", (0.0, 1.0))
model = ModelSpec("lower", 2, marks=(uniform,) * 3)
pairs = [(0.5, 0.5)]
n, trials, seed = 8, 200, 1203

est = estimate_pb_density(model, 0, pairs, n, trials, seed, jobs=jobs)
xbar = float(est.mean[0])
print(f"empirical density mean over {trials} trials: {xbar:.4f} "
      f"(std {float(est.std[0]):.4f})")

lam = np.linspace(-60.0, 60.0, 241)
phi = log_mgf(est, [lam])
vals = phi.flat_values()
print(f"phi_hat(0) = {float(vals[120])!r} (exactly zero by construction)")
print(f"phi_hat(-60) = {float(vals[0]):.4f}, phi_hat(60) = {float(vals[-1]):.4f}")

# Saturation diagnostic: for large |lambda| the empirical MGF is pinned to
# the extreme sample and phi_hat becomes affine; slopes near the grid edge
# approaching max(beta)/volume mean the grid probes beyond the sample's tail.
slopes = np.diff(vals) / np.diff(lam)
edge = float(slopes[-1])
cap = float(est.masses.max()) / est.volume
print(f"right-edge slope {edge:.4f} vs max sample density {cap:.4f} "
      f"({'saturated' if abs(edge - cap) < 1e-9 else 'not saturated'})")

x_axis = np.linspace(0.0, 0.6, 121)
rate = legendre_transform(phi, [x_axis])
rv = rate.flat_values()
zero_xs = x_axis[rv == rv.min()]
print(f"\nconjugate: min {float(rv.min()):.6f} on x in "
      f"[{zero_xs[0]:.3f}, {zero_xs[-1]:.3f}] (empirical mean {xbar:.3f})")
print("profile (x, phi_star):")
for i in range(0, len(x_axis), 20):
    print(f"  {x_axis[i]:.2f}  {rv[i]:.4f}")
