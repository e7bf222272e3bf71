#!/usr/bin/env python3
"""Deterministic gap diagnostics: near-additivity over independent blocks and
regularity against the largest aligned sub-window.

Both gaps are measured on shared realizations and must sit below their
closed-form bounds on every single sample; the bounds are what make the
volume-scaled limits exist at all, so a single violation would be a bug, not
noise.  Writes the gap CSV alongside the printed table.
"""

import sys

from randcube import DistributionSpec, ModelSpec
from randcube.limits import gap_reports, write_gap_csv

uniform = DistributionSpec("uniform", (0.0, 1.0))
models = {
    "upper": ModelSpec("upper", 2, marks=(uniform,) * 3),
    "lower": ModelSpec("lower", 2, marks=(uniform,) * 3),
    "perturbed_lattice": ModelSpec(
        "perturbed_lattice", 2,
        perturbation=DistributionSpec("uniform", (-0.25, 0.25))),
}
pairs_for = {"upper": [(0.3, 0.6)], "lower": [(0.3, 0.6)],
             "perturbed_lattice": [(1.0, 1.2)]}
near = ((3, 1, 1), (4, 1, 1), (4, 1, 2))  # (k, r, m)
regular = ((2, 7), (3, 9))  # (k, n)

reports = []
print(f"{'kind':>15} {'model':>18} {'k':>2} {'r':>2} {'m':>2} {'n':>3} "
      f"{'measured':>10} {'bound':>8}")
for name, model in models.items():
    # one realization serves every window and block of the model
    for g in gap_reports(model, 0, pairs_for[name], 20, near=near,
                         regular=regular):
        reports.append(g)
        r = g.r if g.kind == "near_additivity" else "-"
        print(f"{g.kind:>15} {name:>18} {g.k:>2} {r:>2} {g.m:>2} {g.n:>3} "
              f"{g.measured:>10.5f} {g.bound:>8.4f}")
        assert g.passed

# n = (2m+1)k makes the sub-window the whole window: the gap vanishes.
exact = gap_reports(models["lower"], 0, [(0.3, 0.6)], 20, regular=((2, 6),))[0]
print(f"\nregularity at n = (2m+1)k: measured {exact.measured} (exactly 0)")

out = sys.argv[1] if len(sys.argv) > 1 else "gap.csv"
with open(out, "w") as fp:
    write_gap_csv(fp, reports)
print(f"wrote {out}")
