#!/usr/bin/env python3
"""The four random cubical filtration models and their reproducibility
contract.

Every sampler is a pure function of (model, window, master seed, trial):
marks come from counter-based streams keyed by absolute cube coordinates, so
re-sampling is bit-identical, and carving a block out of a big window equals
sampling the block directly.
"""

from randcube import (
    DistributionSpec,
    ModelSpec,
    Window,
    block_window,
    format_filtration,
    restrict_box,
    sample,
    sample_box,
    validate,
)

uniform = DistributionSpec("uniform", (0.0, 1.0))
marks = (uniform, uniform, uniform)  # one mark law per cube dimension

# Upper model: a cube appears when the first cube CONTAINING it appears.
up = sample(ModelSpec("upper", 2, marks=marks), 2, seed=42)
# Lower model: a cube appears once every cube INSIDE it has appeared.
low = sample(ModelSpec("lower", 2, marks=marks), 2, seed=42)
print(f"upper: {up}")
print(f"lower: {low}")
assert validate(up) is None and validate(low) is None

# Geometric models: lattice points are jittered by a perturbation law.
jitter = DistributionSpec("uniform", (-0.25, 0.25))
pl = sample(ModelSpec("perturbed_lattice", 2, perturbation=jitter), 2, seed=42)
bc = sample(ModelSpec("ball_cover", 2, perturbation=jitter, m_grid=4), 2, seed=42)
print(f"perturbed lattice: {pl}")
print(f"ball cover: {bc}  (approximate: {bc.meta['approximate']})")

# Reproducibility: same seed, same filtration, bit for bit.
again = sample(ModelSpec("upper", 2, marks=marks), 2, seed=42)
assert again.births == up.births
print("\nresampling with the same seed is bit-identical")

# Blocks: the translated window 2kz + [-(k-r), k-r]^d.  Sampling a block
# directly equals carving it out of one big realization, because marks are
# keyed by absolute coordinates.
model = ModelSpec("upper", 2, marks=marks)
big = sample(model, 12, seed=7)
z = (1, -1)
carved = restrict_box(big, block_window(4, 1, z))
direct = sample_box(model, block_window(4, 1, z), seed=7)
assert carved.births == direct.births
print(f"block at z={z}: carved from the big window == sampled directly "
      f"({len(direct.births)} cubes)")

# Restriction to a smaller window just forgets outside births.
small = restrict_box(big, Window(6, 2).box)
print(f"restricted to [-6,6]^2: {small}")

# Filtration dumps are plain text with a canonical cube per line.
print("\nfirst lines of the dump format:")
print("\n".join(format_filtration(restrict_box(big, Window(1, 2).box)).splitlines()[:5]))
