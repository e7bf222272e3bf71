#!/usr/bin/env python3
"""Filtrations, persistence diagrams, and the quadrant-mass bridge.

Builds the hollow-square-then-fill filtration by hand, computes its diagram
by matrix reduction, and shows that quadrant masses of the diagram agree with
persistent Betti numbers computed by an entirely independent rank-based
route.  That agreement is the library's central cross-check.
"""

import numpy as np

from randcube import (
    Box,
    Filtration,
    Window,
    compute_diagram,
    format_diagram,
    persistent_betti_direct,
    quadrant_mass,
    rectangle_mass,
    sublevel,
    validate,
)
from randcube.cubes import box_slice, grid_shape

# Births: the square's edges and vertices appear at time 1, the filled square
# at time 2.  A 1-dimensional hole lives during [1, 2).  A filtration is a
# birth grid with one entry per cube of the window (inf = never born); the
# cubes of [0, 1]^2 are a 3x3 block of it, with the square itself in the middle.
window = Window(2, 2)
grid = np.full(grid_shape(window.box), np.inf)
square = grid[box_slice(window.box, Box((0, 0), (1, 1)))]  # a view into grid
square[...] = 1.0
square[1, 1] = 2.0
filt = Filtration(window, grid)
assert validate(filt) is None  # faces never appear after their cofaces

print("sublevel sets:")
for t in (0.5, 1.0, 1.5, 2.0):
    print(f"  X({t}) has {len(sublevel(filt, t))} cubes")

diagram = compute_diagram(filt)
print(f"\ndiagram: {diagram}")
print(f"  degree 0 pairs: {diagram.degree(0)}")
print(f"  degree 1 pairs: {diagram.degree(1)}")

# The k-triangle bridge: counting diagram points in the quadrant
# [0, s] x (t, inf] equals the rank of the inclusion-induced map in homology,
# computed here without ever touching the diagram.
for (s, t) in [(1.0, 1.5), (1.0, 2.0), (1.5, 1.5)]:
    mass = quadrant_mass(diagram, 1, s, t)
    direct = persistent_betti_direct(filt, 1, s, t)
    print(f"quadrant mass at ({s}, {t}): {mass}   direct rank route: {direct}")
    assert mass == direct

# Rectangle counts follow by inclusion-exclusion and are always nonnegative.
box_mass = rectangle_mass(diagram, 1, 0.5, 1.0, 1.5, 2.5)
print(f"\npairs born in (0.5, 1] dying in (1.5, 2.5]: {box_mass}")

# Diagrams round-trip bit-exactly through their text format.
print("\ndiagram file:")
print(format_diagram(diagram))
