#!/usr/bin/env python3
"""Elementary cubes and exact cubical homology, from the ground up.

Walks through the atoms of the library: what an elementary cube is, how its
signed boundary looks, and how Betti numbers of a bounded cubical set are
computed exactly over GF(p).
"""

import numpy as np

from randcube import (
    Box,
    ElementaryCube,
    RationalField,
    Window,
    betti,
    boundary_faces,
    boundary_matrix,
    cofaces_containing,
    cube_count_formula,
    faces_contained_in,
)
from randcube.cubes import canonical_cells, cell_dims

# An elementary cube is a product of intervals [l, l+1] or {l}.  The unit
# square in the plane:
square = ElementaryCube(base=(0, 0), extent=(1, 1))
print(f"square {square.canonical()} has dimension {square.dim}")

# Its boundary is a signed chain of the four edges.  Signs alternate with the
# index of the nondegenerate axis, so the square's boundary is the familiar
# oriented loop:
for face, sign in boundary_faces(square):
    print(f"  {'+' if sign > 0 else '-'}{face.canonical()}")

# Faces and cofaces: a cube contains 3^dim cubes and is contained in
# 3^(d - dim) cubes.
vertex = ElementaryCube((0, 0), (0, 0))
print(f"\nvertex has {len(cofaces_containing(vertex))} cofaces (3^2)")
print(f"square contains {len(faces_contained_in(square))} cubes (3^2)")

# Windows: the region [-n, n]^d.  Counting q-cubes has a closed form.
win = Window(2, 2)
dims = cell_dims(win.box, canonical_cells(win.box))
for q in range(3):
    n_q = int((dims == q).sum())
    assert n_q == cube_count_formula(2, 2, q)
    print(f"window [-2,2]^2 holds {n_q} cubes of dimension {q}")

# Homology runs on flat grid cells: every cube of a box has one position in
# the box's grid.  The full square is contractible; the hollow square has a
# loop.
box = Box((0, 0), (1, 1))
full = canonical_cells(box)  # every cube of the square's box
hollow = full[cell_dims(box, full) < 2]
print(f"\nbetti(full square)   = {betti(box, full).tolist()[:2]}")
print(f"betti(hollow square) = {betti(box, hollow).tolist()[:2]}")

# A boundary matrix is a sparse integer array of +-1 entries; its rank here
# (floating point, exact at this size) is #edges - b_1 = 4 - 1.
mat = boundary_matrix(box, hollow, 1)
print(f"\nboundary matrix of the hollow square: shape {mat.shape}, "
      f"rank {np.linalg.matrix_rank(mat.toarray())}")

# Betti numbers are exact linear algebra over GF(2^31 - 1); rationals are
# available as a cross-check mode and must agree.
assert (betti(box, hollow) == betti(box, hollow, RationalField())).all()
assert betti(box, hollow).tolist() == [1, 1, 0]
print("GF(p) and exact-rational Betti numbers agree")
