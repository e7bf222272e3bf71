import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcube import (
    DEFAULT_FIELD,
    Box,
    ElementaryCube,
    PrimeField,
    RationalField,
    SparseMatrix,
    Window,
    betti,
    boundary_faces,
    boundary_matrix,
    faces_contained_in,
    rank,
)
from randcube.cubes import (
    all_cubes_box,
    canonical_cells,
    cell_coordinates,
    cell_faces,
    cells_to_cubes,
    grid_shape,
)
from randcube.homology import reduce_columns
from randcube.verify import random_face_closed_set

from cube_grids import cube_cells

SQUARE = ElementaryCube((0, 0), (1, 1))
SQUARE_BOX = Box((0, 0), (1, 1))
FULL_SQUARE = canonical_cells(SQUARE_BOX)


HOLLOW_SQUARE = FULL_SQUARE[FULL_SQUARE != cube_cells(SQUARE_BOX, [SQUARE])]


def random_face_closed(d, n, seed, p=0.4):
    """A random face-closed cube list of the window [-n, n]^d, in canonical
    order, with the window's box and the list's flat grid cells."""
    rng = np.random.default_rng(seed)
    box = Window(n, d).box
    cubes = all_cubes_box(box)
    keep = [c for c, k in zip(cubes, rng.random(len(cubes)) < p) if k]
    keep.sort(key=lambda c: -c.dim)  # largest first: a cube added as a face has its faces
    out = set()
    for cube in keep:
        if cube not in out:
            out.update(faces_contained_in(cube))
    cubes = sorted(out)
    return cubes, box, cube_cells(box, cubes)


# --- field axioms, property-tested ------------------------------------------

small = st.integers(min_value=-(10**6), max_value=10**6)


@settings(max_examples=200, deadline=None)
@given(small, small, small)
def test_prime_field_axioms(a, b, c):
    f = DEFAULT_FIELD
    p = f.p
    fa, fb, fc = a % p, b % p, c % p
    assert (fa + fb) % p == (fb + fa) % p
    assert ((fa + fb) % p + fc) % p == (fa + (fb + fc) % p) % p
    assert fa * fb % p == fb * fa % p
    assert (fa * fb % p) * fc % p == fa * (fb * fc % p) % p
    assert fa * ((fb + fc) % p) % p == (fa * fb + fa * fc) % p
    if fa != 0:
        assert fa * f.inv(fa) % p == 1


@settings(max_examples=100, deadline=None)
@given(small, small)
def test_rational_field_exact(a, b):
    f = RationalField()
    fa, fb = f.from_signed(a), f.from_signed(b)
    if b != 0:
        assert fb * f.inv(fb) == 1
    assert fa + fb - fb == fa


def test_submul_into_cancels():
    f = DEFAULT_FIELD
    dst = {0: 3, 1: 5}
    f.submul_into(dst, {0: 3, 2: 7}, 1)
    assert 0 not in dst and dst[1] == 5 and dst[2] == f.p - 7


# --- boundary matrices -------------------------------------------------------

def test_boundary_matrix_square_column():
    mat = boundary_matrix(SQUARE_BOX, FULL_SQUARE, 2)
    assert mat.shape == (4, 1)
    rows = cells_to_cubes(SQUARE_BOX, mat.row_cells)
    signs = {}
    for i, v in mat.columns[0].items():
        signs[rows[i]] = 1 if v == 1 else -1
    assert signs == {
        ElementaryCube((0, 0), (1, 0)): 1,   # bottom
        ElementaryCube((1, 0), (0, 1)): 1,   # right
        ElementaryCube((0, 1), (1, 0)): -1,  # top
        ElementaryCube((0, 0), (0, 1)): -1,  # left
    }


def test_boundary_matrix_single_edge():
    box = Box((0,), (1,))
    mat = boundary_matrix(box, canonical_cells(box), 1)
    col = mat.columns[0]
    rows = cells_to_cubes(box, mat.row_cells)
    head = rows.index(ElementaryCube((1,), (0,)))
    tail = rows.index(ElementaryCube((0,), (0,)))
    assert col[head] == 1 and col[tail] == DEFAULT_FIELD.p - 1


def test_boundary_matrix_empty_column_list():
    mat = boundary_matrix(SQUARE_BOX, HOLLOW_SQUARE, 2)
    assert mat.shape == (4, 0)


def test_boundary_matrix_not_face_closed():
    broken = FULL_SQUARE[FULL_SQUARE != cube_cells(SQUARE_BOX, [ElementaryCube((0, 0), (0, 0))])]
    with pytest.raises(ValueError, match=r"not face-closed: 2;0,0;00 missing \(face of 2;0,0;01\)"):
        boundary_matrix(SQUARE_BOX, broken, 1)


# --- rank ---------------------------------------------------------------------

def test_rank_zero_and_identity():
    f = DEFAULT_FIELD
    zero = SparseMatrix([], [], [{} for _ in range(3)], f)
    assert rank(zero) == 0
    ident = SparseMatrix([], [], [{i: 1} for i in range(5)], f)
    assert rank(ident) == 5


def test_rank_hollow_square_boundary():
    # 4x4 incidence matrix of the cycle graph: rank 3
    assert rank(boundary_matrix(SQUARE_BOX, HOLLOW_SQUARE, 1)) == 3


def test_reduce_columns_kernel():
    f = DEFAULT_FIELD
    # columns c0 = e0, c1 = e0 (duplicate): kernel is spanned by c1 - c0
    r, pivots, kernel = reduce_columns([{0: 1}, {0: 1}], f, want_kernel=True)
    assert r == 1
    assert len(kernel) == 1
    vec = kernel[0]
    assert set(vec) == {0, 1}
    assert (vec[0] + vec[1]) % f.p == 0


# --- Betti numbers -------------------------------------------------------------

def test_betti_worked_examples():
    full = betti(SQUARE_BOX, FULL_SQUARE)
    assert full.dtype == np.int64 and full.tolist() == [1, 0, 0]
    assert betti(SQUARE_BOX, HOLLOW_SQUARE).tolist() == [1, 1, 0]
    line = Box((0,), (2,))
    two_points = cube_cells(line, [ElementaryCube((0,), (0,)), ElementaryCube((2,), (0,))])
    assert betti(line, two_points).tolist() == [2, 0]


def union_find_components(cubes):
    """Independent component count over vertex/edge adjacency."""
    verts = [c for c in cubes if c.dim == 0]
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for c in cubes:
        if c.dim >= 1:
            vs = [ElementaryCube(v, (0,) * c.ambient_dim) for v in c.vertices()]
            roots = {find(v) for v in vs}
            root = roots.pop()
            for other in roots:
                parent[other] = root
    return len({find(v) for v in verts})


def test_betti0_matches_union_find():
    for seed in range(100):
        d = 2 if seed % 2 == 0 else 3
        cubes, box, cells = random_face_closed(d, 2, seed)
        if not cubes:
            continue
        assert betti(box, cells)[0] == union_find_components(cubes)


def test_euler_poincare():
    for seed in range(40):
        d = 2 + seed % 3
        cubes, box, cells = random_face_closed(d, 1, 1000 + seed)
        if not cubes:
            continue
        chi_count = sum((-1) ** c.dim for c in cubes)
        chi_betti = sum((-1) ** q * b for q, b in enumerate(betti(box, cells)))
        assert chi_count == chi_betti


def test_boundary_matrix_keeps_given_order():
    rng = np.random.default_rng(11)
    for seed in range(20):
        d = 2 + seed % 2
        cubes, box, cells = random_face_closed(d, 1, 4000 + seed)
        perm = rng.permutation(len(cubes))
        shuffled = [cubes[i] for i in perm]
        for q in range(1, d + 1):
            mat = boundary_matrix(box, cells[perm], q)
            assert cells_to_cubes(box, mat.row_cells) == [c for c in shuffled if c.dim == q - 1]
            assert cells_to_cubes(box, mat.col_cells) == [c for c in shuffled if c.dim == q]
            assert rank(mat) == rank(boundary_matrix(box, cells, q))
        assert betti(box, cells[perm]).tolist() == betti(box, cells).tolist()


def test_boundary_composition_zero_matrix():
    f = DEFAULT_FIELD
    for seed in range(30):
        d = 2 + seed % 3
        _, box, cells = random_face_closed(d, 1, 2000 + seed)
        for q in range(1, d):
            upper = boundary_matrix(box, cells, q + 1, f)
            if not len(upper.col_cells):
                continue
            lower = boundary_matrix(box, cells, q, f)
            col_of = dict(zip(lower.col_cells.tolist(), lower.columns))
            for col in upper.columns:
                acc = {}
                for i, v in col.items():
                    f.submul_into(acc, col_of[int(upper.row_cells[i])], -v)
                assert not acc


def test_field_independence_smoke():
    gf = DEFAULT_FIELD
    ra = RationalField()
    for seed in range(25):
        d = 2 if seed % 2 == 0 else 3
        cubes, box, cells = random_face_closed(d, 1, 3000 + seed)
        if not cubes:
            continue
        assert betti(box, cells, gf).tolist() == betti(box, cells, ra).tolist()


def test_gf2_fast_mode_on_torsion_free_complex():
    # 2d complexes cannot have torsion, so the flagged GF(2) mode must agree
    gf2 = PrimeField(2)
    for seed in range(10):
        cubes, box, cells = random_face_closed(2, 2, 4000 + seed)
        if not cubes:
            continue
        assert betti(box, cells, gf2).tolist() == betti(box, cells).tolist()


# --- the cell operator against a cube-list reference --------------------------------

def reference_boundary(cubes, q, field):
    """Rows, columns and coefficient columns of the q-th boundary map of a
    face-closed cube list, built from ``boundary_faces`` in the order given."""
    rows = [c for c in cubes if c.dim == q - 1]
    cols = [c for c in cubes if c.dim == q]
    row_index = {c: i for i, c in enumerate(rows)}
    columns = [{row_index[f]: field.from_signed(sign) for f, sign in boundary_faces(c)}
               for c in cols]
    return rows, cols, columns


@st.composite
def face_closed_sets(draw):
    """A random face-closed cube list of a translated, asymmetric box, in a
    random order, with that box."""
    d = draw(st.integers(1, 4))
    lo = tuple(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))
    sides = draw(st.lists(st.integers(0, 3 if d <= 2 else (2 if d == 3 else 1)),
                          min_size=d, max_size=d))
    box = Box(lo, tuple(a + k for a, k in zip(lo, sides)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from((0.1, 0.4, 0.8)))
    cubes = all_cubes_box(box)
    out = set()
    for cube, keep in zip(cubes, rng.random(len(cubes)) < p):
        if keep:
            out.update(faces_contained_in(cube))
    cubes = sorted(out)
    return box, [cubes[i] for i in rng.permutation(len(cubes))]


@settings(max_examples=150, deadline=None)
@given(face_closed_sets(), st.sampled_from((DEFAULT_FIELD, RationalField(), PrimeField(2))))
def test_cell_boundary_matrix_matches_cube_list_reference(case, field):
    box, cubes = case
    cells = cube_cells(box, cubes)
    d = box.ambient_dim
    ranks = {0: 0, d + 1: 0}
    for q in range(1, d + 1):
        mat = boundary_matrix(box, cells, q, field)
        rows, cols, columns = reference_boundary(cubes, q, field)
        assert cells_to_cubes(box, mat.row_cells) == rows
        assert cells_to_cubes(box, mat.col_cells) == cols
        assert [list(c.items()) for c in mat.columns] == [list(c.items()) for c in columns]
        ranks[q] = reduce_columns(columns, field)[0]
        assert rank(mat) == ranks[q]
    expect = [sum(c.dim == q for c in cubes) - ranks[q] - ranks[q + 1]
              for q in range(d + 1)]
    assert betti(box, cells, field).tolist() == expect


@pytest.mark.parametrize("d, n", [(d, n) for d in (2, 3, 4) for n in (1, 2)])
def test_random_face_closed_set_is_unchanged(d, n):
    box = Window(n, d).box
    for seed in range(20):
        cells = random_face_closed_set(d, n, seed)
        assert cells_to_cubes(box, cells) == random_face_closed(d, n, seed)[0]
        present = np.zeros(math.prod(grid_shape(box)), dtype=bool)
        present[cells] = True
        dims = cell_coordinates(box, cells)[1].sum(axis=1)
        for q in range(1, d + 1):
            assert present[cell_faces(box, cells[dims == q], q)[0]].all()
