import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from randcube import (
    DEFAULT_FIELD,
    Box,
    ElementaryCube,
    PrimeField,
    RationalField,
    Window,
    betti,
    boundary_faces,
    boundary_matrix,
    faces_contained_in,
    kernel_basis,
)
from randcube.cubes import (
    all_cubes_box,
    canonical_cells,
    cell_dims,
    cell_faces,
    cells_to_cubes,
    grid_shape,
)
from randcube.homology import boundary_columns, reduce_columns
from randcube.verify import random_face_closed_set

from cube_grids import cell_coordinates, csc_columns, cube_cells

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
    assert isinstance(mat, sparse.csc_array) and mat.dtype == np.int64
    assert mat.shape == (4, 1)
    rows = [c for c in cells_to_cubes(SQUARE_BOX, FULL_SQUARE) if c.dim == 1]
    signs = {rows[i]: v for i, v in zip(mat.indices.tolist(), mat.data.tolist())}
    assert signs == {
        ElementaryCube((0, 0), (1, 0)): 1,   # bottom
        ElementaryCube((1, 0), (0, 1)): 1,   # right
        ElementaryCube((0, 1), (1, 0)): -1,  # top
        ElementaryCube((0, 0), (0, 1)): -1,  # left
    }


def test_boundary_matrix_single_edge():
    box = Box((0,), (1,))
    cells = canonical_cells(box)
    col = csc_columns(boundary_matrix(box, cells, 1))[0]
    rows = [c for c in cells_to_cubes(box, cells) if c.dim == 0]
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
    zero = csc_columns(sparse.csc_array((0, 3), dtype=np.int64))
    assert zero == [{}, {}, {}] and reduce_columns(zero)[0] == 0
    ident = csc_columns(sparse.eye_array(5, dtype=np.int64, format="csc"))
    assert ident == [{i: 1} for i in range(5)] and reduce_columns(ident)[0] == 5


def test_rank_hollow_square_boundary():
    # 4x4 incidence matrix of the cycle graph: rank 3
    assert reduce_columns(csc_columns(boundary_matrix(SQUARE_BOX, HOLLOW_SQUARE, 1)))[0] == 3


FIELDS = [DEFAULT_FIELD, PrimeField(2), PrimeField(3), RationalField()]
FIELD_IDS = ["gf_p", "gf_2", "gf_3", "rational"]


def assert_kernel_basis(columns, field):
    """``kernel_basis`` gives ncols - rank vectors whose column combinations
    vanish, each with coefficient 1 at its smallest column and no two
    smallest columns equal, so they are independent (triangular)."""
    kernel = kernel_basis(columns, field)
    assert len(kernel) == len(columns) - reduce_columns(columns, field)[0]
    for combo in kernel:
        total: dict = {}
        for j, c in combo.items():
            field.submul_into(total, columns[j], -c)  # total += c * column j
        assert total == {}
    leads = [min(combo) for combo in kernel]
    assert len(set(leads)) == len(kernel)
    assert all(combo[j] == field.from_signed(1) for combo, j in zip(kernel, leads))
    return kernel


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_kernel_basis_of_a_duplicate_column(field):
    # columns c0 = e0, c1 = e0: the kernel is spanned by c0 - c1
    one, minus_one = field.from_signed(1), field.from_signed(-1)
    assert assert_kernel_basis([{0: one}, {0: one}], field) == [{0: one, 1: minus_one}]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_kernel_basis_spans_the_kernel_of_random_boundary_maps(field, d):
    box = Window(1, d).box
    for seed in range(3):
        cells = random_face_closed_set(d, 1, seed)
        for q in range(1, d + 1):
            assert_kernel_basis(csc_columns(boundary_matrix(box, cells, q), field), field)


@pytest.mark.parametrize("field", [DEFAULT_FIELD, RationalField()], ids=["gf_p", "rational"])
def test_reduce_columns_normalises_pivot_entries_other_than_one(field):
    """Pivot entries 2 and 3 are scaled to 1, entries already 1 are kept:
    the rank and the pivot rows are those of the unscaled elimination, every
    reduced pivot column has entry 1 at its pivot row, and the kernel read
    from the same elimination still vanishes."""
    signed = [{0: 1, 2: 2}, {1: 3, 2: 4}, {0: 2, 1: 3, 2: 6}, {1: -1}, {0: 1, 2: 1}]
    columns = [{row: field.from_signed(v) for row, v in c.items()} for c in signed]
    r, pivot_rows, pivots = reduce_columns(columns, field)
    assert r == 3 and pivot_rows == {2: 0, 1: 1, 0: 2}
    assert all(col[low] == field.from_signed(1) and max(col) == low
               for low, col in pivots.items())
    assert len(assert_kernel_basis(columns, field)) == 2


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
    """Column j of a shuffled set's matrix is the boundary of the j-th given
    q-cell, its rows numbered over the given (q-1)-cells in order."""
    rng = np.random.default_rng(11)
    for seed in range(30):
        d = 2 + seed % 3
        _, box, cells = random_face_closed(d, 1, 4000 + seed)
        shuffled = cells[rng.permutation(len(cells))]
        dims = cell_dims(box, shuffled)
        for q in range(1, d + 1):
            mat = boundary_matrix(box, shuffled, q)
            faces, cols = shuffled[dims == q - 1], shuffled[dims == q]
            rows = np.full(math.prod(grid_shape(box)), -1, dtype=np.int64)
            rows[faces] = np.arange(len(faces))
            assert mat.shape == (len(faces), len(cols))
            assert [list(c.items()) for c in csc_columns(mat)] == \
                [list(c.items()) for c in boundary_columns(box, cols, q, rows)]
            assert reduce_columns(csc_columns(mat))[0] == \
                reduce_columns(csc_columns(boundary_matrix(box, cells, q)))[0]
        assert betti(box, shuffled).tolist() == betti(box, cells).tolist()


def _nonvanishing_by_dicts(lower, upper):
    """The upper columns whose image under lower is not zero, by GF(p)
    arithmetic on the dict columns (row i of upper is column i of lower):
    the reference for the product route."""
    f = DEFAULT_FIELD
    lower_columns = csc_columns(lower, f)
    bad = []
    for j, col in enumerate(csc_columns(upper, f)):
        acc = {}
        for i, v in col.items():
            f.submul_into(acc, lower_columns[i], -v)
        if acc:
            bad.append(j)
    return bad


def test_boundary_composition_zero_matrix():
    checked = 0
    for seed in range(30):
        d = 2 + seed % 3
        _, box, cells = random_face_closed(d, 1, 2000 + seed)
        for q in range(1, d):
            lower, upper = (boundary_matrix(box, cells, k) for k in (q, q + 1))
            assert _nonvanishing_by_dicts(lower, upper) == []
            checked += upper.shape[1]
    assert checked > 0


def test_composition_product_matches_dict_arithmetic():
    """The integer product lower @ upper flags exactly the columns that the
    GF(p) dict loop flags, on exact matrices and with one sign flipped."""
    rng = np.random.default_rng(5)
    flagged = 0
    for seed in range(30):
        d = 2 + seed % 3
        _, box, cells = random_face_closed(d, 1, 2000 + seed)
        for q in range(1, d):
            lower, upper = (boundary_matrix(box, cells, k) for k in (q, q + 1))
            if not upper.nnz:
                continue
            for target in (None, upper, lower):
                if target is not None:
                    target.data[rng.integers(target.nnz)] *= -1
                product = lower @ upper
                bad = np.flatnonzero(product.count_nonzero(axis=0)).tolist()
                assert bad == _nonvanishing_by_dicts(lower, upper)
                flagged += len(bad)
    assert flagged > 0


def _patched_chain_complex(monkeypatch, edit):
    """Smoke criterion 2 with every boundary matrix passed through ``edit``."""
    from randcube import verify

    def edited(box, cells, q):
        return edit(box, q, boundary_matrix(box, cells, q))

    monkeypatch.setattr(verify, "boundary_matrix", edited)
    return verify.check_chain_complex(verify.SCALES["smoke"])


def test_chain_complex_check_counts_one_flipped_sign(monkeypatch):
    """One flipped coefficient in a top-degree matrix (an upper matrix only)
    is exactly one bad comparison."""
    flipped = []

    def flip_once(box, q, mat):
        if not flipped and q == box.ambient_dim and mat.nnz:
            mat.data[0] *= -1
            flipped.append(q)
        return mat

    result = _patched_chain_complex(monkeypatch, flip_once)
    assert flipped and not result.passed
    assert result.checks == 25437 and result.worst_margin == -1.0


def test_chain_complex_check_catches_misaligned_cells(monkeypatch):
    """A q = 1 matrix whose columns are rolled by one, so that its column j
    is no longer the edge of row j of the q = 2 matrix, fails."""
    def roll_edges(box, q, mat):
        return mat[:, np.roll(np.arange(mat.shape[1]), 1)] if q == 1 else mat

    result = _patched_chain_complex(monkeypatch, roll_edges)
    assert not result.passed and result.worst_margin <= -1.0
    assert result.checks == 25437


@pytest.mark.parametrize("base, extent, named", [
    ((0, 0), (0, 0), r"2;0,0;00 missing \(face of 2;0,0;01\)"),  # under an edge
    ((0, 0), (1, 0), r"2;0,0;10 missing \(face of 2;0,0;11\)"),  # under the square
])
def test_betti_names_a_missing_face(base, extent, named):
    broken = FULL_SQUARE[FULL_SQUARE != cube_cells(SQUARE_BOX, [ElementaryCube(base, extent)])]
    with pytest.raises(ValueError, match="not face-closed: " + named):
        betti(SQUARE_BOX, broken)


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
        mat = boundary_matrix(box, cells, q)
        rows, cols, columns = reference_boundary(cubes, q, field)
        assert mat.dtype == np.int64 and mat.shape == (len(rows), len(cols))
        assert [list(c.items()) for c in csc_columns(mat, field)] == \
            [list(c.items()) for c in columns]
        ranks[q] = reduce_columns(columns, field)[0]
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
