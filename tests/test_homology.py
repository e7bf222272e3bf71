import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcube import (
    DEFAULT_FIELD,
    ElementaryCube,
    PrimeField,
    RationalField,
    SparseMatrix,
    Window,
    betti,
    boundary_matrix,
    faces_contained_in,
    rank,
)
from randcube.cubes import all_cubes_box
from randcube.homology import reduce_columns

SQUARE = ElementaryCube((0, 0), (1, 1))
FULL_SQUARE = faces_contained_in(SQUARE)
HOLLOW_SQUARE = [c for c in FULL_SQUARE if c.dim < 2]


def random_face_closed(d, n, seed, p=0.4):
    rng = np.random.default_rng(seed)
    cubes = all_cubes_box(Window(n, d).box)
    out = set()
    for cube, keep in zip(cubes, rng.random(len(cubes)) < p):
        if keep:
            out.update(faces_contained_in(cube))
    return sorted(out)


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
    mat = boundary_matrix(FULL_SQUARE, 2)
    assert mat.shape == (4, 1)
    signs = {}
    for i, v in mat.columns[0].items():
        signs[mat.row_cubes[i]] = 1 if v == 1 else -1
    assert signs == {
        ElementaryCube((0, 0), (1, 0)): 1,   # bottom
        ElementaryCube((1, 0), (0, 1)): 1,   # right
        ElementaryCube((0, 1), (1, 0)): -1,  # top
        ElementaryCube((0, 0), (0, 1)): -1,  # left
    }


def test_boundary_matrix_single_edge():
    edge = ElementaryCube((0,), (1,))
    cubes = faces_contained_in(edge)
    mat = boundary_matrix(cubes, 1)
    col = mat.columns[0]
    head = mat.row_cubes.index(ElementaryCube((1,), (0,)))
    tail = mat.row_cubes.index(ElementaryCube((0,), (0,)))
    assert col[head] == 1 and col[tail] == DEFAULT_FIELD.p - 1


def test_boundary_matrix_empty_column_list():
    mat = boundary_matrix(HOLLOW_SQUARE, 2)
    assert mat.shape == (4, 0)


def test_boundary_matrix_not_face_closed():
    broken = [c for c in FULL_SQUARE if c != ElementaryCube((0, 0), (0, 0))]
    with pytest.raises(ValueError, match="not face-closed"):
        boundary_matrix(broken, 1)


def test_coo_dump():
    mat = boundary_matrix(FULL_SQUARE, 2)
    lines = mat.dump_coo().splitlines()
    assert len(lines) == 4
    assert all(len(line.split()) == 3 for line in lines)


# --- rank ---------------------------------------------------------------------

def test_rank_zero_and_identity():
    f = DEFAULT_FIELD
    zero = SparseMatrix([], [], [{} for _ in range(3)], f)
    assert rank(zero) == 0
    ident = SparseMatrix([], [], [{i: 1} for i in range(5)], f)
    assert rank(ident) == 5


def test_rank_hollow_square_boundary():
    # 4x4 incidence matrix of the cycle graph: rank 3
    assert rank(boundary_matrix(HOLLOW_SQUARE, 1)) == 3


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
    assert [betti(FULL_SQUARE, q) for q in (0, 1, 2)] == [1, 0, 0]
    assert [betti(HOLLOW_SQUARE, q) for q in (0, 1, 2)] == [1, 1, 0]
    two_points = [ElementaryCube((0,), (0,)), ElementaryCube((2,), (0,))]
    assert betti(two_points, 0) == 2


def test_betti_q_out_of_range():
    with pytest.raises(ValueError):
        betti(FULL_SQUARE, 3)


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
        cubes = random_face_closed(d, 2, seed)
        if not cubes:
            continue
        assert betti(cubes, 0) == union_find_components(cubes)


def test_euler_poincare():
    for seed in range(40):
        d = 2 + seed % 3
        cubes = random_face_closed(d, 1, 1000 + seed)
        if not cubes:
            continue
        chi_count = sum((-1) ** c.dim for c in cubes)
        chi_betti = sum((-1) ** q * betti(cubes, q) for q in range(d + 1))
        assert chi_count == chi_betti


def test_boundary_matrix_keeps_given_order():
    rng = np.random.default_rng(11)
    for seed in range(20):
        d = 2 + seed % 2
        cubes = random_face_closed(d, 1, 4000 + seed)
        shuffled = [cubes[i] for i in rng.permutation(len(cubes))]
        for q in range(1, d + 1):
            mat = boundary_matrix(shuffled, q)
            assert mat.row_cubes == [c for c in shuffled if c.dim == q - 1]
            assert mat.col_cubes == [c for c in shuffled if c.dim == q]
            assert rank(mat) == rank(boundary_matrix(cubes, q))
        for q in range(d + 1):
            assert betti(shuffled, q) == betti(cubes, q)


def test_boundary_composition_zero_matrix():
    f = DEFAULT_FIELD
    for seed in range(30):
        d = 2 + seed % 3
        cubes = random_face_closed(d, 1, 2000 + seed)
        for q in range(1, d):
            upper = boundary_matrix(cubes, q + 1, f)
            if not upper.col_cubes:
                continue
            lower = boundary_matrix(cubes, q, f)
            col_of = {c: lower.columns[i] for i, c in enumerate(lower.col_cubes)}
            for col in upper.columns:
                acc = {}
                for i, v in col.items():
                    f.submul_into(acc, col_of[upper.row_cubes[i]], -v)
                assert not acc


def test_field_independence_smoke():
    gf = DEFAULT_FIELD
    ra = RationalField()
    for seed in range(25):
        d = 2 if seed % 2 == 0 else 3
        cubes = random_face_closed(d, 1, 3000 + seed)
        if not cubes:
            continue
        for q in range(d + 1):
            assert betti(cubes, q, gf) == betti(cubes, q, ra)


def test_gf2_fast_mode_on_torsion_free_complex():
    # 2d complexes cannot have torsion, so the flagged GF(2) mode must agree
    gf2 = PrimeField(2)
    for seed in range(10):
        cubes = random_face_closed(2, 2, 4000 + seed)
        if not cubes:
            continue
        for q in (0, 1, 2):
            assert betti(cubes, q, gf2) == betti(cubes, q)
