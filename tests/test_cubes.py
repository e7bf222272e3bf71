import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcube import (
    Box,
    ElementaryCube,
    Filtration,
    Window,
    boundary_faces,
    cofaces_containing,
    cube_count_formula,
    faces_contained_in,
    restrict_box,
)
from randcube import cubes as cubes_module
from randcube.cubes import (
    all_cubes_box,
    box_slice,
    canonical_cells,
    cell_dims,
    cell_faces,
    cell_texts,
    cells_to_cubes,
    grid_shape,
)

from cube_grids import cell_coordinates, contains, cube_cells


def cubes_of_dim(box: Box, q: int) -> list[ElementaryCube]:
    """The box's q-cubes in canonical order: its canonical cells of
    dimension q."""
    cells = canonical_cells(box)
    return cells_to_cubes(box, cells[cell_dims(box, cells) == q])


def cube_contains(outer: ElementaryCube, inner: ElementaryCube) -> bool:
    """Interval-wise inclusion oracle, independent of the face machinery."""
    for ob, oe, ib, ie in zip(outer.base, outer.extent, inner.base, inner.extent):
        if not (ob <= ib and ib + ie <= ob + oe):
            return False
    return True


def test_dimension_worked_examples():
    assert ElementaryCube((0, 0), (0, 0)).dim == 0
    assert ElementaryCube((0, 0), (1, 0)).dim == 1
    assert ElementaryCube((0, 0), (1, 1)).dim == 2


def test_boundary_of_edge_signs_and_order():
    assert boundary_faces(ElementaryCube((0, 0), (1, 0))) == [
        (ElementaryCube((1, 0), (0, 0)), 1),
        (ElementaryCube((0, 0), (0, 0)), -1),
    ]


def test_boundary_of_square_signs_and_order():
    assert boundary_faces(ElementaryCube((0, 0), (1, 1))) == [
        (ElementaryCube((1, 0), (0, 1)), 1),
        (ElementaryCube((0, 0), (0, 1)), -1),
        (ElementaryCube((0, 1), (1, 0)), -1),
        (ElementaryCube((0, 0), (1, 0)), 1),
    ]


def test_boundary_of_vertex_is_empty():
    assert boundary_faces(ElementaryCube((0, 0), (0, 0))) == []


def test_boundary_face_count_distinct_contained():
    for d in (1, 2, 3, 4):
        for cube in all_cubes_box(Window(1, d).box):
            faces = boundary_faces(cube)
            assert len(faces) == 2 * cube.dim
            assert len({f for f, _ in faces}) == len(faces)
            for f, _ in faces:
                assert cube_contains(cube, f)
                assert f.dim == cube.dim - 1


def test_signed_double_boundary_cancels():
    # d <= 4, n <= 2 windows: expand the boundary twice and sum signs
    for d in (2, 3, 4):
        for cube in all_cubes_box(Window(2, d).box):
            if cube.dim < 2:
                continue
            acc: dict[ElementaryCube, int] = {}
            for f, f_sign in boundary_faces(cube):
                for g, g_sign in boundary_faces(f):
                    acc[g] = acc.get(g, 0) + f_sign * g_sign
            assert all(v == 0 for v in acc.values()), cube


def test_cofaces_of_point_d1():
    got = set(cofaces_containing(ElementaryCube((0,), (0,))))
    assert got == {
        ElementaryCube((0,), (0,)),
        ElementaryCube((-1,), (1,)),
        ElementaryCube((0,), (1,)),
    }


def test_cofaces_top_cube_is_itself():
    sq = ElementaryCube((0, 0), (1, 1))
    assert cofaces_containing(sq) == [sq]


def test_cofaces_of_vertex_d2_count_and_inclusion():
    vertex = ElementaryCube((0, 0), (0, 0))
    cofaces = cofaces_containing(vertex)
    assert len(cofaces) == 9
    # exhaustive inclusion oracle over nearby cubes
    nearby = all_cubes_box(Box((-2, -2), (2, 2)))
    expected = {c for c in nearby if cube_contains(c, vertex)}
    assert set(cofaces) == expected


def test_cofaces_count_formula():
    for d in (1, 2, 3):
        for cube in all_cubes_box(Window(1, d).box):
            cofaces = cofaces_containing(cube)
            assert len(cofaces) == 3 ** (d - cube.dim)
            assert all(cube_contains(c, cube) for c in cofaces)


def test_faces_contained_count_and_inclusion():
    for d in (1, 2, 3, 4):
        top = ElementaryCube((0,) * d, (1,) * d)
        faces = faces_contained_in(top)
        assert len(faces) == 3**d
        assert all(cube_contains(top, f) for f in faces)
        by_dim = {}
        for f in faces:
            by_dim[f.dim] = by_dim.get(f.dim, 0) + 1
        for q in range(d + 1):
            # each d-cube contains exactly C(d,q) 2^(d-q) q-cubes
            assert by_dim[q] == math.comb(d, q) * 2 ** (d - q)


def test_enumerate_counts_match_formula():
    for d in (1, 2, 3, 4):
        for n in (1, 2, 3):
            box = Window(n, d).box
            for q in range(d + 1):
                cubes = cubes_of_dim(box, q)
                assert len(cubes) == cube_count_formula(d, n, q)
                assert cubes == sorted(cubes)  # canonical order
                assert all(c.dim == q for c in cubes)


def test_enumerate_d2_n1_examples():
    box = Window(1, 2).box
    assert len(cubes_of_dim(box, 1)) == 12
    assert len(cubes_of_dim(box, 2)) == 4


def test_cube_in_window_boundary_cases():
    n = 3
    box = Window(n, 2).box
    texts = set(cell_texts(box, canonical_cells(box)))
    assert ElementaryCube((n - 1, n), (1, 0)).canonical() in texts
    assert ElementaryCube((n, 0), (1, 0)).canonical() not in texts
    assert ElementaryCube((-n, -n), (0, 0)).canonical() in texts


def test_canonical_text_round_trip():
    for cube in all_cubes_box(Window(2, 3).box):
        assert ElementaryCube.from_canonical(cube.canonical()) == cube
    assert ElementaryCube((-1, 2), (1, 0)).canonical() == "2;-1,2;10"


def test_canonical_text_rejects_bit_count_mismatch():
    # one bit per axis: "2;0,0;0" once filled a whole grid row of a d=2 dump
    for text in ("2;0,0;0", "2;0,0;000", "1;0;"):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ElementaryCube.from_canonical(text)


def test_pickle_round_trip_keeps_equality_and_hash():
    for cube in all_cubes_box(Window(1, 2).box):
        copy = pickle.loads(pickle.dumps(cube))
        assert copy == cube and hash(copy) == hash(cube)
    assert not hasattr(cube, "__dict__")  # slotted: no per-cube dict


def test_window_volume():
    assert Window(3, 2).volume == 36.0
    assert Window(2, 3).volume == 64.0


def test_enumerate_box_respects_bounds():
    box = Box((0, -1), (1, 1))
    for q in (0, 1, 2):
        for cube in cubes_of_dim(box, q):
            assert contains(box, cube)


@st.composite
def cubes(draw, max_d=4):
    d = draw(st.integers(1, max_d))
    base = tuple(draw(st.integers(-5, 5)) for _ in range(d))
    extent = tuple(draw(st.integers(0, 1)) for _ in range(d))
    return ElementaryCube(base, extent)


@settings(max_examples=150, deadline=None)
@given(cubes())
def test_boundary_structure_property(cube):
    faces = boundary_faces(cube)
    assert len(faces) == 2 * cube.dim
    assert len({f for f, _ in faces}) == len(faces)
    assert sum(sign for _, sign in faces) == 0
    acc = {}
    for f, f_sign in faces:
        for g, g_sign in boundary_faces(f):
            acc[g] = acc.get(g, 0) + f_sign * g_sign
    assert all(v == 0 for v in acc.values())


@settings(max_examples=150, deadline=None)
@given(cubes(max_d=3))
def test_face_coface_duality_property(cube):
    assert len(faces_contained_in(cube)) == 3 ** cube.dim
    cofaces = cofaces_containing(cube)
    assert len(cofaces) == 3 ** (cube.ambient_dim - cube.dim)
    for other in cofaces:
        assert cube in faces_contained_in(other)


def brute_force_cubes(box: Box) -> list[ElementaryCube]:
    """Every cube of the box from the interval definition, sorted."""
    per_axis = [[(b, e) for b in range(lo, hi + 1) for e in (0, 1) if b + e <= hi]
                for lo, hi in zip(box.lo, box.hi)]
    return sorted(ElementaryCube(*zip(*combo)) for combo in itertools.product(*per_axis))


@st.composite
def nested_boxes(draw):
    """An outer box with d = 1..4 and asymmetric, translated bounds, plus a
    box inside it."""
    d = draw(st.integers(1, 4))
    lo = [draw(st.integers(-4, 4)) for _ in range(d)]
    hi = [a + draw(st.integers(0, 3 if d <= 2 else 2)) for a in lo]
    inner_lo = [draw(st.integers(a, b)) for a, b in zip(lo, hi)]
    inner_hi = [draw(st.integers(a, b)) for a, b in zip(inner_lo, hi)]
    return Box(tuple(lo), tuple(hi)), Box(tuple(inner_lo), tuple(inner_hi))


@settings(max_examples=100, deadline=None)
@given(nested_boxes())
def test_enumeration_matches_brute_force_property(boxes):
    box, _ = boxes
    expected = brute_force_cubes(box)
    assert all_cubes_box(box) == expected
    for q in range(box.ambient_dim + 1):
        assert cubes_of_dim(box, q) == [c for c in expected if c.dim == q]


@settings(max_examples=100, deadline=None)
@given(nested_boxes())
def test_cube_cell_round_trip_property(boxes):
    box, _ = boxes
    shape = grid_shape(box)
    cubes = brute_force_cubes(box)
    cells = cube_cells(box, cubes).tolist()
    assert cells_to_cubes(box, cells) == cubes
    assert cell_dims(box, cells).tolist() == [c.dim for c in cubes]
    assert cells == canonical_cells(box).tolist()
    assert sorted(cells) == list(range(math.prod(shape)))


@settings(max_examples=100, deadline=None)
@given(nested_boxes(), st.integers(0, 2**32 - 1))
def test_cell_texts_match_canonical_property(boxes, seed):
    """``cell_texts`` is ``canonical`` of ``cells_to_cubes``, for all cells in
    canonical order and for random cells in any order, repeats included."""
    box, _ = boxes
    size = math.prod(grid_shape(box))
    for cells in (canonical_cells(box),
                  np.random.default_rng(seed).integers(0, size, 2 * size)):
        assert cell_texts(box, cells) == [c.canonical() for c in cells_to_cubes(box, cells)]


@settings(max_examples=100, deadline=None)
@given(nested_boxes())
def test_box_slice_selects_inner_cubes_property(boxes):
    outer, inner = boxes
    outer_cells = np.arange(math.prod(grid_shape(outer))).reshape(grid_shape(outer))
    sliced = outer_cells[box_slice(outer, inner)]
    assert sliced.shape == grid_shape(inner)
    got = cells_to_cubes(outer, sliced.ravel()[canonical_cells(inner)])
    assert got == [c for c in brute_force_cubes(outer) if contains(inner, c)]


@settings(max_examples=100, deadline=None)
@given(nested_boxes(), st.integers(0, 2**32 - 1))
def test_cell_faces_match_boundary_faces_property(boxes, seed):
    """``cell_faces`` gives ``boundary_faces``' cubes, signs and order, on
    random cells of the outer box and of a ``restrict_box`` slice view."""
    outer, inner = boxes
    rng = np.random.default_rng(seed)
    # each entry holds its own flat index in the outer grid
    ids = np.arange(math.prod(grid_shape(outer)), dtype=np.float64)
    view = restrict_box(Filtration(outer, ids.reshape(grid_shape(outer))), inner).grid
    for box in (outer, inner):
        cells = canonical_cells(box)
        cubes = cells_to_cubes(box, cells)
        dims = np.array([c.dim for c in cubes])
        for q in range(box.ambient_dim + 1):
            pick = np.flatnonzero((dims == q) & (rng.random(len(cells)) < 0.5))
            faces, signs = cell_faces(box, cells[pick], q)
            assert faces.shape == (len(pick), 2 * q)
            for i, row in zip(pick, faces):
                expected = boundary_faces(cubes[i])
                assert cells_to_cubes(box, row) == [f for f, _ in expected]
                assert signs.tolist() == [sign for _, sign in expected]
                if box == inner:  # the view's flat indices reach the outer cells
                    assert view.ravel()[row].tolist() == \
                        cube_cells(outer, [f for f, _ in expected]).tolist()
    with pytest.raises(ValueError, match="not every cell"):
        cell_faces(outer, canonical_cells(outer)[:1], 1)  # the vertex at lo


@st.composite
def layout_boxes(draw):
    """A box with d = 1..4 and its centred twin: the box is centred or
    translated, and may have one zero-width axis."""
    d = draw(st.integers(1, 4))
    radii = [draw(st.integers(0, 3 if d <= 2 else 1)) for _ in range(d)]
    if draw(st.booleans()):
        radii[draw(st.integers(0, d - 1))] = 0  # hi = lo on that axis
    centred = Box(tuple(-r for r in radii), tuple(radii))
    shift = tuple(draw(st.integers(-4, 4)) for _ in range(d)) if draw(st.booleans()) else (0,) * d
    return centred.translate(shift), centred


@settings(max_examples=100, deadline=None)
@given(layout_boxes(), st.integers(0, 2**32 - 1))
def test_layout_table_matches_coordinate_reference_property(boxes, seed):
    """The layout helpers agree with the ``np.unravel_index`` parities and
    strides of ``cell_coordinates`` on every cell, taken per dimension in a
    shuffled order; a translated box shares its centred twin's table."""
    box, centred = boxes
    d, shape = box.ambient_dim, grid_shape(box)
    size = math.prod(shape)
    base, extent = cell_coordinates(box, np.arange(size))
    dims = extent.sum(axis=1)
    key = [tuple(b) + tuple(e) for b, e in zip(base.tolist(), extent.tolist())]
    assert canonical_cells(box).tolist() == sorted(range(size), key=key.__getitem__)
    stride = [math.prod(shape[axis + 1:]) for axis in range(d)]
    rng = np.random.default_rng(seed)
    for q in range(d + 2):
        cells = rng.permutation(np.flatnonzero(dims == q))
        got = cell_dims(box, cells)
        assert got.dtype == np.int64 and got.tolist() == [q] * len(cells)
        faces, signs = cell_faces(box, cells, q)
        assert faces.dtype == signs.dtype == np.int64
        assert faces.shape == (len(cells), 2 * q) and signs.shape == (2 * q,)
        assert signs.tolist() == [(-1) ** k * s for k in range(q) for s in (1, -1)]
        assert faces.tolist() == [[c + stride[axis] * s for axis in np.flatnonzero(extent[c])
                                   for s in (1, -1)] for c in cells.tolist()]
        assert cell_texts(box, cells) == [
            f"{d};" + ",".join(map(str, base[c])) + ";" + "".join(map(str, extent[c]))
            for c in cells]
        assert cells_to_cubes(box, cells) == [
            ElementaryCube(tuple(base[c].tolist()), tuple(extent[c].tolist())) for c in cells]
        if len(cells):
            with pytest.raises(ValueError, match=f"^not every cell is a {q + 1}-cube$"):
                cell_faces(box, cells, q + 1)
    table = cubes_module._layout(shape)
    assert table is cubes_module._layout(grid_shape(centred))
    assert canonical_cells(box) is canonical_cells(centred)
    for array in (*table[:4], *table.offsets, *table.signs, cell_faces(box, [], 0)[1]):
        assert not array.flags.writeable


@pytest.mark.parametrize("cells, bad", [([-1], -1), ([15], 15), ([3, 0, 16, -1, 14], 16)])
def test_cells_outside_the_grid_raise(cells, bad):
    """A cell outside the grid raises the ``ValueError`` of
    ``np.unravel_index`` instead of wrapping round to the last cell, naming
    the first such cell."""
    box = Box((0, 0), (2, 1))  # a 5 x 3 grid
    message = f"^index {bad} is out of bounds for array with size 15$"
    with pytest.raises(ValueError, match=message):
        cell_dims(box, np.array(cells))
    with pytest.raises(ValueError, match=message):
        cell_faces(box, np.array(cells), 0)


def test_core_builds_no_cube(monkeypatch):
    """Cubes are built only for text I/O and messages: with ``cells_to_cubes``
    refusing, the diagram, the rank route, validation, the homology layer and
    the cube-counting check all still run.  The homology layer names cells
    by their texts and does not import it."""
    from randcube import cubes, homology, persistence, verify

    def refuse(*args):
        raise AssertionError("cells_to_cubes called")

    assert "cells_to_cubes" not in vars(homology)
    for module in (cubes, persistence):
        monkeypatch.setattr(module, "cells_to_cubes", refuse)
    f = verify.random_filtration(2, 2, 1)
    assert persistence.validate(f) is None
    diagram = persistence.compute_diagram(f)
    for q in (0, 1):
        assert persistence.persistent_betti_direct(f, q, 0.5, 0.8) == \
            persistence.quadrant_mass(diagram, q, 0.5, 0.8)
    cells = persistence.sublevel(f, 0.7)
    assert homology.boundary_matrix(f.region, cells, 1).shape[1] > 0
    assert homology.betti(f.region, cells)[0] >= 1
    assert verify.check_cube_counting(verify.SCALES["smoke"]).passed


def test_boundary_examples_build_no_cube(monkeypatch):
    """Criterion 1 states its worked examples on cells and canonical texts:
    it passes with ``boundary_faces``, ``cells_to_cubes`` and the cube
    constructor refusing, and neither ``verify`` nor ``homology`` imports any
    of them."""
    from randcube import cubes, homology, verify

    def refuse(*args, **kwargs):
        raise AssertionError("cube built")

    for module in (verify, homology):
        assert not {"ElementaryCube", "boundary_faces", "cells_to_cubes"} & set(vars(module))
    monkeypatch.setattr(cubes, "cells_to_cubes", refuse)
    monkeypatch.setattr(cubes, "boundary_faces", refuse)
    monkeypatch.setattr(ElementaryCube, "__init__", refuse)
    result = verify.check_boundary_examples(verify.SCALES["smoke"])
    assert result.passed and result.checks == 4 and result.worst_margin == 0.0
    assert result.detail == "worked 2d examples, signs exact"


@pytest.mark.parametrize("where, failed", [
    ("verify", ["edge boundary", "square boundary"]),
    ("homology", ["square matrix column"]),
])
def test_boundary_examples_catch_flipped_signs(monkeypatch, where, failed):
    """Criterion 1 fails when ``cell_faces`` negates its signs, in the face
    lists of ``verify`` or in the boundary matrix of ``homology``."""
    from randcube import homology, verify

    def flipped(box, cells, q):
        faces, signs = cell_faces(box, cells, q)
        return faces, -signs

    monkeypatch.setattr({"verify": verify, "homology": homology}[where],
                        "cell_faces", flipped)
    result = verify.check_boundary_examples(verify.SCALES["smoke"])
    assert not result.passed and result.worst_margin < 0
    names = ("vertex boundary", "edge boundary", "square boundary", "square matrix column")
    assert [name for name in names if name in result.detail] == failed


def test_dump_builds_no_cube(monkeypatch):
    """A valid dump is written and read on grid cells: with the cube
    constructor, ``cells_to_cubes`` and ``ElementaryCube.from_canonical``
    refusing, dumps of a sampled window (``p_inf`` marks, so some cubes are
    never born) and of a restriction of it round-trip."""
    from randcube import cubes, models, persistence

    def refuse(*args, **kwargs):
        raise AssertionError("cube built")

    uniform = models.DistributionSpec("uniform", (0.0, 1.0), p_inf=0.2)
    f = models.sample(models.ModelSpec("upper", 3, marks=(uniform,) * 4), 2, 7)
    for module in (cubes, persistence):
        monkeypatch.setattr(module, "cells_to_cubes", refuse)
    monkeypatch.setattr(ElementaryCube, "from_canonical", staticmethod(refuse))
    monkeypatch.setattr(ElementaryCube, "__init__", refuse)
    for filt in (f, models.restrict_box(f, Window(1, 3).box)):
        dump = models.format_filtration(filt)
        back = models.parse_filtration(dump)
        assert back == filt
        assert models.format_filtration(back) == dump
    assert np.isinf(f.grid).any() and np.isfinite(f.grid).any()
