import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcube import (
    DEFAULT_FIELD,
    Box,
    DistributionSpec,
    ElementaryCube,
    Filtration,
    ModelSpec,
    PersistenceDiagram,
    PrimeField,
    RationalField,
    Window,
    betti,
    boundary_faces,
    boundary_matrix,
    cli,
    compute_diagram,
    faces_contained_in,
    format_diagram,
    kernel_basis,
    parse_diagram,
    persistent_betti_0,
    persistent_betti_direct,
    quadrant_mass,
    rectangle_mass,
    sample,
    sublevel,
    truncate,
    validate,
)
from randcube import homology, persistence
from randcube.cubes import canonical_cells, cell_dims, cell_faces, cells_to_cubes, grid_shape
from randcube.homology import reduce_columns
from randcube.persistence import _pb_corners
from randcube.verify import BIRTH_GRID, random_filtration

from cube_grids import cell_coordinates, csc_columns, filtration_from_births

INF = math.inf
SQUARE = ElementaryCube((0, 0), (1, 1))
UNIFORM = DistributionSpec("uniform", (0.0, 1.0))
TIED = DistributionSpec("empirical", (0.2, 0.3, 0.5, 0.7, 0.9, 1.0))
DEFECTIVE = DistributionSpec("uniform", (0.25, 0.75), p_inf=0.3)
LAW = DistributionSpec("uniform", (-0.25, 0.25))


def hollow_square_then_fill() -> Filtration:
    """Edges and vertices of [0,1]^2 born at 1, the square itself at 2."""
    births = {c: (2.0 if c == SQUARE else 1.0) for c in faces_contained_in(SQUARE)}
    return filtration_from_births(Window(2, 2), births)


# --- validation ----------------------------------------------------------------

def test_validate_ok_edge_after_endpoints():
    edge = ElementaryCube((0,), (1,))
    births = {edge: 1.0,
              ElementaryCube((0,), (0,)): 0.0,
              ElementaryCube((1,), (0,)): 0.0}
    assert validate(filtration_from_births(Window(1, 1), births)) is None


def test_validate_reports_first_violation():
    edge = ElementaryCube((0,), (1,))
    vertex = ElementaryCube((1,), (0,))
    births = {edge: 0.0, ElementaryCube((0,), (0,)): 0.0, vertex: 1.0}
    violation = validate(filtration_from_births(Window(1, 1), births))
    assert violation == (vertex, edge)


def test_validate_builds_no_births_dict():
    grid = random_filtration(2, 2, 3).grid.copy()
    grid[2, 2] = INF  # a vertex never born, under its four born edges
    f = Filtration(Window(2, 2), grid)
    assert validate(f) == (ElementaryCube((-1, -1), (0, 0)), ElementaryCube((-2, -1), (1, 0)))
    assert f._births is None


def test_filtration_names_the_first_negative_birth():
    """The message names the first bad cell in canonical order by its text."""
    grid = np.zeros(grid_shape(Window(1, 2).box))
    grid.flat[7], grid.flat[18] = -0.5, np.nan
    with pytest.raises(ValueError, match=r"^birth times must be nonnegative, "
                                         r"got -0\.5 at 2;-1,0;10$"):
        Filtration(Window(1, 2), grid)
    grid.flat[7] = 0.0
    grid.flat[18] = -INF
    with pytest.raises(ValueError, match=r"^birth times must be nonnegative, "
                                         r"got -inf at 2;0,0;11$"):
        Filtration(Window(1, 2), grid)


def never_born(window: Window) -> Filtration:
    """The filtration of the window in which no cube is ever born."""
    return Filtration(window, np.full(grid_shape(window.box), INF))


def test_validate_empty_filtration():
    assert validate(never_born(Window(1, 2))) is None


def test_all_infinite_births_is_empty():
    f = never_born(Window(1, 1))
    assert f.births == {}
    assert validate(f) is None


# --- the birth grid ----------------------------------------------------------------

def test_births_dict_rebuilds_the_grid():
    law = DistributionSpec("uniform", (-0.25, 0.25))
    defective = DistributionSpec("uniform", (0.25, 0.75), p_inf=0.3)
    for d in (1, 2, 3):
        for model in (ModelSpec("lower", d, marks=(defective,) * (d + 1)),
                      ModelSpec("upper", d, marks=(defective,) * (d + 1)),
                      ModelSpec("perturbed_lattice", d, perturbation=law),
                      ModelSpec("ball_cover", d, perturbation=law, m_grid=2)):
            f = sample(model, 2, seed=40 + d)
            g = filtration_from_births(f.region, f.births)
            assert g == f and np.array_equal(g.grid, f.grid)
            assert list(f.births) == sorted(f.births)
            if model.kind in ("lower", "upper"):
                assert np.isinf(f.grid).any()


def reference_validate(filtration):
    """The per-cube check: the first late cube in canonical order, with its
    first face (in boundary order) born after it."""
    births = filtration.births
    for cube in sorted(births):
        for face, _ in boundary_faces(cube):
            if births.get(face, INF) > births[cube]:
                return (face, cube)
    return None


def test_validate_matches_per_cube_reference():
    rng = np.random.default_rng(11)
    violations = 0
    for i in range(60):
        d, n = 1 + i % 3, 1 + (i // 3) % 2
        grid = random_filtration(d, n, 300 + i).grid.copy()
        # two cells drawn lower, one never born: most cases break the face
        # condition somewhere
        cells = rng.choice(grid.size, size=3, replace=False)
        grid.flat[cells[:2]] = rng.integers(0, 10, size=2) / 10
        grid.flat[cells[2]] = INF
        f = Filtration(Window(n, d), grid)
        expect = reference_validate(f)
        assert validate(f) == expect
        violations += expect is not None
    assert violations >= 40


# --- sublevel sets ---------------------------------------------------------------

def test_sublevel_below_all_births():
    assert sublevel(hollow_square_then_fill(), 0.5).tolist() == []


def test_sublevel_at_max_birth():
    f = hollow_square_then_fill()
    assert len(sublevel(f, 2.0)) == 9


def test_sublevel_hollow_stage():
    f = hollow_square_then_fill()
    cubes = cells_to_cubes(f.region, sublevel(f, 1.5))
    assert len(cubes) == 8 and SQUARE not in cubes
    assert cubes == sorted(cubes)


# --- diagrams ---------------------------------------------------------------------

def test_diagram_hollow_square_then_fill():
    diagram = compute_diagram(hollow_square_then_fill())
    assert diagram.degree(1) == [(1.0, 2.0)]
    assert diagram.degree(0) == [(1.0, INF)]


def test_diagram_of_empty_filtration():
    diagram = compute_diagram(never_born(Window(1, 2)))
    assert diagram.pairs == {}


def test_diagram_single_vertex():
    diagram = compute_diagram(
        filtration_from_births(Window(1, 2), {ElementaryCube((0, 0), (0, 0)): 0.0})
    )
    assert diagram.degree(0) == [(0.0, INF)]


def test_diagram_rejects_invalid_filtration():
    edge = ElementaryCube((0,), (1,))
    births = {edge: 0.0,
              ElementaryCube((0,), (0,)): 0.0,
              ElementaryCube((1,), (0,)): 1.0}
    with pytest.raises(ValueError, match="monotone"):
        compute_diagram(filtration_from_births(Window(1, 1), births))


def test_diagram_matches_quadrant_oracle_on_grid():
    # brute-force check of the hollow-square diagram through quadrant masses
    f = hollow_square_then_fill()
    diagram = compute_diagram(f)
    for q in (0, 1):
        for s in (0.5, 1.0, 1.5, 2.0):
            for t in (0.5, 1.0, 1.5, 2.0, 2.5):
                if s > t:
                    continue
                assert quadrant_mass(diagram, q, s, t) == \
                    persistent_betti_direct(f, q, s, t)


def test_diagram_tie_order_invariance():
    """Fully born d = 2 filtrations, and d = 3 windows with never-born cubes
    and a middle pass: a tie-heavy one cut at 0.5 and a ``lower`` one with
    ``p_inf`` marks."""
    rng = np.random.default_rng(7)
    tied = DistributionSpec("empirical", (0.2, 0.3, 0.5, 0.7, 0.9, 1.0), p_inf=0.3)
    windows = [random_filtration(2, 2, 5000 + seed) for seed in range(20)]
    windows += [truncate(random_filtration(3, 2, 5100 + seed), 0.5) for seed in range(5)]
    windows += [sample(ModelSpec("lower", 3, marks=(tied,) * 4), 2, 5200, trial)
                for trial in range(5)]
    assert any((f.grid == math.inf).any() for f in windows)
    for f in windows:
        reference = compute_diagram(f)
        cells = canonical_cells(f.region).tolist()
        perm = dict(zip(cells, rng.permutation(len(cells)).tolist()))
        shuffled = compute_diagram(f, _tie_key=lambda finite: [perm[c] for c in finite.tolist()])
        assert shuffled == reference


def test_diagram_field_independence():
    for seed in range(5):
        f = random_filtration(2, 2, 6000 + seed)
        assert compute_diagram(f) == compute_diagram(f, field=RationalField())
    for seed in range(3):
        f = random_filtration(3, 2, 6050 + seed)
        assert compute_diagram(f) == compute_diagram(f, field=RationalField())
    # cut windows: the rank route over GF(2), GF(3) and Q, each against the
    # diagram over the same field
    for seed in range(3):
        f = truncate(random_filtration(3, 2, 6070 + seed), 0.6)
        values = corner_candidates(f)
        s, t = values[:, None], np.maximum(values[:, None], values)
        for field in (PrimeField(2), PrimeField(3), RationalField()):
            diagram = compute_diagram(f, field=field)
            for q in range(3):
                assert np.array_equal(persistent_betti_direct(f, q, s, t, field=field),
                                      quadrant_mass(diagram, q, s, t))


def test_total_mass_bound():
    for seed in range(10):
        d, n = (2, 3) if seed % 2 == 0 else (3, 2)
        f = random_filtration(d, n, 6100 + seed)
        diagram = compute_diagram(f)
        for q in range(d + 1):
            n_q = sum(1 for c in f.births if c.dim == q)
            assert diagram.total_count(q) <= n_q


# --- union-find degrees against the full column reduction ------------------------------

def ordered_cells(f):
    """The finite cells in (birth, dimension, canonical) order, and their
    dimensions."""
    flat = f.grid.ravel()
    cells = canonical_cells(f.region)
    cells = cells[flat[cells] < INF]
    dims = cell_dims(f.region, cells)
    order = np.lexsort((dims, flat[cells]))  # stable, so canonical among ties
    return cells[order], dims[order]


def reference_diagram(f, field=DEFAULT_FIELD):
    """Column reduction of the total boundary matrix in every degree, from
    the top dimension down, with the clearing shortcut (a column whose cube
    was already used as a pivot row is skipped)."""
    flat, d = f.grid.ravel(), f.d
    cells, dims = ordered_cells(f)
    births = flat[cells].tolist()
    index = np.empty(flat.size, dtype=np.int64)
    index[cells] = np.arange(len(cells))
    one = field.from_signed(1)
    pivot_row_of = {}  # pivot row index -> killing column index
    for q in range(d, 0, -1):
        cols = np.flatnonzero(dims == q)
        faces, signs = cell_faces(f.region, cells[cols], q)
        faces = index[faces].tolist()
        signs = [field.from_signed(s) for s in signs.tolist()]
        pivots = {}
        for j, rows in zip(cols.tolist(), faces):
            if j in pivot_row_of:  # cleared
                continue
            col = dict(zip(rows, signs))
            while col:
                low = max(col)
                hit = pivots.get(low)
                if hit is None:
                    break
                field.submul_into(col, hit, col[low])
            if col:
                if col[low] != one:
                    field.scale_into(col, field.inv(col[low]))
                pivots[low] = col
                pivot_row_of[low] = j
    dims = dims.tolist()
    pairs = {}
    for low, j in pivot_row_of.items():
        if births[low] < births[j]:
            pairs.setdefault(dims[low], []).append((births[low], births[j]))
    killers = set(pivot_row_of.values())
    for i, (q, b) in enumerate(zip(dims, births)):
        if i not in killers and i not in pivot_row_of:
            pairs.setdefault(q, []).append((b, INF))
    return PersistenceDiagram(d, pairs)


SPARSE = DistributionSpec("uniform", (0.0, 1.0), p_inf=0.2)


@st.composite
def diagram_cases(draw):
    """A random filtration or a sampled window of any of the four models
    (uniform, tied ``empirical`` and ``p_inf`` 0.2 marks), d = 1..4, uncut
    or cut at 0.3 or 0.6."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 2 if d == 4 else 3))
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(("random", "lower", "upper", "perturbed_lattice",
                                 "ball_cover")))
    if kind == "random":
        f = random_filtration(d, n, seed)
    elif kind in ("lower", "upper"):
        mark = draw(st.sampled_from((UNIFORM, TIED, SPARSE)))
        f = sample(ModelSpec(kind, d, marks=(mark,) * (d + 1)), n, seed)
    else:
        f = sample(ModelSpec(kind, d, perturbation=LAW, m_grid=3), n, seed)
    cut = draw(st.sampled_from((None, 0.3, 0.6)))
    return f if cut is None else truncate(f, cut)


@settings(max_examples=300, deadline=None)
@given(diagram_cases())
def test_diagram_matches_full_column_reduction(f):
    assert compute_diagram(f) == reference_diagram(f)


def test_permanent_cavity_is_an_essential_top_class():
    # the boundary of a d-cube born at 1, the d-cube itself never: its
    # cavity is never filled, one (1, inf) pair in degree d-1
    for d in (2, 3, 4):
        cube = ElementaryCube((0,) * d, (1,) * d)
        f = filtration_from_births(Window(2, d), {c: 1.0 for c in faces_contained_in(cube)
                                                  if c != cube})
        assert compute_diagram(f).pairs == {0: [(1.0, INF)], d - 1: [(1.0, INF)]}
        assert compute_diagram(f) == reference_diagram(f)


def test_cavity_at_a_window_corner():
    # the corner d-cube of [-1, 1]^d has d faces on the window boundary (two
    # or three here, each an edge to the outside in the dual graph); every
    # other cube is born at 0, the corner cube at 3 and its boundary faces at
    # 1, 2 (and 2.5), the lower-dimensional cubes they alone hold at 0: the
    # last of them closes a cavity that the cube fills
    for d, outer in ((2, (1.0, 2.0)), (3, (1.0, 2.0, 2.5)), (3, (2.0, 2.0, 1.0))):
        grid = np.zeros(grid_shape(Window(1, d).box))
        corner = (1,) * d  # doubled coordinates of [-1, 0]^d
        grid[corner] = 3.0
        for axis, birth in enumerate(outer):
            grid[corner[:axis] + (0,) + corner[axis + 1:]] = birth
        f = Filtration(Window(1, d), grid)
        assert validate(f) is None
        diagram = compute_diagram(f)
        assert diagram.degree(d - 1) == [(max(outer), 3.0)]
        assert diagram == reference_diagram(f)


def test_union_find_edge_cases():
    for seed in range(5):  # d = 1: degree 0 is also the top degree
        f = random_filtration(1, 4, 9000 + seed)
        assert compute_diagram(f) == reference_diagram(f)
    for d in (1, 2, 3, 4):
        assert compute_diagram(never_born(Window(1, d))).pairs == {}
        one_cell = Filtration(Box((0,) * d, (0,) * d), np.full((1,) * d, 0.5))
        assert compute_diagram(one_cell).pairs == {0: [(0.5, INF)]}
    for d in (2, 3, 4):  # a box flat along its last axis holds no d-cube
        grid = random_filtration(d - 1, 1, d).grid[..., None]
        f = Filtration(Box((0,) * d, (2,) * (d - 1) + (0,)), grid)
        assert compute_diagram(f) == reference_diagram(f)


def test_degrees_0_and_top_need_no_field_arithmetic(monkeypatch, tmp_path):
    upper = ModelSpec("upper", 2, marks=(SPARSE,) * 3)
    filtrations = [random_filtration(1, 3, 1), random_filtration(2, 3, 2),
                   sample(upper, 3, 3), truncate(sample(upper, 3, 4), 0.6)]
    expect = [reference_diagram(f) for f in filtrations]

    def refuse(*args):
        raise AssertionError("field arithmetic")

    for cls in (PrimeField, RationalField):
        for op in ("submul_into", "scale_into", "inv"):
            monkeypatch.setattr(cls, op, refuse)
    for f, diagram in zip(filtrations, expect):
        assert compute_diagram(f) == compute_diagram(f, field=RationalField()) == diagram
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "schema_version": 1, "q": 1, "n": 4, "trials": 3, "seed": 1, "fineness": 2,
        "model": {"kind": "lower", "d": 2, "mark": {"family": "uniform", "params": [0, 1]}}}))
    assert cli.main(["estimate", "--which", "diagram", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    with pytest.raises(AssertionError, match="field arithmetic"):
        compute_diagram(random_filtration(3, 1, 5))


class RowRecordingField(PrimeField):
    """GF(p) that records the row of every entry its column operations read."""

    def __init__(self):
        super().__init__()
        self.rows = set()
        self.additions = 0

    def submul_into(self, dst, src, factor):
        self.rows.update(dst, src)
        self.additions += 1
        super().submul_into(dst, src, factor)

    def scale_into(self, col, factor):
        self.rows.update(col)
        super().scale_into(col, factor)


def test_d3_reduces_only_the_2_cube_columns():
    # the rows that the field's column operations read are edges only: the
    # 2-cube columns are the only ones reduced, while the full reduction
    # also reduces the edge and 3-cube columns
    upper = ModelSpec("upper", 3, marks=(UNIFORM,) * 4)
    for f in (random_filtration(3, 2, 7), truncate(sample(upper, 2, 8), 0.6)):
        _, dims = ordered_cells(f)
        fast, full = RowRecordingField(), RowRecordingField()
        assert compute_diagram(f, field=fast) == reference_diagram(f, field=full)
        assert set(dims[list(fast.rows)].tolist()) == {1}
        assert set(dims[list(full.rows)].tolist()) == {0, 1, 2}
        assert 0 < fast.additions < full.additions


def negative_edges(f):
    """Positions in ``ordered_cells`` order of the edges that join two
    components of the edges before them (a union-find of this test's own)."""
    cells, dims = ordered_cells(f)
    position = {cell: i for i, cell in enumerate(cells.tolist())}
    root = list(range(len(cells)))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    negative = set()
    for j in np.flatnonzero(dims == 1).tolist():
        a, b = (find(position[v]) for v in cell_faces(f.region, cells[[j]], 1)[0][0].tolist())
        if a != b:
            root[a] = b
            negative.add(j)
    return negative


def test_middle_passes_never_read_a_negative_edge_row():
    # compression: a negative edge is never the pivot of a 2-cube column, so
    # its row is dropped before the q = 2 pass and the field never reads it;
    # at d = 4 a q = 3 pass runs first, on 2-cube rows
    upper = ModelSpec("upper", 3, marks=(UNIFORM,) * 4)
    for f in (random_filtration(3, 2, 24), random_filtration(4, 2, 23), sample(upper, 2, 23)):
        for g in (f, truncate(f, 0.6)):
            negative = negative_edges(g)
            field = RowRecordingField()
            assert compute_diagram(g, field=field) == reference_diagram(g)
            assert negative and field.rows
            assert not field.rows & negative


def mobius_band() -> Filtration:
    """A cubical Moebius band in R^3: a ring of 21 squares whose rungs turn
    from z to y and back to z, swapping top and bottom.  Its boundary circle
    (the edges in one square, with their vertices) is born at 1, the rest at
    2."""
    cube = ElementaryCube
    squares = ([cube((x, 0, 0), (1, 0, 1)) for x in range(4)]
               + [cube((4, 0, 0), (0, 1, 1)), cube((4, 0, 0), (1, 1, 0)),
                  cube((5, 0, 0), (0, 1, 1))]
               + [cube((5, y, 0), (0, 1, 1)) for y in range(1, 5)]
               + [cube((x, 5, 0), (1, 0, 1)) for x in range(5)]
               + [cube((0, y, 0), (0, 1, 1)) for y in range(5)])
    edges = [c for s in squares for c in faces_contained_in(s) if c.dim == 1]
    rim = {e for e in edges if edges.count(e) == 1}
    rim |= {v for e in rim for v in faces_contained_in(e)}
    band = {c for s in squares for c in faces_contained_in(s)}
    return filtration_from_births(Box((-1, -1, -1), (6, 6, 2)),
                                  {c: 1.0 if c in rim else 2.0 for c in band})


def test_mobius_band_degree_1_depends_on_the_field():
    # H_1(M, dM) = Z/2: over GF(p) and Q the rim's class lives on as twice
    # the core, over GF(2) it dies at 2 and the core is a new class
    f = mobius_band()
    for field in (DEFAULT_FIELD, PrimeField(3), RationalField()):
        assert compute_diagram(f, field=field).pairs == {0: [(1.0, INF)], 1: [(1.0, INF)]}
    gf2 = compute_diagram(f, field=PrimeField(2))
    assert gf2.pairs == {0: [(1.0, INF)], 1: [(1.0, 2.0), (2.0, INF)]}
    assert gf2 == reference_diagram(f, field=PrimeField(2))


# --- persistent Betti, direct route ------------------------------------------------

def test_pb_direct_hollow_square():
    f = hollow_square_then_fill()
    assert persistent_betti_direct(f, 1, 1.0, 1.5) == 1
    assert persistent_betti_direct(f, 1, 1.0, 2.0) == 0


def test_pb_equals_betti_on_diagonal():
    for seed in range(10):
        f = random_filtration(2, 2, 7000 + seed)
        for t in (0.2, 0.5, 0.8, 1.0):
            expect = betti(f.region, sublevel(f, t))
            for q in (0, 1):
                assert persistent_betti_direct(f, q, t, t) == expect[q]


def test_pb_direct_rejects_bad_arguments():
    f = hollow_square_then_fill()
    with pytest.raises(ValueError):
        persistent_betti_direct(f, 1, 2.0, 1.0)
    with pytest.raises(ValueError):
        persistent_betti_direct(f, 2, 0.5, 1.0)


def test_k_triangle_and_monotonicity_random_corpus():
    grid = (0.15, 0.35, 0.55, 0.75, 0.95)
    for seed in range(30):
        d = 2 if seed % 3 else 3
        f = random_filtration(d, 2 if d == 2 else 1, 8000 + seed)
        diagram = compute_diagram(f)
        for q in range(d):
            values = {}
            for s in grid:
                for t in grid:
                    if s > t:
                        continue
                    pb = persistent_betti_direct(f, q, s, t)
                    assert pb == quadrant_mass(diagram, q, s, t)
                    values[(s, t)] = pb
            # nondecreasing in s, nonincreasing in t
            for (s, t), v in values.items():
                for (s2, t2), w in values.items():
                    if t2 == t and s2 >= s:
                        assert w >= v
                    if s2 == s and t2 >= t:
                        assert w <= v


# --- quadrant and rectangle masses ---------------------------------------------------

def test_quadrant_mass_examples():
    diagram = compute_diagram(hollow_square_then_fill())
    assert quadrant_mass(diagram, 1, 1.0, 1.5) == 1
    assert quadrant_mass(diagram, 1, 0.5, 0.5) == 0  # below all births
    assert quadrant_mass(diagram, 0, 0.99, 1.0) == 0
    # infinite-death pairs are counted for any t
    assert quadrant_mass(diagram, 0, 1.0, 100.0) == 1


def test_quadrant_at_zero_counts_infinite_pairs():
    # at (0, T) with T past every finite death, only birth-0 infinite-death
    # pairs remain
    diagram = PersistenceDiagram(2, {0: [(0.0, INF), (0.0, 5.0), (1.0, INF)]})
    assert quadrant_mass(diagram, 0, 0.0, 10.0) == 1
    assert quadrant_mass(diagram, 0, 1.0, 10.0) == 2


def test_rectangle_mass_examples():
    diagram = compute_diagram(hollow_square_then_fill())
    assert rectangle_mass(diagram, 1, 0.5, 1.0, 1.5, 2.5) == 1
    assert rectangle_mass(diagram, 1, 1.0, 1.0, 1.5, 2.5) == 0  # empty box
    # box covering all finite pairs counts exactly those
    assert rectangle_mass(diagram, 1, 0.0, 1.0, 1.0, 10.0) == 1
    assert rectangle_mass(diagram, 0, 0.0, 1.0, 1.0, 10.0) == 0  # inf excluded


def test_rectangle_mass_ordering_errors():
    diagram = compute_diagram(hollow_square_then_fill())
    with pytest.raises(ValueError):
        rectangle_mass(diagram, 1, 1.0, 0.5, 1.5, 2.0)
    with pytest.raises(ValueError):
        rectangle_mass(diagram, 1, 0.0, 1.0, 2.0, 1.5)


def test_rectangle_equals_alternating_quadrants():
    for seed in range(15):
        f = random_filtration(2, 2, 9000 + seed)
        diagram = compute_diagram(f)
        for q in (0, 1):
            for s1, s2, t1, t2 in [(0.0, 0.3, 0.5, 0.8), (0.1, 0.5, 0.5, 1.0),
                                   (0.2, 0.4, 0.4, 0.6)]:
                alt = (quadrant_mass(diagram, q, s2, t1)
                       - quadrant_mass(diagram, q, s2, t2)
                       + quadrant_mass(diagram, q, s1, t2)
                       - quadrant_mass(diagram, q, s1, t1))
                assert rectangle_mass(diagram, q, s1, s2, t1, t2) == alt
                assert alt >= 0


# --- file format -------------------------------------------------------------------

def test_diagram_file_contents():
    f = hollow_square_then_fill()
    f.meta.update({"n": 2, "seed": 9})
    lines = format_diagram(compute_diagram(f)).splitlines()
    assert lines[0] == "# 2 1 2 9"
    assert "0 1.0 inf" in lines
    assert "1 1.0 2.0" in lines


def test_diagram_file_round_trip_bytes():
    for seed in range(5):
        f = random_filtration(2, 2, 9500 + seed)
        diagram = compute_diagram(f)
        text = format_diagram(diagram)
        reread = parse_diagram(text)
        assert reread == diagram
        assert format_diagram(reread) == text


def test_diagram_equality_compares_the_ambient_dimension():
    """A round trip that lost the header's d would not compare equal."""
    assert PersistenceDiagram(2, {}) != PersistenceDiagram(3, {})
    pairs = {0: [(0.0, INF)]}
    assert PersistenceDiagram(2, pairs) != PersistenceDiagram(3, pairs)
    assert PersistenceDiagram(2, pairs) == PersistenceDiagram(2, dict(pairs), {"n": 4})
    diagram = compute_diagram(random_filtration(3, 1, 9600))
    assert parse_diagram(format_diagram(diagram)) == diagram
    assert parse_diagram(format_diagram(diagram).replace("# 3 ", "# 4 ", 1)) != diagram


def test_format_diagram_writes_the_repr_of_each_time():
    """Each time is written as its own ``repr``: 0.0 and -0.0 compare equal
    but keep their own texts, and an essential pair's death reads inf."""
    diagram = PersistenceDiagram(2, {0: [(0.0, INF), (-0.0, 0.5), (-0.0, INF), (0.0, 0.5)],
                                     1: [(0.25, INF)]})
    assert format_diagram(diagram) == ("# 2 1 - -\n0 -0.0 0.5\n0 0.0 0.5\n0 0.0 inf\n"
                                       "0 -0.0 inf\n1 0.25 inf\n")


def test_empty_diagram_file_is_header_only():
    diagram = compute_diagram(never_born(Window(1, 2)))
    assert format_diagram(diagram) == "# 2 1 - -\n"


def test_parse_diagram_rejects_garbage():
    with pytest.raises(ValueError):
        parse_diagram("no header\n")
    with pytest.raises(ValueError):
        parse_diagram("# 2 1 - -\n0 2.0 1.0\n")  # birth >= death
    # a line without exactly three tokens is named by its line number
    for line in ("0 1.0", "0 1.0 2.0 3.0"):
        with pytest.raises(ValueError, match=f"^malformed diagram line 3: '{line}'$"):
            parse_diagram(f"# 2 1 - -\n\n{line}\n0 1.0 inf\n")
    # so is a line whose degree, birth or death does not parse
    for line in ("x 0.1 1.0", "0 abc 1.0", "0 0.1 1,0"):
        with pytest.raises(ValueError, match=f"^malformed diagram line 3: '{line}' \\("):
            parse_diagram(f"# 2 1 - -\n\n{line}\n0 1.0 inf\n")


@pytest.mark.parametrize("header", ["# 2 x - -", "# - 1 - -", "# 2 1 3.5 -",
                                    "# 2 1 - seed", "# 2 1 -", "# 2 1 - - 5",
                                    "# -2 5 -3 -", "# 0 - - -", "# 2 1 -1 -",
                                    "# 2 7 - -", "# 2 -1 - -", "# 2 2 - -"])
def test_parse_diagram_names_malformed_header(header):
    """A header field that is not an integer (d, or a q_max, n or seed that is
    not "-"), a wrong field count, d < 1 or n < 0 (as in a filtration
    header), or a q_max outside 0..d-1 names the header."""
    with pytest.raises(ValueError, match=f"^malformed diagram header: '{header}'$"):
        parse_diagram(f"{header}\n0 0.1 inf\n")


def test_parse_diagram_reads_absent_header_fields():
    """Every mix of present and "-" optional fields: a "-" field has no meta
    key and is written back as "-", except that a "-" q_max reads and is
    written as d - 1."""
    assert parse_diagram("# 2 - - -\n0 0.1 inf\n").meta == {"d": 2, "q_max": 1}
    assert parse_diagram("# 1 0 0 -\n").meta == {"d": 1, "q_max": 0, "n": 0}
    for q_max, n, seed in itertools.product(("0", "-"), ("3", "-"), ("7", "-")):
        header = f"# 2 {q_max} {n} {seed}"
        diagram = parse_diagram(f"{header}\n0 0.1 inf\n")
        present = {name: int(tok) for name, tok in (("q_max", q_max), ("n", n), ("seed", seed))
                   if tok != "-"}
        assert diagram.meta == {"d": 2, "q_max": 1, **present}
        assert format_diagram(diagram).splitlines()[0] == header.replace("# 2 -", "# 2 1")


def test_parse_diagram_rejects_impossible_pairs():
    # a degree outside 0..d-1 or a negative birth, named by its line number
    for line, message in (("5 0.1 0.2", "degree 5 out of range for d=2"),
                          ("2 0.1 0.2", "degree 2 out of range for d=2"),
                          ("-1 -3.0 0.5", "degree -1 out of range for d=2"),
                          ("1 -3.0 0.5", "negative birth"),
                          ("0 -inf 0.5", "negative birth")):
        with pytest.raises(ValueError, match=f"^{message} in diagram line 3: '{line}'$"):
            parse_diagram(f"# 2 1 - -\n0 0.1 inf\n{line}\n")
    # a degree within 0..d-1 but above the header's q_max names q_max
    with pytest.raises(ValueError, match="^degree 1 out of range for q_max=0 in "
                                         "diagram line 2: '1 0.1 0.5'$"):
        parse_diagram("# 2 0 - -\n1 0.1 0.5\n")


def test_degree_out_of_range_raises_on_every_diagram_query():
    """``degree`` rejects q outside 0..d-1, so the mass queries raise as the
    rank route does instead of counting an empty degree."""
    f = random_filtration(2, 2, 5)
    diagram = compute_diagram(f)
    for q in (-1, 2, 7):
        message = f"^q={q} out of range for d=2$"
        with pytest.raises(ValueError, match=message):
            diagram.degree(q)
        with pytest.raises(ValueError, match=message):
            quadrant_mass(diagram, q, 0.5, 0.8)
        with pytest.raises(ValueError, match=message):
            rectangle_mass(diagram, q, 0.2, 0.4, 0.6, 0.8)
        with pytest.raises(ValueError, match=message):
            persistent_betti_direct(f, q, 0.5, 0.8)
    assert diagram.total_count(2) == 0  # the top degree is read as a count


# --- array corners against a per-pair reference loop -------------------------------

COARSE = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def coarse_diagrams(draw):
    """Diagrams with births and deaths on a coarse grid (so corners tie with
    them), inf deaths, and possibly empty degrees."""
    pairs = {}
    for q in range(2):
        for _ in range(draw(st.integers(0, 6))):
            b = draw(COARSE)
            dth = draw(st.sampled_from([x for x in (0.25, 0.5, 0.75, 1.0, INF) if x > b]))
            pairs.setdefault(q, []).append((b, dth))
    return PersistenceDiagram(2, pairs)


def quadrant_reference(diagram, q, s, t):
    return sum(1 for b, dth in diagram.degree(q) if b <= s and dth > t)


def rectangle_reference(diagram, q, s1, s2, t1, t2):
    return sum(1 for b, dth in diagram.degree(q) if s1 < b <= s2 and t1 < dth <= t2)


@settings(max_examples=200, deadline=None)
@given(coarse_diagrams(), st.integers(0, 1), st.lists(COARSE, min_size=4, max_size=4))
def test_array_masses_match_per_pair_loop(diagram, q, corner):
    s1, s2, t1, t2 = sorted(corner)
    mass = quadrant_mass(diagram, q, s2, t1)
    assert type(mass) is int and mass == quadrant_reference(diagram, q, s2, t1)
    box = rectangle_mass(diagram, q, s1, s2, t1, t2)
    assert type(box) is int and box == rectangle_reference(diagram, q, s1, s2, t1, t2)

    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    row = quadrant_mass(diagram, q, s1, grid[grid >= s1])  # 1-D
    assert row.dtype == np.int64
    assert row.tolist() == [quadrant_reference(diagram, q, s1, t)
                            for t in grid[grid >= s1]]
    table = quadrant_mass(diagram, q, grid[:, None], np.maximum(grid[:, None], grid))  # 2-D
    assert table.shape == (5, 5)
    for i, s in enumerate(grid):
        for j, t in enumerate(np.maximum(s, grid)):
            assert table[i, j] == quadrant_reference(diagram, q, s, t)

    lo, hi = np.minimum(grid, s1), grid[grid >= t1]
    boxes = rectangle_mass(diagram, q, lo[:, None], s2, t1, hi)  # 2-D
    assert boxes.shape == (5, len(hi))
    for i, a in enumerate(lo):
        for j, t in enumerate(hi):
            assert boxes[i, j] == rectangle_reference(diagram, q, a, s2, t1, t)


def test_quadrant_mass_on_dyadic_grids_matches_per_pair_loop():
    # the 1,225 fineness-3 dyadic corners (s, t) = (a/16, b/16), a <= b <= 48,
    # repeat each t value; births and deaths on the same 1/16 grid tie with
    # the corners, some deaths are inf, and the pairs are assigned unsorted
    a, b = np.triu_indices(49)
    s, t = a / 16, b / 16
    rng = np.random.default_rng(24)
    sampled = compute_diagram(sample(ModelSpec("lower", 2, marks=(TIED,) * 3), 4, 3))
    for trial in range(4):
        births = rng.integers(0, 49, size=60) / 16
        deaths = births + rng.integers(1, 24, size=60) / 16
        deaths[rng.random(60) < 0.2] = INF
        pairs = list(zip(births.tolist(), deaths.tolist()))
        diagram = PersistenceDiagram(2, {})
        diagram.pairs = {0: pairs, 1: pairs[::-1][:9]}
        for q in (0, 1):
            mass = quadrant_mass(diagram, q, s, t)
            assert mass.dtype == np.int64 and mass.shape == (1225,)
            assert mass.tolist() == [quadrant_reference(diagram, q, si, ti)
                                     for si, ti in zip(s.tolist(), t.tolist())]
        k = np.flatnonzero(deaths < INF)[0]
        for corner in ((births[0], births[0]), (births[k], deaths[k])):
            mass = quadrant_mass(diagram, 0, *corner)  # scalar corners
            assert type(mass) is int and mass == quadrant_reference(diagram, 0, *corner)
    for q in (0, 1):
        assert quadrant_mass(sampled, q, s, t).tolist() == \
            [quadrant_reference(sampled, q, si, ti) for si, ti in zip(s.tolist(), t.tolist())]
    empty = PersistenceDiagram(2, {0: [(0.0, INF)]})
    assert not quadrant_mass(empty, 1, s, t).any()
    assert quadrant_mass(empty, 1, 0.5, 0.5) == 0


def test_array_corners_raise_on_one_bad_corner():
    diagram = compute_diagram(hollow_square_then_fill())
    with pytest.raises(ValueError, match="s <= t"):
        quadrant_mass(diagram, 1, [0.5, 1.0, 2.0], 1.5)
    # the rectangle is the corner chain (s1, s2), (s2, t1), (t1, t2)
    with pytest.raises(ValueError, match=r"^corner \(s, t\) = \(1\.0, 0\.9\) "
                                         r"violates 0 <= s <= t < inf$"):
        rectangle_mass(diagram, 1, 0.0, [0.5, 1.0], 1.0, [2.0, 0.9])
    with pytest.raises(ValueError, match=r"^corner \(s, t\) = \(0\.6, 0\.4\) "
                                         r"violates 0 <= s <= t < inf$"):
        rectangle_mass(diagram, 1, 0.2, 0.6, [0.8, 0.4], 0.9)


@pytest.mark.parametrize("s, t", [(math.nan, 1.0), (0.5, math.nan), (0.3, INF),
                                  (INF, INF), (-0.5, 1.0), (-INF, 1.0)])
def test_bad_corners_raise_on_both_routes(s, t):
    # at (0.3, inf) the diagram once gave 0 and the rank route the essential
    # count 1; nan corners gave 0 from both
    f = random_filtration(2, 2, 5)
    diagram = compute_diagram(f)
    for corner in ((s, t), ([0.5, s], [1.5, t])):  # alone, and among good ones
        with pytest.raises(ValueError, match="s <= t"):
            quadrant_mass(diagram, 0, *corner)
        with pytest.raises(ValueError, match="s <= t") as rank:
            persistent_betti_direct(f, 0, *corner)
        with pytest.raises(ValueError) as labelled:
            persistent_betti_0(f, *corner)
        assert str(labelled.value) == str(rank.value)


def test_corner_error_names_the_first_bad_corner():
    from randcube.limits import estimate_pb_density

    f = random_filtration(2, 2, 5)
    diagram = compute_diagram(f)
    s, t = [0.1, 0.6, 0.7], [0.5, 0.4, 0.2]  # the 2nd and 3rd corners are bad
    model = ModelSpec("lower", 2, marks=(DistributionSpec("uniform", (0.0, 1.0)),) * 3)
    calls = [lambda: quadrant_mass(diagram, 0, s, t),
             lambda: persistent_betti_direct(f, 0, s, t),
             lambda: persistent_betti_0(f, s, t),
             lambda: estimate_pb_density(model, 0, list(zip(s, t)), 1, 1, 0)]
    for call in calls:
        with pytest.raises(ValueError, match=r"^corner \(s, t\) = \(0\.6, 0\.4\) "
                                             r"violates 0 <= s <= t < inf$"):
            call()
    # corners broadcast before the first bad one is found, in row-major order
    with pytest.raises(ValueError, match=r"^corner \(s, t\) = \(0\.7, 0\.5\)"):
        quadrant_mass(diagram, 0, [[0.1], [0.7]], [0.5, 0.8])


# --- the array rank route against a per-corner cube-list reference --------------------

def _q_cells(f, cells, q):
    """The q-cells among ``cells``, in the order given, as a list."""
    return cells[cell_coordinates(f.region, cells)[1].sum(axis=1) == q].tolist()


def pb_reference(f, q, s, t):
    """One corner on cube lists: the level-s cycle basis lifted into the
    level-t q-cubes, reduced after the level-t boundary columns.  The
    matrices come from ``boundary_matrix``, not from the rank route's own
    ``boundary_columns``."""
    cells_s, cells_t = sublevel(f, s), sublevel(f, t)
    kq_s = _q_cells(f, cells_s, q)
    if q == 0:
        kernel = [{i: 1} for i in range(len(kq_s))]
    else:
        kernel = kernel_basis(csc_columns(boundary_matrix(f.region, cells_s, q)))
    if not kernel:
        return 0
    bnd_t = csc_columns(boundary_matrix(f.region, cells_t, q + 1))
    t_index = {c: i for i, c in enumerate(_q_cells(f, cells_t, q))}  # bnd_t's rows
    lifted = [{t_index[kq_s[i]]: v for i, v in vec.items()} for vec in kernel]
    _, pivot_rows, _ = reduce_columns(bnd_t + lifted)
    return sum(j >= len(bnd_t) for j in pivot_rows.values())


# birth values, values between them, and values below and past every birth
PB_CORNERS = st.sampled_from(sorted({0.0, 0.05, 1.5} | set(BIRTH_GRID)
                                    | {round(b + 0.05, 2) for b in BIRTH_GRID}))


@st.composite
def pb_cases(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, {1: 3, 2: 2, 3: 2, 4: 1}[d]))
    f = random_filtration(d, n, draw(st.integers(0, 10**6)))
    return f, draw(st.integers(0, d - 1))


@settings(max_examples=80, deadline=None)
@given(pb_cases(), st.lists(PB_CORNERS, min_size=1, max_size=4),
       st.lists(PB_CORNERS, min_size=1, max_size=4))
def test_array_rank_route_matches_per_corner_reference(case, s_list, t_list):
    f, q = case
    s, t = np.array(s_list), np.array(t_list)
    a, b = sorted((s_list[0], t_list[0]))
    scalar = persistent_betti_direct(f, q, a, b)
    assert type(scalar) is int and scalar == pb_reference(f, q, a, b)
    assert persistent_betti_direct(f, q, b, b) == pb_reference(f, q, b, b)  # s == t

    top = max(s_list)  # 1-D: repeated corners and s == t included
    row = persistent_betti_direct(f, q, s, top)
    assert row.dtype == np.int64
    assert row.tolist() == [pb_reference(f, q, x, top) for x in s_list]

    table = persistent_betti_direct(f, q, s[:, None], np.maximum(s[:, None], t))  # 2-D
    assert table.shape == (len(s), len(t))
    for i, x in enumerate(s_list):
        for j, y in enumerate(np.maximum(x, t).tolist()):
            assert table[i, j] == pb_reference(f, q, x, y)


def test_rank_route_counts_ragged_corners():
    """Corners that come unsorted and with repeated t.  The largest s per
    distinct t (0.3, 0.5, 0.6, 0.65, 0.7, 0.9, 1.2) is 0.0, 0.5, 0.2, 0.05,
    0.45, 0.8, 1.0: below every birth, then falling, rising and falling
    again, so the rows a t's count reads do not grow with t."""
    s = np.array([0.8, 0.0, 0.5, 0.2, 1.0, 0.3, 0.8, 0.1, 0.45, 0.05, 0.4])
    t = np.array([0.9, 0.3, 0.5, 0.6, 1.2, 0.5, 0.9, 0.6, 0.7, 0.65, 1.2])
    for d, n in ((1, 3), (2, 2), (3, 2), (4, 1)):
        for seed in range(4):
            f = random_filtration(d, n, 8100 + seed)
            diagram = compute_diagram(f)
            for q in range(d):
                assert np.array_equal(persistent_betti_direct(f, q, s, t),
                                      quadrant_mass(diagram, q, s, t))


# --- the component route in degree 0 against both diagram routes ------------------------


@st.composite
def component_cases(draw):
    """A random filtration or a sampled window of any of the four models
    (tied ``empirical`` marks and ``p_inf`` atoms included), d = 1..4."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, {1: 3, 2: 2, 3: 2, 4: 1}[d]))
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(("random", "lower", "upper", "perturbed_lattice",
                                 "ball_cover")))
    if kind == "random":
        return random_filtration(d, n, seed)
    if kind in ("lower", "upper"):
        mark = draw(st.sampled_from((UNIFORM, TIED, DEFECTIVE)))
        model = ModelSpec(kind, d, marks=(mark,) * (d + 1))
    else:
        model = ModelSpec(kind, d, perturbation=LAW, m_grid=3)
    return sample(model, n, seed, draw(st.integers(0, 3)))


def corner_candidates(f) -> np.ndarray:
    """0, every finite birth, the midpoints between births, a time below
    every birth and one past the last."""
    births = np.unique(f.grid[f.grid < INF])
    if not births.size:
        return np.array([0.0, 0.5])
    extra = [0.0, births[0] / 2, births[-1] + 0.5]
    return np.unique(np.concatenate([births, (births[:-1] + births[1:]) / 2, extra]))


@settings(max_examples=120, deadline=None)
@given(component_cases(), st.data())
def test_component_route_matches_both_diagram_routes(f, data):
    values = corner_candidates(f)
    index = st.integers(0, len(values) - 1)
    s = values[data.draw(st.lists(index, min_size=1, max_size=5))]
    t = values[data.draw(st.lists(index, min_size=1, max_size=5))]
    s, t = s[:, None], np.maximum(s[:, None], t)  # 2-D, s <= t, ties with births
    diagram = compute_diagram(f)
    labelled = persistent_betti_0(f, s, t)
    assert labelled.dtype == np.int64 and labelled.shape == t.shape
    assert np.array_equal(labelled, quadrant_mass(diagram, 0, s, t))
    assert np.array_equal(labelled, persistent_betti_direct(f, 0, s, t))
    # s == t, and s below every birth
    assert np.array_equal(persistent_betti_0(f, s, s), quadrant_mass(diagram, 0, s, s))
    below, top = float(values[1]) / 2, float(values[-1])
    scalar = persistent_betti_0(f, below, top)
    assert type(scalar) is int and scalar == quadrant_mass(diagram, 0, below, top)


@settings(max_examples=60, deadline=None)
@given(component_cases(), st.data())
def test_rank_route_matches_the_diagram_in_every_degree(f, data):
    values = corner_candidates(f)
    index = st.integers(0, len(values) - 1)
    s = values[data.draw(st.lists(index, min_size=1, max_size=5))]
    t = values[data.draw(st.lists(index, min_size=1, max_size=5))]
    s, t = s[:, None], np.maximum(s[:, None], t)  # 2-D, s <= t, ties with births
    diagram = compute_diagram(f)
    for q in range(f.d):
        assert np.array_equal(persistent_betti_direct(f, q, s, t),
                              quadrant_mass(diagram, q, s, t))


def test_rank_route_and_diagram_reduction_are_independent(monkeypatch):
    """Each route answers with the other's code patched to raise: the rank
    route without the diagram or its union-find, the diagram (middle passes
    included, at d = 3 and d = 4) without ``reduce_columns``."""
    upper = ModelSpec("upper", 3, marks=(TIED,) * 4)
    filtrations = [random_filtration(3, 2, 31), truncate(sample(upper, 2, 32), 0.6),
                   random_filtration(4, 1, 33)]
    diagrams = [compute_diagram(f) for f in filtrations]
    s = np.array([0.1, 0.3, 0.5, 0.7])[:, None]
    t = np.maximum(s, [0.3, 0.6, 0.9])
    masses = [[quadrant_mass(dg, q, s, t) for q in range(dg.d)] for dg in diagrams]

    def refuse(*args, **kwargs):
        raise AssertionError("one route called the other's code")

    with monkeypatch.context() as patch:
        patch.setattr(persistence, "compute_diagram", refuse)
        patch.setattr(persistence, "_elder_merges", refuse)
        for f, expect in zip(filtrations, masses):
            for q, mass in enumerate(expect):
                assert np.array_equal(persistent_betti_direct(f, q, s, t), mass)
    with monkeypatch.context() as patch:
        patch.setattr(persistence, "reduce_columns", refuse)
        patch.setattr(homology, "reduce_columns", refuse)
        for f, diagram in zip(filtrations, diagrams):
            assert compute_diagram(f) == diagram


def test_component_route_counts_components_meeting_x_s():
    # X_1 is the hollow square (one component); at s = 0.5 nothing is born
    f = hollow_square_then_fill()
    assert persistent_betti_0(f, 0.5, 1.0) == 0
    assert persistent_betti_0(f, 1.0, 1.0) == 1
    assert persistent_betti_0(f, [0.5, 1.0, 1.0], [2.0, 1.5, 2.5]).tolist() == [0, 1, 1]


def test_component_route_rejects_face_violation_like_the_rank_route():
    grid = random_filtration(2, 2, 3).grid.copy()
    grid[2, 2] = INF  # a vertex never born, under its four born edges
    f = Filtration(Window(2, 2), grid)
    with pytest.raises(ValueError, match="monotone face condition") as rank:
        persistent_betti_direct(f, 0, 0.5, 1.0)
    with pytest.raises(ValueError) as labelled:
        persistent_betti_0(f, 0.5, 1.0)
    assert str(labelled.value) == str(rank.value)


def test_corner_check_by_shape_names_the_first_bad_corner_in_row_major_order():
    good = _pb_corners(0.2, 0.5)  # scalar corners stay 0-d
    assert [c.shape for c in good] == [(), ()] and [float(c) for c in good] == [0.2, 0.5]
    with pytest.raises(ValueError, match=r"^corner \(s, t\) = \(0\.7, 0\.5\) violates"):
        _pb_corners(0.7, 0.5)
    # same shape, stored column-major: the first bad corner in memory order
    # is (0.7, 0.5), in row-major order (0.8, 0.6)
    s = np.asfortranarray([[0.1, 0.8], [0.7, 0.2]])
    t = np.asfortranarray([[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(ValueError, match=r"^corner \(s, t\) = \(0\.8, 0\.6\) violates"):
        _pb_corners(s, t)
    good = _pb_corners(np.full((2, 2), 0.1), t)
    assert [c.shape for c in good] == [(2, 2), (2, 2)] and good[1].tolist() == t.tolist()
    # mixed shapes broadcast first: (2, 1) x (2,) gives (2, 2)
    with pytest.raises(ValueError, match=r"^corner \(s, t\) = \(0\.7, 0\.5\) violates"):
        _pb_corners([[0.1], [0.7]], [0.5, 0.8])
    with pytest.raises(ValueError, match=r"^corner \(s, t\) = \(0\.6, 0\.5\) violates"):
        _pb_corners(0.6, [0.9, 0.5, 0.1])
    good = _pb_corners([[0.1], [0.3]], [0.5, 0.8, 0.9])
    assert [c.shape for c in good] == [(2, 3), (2, 3)]
    assert good[0].tolist() == [[0.1] * 3, [0.3] * 3]
