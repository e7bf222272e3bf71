import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcube import (
    DistributionSpec,
    ElementaryCube,
    Filtration,
    ModelSpec,
    PersistenceDiagram,
    RationalField,
    Window,
    betti,
    boundary_faces,
    boundary_matrix,
    compute_diagram,
    faces_contained_in,
    format_diagram,
    kernel_basis,
    parse_diagram,
    persistent_betti_direct,
    quadrant_mass,
    rectangle_mass,
    sample,
    sublevel,
    validate,
)
from randcube.cubes import canonical_cells, cell_coordinates, cells_to_cubes, grid_shape
from randcube.homology import reduce_columns
from randcube.verify import BIRTH_GRID, random_filtration

from cube_grids import filtration_from_births

INF = math.inf
SQUARE = ElementaryCube((0, 0), (1, 1))


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
    rng = np.random.default_rng(7)
    for seed in range(20):
        f = random_filtration(2, 2, 5000 + seed)
        reference = compute_diagram(f)
        cells = canonical_cells(f.region).tolist()  # every cube is born
        perm = dict(zip(cells, rng.permutation(len(cells)).tolist()))
        shuffled = compute_diagram(f, _tie_key=lambda finite: [perm[c] for c in finite.tolist()])
        assert shuffled == reference


def test_diagram_field_independence():
    for seed in range(5):
        f = random_filtration(2, 2, 6000 + seed)
        assert compute_diagram(f) == compute_diagram(f, field=RationalField())


def test_total_mass_bound():
    for seed in range(10):
        d, n = (2, 3) if seed % 2 == 0 else (3, 2)
        f = random_filtration(d, n, 6100 + seed)
        diagram = compute_diagram(f)
        for q in range(d + 1):
            n_q = sum(1 for c in f.births if c.dim == q)
            assert diagram.total_count(q) <= n_q


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


def test_parse_diagram_rejects_impossible_pairs():
    # a degree outside 0..d-1 or a negative birth, named by its line number
    for line, message in (("5 0.1 0.2", "degree 5 out of range for d=2"),
                          ("2 0.1 0.2", "degree 2 out of range for d=2"),
                          ("-1 -3.0 0.5", "degree -1 out of range for d=2"),
                          ("1 -3.0 0.5", "negative birth"),
                          ("0 -inf 0.5", "negative birth")):
        with pytest.raises(ValueError, match=f"^{message} in diagram line 3: '{line}'$"):
            parse_diagram(f"# 2 1 - -\n0 0.1 inf\n{line}\n")


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


def test_array_corners_raise_on_one_bad_corner():
    diagram = compute_diagram(hollow_square_then_fill())
    with pytest.raises(ValueError, match="s <= t"):
        quadrant_mass(diagram, 1, [0.5, 1.0, 2.0], 1.5)
    with pytest.raises(ValueError, match="rectangle requires"):
        rectangle_mass(diagram, 1, 0.0, [0.5, 1.0], 1.0, [2.0, 0.9])


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
        with pytest.raises(ValueError, match="s <= t"):
            persistent_betti_direct(f, 0, *corner)


# --- the array rank route against a per-corner cube-list reference --------------------

def pb_reference(f, q, s, t):
    """One corner on cube lists: the level-s cycle basis lifted into the
    level-t q-cubes, reduced after the level-t boundary columns."""
    cells_s = sublevel(f, s)
    kq_s = cells_s[cell_coordinates(f.region, cells_s)[1].sum(axis=1) == q].tolist()
    if q == 0:
        kernel = [{i: 1} for i in range(len(kq_s))]
    else:
        kernel = kernel_basis(boundary_matrix(f.region, cells_s, q))
    if not kernel:
        return 0
    bnd_t = boundary_matrix(f.region, sublevel(f, t), q + 1)
    t_index = {c: i for i, c in enumerate(bnd_t.row_cells.tolist())}
    lifted = [{t_index[kq_s[i]]: v for i, v in vec.items()} for vec in kernel]
    _, pivot_rows, _ = reduce_columns(bnd_t.columns + lifted)
    return sum(j >= len(bnd_t.columns) for j in pivot_rows.values())


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
