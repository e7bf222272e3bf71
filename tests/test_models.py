import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from randcube import (
    DistributionSpec,
    ElementaryCube,
    ModelSpec,
    Window,
    block_window,
    cofaces_containing,
    parse_filtration,
    format_filtration,
    quadrant_mass,
    compute_diagram,
    format_diagram,
    restrict_box,
    sample,
    validate,
)
from randcube.cubes import Box, all_cubes_box, grid_shape
from randcube.models import (MODEL_TAGS, _mark_grid, _perturbed_points, _window_meta,
                             sample_box)
from randcube.persistence import Filtration
from randcube.rng import TAG_CUBE_MARK, stream_uniform

from cube_grids import cell_coordinates, filtration_from_births

INF = math.inf
UNI = DistributionSpec("uniform", (0.0, 1.0))


def point_masses(*values):
    return tuple(DistributionSpec("point_mass", (v,)) for v in values)


def sample_marks(kind, n, marks, seed):
    return sample(ModelSpec(kind, len(marks) - 1, marks=marks), n, seed)


def sample_law(kind, n, law, seed, d=2, m_grid=4):
    return sample(ModelSpec(kind, d, perturbation=law, m_grid=m_grid), n, seed)


# --- distributions ------------------------------------------------------------

def test_distribution_quantiles():
    u = np.array([0.0, 0.25, 0.5, 0.99])
    pm = DistributionSpec("point_mass", (3.0,))
    assert np.all(pm.quantile(u) == 3.0)
    uni = DistributionSpec("uniform", (1.0, 3.0))
    assert np.allclose(uni.quantile(u), 1.0 + 2.0 * u)
    expo = DistributionSpec("exponential", (2.0,))
    assert np.allclose(expo.quantile(u), -np.log1p(-u) / 2.0)


def test_empirical_distribution_table():
    emp = DistributionSpec("empirical", (0.5, 0.2, 1.0, 0.7, 2.0, 1.0))
    u = np.array([0.0, 0.19, 0.2, 0.5, 0.7, 0.9])
    got = emp.quantile(u)
    assert list(got) == [0.5, 0.5, 0.5, 1.0, 1.0, 2.0]


def test_empirical_defect_is_infinite():
    emp = DistributionSpec("empirical", (0.5, 0.6))
    got = emp.quantile(np.array([0.3, 0.61, 0.99]))
    assert got[0] == 0.5 and got[1] == INF and got[2] == INF


def test_atom_at_infinity():
    spec = DistributionSpec("point_mass", (1.0,), p_inf=0.5)
    got = spec.quantile(np.array([0.0, 0.49, 0.5, 0.9]))
    assert list(got) == [1.0, 1.0, INF, INF]


FAMILIES = {
    "point_mass": (0.4,),
    "uniform": (0.25, 0.75),
    "exponential": (2.0,),
    "empirical": (0.2, 0.3, 0.5, 0.7, 0.9, 0.95),  # mass beyond the table too
}


@pytest.mark.parametrize("p_inf", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("family", FAMILIES)
def test_quantile_is_elementwise(family, p_inf):
    # the mark sampler draws one law over the whole grid and overwrites a
    # selection with another law's quantile of the same uniforms
    law = DistributionSpec(family, FAMILIES[family], p_inf=p_inf)
    u = np.random.default_rng(3).random(500)
    u[:6] = [0.0, 0.3, 0.7, 0.95, 1.0 - 2.0**-53, 0.5]
    whole = law.quantile(u)
    for sel in (u < 0.5, np.arange(500) % 3 == 1, np.zeros(500, bool), slice(None)):
        assert whole[sel].tobytes() == law.quantile(u[sel]).tobytes()


def test_distribution_validation():
    with pytest.raises(ValueError):
        DistributionSpec("uniform", (3.0, 1.0))
    with pytest.raises(ValueError):
        DistributionSpec("exponential", (-1.0,))
    with pytest.raises(ValueError):
        DistributionSpec("mystery", ())


@pytest.mark.parametrize("family,params", [
    ("uniform", (math.nan, 1.0)),
    ("uniform", (0.0, INF)),
    ("point_mass", (math.nan,)),
    ("exponential", (math.nan,)),
    ("empirical", (0.5, math.nan)),
    ("empirical", (0.5, -0.2, 1.0, 1.0)),
])
def test_distribution_rejects_nonfinite_and_negative_probabilities(family, params):
    with pytest.raises(ValueError):
        DistributionSpec(family, params)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("upper", 2, marks=(UNI,))  # wrong arity
    with pytest.raises(ValueError):
        ModelSpec("perturbed_lattice", 2)  # missing law
    with pytest.raises(ValueError):
        ModelSpec("ball_cover", 2,
                  perturbation=DistributionSpec("uniform", (-2.0, 2.0)))
    assert ModelSpec("upper", 2, marks=(UNI,) * 3).dependence_range == 1
    assert ModelSpec("lower", 2, marks=(UNI,) * 3).dependence_range == 0


# --- upper / lower models -------------------------------------------------------

def test_upper_point_masses_increasing():
    marks = point_masses(0.1, 0.2, 0.3)
    f = sample_marks("upper", 2, marks, seed=1)
    # min over cofaces is attained at the cube itself
    for cube, birth in f.births.items():
        assert birth == marks[cube.dim].params[0]


def test_upper_point_masses_decreasing():
    marks = point_masses(0.3, 0.2, 0.1)
    f = sample_marks("upper", 2, marks, seed=1)
    # every window cube has a top-dimensional coface inside the halo
    assert all(birth == 0.1 for birth in f.births.values())


def test_lower_point_masses_increasing():
    marks = point_masses(0.1, 0.2, 0.3)
    f = sample_marks("lower", 2, marks, seed=1)
    for cube, birth in f.births.items():
        assert birth == marks[cube.dim].params[0]


def test_lower_point_masses_decreasing():
    marks = point_masses(0.3, 0.2, 0.1)
    f = sample_marks("lower", 2, marks, seed=1)
    assert all(birth == 0.3 for birth in f.births.values())


@pytest.mark.parametrize("kind,marks", [
    ("upper", (UNI, UNI, UNI)),
    ("lower", (UNI, UNI, UNI)),
])
def test_mark_models_validate_many_seeds(kind, marks):
    for seed in range(100):
        assert validate(sample_marks(kind, 1, marks, seed)) is None


def test_upper_halo_of_one_suffices():
    # births computed in the window must agree with the same cubes' births
    # computed in a strictly larger window (deeper halo)
    for seed in range(10):
        small = sample_marks("upper", 2, (UNI, UNI, UNI), seed)
        large = sample_marks("upper", 3, (UNI, UNI, UNI), seed)
        carved = restrict_box(large, Window(2, 2).box)
        assert carved.births == small.births


def test_lower_mark_with_infinity_atom():
    marks = (DistributionSpec("uniform", (0.0, 1.0), p_inf=0.5),) * 3
    f = sample_marks("lower", 2, marks, seed=3)
    # roughly half the vertices never appear; all births finite in the map
    assert all(math.isfinite(b) for b in f.births.values())
    assert len(f.births) < len(all_cubes_box(Window(2, 2).box))
    assert validate(f) is None


def test_lower_marks_all_at_infinity_give_no_cube():
    # p_inf = 1: every uniform falls in the defect mass, none is divided
    marks = (DistributionSpec("uniform", (0.0, 1.0), p_inf=1.0),) * 3
    filtration = sample(ModelSpec("lower", 2, marks=marks), 2, seed=3)
    assert np.all(filtration.grid == math.inf)
    diagram = compute_diagram(filtration)
    assert all(diagram.degree(q) == [] for q in range(2))


def test_determinism_and_trial_separation():
    model = ModelSpec("lower", 2, marks=(UNI, UNI, UNI))
    a = sample(model, 2, seed=9, trial=0)
    b = sample(model, 2, seed=9, trial=0)
    c = sample(model, 2, seed=9, trial=1)
    assert a.births == b.births
    assert a.births != c.births


def test_stationarity_smoke_lower():
    # distributional translation invariance of the birth at an edge
    edge = ElementaryCube((0, 0), (1, 0))
    shifted = ElementaryCube((1, -1), (1, 0))
    marks = (UNI, UNI, UNI)
    xs, ys = [], []
    for seed in range(2000):
        f = sample_marks("lower", 2, marks, seed)
        xs.append(f.births[edge])
        ys.append(f.births[shifted])
    xs, ys = np.array(xs), np.array(ys)
    se = math.sqrt(xs.var(ddof=1) / len(xs) + ys.var(ddof=1) / len(ys))
    assert abs(xs.mean() - ys.mean()) <= 3 * se


# --- perturbed lattice ------------------------------------------------------------

def test_perturbed_lattice_zero_law():
    law = DistributionSpec("point_mass", (0.0,))
    f = sample_law("perturbed_lattice", 2, law, seed=4)
    for cube, birth in f.births.items():
        assert birth == (0.0 if cube.dim == 0 else 1.0)


def test_perturbed_lattice_births_match_bruteforce():
    law = DistributionSpec("uniform", (-0.2, 0.2))
    f = sample_law("perturbed_lattice", 2, law, seed=11)
    box = Window(2, 2).box
    x = _perturbed_points(box, law, "perturbed_lattice", seed=11, trial=0)

    def point(z):
        return x[tuple(np.subtract(z, box.lo))]

    for cube, birth in f.births.items():
        pts = cube.vertices()
        expect = 0.0
        for a, b in itertools.combinations(pts, 2):
            if sum(abs(u - v) for u, v in zip(a, b)) == 1:
                expect = max(expect, float(np.linalg.norm(point(a) - point(b))))
        assert birth == expect


def test_perturbed_lattice_validates():
    law = DistributionSpec("uniform", (-0.3, 0.3))
    for seed in range(100):
        assert validate(sample_law("perturbed_lattice", 1, law, seed)) is None


# --- ball cover --------------------------------------------------------------------

def test_covering_birth_single_center_at_vertex():
    law = DistributionSpec("point_mass", (0.0,))
    f = sample_law("ball_cover", 2, law, seed=0, d=2, m_grid=4)
    vertices = [birth for cube, birth in f.births.items() if cube.dim == 0]
    assert vertices and all(birth == 0.0 for birth in vertices)


def test_covering_birth_segment_farthest_point():
    # centres on the lattice: the exact farthest point of a unit segment is its
    # midpoint, 1/2 away; the m_grid sample points fall short by at most half
    # a grid step
    law = DistributionSpec("point_mass", (0.0,))
    for m_grid in (2, 4, 8):
        f = sample_law("ball_cover", 2, law, seed=0, d=1, m_grid=m_grid)
        segments = [birth for cube, birth in f.births.items() if cube.dim == 1]
        assert segments
        for t in segments:
            assert 0.5 - 0.5 / (m_grid - 1) - 1e-12 <= t <= 0.5


def test_ball_cover_unperturbed_births_closed_form():
    # with every centre on its lattice point, the farthest sample point of a
    # q-cube lies h = max_k min(k/(m-1), 1 - k/(m-1)) from the nearest lattice
    # value along each of its q axes: the birth is sqrt(q) h
    law = DistributionSpec("point_mass", (0.0,))
    for m_grid, h in [(2, 0.0), (3, 0.5), (4, 1 / 3), (6, 0.4)]:
        f = sample_law("ball_cover", 2, law, seed=3, d=3, m_grid=m_grid)
        assert len(f.births) == len(all_cubes_box(Window(2, 3).box))
        for cube, birth in f.births.items():
            assert birth == pytest.approx(math.sqrt(cube.dim) * h, rel=1e-12,
                                          abs=1e-15)


def test_ball_cover_validates_and_flags_approximate():
    law = DistributionSpec("uniform", (-0.25, 0.25))
    for seed in range(100):
        f = sample_law("ball_cover", 1, law, seed, m_grid=3)
        assert validate(f) is None
    assert f.meta["approximate"] is True


def test_ball_cover_requires_compact_support():
    with pytest.raises(ValueError):
        ModelSpec("ball_cover", 2,
                  perturbation=DistributionSpec("exponential", (1.0,)))


# --- restriction and blocks ---------------------------------------------------------

def test_restrict_same_window_is_identity():
    f = sample_marks("lower", 2, (UNI, UNI, UNI), seed=5)
    same = restrict_box(f, Window(2, 2).box)
    assert same_bits(same, f) and same.births == f.births
    assert same.meta == f.meta


def test_restrict_to_zero_keeps_origin_only():
    f = sample_marks("lower", 2, (UNI, UNI, UNI), seed=5)
    r = restrict_box(f, Window(0, 2).box)
    assert set(r.births) == {ElementaryCube((0, 0), (0, 0))}
    assert r.meta["n"] == 0 and format_filtration(r).startswith("# 2 0 5 lower\n")


def test_restrict_rejects_larger_window():
    f = sample_marks("lower", 2, (UNI, UNI, UNI), seed=5)
    with pytest.raises(ValueError, match="is not inside the region"):
        restrict_box(f, Window(3, 2).box)


def test_restriction_quadrant_masses_within_difference_bound():
    model = ModelSpec("lower", 2, marks=(UNI, UNI, UNI))
    for seed in range(10):
        f = sample(model, 3, seed)
        r = restrict_box(f, Window(2, 2).box)
        dg_f, dg_r = compute_diagram(f), compute_diagram(r)
        for q in (0, 1):
            for s, t in [(0.3, 0.5), (0.5, 0.8)]:
                big = quadrant_mass(dg_f, q, s, t)
                small = quadrant_mass(dg_r, q, s, t)
                extra_q = sum(1 for c in f.births
                              if c.dim == q and f.births[c] <= s
                              and c not in r.births)
                extra_q1 = sum(1 for c in f.births
                               if c.dim == q + 1 and f.births[c] <= t
                               and c not in r.births)
                assert abs(big - small) <= extra_q + extra_q1


def max_norm_gap(a, b):
    """d_max between two boxes (0 if they intersect or touch)."""
    return max(0, *(max(a2 - b1, a1 - b2) for a1, b1, a2, b2 in zip(a.lo, a.hi, b.lo, b.hi)))


def test_block_window_geometry():
    assert block_window(4, 1, (0, 0)) == Window(3, 2).box
    b1 = block_window(4, 1, (1, 0))
    assert b1.lo == (5, -3) and b1.hi == (11, 3)
    # distinct blocks sit at max-norm distance >= 2r (= 2r for neighbors)
    for k, r in [(4, 1), (3, 1), (5, 2)]:
        zs = [(0, 0), (1, 0), (1, 1), (-1, 2), (0, -1)]
        for i, z1 in enumerate(zs):
            for z2 in zs[i + 1:]:
                gap = max_norm_gap(block_window(k, r, z1), block_window(k, r, z2))
                assert gap >= 2 * r
        assert max_norm_gap(block_window(k, r, (0, 0)),
                            block_window(k, r, (1, 0))) == 2 * r


def test_block_copy_center_equals_plain_sample():
    model = ModelSpec("upper", 2, marks=(UNI, UNI, UNI))
    block = sample_box(model, block_window(4, 1, (0, 0)), seed=13)
    plain = sample(model, 3, seed=13)
    assert block.births == plain.births


def test_block_copy_equals_carving_from_big_window():
    model = ModelSpec("upper", 2, marks=(UNI, UNI, UNI))
    big = sample(model, 12, seed=13)
    for z in [(1, 0), (-1, 1)]:
        carved = restrict_box(big, block_window(4, 1, z))
        direct = sample_box(model, block_window(4, 1, z), seed=13)
        assert carved.births == direct.births


def test_block_carving_all_model_kinds():
    # block births must not depend on which window they were sampled through
    law = DistributionSpec("uniform", (-0.25, 0.25))
    models = [
        ModelSpec("lower", 2, marks=(UNI, UNI, UNI)),
        ModelSpec("perturbed_lattice", 2, perturbation=law),
        ModelSpec("ball_cover", 2, perturbation=law, m_grid=3),
    ]
    for model in models:
        big = sample(model, 9, seed=29)
        box = block_window(3, 1, (1, -1))
        carved = restrict_box(big, box)
        direct = sample_box(model, box, seed=29)
        assert carved.births == direct.births, model.kind


def same_bits(a, b):
    """Equal filtrations down to the bits of every birth (-0.0 included)."""
    return a == b and np.array_equal(a.grid.view(np.int64), b.grid.view(np.int64))


CARVE_MARKS = [UNI, DistributionSpec("empirical", (0.2, 0.3, 0.5, 0.7, 0.9, 1.0)),
               DistributionSpec("uniform", (0.0, 1.0), p_inf=0.3)]
CARVE_LAWS = [DistributionSpec("uniform", (-0.25, 0.25)),
              DistributionSpec("uniform", (-0.5, 0.5))]


@st.composite
def carving_models(draw):
    kind = draw(st.sampled_from(["upper", "lower", "perturbed_lattice", "ball_cover"]))
    d = draw(st.integers(1, 3))
    if kind in ("upper", "lower"):
        return ModelSpec(kind, d, marks=(draw(st.sampled_from(CARVE_MARKS)),) * (d + 1))
    return ModelSpec(kind, d, perturbation=draw(st.sampled_from(CARVE_LAWS)),
                     m_grid=draw(st.integers(2, 4)))


@settings(max_examples=60, deadline=None)
@given(model=carving_models(), seed=st.integers(0, 2**16), trial=st.integers(0, 3),
       data=st.data())
def test_carving_a_window_equals_sampling_it(model, seed, trial, data):
    """The identity the gap estimates rely on: the windows of one seed and
    trial are nested windows of one realization, so restricting the largest
    gives every smaller one bit for bit, down to the single-vertex n = 0,
    with the smaller window's own metadata."""
    big_n = data.draw(st.integers(1, 3 if model.d <= 2 else 2))
    big = sample(model, big_n, seed, trial)
    for n in range(big_n):
        carved = restrict_box(big, Window(n, model.d).box)
        direct = sample(model, n, seed, trial)
        assert same_bits(carved, direct), n
        assert carved.meta == direct.meta, n


@pytest.mark.parametrize("kind", ["upper", "lower", "perturbed_lattice", "ball_cover"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_carving_a_flat_box_equals_sampling_it(kind, d):
    """Boxes with a zero-width axis (a face of the window) carve as they
    sample, for every model."""
    if kind in ("upper", "lower"):
        model = ModelSpec(kind, d, marks=(UNI,) * (d + 1))
    else:
        model = ModelSpec(kind, d, perturbation=CARVE_LAWS[1], m_grid=3)
    big = sample(model, 2, seed=31)
    for axis in range(d):
        lo = tuple(1 if a == axis else -2 for a in range(d))
        hi = tuple(1 if a == axis else 1 for a in range(d))
        box = Box(lo, hi)
        assert same_bits(restrict_box(big, box), sample_box(model, box, seed=31))


def test_restrict_box_rejects_box_outside_region():
    big = sample(ModelSpec("lower", 2, marks=(UNI, UNI, UNI)), 2, seed=3)
    for box in (Window(3, 2).box, block_window(3, 1, (1, 0)), Window(1, 3).box):
        with pytest.raises(ValueError, match="not inside"):
            restrict_box(big, box)


def test_carved_window_diagram_header_names_its_own_radius():
    model = ModelSpec("lower", 2, marks=(UNI, UNI, UNI))
    carved = restrict_box(sample(model, 4, 1), Window(2, 2).box)
    assert format_diagram(compute_diagram(carved)).startswith("# 2 1 2 1\n")
    assert format_filtration(carved) == format_filtration(sample(model, 2, 1))


def test_window_carved_from_a_block_is_the_window():
    """A window carved from a non-centred region that contains it (a block,
    a strip) is the window, metadata included; the block itself keeps its
    parent's metadata."""
    model = ModelSpec("upper", 2, marks=(UNI, UNI, UNI))
    big = sample(model, 4, seed=17, trial=2)
    for region in (Box((-3, -2), (2, 4)), Box((-4, -1), (4, 1))):
        part = restrict_box(big, region)
        assert part.meta == big.meta
        window = restrict_box(part, Window(1, 2).box)
        direct = sample(model, 1, seed=17, trial=2)
        assert same_bits(window, direct) and window.meta == direct.meta
        assert format_filtration(window) == format_filtration(direct)
    with pytest.raises(ValueError, match="is not inside the region"):
        restrict_box(restrict_box(big, Box((-3, -2), (2, 4))), Window(3, 2).box)


def test_sample_box_records_the_radius_of_a_window_only():
    model = ModelSpec("lower", 3, marks=(UNI,) * 4)
    window = sample_box(model, Window(2, 3).box, 8, 1)
    assert window.meta == sample(model, 2, 8, 1).meta and window.meta["n"] == 2
    assert "n" not in sample_box(model, block_window(3, 1, (1, 0, 0)), 8, 1).meta


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_window_meta_edge_cases(d):
    for m in (0, 1, 5):
        assert _window_meta(Window(m, d).box) == {"n": m}
        assert _window_meta(Box((-m,) * d, (m,) * d)) == {"n": m}
    # translated, negative-hi and flat boxes are not windows (and do not raise)
    assert _window_meta(Window(2, d).box.translate((1,) + (0,) * (d - 1))) == {}
    assert _window_meta(Box((-3,) * d, (-1,) * d)) == {}
    assert _window_meta(Box((-2,) * d, (-2,) * d)) == {}
    assert _window_meta(Box((0,) * d, (1,) * d)) == {}
    if d > 1:
        # unequal axes, and a flat axis of a window
        assert _window_meta(Box((-1,) + (-2,) * (d - 1), (1,) + (2,) * (d - 1))) == {}
        assert _window_meta(Box((0,) + (-2,) * (d - 1), (0,) + (2,) * (d - 1))) == {}
        assert _window_meta(Box((-2,) * d, (2,) * (d - 1) + (3,))) == {}


def test_dump_refuses_a_non_window():
    big = sample(ModelSpec("lower", 2, marks=(UNI, UNI, UNI)), 2, seed=3)
    for box in (Window(1, 2).box.translate((1, 0)), Box((-1, -2), (1, 2)),
                Box((-2, -2), (-1, -1))):
        with pytest.raises(ValueError, match="^only centered-window filtrations have "
                                             "a dump form$"):
            format_filtration(restrict_box(big, box))


def test_sample_box_rejects_dimension_mismatch():
    model = ModelSpec("lower", 2, marks=(UNI, UNI, UNI))
    with pytest.raises(ValueError, match="dimension"):
        sample_box(model, Window(1, 3).box, seed=1)


def test_upper_blocks_share_no_marks():
    # the marks feeding a block's births live on cubes intersecting it;
    # for adjacent blocks with r = 1 these domains are disjoint
    for z1, z2 in [((0, 0), (1, 0)), ((0, 0), (1, 1))]:
        domains = []
        for z in (z1, z2):
            box = block_window(3, 1, z)
            dom = set()
            for cube in all_cubes_box(box):
                dom.update(cofaces_containing(cube))
            domains.append(dom)
        assert not (domains[0] & domains[1])


def mark_grid_reference(marks, box, kind, seed, trial):
    """The mark grid as first written: keys from the cell coordinates of
    every flat cell, then one select-and-assign per cube dimension."""
    shape = grid_shape(box)
    base, extent = cell_coordinates(box, np.arange(math.prod(shape)))
    mask = extent @ (1 << np.arange(box.ambient_dim)[::-1])
    u = stream_uniform(seed, (MODEL_TAGS[kind], TAG_CUBE_MARK, trial),
                       np.column_stack([mask, base]))
    dims = extent.sum(axis=1)
    values = np.empty(u.shape)
    for q, mark in enumerate(marks):
        sel = dims == q
        values[sel] = mark.quantile(u[sel])
    return values.reshape(shape)


def per_dimension(d, *laws):
    """The laws in turn over the cube dimensions 0..d."""
    return tuple(laws[q % len(laws)] for q in range(d + 1))


MARK_SETS = {
    "equal": lambda d: per_dimension(d, UNI),
    "equal-values": lambda d: tuple(DistributionSpec("exponential", (2.0,))
                                    for _ in range(d + 1)),
    "equal-defective": lambda d: per_dimension(
        d, DistributionSpec("uniform", (0.2, 0.6), p_inf=0.3)),
    "mixed": lambda d: per_dimension(
        d, DistributionSpec("empirical", (0.2, 0.3, 0.5, 0.7, 0.9, 0.95)),
        *point_masses(0.4), DistributionSpec("exponential", (2.0,)), UNI),
    "p_inf": lambda d: per_dimension(
        d, *(DistributionSpec("uniform", (0.25, 0.75), p_inf=p) for p in (0.0, 0.3, 1.0))),
    # equal as values, but a point mass at -0.0 draws -0.0
    "signed-zero": lambda d: per_dimension(d, *point_masses(0.0, -0.0)),
}


@pytest.mark.parametrize("marks", MARK_SETS)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_mark_grid_matches_per_dimension_reference(d, marks):
    laws = MARK_SETS[marks](d)
    n = (4, 3, 2, 1)[d - 1]
    lo = (-3, 2, -1, 5)[:d]
    offset = Box(lo, tuple(v + n + a % 2 for a, v in enumerate(lo)))
    for box in (Window(n, d).box, offset):
        for kind, seed, trial in (("lower", 7, 0), ("upper", -3, 2)):
            got = _mark_grid(laws, box, kind, seed, trial)
            expected = mark_grid_reference(laws, box, kind, seed, trial)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


# --- dump format ----------------------------------------------------------------------

def test_filtration_dump_round_trip():
    f = sample_marks("lower", 2, (UNI, UNI, UNI), seed=21)
    text = format_filtration(f)
    g = parse_filtration(text)
    assert g.births == f.births
    assert format_filtration(g) == text


def reference_format_filtration(f):
    """The dump written cube by cube: one ``repr`` per finite birth."""
    meta = f.meta
    header = f"# {f.d} {f.region.hi[0]} {meta.get('seed', '-')} {meta.get('model', '-')}"
    return "\n".join([header] + [f"{cube.canonical()} {birth!r}"
                                  for cube, birth in f.births.items()]) + "\n"


TIED = DistributionSpec("empirical", (0.2, 0.3, 0.5, 0.7, 0.9, 1.0))
DEFECTIVE = DistributionSpec("uniform", (0.0, 1.0), p_inf=0.3)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["upper", "lower", "perturbed_lattice", "ball_cover"]),
       d=st.integers(1, 4), mark=st.sampled_from([UNI, TIED, DEFECTIVE]),
       seed=st.integers(0, 2**16), data=st.data())
def test_filtration_dump_writes_each_birth_as_its_repr(kind, d, mark, seed, data):
    n = data.draw(st.integers(1, 3 if d <= 2 else 1))
    if kind in ("upper", "lower"):
        f = sample_marks(kind, n, (mark,) * (d + 1), seed)
    else:
        f = sample_law(kind, n, DistributionSpec("uniform", (-0.25, 0.25)), seed, d, 2)
    assert format_filtration(f) == reference_format_filtration(f)


def test_filtration_dump_keeps_the_sign_of_zero():
    # 0.0 and -0.0 are equal values but distinct births with distinct texts
    vertices = [ElementaryCube((x, y), (0, 0)) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    births = dict(zip(vertices, [0.0, -0.0, 0.5, -0.0, 0.0, 0.5, 0.25, 0.25, -0.0]))
    f = filtration_from_births(Window(1, 2), births, {"seed": 3})
    text = format_filtration(f)
    assert text == reference_format_filtration(f)
    assert {line.split()[1] for line in text.splitlines()[1:]} == {"0.0", "-0.0", "0.5", "0.25"}
    back = parse_filtration(text)
    assert back.grid.tobytes() == f.grid.tobytes()
    assert np.array_equal(np.signbit(back.grid), np.signbit(f.grid))
    assert format_filtration(back) == text


def test_filtration_dump_header():
    f = sample_marks("lower", 1, (UNI, UNI, UNI), seed=2)
    first = format_filtration(f).splitlines()[0]
    assert first == "# 2 1 2 lower"
    # every mix of present and "-" optional fields: a "-" field has no meta
    # key and is written back as "-"
    for meta in ({}, {"seed": 5}, {"model": "upper"}, {"seed": 5, "model": "upper"}):
        header = f"# 2 1 {meta.get('seed', '-')} {meta.get('model', '-')}"
        g = parse_filtration(f"{header}\n2;0,0;00 0.5\n")
        assert g.meta == {"n": 1, **meta}
        assert format_filtration(g).splitlines()[0] == header


def test_parse_filtration_rejects_missing_header():
    with pytest.raises(ValueError):
        parse_filtration("2;0,0;00 0.5\n")


def test_parse_filtration_rejects_duplicate_cube_line():
    lines = format_filtration(sample_marks("lower", 1, (UNI, UNI, UNI), seed=2)).splitlines()
    with pytest.raises(ValueError, match="duplicate"):
        parse_filtration("\n".join(lines[:2] + [lines[1]] + lines[2:]) + "\n")


def test_nan_birth_is_rejected_not_dropped():
    cube = ElementaryCube((0, 0), (0, 0))
    with pytest.raises(ValueError, match="nan"):
        filtration_from_births(Window(1, 2), {cube: math.nan})
    with pytest.raises(ValueError, match="nan"):
        parse_filtration("# 2 1 - -\n2;0,0;00 nan\n")


def test_parse_filtration_rejects_never_born_cube_outside_window():
    # format_filtration never writes such a line; it used to be dropped
    for line in ("2;5,5;00 inf", "2;1,0;10 inf", "3;0,0,0;000 inf"):
        with pytest.raises(ValueError, match="cube .* lies outside the region"):
            parse_filtration(f"# 2 1 - -\n2;0,0;00 0.5\n{line}\n")
    with pytest.raises(ValueError, match="^finite-birth cube 2;5,5;00 lies outside"):
        parse_filtration("# 2 1 - -\n2;+5,5;00 0.5\n")


@pytest.mark.parametrize("line", ["1;0;0 abc", "x;0;0 0.5", "1;0;2 0.5", "1;0 0.5"])
def test_parse_filtration_names_unreadable_line(line):
    # a birth that is not a float, or a cube text that is not a cube
    with pytest.raises(ValueError, match=f"^malformed filtration line 3: '{line}' \\("):
        parse_filtration(f"# 1 1 - -\n1;0;0 0.5\n{line}\n")


def reference_parse_filtration(text):
    """The cube-keyed parser that the cell-indexed one replaced: every line
    through ``ElementaryCube.from_canonical`` into a {cube: birth} dict,
    turned into a grid by ``filtration_from_births``.  Only the
    malformed-line messages are new; ``from_canonical`` is shared with the
    parser under test."""
    lines = [(number, ln) for number, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    tokens = lines[0][1][1:].split()
    d, n = int(tokens[0]), int(tokens[1])
    meta = {"n": n}
    if tokens[2] != "-":
        meta["seed"] = int(tokens[2])
    if tokens[3] != "-":
        meta["model"] = tokens[3]
    births = {}
    for number, ln in lines[1:]:
        tokens = ln.split()
        if len(tokens) != 2:
            raise ValueError(f"malformed filtration line {number}: {ln!r}")
        try:
            cube = ElementaryCube.from_canonical(tokens[0])
            birth = float(tokens[1])
        except ValueError as exc:
            raise ValueError(f"malformed filtration line {number}: {ln!r} ({exc})") from None
        if cube in births:
            raise ValueError(f"duplicate cube line {ln!r}")
        births[cube] = birth
    return filtration_from_births(Window(n, d), births, meta)


def _respell(cube_text, draw):
    """The same cube in another spelling: one integer field written with a
    leading zero, a plus sign or a digit separator."""
    d_text, bases, bits = cube_text.split(";")
    fields = [d_text] + bases.split(",")
    i = draw(st.integers(0, len(fields) - 1))
    sign, digits = ("-", fields[i][1:]) if fields[i].startswith("-") else ("", fields[i])
    prefix = draw(st.sampled_from(["0", "0_"] + ([] if sign else ["+"])))
    fields[i] = sign + prefix + digits
    return f"{fields[0]};{','.join(fields[1:])};{bits}"


FAULTS = ("malformed", "tokens", "respelled", "duplicate", "respelled_duplicate",
          "dimension", "outside", "birth", "blank")


@st.composite
def faulty_dumps(draw, fault):
    """A sampled dump of any model, d = 1..4, with one injected fault.

    Returns the text and whether the fault is a never-born cube outside the
    window, which only the reference accepts."""
    kind = draw(st.sampled_from(["upper", "lower", "perturbed_lattice", "ball_cover"]))
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 2 if d <= 3 else 1))
    if kind in ("upper", "lower"):
        p_inf = draw(st.sampled_from([0.0, 0.3]))
        mark = DistributionSpec("uniform", (0.0, 1.0), p_inf=p_inf)
        model = ModelSpec(kind, d, marks=(mark,) * (d + 1))
    else:
        model = ModelSpec(kind, d, perturbation=DistributionSpec("uniform", (-0.25, 0.25)),
                          m_grid=2)
    lines = format_filtration(sample(model, n, draw(st.integers(0, 2**16)))).splitlines()
    assume(len(lines) > 1)
    at = draw(st.integers(1, len(lines) - 1))
    cube_text, birth_text = lines[at].split()
    never_born_outside = False
    if fault == "malformed":
        bad = draw(st.sampled_from([
            cube_text.rsplit(";", 1)[0],  # no extent bits
            cube_text[:-1],  # one bit short
            cube_text + "0",  # one bit too many
            cube_text[:-1] + "2",  # a bit that is not 0/1
            cube_text.replace(";", ",", 1),
            "x;" + cube_text.split(";", 1)[1],
            "0;;",
            cube_text.split(";")[0] + ";;" + cube_text.split(";")[2],
        ]))
        lines[at] = f"{bad} {birth_text}"
    elif fault == "tokens":
        lines[at] = draw(st.sampled_from([cube_text, f"{lines[at]} {birth_text}"]))
    elif fault == "respelled":
        lines[at] = f"{_respell(cube_text, draw)} {birth_text}"
    elif fault in ("duplicate", "respelled_duplicate"):
        copy = lines[at] if fault == "duplicate" else f"{_respell(cube_text, draw)} {birth_text}"
        lines.insert(draw(st.integers(1, len(lines))), copy)
    elif fault in ("dimension", "outside"):
        if fault == "dimension":
            e = draw(st.sampled_from([-1, 1]) if d > 1 else st.just(1))
            cube = ElementaryCube((0,) * (d + e), (0,) * (d + e))
        else:
            axis = draw(st.integers(0, d - 1))
            base = [0] * d
            base[axis] = draw(st.sampled_from([n, n + 1, -n - 1, 3 * n]))
            extent = [0] * d
            extent[axis] = 1 if base[axis] == n else draw(st.integers(0, 1))
            cube = ElementaryCube(tuple(base), tuple(extent))
        birth = draw(st.sampled_from(["0.5", "inf", "nan", "-1.0"]))
        never_born_outside = birth == "inf"
        lines.insert(draw(st.integers(1, len(lines))), f"{cube.canonical()} {birth}")
    elif fault == "birth":
        lines[at] = f"{cube_text} {draw(st.sampled_from(['nan', '-0.5', '-inf', 'x']))}"
    else:
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.sampled_from(["", " ", "\t"])))
    return "\n".join(lines) + "\n", never_born_outside


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return exc


@pytest.mark.parametrize("fault", FAULTS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_parse_filtration_matches_cube_keyed_reference(fault, data):
    """The cell-indexed parser reads every faulty dump as the cube-keyed one
    does: the same grid and meta, or the same error.  The one difference: a
    never-born cube outside the window is rejected, not dropped."""
    text, never_born_outside = data.draw(faulty_dumps(fault))
    got = _parse_outcome(parse_filtration, text)
    expected = _parse_outcome(reference_parse_filtration, text)
    if never_born_outside:
        assert isinstance(expected, Filtration)
        assert isinstance(got, ValueError), got
        assert str(got).startswith("never-born cube") and "outside the region" in str(got)
    elif isinstance(expected, Filtration):
        assert isinstance(got, Filtration), got
        assert np.array_equal(got.grid, expected.grid) and got.region == expected.region
        assert got.meta == expected.meta
    else:
        assert type(got) is type(expected) and str(got) == str(expected)
