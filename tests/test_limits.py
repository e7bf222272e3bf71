import io
import itertools
import math

import numpy as np
import pytest

from randcube import (DistributionSpec, ModelSpec, Window, block_window, limits,
                      sample, sample_box, verify)
from randcube.limits import (
    GridFunction,
    bin_pair,
    dyadic_grid_pairs,
    estimate_log_mgf,
    estimate_mean_diagram,
    estimate_pb_density,
    gap_reports,
    histogram,
    legendre_transform,
    lln_sweep,
    log_mgf,
    piecewise_constant_integral,
    rectangle_bounds,
    rectangle_keys,
    write_gap_csv,
    write_histogram_csv,
    write_mgf_csv,
    write_pb_csv,
    write_rate_csv,
)
from randcube.persistence import PersistenceDiagram, compute_diagram, quadrant_mass

INF = math.inf
UNI = DistributionSpec("uniform", (0.0, 1.0))
LOWER2 = ModelSpec("lower", 2, marks=(UNI, UNI, UNI))
UPPER2 = ModelSpec("upper", 2, marks=(UNI, UNI, UNI))


def point_masses(*values):
    return tuple(DistributionSpec("point_mass", (v,)) for v in values)


def diagram_of(pairs_by_degree):
    return PersistenceDiagram(2, pairs_by_degree)


# --- histogram binning ----------------------------------------------------------

def test_bin_pair_worked_example():
    assert bin_pair(2, 1.0, 2.0) == (8, 16)
    s_lo, s_hi, t_lo, t_hi = rectangle_bounds(2, 8, 16)
    assert (s_lo, s_hi, t_lo, t_hi) == (7 / 8, 1.0, 15 / 8, 2.0)


def test_bin_pair_overflow_at_coarse_fineness():
    assert bin_pair(1, 1.0, 2.0) is None  # max covered coordinate is 1 < 2


def test_histogram_of_empty_diagram():
    hist = histogram(diagram_of({}), 0, 2)
    assert hist.counts == {} and hist.overflow == 0 and hist.infinite == 0


def test_histogram_routes_infinite_and_overflow():
    diagram = diagram_of({0: [(0.0, INF), (1.0, 2.0), (0.05, 0.1)]})
    hist = histogram(diagram, 0, 2)
    assert hist.infinite == 1
    assert hist.counts.get((8, 16)) == 1
    assert hist.overflow == 1  # (0.05, 0.1) has j = 1 < 3


def test_rectangles_are_disjoint_and_binning_is_membership():
    l = 2
    keys = rectangle_keys(l)
    rng = np.random.default_rng(3)
    births = rng.uniform(0, 2.5, 400)
    deaths = births + rng.uniform(1e-6, 2.5, 400)
    for b, dth in zip(births, deaths):
        containing = []
        for i, j in keys:
            s_lo, s_hi, t_lo, t_hi = rectangle_bounds(l, i, j)
            in_s = (s_lo <= b <= s_hi) if i == 1 else (s_lo < b <= s_hi)
            in_t = t_lo < dth <= t_hi
            if in_s and in_t:
                containing.append((i, j))
        assert len(containing) <= 1
        assert bin_pair(l, float(b), float(dth)) == (containing[0] if containing
                                                     else None)


def test_rectangle_keys_valid():
    for l in (1, 2):
        jmax = l * 2 ** (l + 1)
        for i, j in rectangle_keys(l):
            if i == 1:
                assert 3 <= j <= jmax
            else:
                assert 2 <= i and j - i >= 2 and j <= jmax


# --- piecewise-constant integral ---------------------------------------------------

def test_piecewise_integral_constant_one():
    diagram = diagram_of({0: [(0.9, 1.9), (0.3, 1.2)]})
    approx, exact = piecewise_constant_integral(diagram, 0, lambda s, t: 1.0, 2)
    assert approx == 2.0 and exact == 2.0


def test_piecewise_integral_single_pair_modulus():
    f = lambda s, t: max(0.0, 1.0 - abs(s - 1.0) - abs(t - 2.0))
    diagram = diagram_of({0: [(1.0, 2.0)]})
    l = 2
    approx, exact = piecewise_constant_integral(diagram, 0, f, l)
    assert rectangle_bounds(l, 8, 16)[1::2] == (1.0, 2.0)
    assert approx == f(1.0, 2.0)
    # mesh controls the gap: f is 1-Lipschitz in each coordinate
    assert abs(approx - exact) <= 2 * 2.0 ** -(l + 1)


def test_piecewise_integral_empty():
    approx, exact = piecewise_constant_integral(diagram_of({}), 0, lambda s, t: 1.0, 1)
    assert approx == 0.0 and exact == 0.0


# --- pb density ----------------------------------------------------------------------

def test_pb_density_deterministic_vertex_phase():
    # between c_0 and c_1 only vertices are present: density (2n+1)^d/(2n)^d
    model = ModelSpec("lower", 2, marks=point_masses(0.1, 0.5, 0.9))
    n = 3
    est = estimate_pb_density(model, 0, [(0.3, 0.3)], n, trials=4, seed=2)
    expect = (2 * n + 1) ** 2 / (2 * n) ** 2
    assert np.all(est.densities == expect)
    assert np.all(est.std == 0.0)


def test_pb_density_below_all_births_is_zero():
    est = estimate_pb_density(LOWER2, 0, [(0.0, 0.0)], 2, trials=3, seed=2)
    # uniform marks are almost surely positive
    assert np.all(est.masses == 0)


def test_pb_density_single_trial_matches_diagram():
    from randcube.models import sample
    from randcube.persistence import quadrant_mass

    est = estimate_pb_density(LOWER2, 0, [(0.4, 0.6)], 2, trials=1, seed=8)
    diagram = compute_diagram(sample(LOWER2, 2, 8, 0))
    assert est.masses[0, 0] == quadrant_mass(diagram, 0, 0.4, 0.6)
    assert est.std[0] == 0.0


def test_pb_density_seed_prefix_property():
    a = estimate_pb_density(LOWER2, 0, [(0.5, 0.5)], 2, trials=5, seed=31)
    b = estimate_pb_density(LOWER2, 0, [(0.5, 0.5)], 2, trials=10, seed=31)
    assert np.array_equal(a.masses, b.masses[:5])


def test_pb_density_rejects_bad_pairs():
    with pytest.raises(ValueError):
        estimate_pb_density(LOWER2, 0, [(0.6, 0.4)], 2, 2, 1)
    with pytest.raises(ValueError):
        estimate_pb_density(LOWER2, 2, [(0.4, 0.6)], 2, 2, 1)


# --- mean diagram -----------------------------------------------------------------------

def test_mean_diagram_point_mass_model_hits_single_rectangle():
    model = ModelSpec("lower", 2, marks=point_masses(0.2, 0.2, 0.8))
    result = estimate_mean_diagram(model, 1, n=2, trials=3, l=2, seed=5)
    # loops are born at 0.2 and filled at 0.8: one rectangle carries all mass
    key = bin_pair(2, 0.2, 0.8)
    assert key is not None
    assert set(result.mean_counts) == {key}
    assert result.mean_infinite == 0.0


def test_mean_diagram_quadrant_field_matches_pb_estimator():
    l, n, trials, seed = 2, 2, 4, 6
    md = estimate_mean_diagram(LOWER2, 0, n, trials, l, seed)
    grid = dyadic_grid_pairs(l)
    sample_pairs = [grid[0], grid[5], grid[len(grid) // 2], grid[-1]]
    pb = estimate_pb_density(LOWER2, 0, sample_pairs, n, trials, seed)
    for col, pair in enumerate(sample_pairs):
        idx = grid.index(pair)
        assert np.array_equal(md.quadrant_masses[:, idx], pb.masses[:, col])


def test_mean_diagram_check_sees_pairs_lost_to_overflow(monkeypatch):
    # a binning fault that drops every pair of one rectangle into overflow
    # leaves that rectangle's count at 0; its quadrant sum still sees them
    def lossy_bin_pair(l, birth, death):
        key = bin_pair(l, birth, death)
        return None if key == (3, 7) else key

    monkeypatch.setattr(limits, "bin_pair", lossy_bin_pair)
    with pytest.raises(AssertionError, match=r"rectangle \(3, 7\): count 0 vs"):
        estimate_mean_diagram(LOWER2, 0, n=8, trials=16, l=3, seed=5)


def test_mean_diagram_checks_degree_and_fineness_before_sampling(monkeypatch):
    def refuse(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(limits, "sample", refuse)
    with pytest.raises(ValueError, match="q=5 out of range for d=2"):
        estimate_mean_diagram(LOWER2, 5, n=2, trials=2, l=2, seed=0)
    with pytest.raises(ValueError, match="fineness l must be >= 1"):
        estimate_mean_diagram(LOWER2, 0, n=2, trials=2, l=0, seed=0)


# --- lln sweep ----------------------------------------------------------------------------

def test_lln_sweep_deterministic_model_zero_std():
    model = ModelSpec("lower", 2, marks=point_masses(0.1, 0.5, 0.9))
    rows = lln_sweep(model, 0, [(0.3, 0.3)], [1, 2, 4], trials=3, seed=4)
    assert all(r["std"] == 0.0 for r in rows)


def test_lln_sweep_vertex_density_drift_bound():
    # deterministic vertex-count density differs between n and 2n by <= 1/n
    model = ModelSpec("lower", 2, marks=point_masses(0.1, 0.5, 0.9))
    rows = lln_sweep(model, 0, [(0.3, 0.3)], [2, 4, 8], trials=1, seed=4)
    means = {r["n"]: r["mean"] for r in rows}
    for n in (2, 4):
        assert abs(means[n] - means[2 * n]) <= 1.0 / n
        assert means[n] == (2 * n + 1) ** 2 / (2 * n) ** 2


def test_lln_sweep_requires_increasing_windows():
    with pytest.raises(ValueError):
        lln_sweep(LOWER2, 0, [(0.5, 0.5)], [4, 4], 2, 1)


# --- log-MGF and conjugate -------------------------------------------------------------------

def test_mgf_zero_at_zero_and_convex():
    lam = np.linspace(-20.0, 20.0, 41)
    phi = estimate_log_mgf(LOWER2, 0, [(0.5, 0.5)], [lam], n=2, trials=30, seed=3)
    vals = phi.flat_values()
    assert vals[20] == 0.0
    viol = max(
        vals[i + k] - 0.5 * (vals[i] + vals[i + 2 * k])
        for i in range(len(vals))
        for k in range(1, (len(vals) - 1 - i) // 2 + 1)
    )
    assert viol <= 1e-9


def test_mgf_deterministic_model_is_linear():
    model = ModelSpec("lower", 2, marks=point_masses(0.1, 0.5, 0.9))
    lam = np.linspace(-5.0, 5.0, 11)
    n = 2
    phi = estimate_log_mgf(model, 0, [(0.3, 0.3)], [lam], n=n, trials=3, seed=9)
    beta = (2 * n + 1) ** 2  # all vertices, nothing else
    expect = lam * beta / (2 * n) ** 2
    assert np.allclose(phi.flat_values(), expect, rtol=0, atol=1e-12)
    # monotone decreasing on lambda <= 0 when every trial equals the minimum
    left = phi.flat_values()[:6]
    assert np.all(np.diff(left) > 0)


def test_mgf_needs_two_trials_and_matching_axes():
    with pytest.raises(ValueError):
        estimate_log_mgf(LOWER2, 0, [(0.5, 0.5)], [np.array([0.0])], 2, 1, 1)
    with pytest.raises(ValueError):
        estimate_log_mgf(LOWER2, 0, [(0.5, 0.5)], [np.array([0.0])] * 2, 2, 3, 1)


def test_log_mgf_of_a_given_pb_pass():
    """phi(lambda) = log mean exp(lambda * beta) / volume over the pass's own
    trials, with no new sampling."""
    est = limits.PBDensity(LOWER2, 0, ((0.5, 0.5),), 1, 2, 0, np.array([[0], [1]]))
    lam = np.array([-1.0, 0.0, 2.0])
    phi = log_mgf(est, [lam])
    assert np.allclose(phi.values, np.log((1 + np.exp(lam)) / 2) / 4, rtol=1e-15)
    assert phi.meta == {"model": "lower", "n": 1, "trials": 2, "seed": 0, "q": 0,
                        "pairs": ((0.5, 0.5),), "kind": "log_mgf"}
    with pytest.raises(ValueError, match="one lambda axis per"):
        log_mgf(est, [lam, lam])


def test_legendre_of_grid_linear_function():
    lam = np.linspace(-2.0, 2.0, 21)
    a = 0.7
    phi = GridFunction((lam,), a * lam)
    rate = legendre_transform(phi, [np.array([a - 0.5, a, a + 0.5])])
    vals = rate.flat_values()
    assert vals[1] == 0.0
    assert vals[0] == pytest.approx(0.5 * 2.0) and vals[2] == pytest.approx(1.0)


def test_legendre_of_quadratic():
    lam = np.linspace(-3.0, 3.0, 601)
    phi = GridFunction((lam,), lam**2 / 2)
    x = np.linspace(-2.0, 2.0, 41)
    rate = legendre_transform(phi, [x])
    step = lam[1] - lam[0]
    assert np.max(np.abs(rate.flat_values() - x**2 / 2)) <= step**2 / 2 + 1e-12


def test_legendre_two_dimensional():
    lam = np.linspace(-1.0, 1.0, 21)
    phi = estimate_log_mgf(LOWER2, 0, [(0.4, 0.6), (0.5, 0.5)], [lam, lam],
                           n=2, trials=10, seed=12)
    rate = legendre_transform(phi, [np.linspace(0.0, 0.5, 11)] * 2)
    assert rate.values.shape == (11, 11)
    assert np.all(rate.values >= 0.0)


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction((np.array([1.0, 1.0]),), np.zeros(2))
    with pytest.raises(ValueError):
        GridFunction((np.array([]),), np.zeros(0))


# --- gap reports -------------------------------------------------------------------------------

def test_near_additivity_single_block_is_exact():
    report = gap_reports(LOWER2, 0, [(0.3, 0.6)], 1, near=((4, 0, 0),))[0]
    assert report.measured == 0.0 and report.passed


def test_near_additivity_deterministic_lower():
    model = ModelSpec("lower", 2, marks=point_masses(0.2, 0.5, 0.8))
    report = gap_reports(model, 0, [(0.3, 0.6)], 1, near=((4, 1, 1),))[0]
    assert report.bound == 9 * (1 - (3 / 4) ** 2)
    assert report.passed


def test_near_additivity_many_seeds_upper():
    for seed in range(10):
        report = gap_reports(UPPER2, 0, [(0.3, 0.6)], seed, near=((3, 1, 1),))[0]
        assert report.passed


def test_near_additivity_rejects_dependent_blocks():
    with pytest.raises(ValueError, match="not independent"):
        gap_reports(UPPER2, 0, [(0.3, 0.6)], 0, near=((3, 0, 1),))
    with pytest.raises(ValueError):
        gap_reports(UPPER2, 0, [(0.3, 0.6)], 0, near=((1, 1, 1),))


def test_regularity_gap_zero_at_exact_multiple():
    report = gap_reports(LOWER2, 0, [(0.3, 0.6)], 2, regular=((2, 6),))[0]
    assert report.m == 1 and report.measured == 0.0


def test_regularity_gap_bound_value():
    report = gap_reports(LOWER2, 0, [(0.3, 0.6)], 2, regular=((2, 7),))[0]
    assert report.m == 1
    assert report.bound == pytest.approx(9 * (1 - (6 / 7) ** 2))
    assert report.passed


def test_regularity_many_seeds():
    for seed in range(10):
        assert gap_reports(UPPER2, 0, [(0.3, 0.6)], seed, regular=((3, 7),))[0].passed


LAW = DistributionSpec("uniform", (-0.25, 0.25))
# (model, q, pairs, near (k, r, m), regular (k, n)); ball_cover has R = 4,
# so independent blocks need r >= 3 and k >= 4
GAP_CASES = [
    pytest.param(model, q, *case, id=f"{model.kind}-d{d}")
    for d, q in ((2, 0), (3, 1))
    for model, *case in (
        (ModelSpec("lower", d, marks=(UNI,) * (d + 1)),
         ((0.3, 0.6), (0.5, 0.8)), ((3, 1, 1), (2, 1, 0)), ((2, 5), (3, 7))),
        (ModelSpec("upper", d, marks=(UNI,) * (d + 1)),
         ((0.3, 0.6), (0.5, 0.8)), ((3, 1, 1),), ((2, 5), (3, 9))),
        (ModelSpec("perturbed_lattice", d, perturbation=LAW),
         ((1.0, 1.2), (0.9, 1.1)), ((3, 1, 1),), ((2, 5), (3, 7))),
        (ModelSpec("ball_cover", d, perturbation=LAW, m_grid=3),
         ((0.3, 0.5), (0.4, 0.6)), ((4, 3, 1),), ((4, 9), (2, 5))),
    )
]


def fresh_gap_measurements(model, q, pairs, seed, near, regular):
    """Reference: every window and block sampled on its own and reduced
    whole, with no cut and no sharing."""
    s, t = np.array(pairs).T

    def mass(filtration):
        return quadrant_mass(compute_diagram(filtration), q, s, t)

    measured = []
    for k, r, m in near:
        big_n = (2 * m + 1) * k
        blocks = sum(mass(sample_box(model, block_window(k, r, z), seed))
                     for z in itertools.product(range(-m, m + 1), repeat=model.d))
        gap = mass(sample(model, big_n, seed)) - blocks
        measured.append(float(np.linalg.norm(gap)) / Window(big_n, model.d).volume)
    for k, n in regular:
        sub_n = (2 * ((n - k) // (2 * k)) + 1) * k
        gap = mass(sample(model, n, seed)) - mass(sample(model, sub_n, seed))
        measured.append(float(np.linalg.norm(gap)) / Window(n, model.d).volume)
    return measured


@pytest.mark.parametrize("model, q, pairs, near, regular", GAP_CASES)
def test_gap_reports_equal_fresh_uncut_samples(model, q, pairs, near, regular):
    reports = gap_reports(model, q, pairs, 31, near=near, regular=regular)
    assert [g.kind for g in reports] == (["near_additivity"] * len(near)
                                         + ["regularity"] * len(regular))
    assert [g.measured for g in reports] == fresh_gap_measurements(
        model, q, pairs, 31, near, regular)
    assert all(g.passed for g in reports)


def test_gap_reports_match_single_report_functions():
    near, regular = ((3, 1, 1), (2, 1, 2)), ((3, 7), (2, 6))
    reports = gap_reports(UPPER2, 0, [(0.3, 0.6)], 5, near=near, regular=regular)
    singles = ([gap_reports(UPPER2, 0, [(0.3, 0.6)], 5, near=(spec,))[0]
                for spec in near]
               + [gap_reports(UPPER2, 0, [(0.3, 0.6)], 5, regular=(spec,))[0]
                  for spec in regular])
    assert reports == singles
    assert gap_reports(UPPER2, 0, [(0.3, 0.6)], 5) == []


def test_gap_reports_check_every_spec_before_sampling(monkeypatch):
    def refuse(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(limits, "sample", refuse)
    with pytest.raises(ValueError, match="not independent"):
        gap_reports(UPPER2, 0, [(0.3, 0.6)], 0, near=((3, 1, 1), (3, 0, 1)))
    with pytest.raises(ValueError, match="1 <= k <= n"):
        gap_reports(UPPER2, 0, [(0.3, 0.6)], 0, near=((3, 1, 1),),
                    regular=((4, 3),))
    with pytest.raises(ValueError, match="q=2 out of range for d=2"):
        gap_reports(UPPER2, 2, [(0.3, 0.6)], 0, regular=((3, 7),))


def test_gap_task_reduces_each_distinct_box_once(monkeypatch):
    regions = []

    def counted(filtration, *args, **kwargs):
        regions.append(filtration.region)
        return compute_diagram(filtration, *args, **kwargs)

    monkeypatch.setattr(limits, "compute_diagram", counted)
    margins = verify._gap_one(("lower", verify.CORPUS_SEED + 6000))
    assert len(margins) == len(verify.GAP_NEAR) + len(verify.GAP_REGULAR) == 8
    windows = {Window(n, 2).box for n in (20, 15, 12, 9, 7, 4, 3)}
    blocks = {block_window(k, 1, z) for k in (3, 4)
              for z in itertools.product(range(-2, 3), repeat=2)}
    # the central k = 4 block is the window [-3, 3]^2
    assert len(regions) == len(set(regions)) == len(windows | blocks) == 56
    assert set(regions) == windows | blocks


# --- csv output --------------------------------------------------------------------------------

def test_pb_csv_schema_and_determinism():
    est = estimate_pb_density(LOWER2, 0, [(0.4, 0.6)], 2, trials=3, seed=14)
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_pb_csv(buf1, est)
    write_pb_csv(buf2, est)
    assert buf1.getvalue() == buf2.getvalue()
    lines = buf1.getvalue().splitlines()
    assert lines[0] == "model,q,s,t,n,trial,value"
    assert len(lines) == 4


def test_histogram_csv_schema():
    md = estimate_mean_diagram(LOWER2, 0, 2, 2, 2, seed=15)
    buf = io.StringIO()
    write_histogram_csv(buf, md)
    assert buf.getvalue().splitlines()[0] == "l,i,j,count,normalized"


def test_mgf_and_rate_csv_schema():
    lam = np.linspace(-2.0, 2.0, 5)
    phi = estimate_log_mgf(LOWER2, 0, [(0.5, 0.5)], [lam], 2, 4, seed=16)
    buf = io.StringIO()
    write_mgf_csv(buf, phi)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "lambda_1,phi_hat,n,trials"
    assert any(line.startswith("0.0,0.0,") for line in lines)
    rate = legendre_transform(phi, [np.linspace(0.0, 0.4, 5)])
    buf = io.StringIO()
    write_rate_csv(buf, rate)
    assert buf.getvalue().splitlines()[0] == "x_1,phi_star"


def test_gap_csv_schema():
    reports = gap_reports(LOWER2, 0, [(0.3, 0.6)], 17, near=((3, 1, 1),))
    buf = io.StringIO()
    write_gap_csv(buf, reports)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "kind,k,r,m,n,h,measured,bound,pass"
    assert lines[1].startswith("near_additivity,3,1,1,9,1,") \
        and lines[1].endswith(",true")


def test_out_of_range_degree_raises_not_passes():
    """A degree outside 0..d-1 raises on the diagram route, as on the rank
    route, instead of giving a zero gap or an empty histogram."""
    diagram = compute_diagram(sample(LOWER2, 2, 1))
    for q in (-1, 2, 7):
        with pytest.raises(ValueError, match=f"q={q} out of range for d=2"):
            histogram(diagram, q, 2)
        with pytest.raises(ValueError, match=f"q={q} out of range for d=2"):
            piecewise_constant_integral(diagram, q, lambda s, t: 1.0, 2)
    with pytest.raises(ValueError, match="q=7 out of range for d=2"):
        gap_reports(LOWER2, 7, [(0.3, 0.5)], 0, regular=((1, 3),))
    with pytest.raises(ValueError, match="q=-1 out of range for d=2"):
        gap_reports(LOWER2, -1, [(0.3, 0.5)], 0, near=((2, 1, 1),))
    with pytest.raises(ValueError, match="q=5 out of range for d=2"):
        estimate_mean_diagram(LOWER2, 5, 2, 2, 2, seed=0)
