import io
import itertools
import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcube import (DistributionSpec, ModelSpec, Window, block_window, limits,
                      sample, sample_box, verify)
from randcube.limits import (
    GridFunction,
    estimate_log_mgf,
    estimate_mean_diagram,
    estimate_pb_density,
    gap_reports,
    histogram,
    legendre_transform,
    log_mgf,
    rectangle_bounds,
    rectangle_keys,
    write_gap_csv,
    write_histogram_csv,
    write_mgf_csv,
    write_pb_csv,
    write_rate_csv,
)
from randcube.models import block_union, restrict_box
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

def bin_pair(l, birth, death):
    """The per-pair binning rule, the reference for ``histogram``: the key
    of the rectangle containing a finite pair, or None (overflow).  The
    scaled times are exact rationals, so no float can overflow here."""
    den = 2 ** (l + 1)
    i, j = max(1, math.ceil(Fraction(birth) * den)), math.ceil(Fraction(death) * den)
    return (i, j) if i + 2 <= j <= l * den else None


def reference_histogram(diagram, q, l):
    """(key counts, overflow, infinite) of the degree-q pairs, binned one by
    one through ``bin_pair``."""
    counts, overflow, infinite = {}, 0, 0
    for b, dth in diagram.degree(q):
        if dth == INF:
            infinite += 1
        elif (key := bin_pair(l, b, dth)) is None:
            overflow += 1
        else:
            counts[key] = counts.get(key, 0) + 1
    return counts, overflow, infinite


def key_counts(counts):
    """The nonzero entries of a count table, by (i, j) in (i, j) order."""
    i, j = np.nonzero(counts)
    return dict(zip(zip(i.tolist(), j.tolist()), counts[i, j].tolist()))


def test_bin_pair_worked_example():
    assert bin_pair(2, 1.0, 2.0) == (8, 16)
    hist = histogram(diagram_of({0: [(1.0, 2.0)]}), 0, 2)
    assert key_counts(hist.counts) == {(8, 16): 1} and hist.overflow == 0
    s_lo, s_hi, t_lo, t_hi = rectangle_bounds(2, 8, 16)
    assert (s_lo, s_hi, t_lo, t_hi) == (7 / 8, 1.0, 15 / 8, 2.0)


def test_bin_pair_overflow_at_coarse_fineness():
    assert bin_pair(1, 1.0, 2.0) is None  # max covered coordinate is 1 < 2
    hist = histogram(diagram_of({0: [(1.0, 2.0)]}), 0, 1)
    assert not hist.counts.any() and hist.overflow == 1


def test_histogram_of_empty_diagram():
    hist = histogram(diagram_of({}), 0, 2)
    assert hist.counts.shape == (17, 17) and hist.counts.dtype == np.int64
    assert not hist.counts.any() and hist.overflow == 0 and hist.infinite == 0


def test_histogram_routes_infinite_and_overflow():
    diagram = diagram_of({0: [(0.0, INF), (1.0, 2.0), (0.05, 0.1)]})
    hist = histogram(diagram, 0, 2)
    assert hist.infinite == 1
    assert hist.counts[8, 16] == 1 and hist.counts.sum() == 1
    assert hist.overflow == 1  # (0.05, 0.1) has j = 1 < 3


def test_histogram_counts_pairs_beyond_the_float_range_as_overflow():
    """A finite pair whose scaled times would overflow the float range lies
    beyond every rectangle: it is overflow, with no warning."""
    diagram = diagram_of({0: [(1e300, 1.7e308)]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hist = histogram(diagram, 0, 2)
    assert not hist.counts.any() and (hist.overflow, hist.infinite) == (1, 0)


# times of every kind the binning meets: uniform, exact fineness-1..4
# boundaries and points between them (k/64), 0, and finite values so large
# that scaling them would overflow the float range
BIN_TIMES = st.one_of(
    st.floats(0.0, 5.0),
    st.integers(0, 5 * 64).map(lambda k: k / 64),
    st.just(0.0),
    st.floats(1e300, 1.7976931348623157e308),
)


@settings(max_examples=200, deadline=None)
@given(l=st.integers(1, 4),
       pairs=st.lists(st.tuples(BIN_TIMES, BIN_TIMES, st.booleans()), max_size=40))
def test_histogram_equals_the_per_pair_rule(l, pairs):
    diagram = diagram_of({0: [(min(a, b), INF if forever else max(a, b))
                              for a, b, forever in pairs]})
    hist = histogram(diagram, 0, l)
    size = l * 2 ** (l + 1) + 1
    assert hist.counts.shape == (size, size) and hist.counts.dtype == np.int64
    assert (key_counts(hist.counts), hist.overflow, hist.infinite) \
        == reference_histogram(diagram, 0, l)


def test_rectangles_are_disjoint_and_binning_is_membership():
    l = 2
    keys = rectangle_keys(l)
    rng = np.random.default_rng(3)
    # random pairs, then births and deaths on every fineness-2 boundary up to
    # 2.5 (exact in binary64), then births at 0
    dyadic = np.arange(21) / 8
    births = np.concatenate([rng.uniform(0, 2.5, 400), np.repeat(dyadic, 4), np.zeros(20)])
    deaths = births + np.concatenate([rng.uniform(1e-6, 2.5, 400),
                                      np.tile([1, 2, 3, 5], 21) / 8,
                                      rng.uniform(1e-6, 2.5, 20)])
    for b, dth in zip(births.tolist(), deaths.tolist()):
        containing = []
        for i, j in keys:
            s_lo, s_hi, t_lo, t_hi = rectangle_bounds(l, i, j)
            in_s = (s_lo <= b <= s_hi) if i == 1 else (s_lo < b <= s_hi)
            in_t = t_lo < dth <= t_hi
            if in_s and in_t:
                containing.append((i, j))
        assert len(containing) <= 1
        assert bin_pair(l, b, dth) == (containing[0] if containing else None)
        hist = histogram(diagram_of({0: [(b, dth)]}), 0, l)
        assert key_counts(hist.counts) == {key: 1 for key in containing}
        assert hist.overflow == 1 - len(containing)


def test_rectangle_keys_valid():
    for l in (1, 2):
        jmax = l * 2 ** (l + 1)
        for i, j in rectangle_keys(l):
            if i == 1:
                assert 3 <= j <= jmax
            else:
                assert 2 <= i and j - i >= 2 and j <= jmax


def test_dyadic_counts_are_projectively_consistent():
    """On the fineness-l keys, the fineness-l table is the 2x2 block sum of
    the fineness-(l+1) table: rectangle (i, j) is the union of its four
    children (2i-1 | 2i, 2j-1 | 2j), exactly.  This is the finite form of
    lifting rectangle counts across fineness."""
    rng = np.random.default_rng(20)

    def times(size):  # half uniform, half dyadic (0 and exact boundaries included)
        dyadic = rng.integers(0, 40, size) / 2.0 ** rng.integers(1, 6, size)
        return np.where(rng.random(size) < 0.5, dyadic, rng.uniform(0, 3, size))

    for _ in range(300):
        births = times(30)
        deaths = births + np.maximum(times(30), 2.0**-7)
        diagram = diagram_of({0: list(zip(births.tolist(), deaths.tolist()))})
        for l in (1, 2, 3):
            fine = histogram(diagram, 0, l + 1).counts[1:, 1:]
            half = len(fine) // 2
            # blocks[a, b] sums the four children of rectangle (a + 1, b + 1)
            blocks = fine.reshape(half, 2, half, 2).sum(axis=(1, 3))
            coarse = histogram(diagram, 0, l).counts
            i, j = np.array(rectangle_keys(l)).T
            assert np.array_equal(coarse[i, j], blocks[i - 1, j - 1])
            assert coarse.sum() == coarse[i, j].sum()  # zero off the keys


# --- piecewise-constant integral ---------------------------------------------------

def piecewise_constant_integral(diagram, q, f, l):
    """Integral of f against the degree-q diagram, twice: the fineness-l
    piecewise-constant approximation sum_I f(UR(I)) * count(I), read off the
    histogram table, and the exact sum of f over the finite pairs.

    f is a function of (birth, death) with compact support away from the
    diagonal; infinite-death pairs contribute to neither value.
    """
    den = 2 ** (l + 1)
    approx = sum(f(i / den, j / den) * c
                 for (i, j), c in key_counts(histogram(diagram, q, l).counts).items())
    exact = sum(f(b, dth) for b, dth in diagram.degree(q) if dth < INF)
    return approx, exact


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
    # loops are born at 0.2 and filled at 0.8, and components are born at 0
    # (in the i = 1 rectangles, closed at 0) and merged at 0.5, all but one:
    # one rectangle carries all mass, and its count passes the quadrant check
    for marks, q, pair, infinite in (((0.2, 0.2, 0.8), 1, (0.2, 0.8), 0.0),
                                     ((0.0, 0.5, 0.9), 0, (0.0, 0.5), 1.0)):
        model = ModelSpec("lower", 2, marks=point_masses(*marks))
        result = estimate_mean_diagram(model, q, n=2, trials=3, l=2, seed=5)
        key = bin_pair(2, *pair)
        assert key is not None
        assert np.argwhere(result.total.counts).tolist() == [list(key)]
        assert result.total.infinite / result.trials == infinite


def test_mean_diagram_sums_the_trials_histograms():
    # trial k of the estimate is trial k of the seed: the summed table is the
    # sum of those trials' histograms, and their quadrant masses at dyadic
    # corners are the persistent-Betti estimator's masses of the same seed
    l, n, trials, seed = 2, 2, 4, 6
    md = estimate_mean_diagram(LOWER2, 0, n, trials, l, seed)
    diagrams = [compute_diagram(sample(LOWER2, n, seed, trial)) for trial in range(trials)]
    hists = [histogram(diagram, 0, l) for diagram in diagrams]
    assert md.total.l == l
    assert np.array_equal(md.total.counts, sum(h.counts for h in hists))
    assert md.total.overflow == sum(h.overflow for h in hists)
    assert md.total.infinite == sum(h.infinite for h in hists)
    corners = [(0.0, 0.0), (0.0, 0.625), (0.75, 1.5), (2.0, 2.0)]
    pb = estimate_pb_density(LOWER2, 0, corners, n, trials, seed)
    s, t = np.array(corners).T
    assert np.array_equal([quadrant_mass(diagram, 0, s, t) for diagram in diagrams],
                          pb.masses)


def test_mean_diagram_tables_match_across_jobs():
    # each worker process builds the dyadic corner and key tables of l once
    # and keeps them read-only; a task carries l, not the tables
    runs = [estimate_mean_diagram(LOWER2, q, n=3, trials=4, l=3, seed=8, jobs=jobs)
            for q in (0, 1) for jobs in (1, 2)]
    for one, two in (runs[:2], runs[2:]):
        assert np.array_equal(one.total.counts, two.total.counts)
        assert (one.total.overflow, one.total.infinite) == \
            (two.total.overflow, two.total.infinite)
        assert one.total.counts.any()
    tables = limits._dyadic_tables(3)
    assert tables is limits._dyadic_tables(3)
    assert not any(table.flags.writeable for table in tables)


def test_mean_diagram_peak_memory_holds_one_table_per_trial():
    # each trial checks its counts against its own (L, L) quadrant table and
    # keeps only the nonzero entries of its histogram: about 2 MB here,
    # against 6 MB when every trial kept its whole (L, L) count table and
    # 24 MB for a (trials, L, L) table of every trial's quadrant masses
    tracemalloc.start()
    try:
        estimate_mean_diagram(LOWER2, 0, n=2, trials=32, l=4, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_mean_diagram_check_sees_pairs_lost_to_overflow(monkeypatch):
    # a binning fault that moves every pair of one rectangle into overflow
    # leaves that rectangle's count at 0; its quadrant sum still sees them,
    # first in the first trial with a pair there, for any number of workers
    real_histogram = limits.histogram
    first = next(trial for trial in range(16) if real_histogram(
        compute_diagram(sample(LOWER2, 8, 5, trial)), 0, 3).counts[3, 7])

    def lossy_histogram(diagram, q, l):
        hist = real_histogram(diagram, q, l)
        hist.overflow += int(hist.counts[3, 7])
        hist.counts[3, 7] = 0
        return hist

    monkeypatch.setattr(limits, "histogram", lossy_histogram)
    for jobs in (1, 2):
        with pytest.raises(AssertionError, match=rf"at trial {first}, "
                                                 r"rectangle \(3, 7\): count 0 vs"):
            estimate_mean_diagram(LOWER2, 0, n=8, trials=16, l=3, seed=5, jobs=jobs)


def test_mean_diagram_checks_degree_and_fineness_before_sampling(monkeypatch):
    def refuse(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(limits, "sample", refuse)
    with pytest.raises(ValueError, match="q=5 out of range for d=2"):
        estimate_mean_diagram(LOWER2, 5, n=2, trials=2, l=2, seed=0)
    with pytest.raises(ValueError, match="fineness l must be >= 1"):
        estimate_mean_diagram(LOWER2, 0, n=2, trials=2, l=0, seed=0)


# --- window ladder -------------------------------------------------------------------------

def test_window_ladder_deterministic_model_zero_std():
    model = ModelSpec("lower", 2, marks=point_masses(0.1, 0.5, 0.9))
    for n in (1, 2, 4):
        est = estimate_pb_density(model, 0, [(0.3, 0.3)], n, trials=3, seed=4)
        assert est.std[0] == 0.0


def test_window_ladder_vertex_density_drift_bound():
    # deterministic vertex-count density differs between n and 2n by <= 1/n
    model = ModelSpec("lower", 2, marks=point_masses(0.1, 0.5, 0.9))
    means = {n: estimate_pb_density(model, 0, [(0.3, 0.3)], n, trials=1, seed=4).mean[0]
             for n in (2, 4, 8)}
    for n in (2, 4):
        assert abs(means[n] - means[2 * n]) <= 1.0 / n
        assert means[n] == (2 * n + 1) ** 2 / (2 * n) ** 2


def test_ordered_map_starts_no_more_workers_than_tasks(monkeypatch):
    import multiprocessing

    started = []

    class SerialPool:  # records its size and maps in this process
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize=1):
            return (fn(t) for t in tasks)

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    assert limits.ordered_map(abs, [-1, -2], 64) == [1, 2]
    assert limits.ordered_map(abs, [-1, -2, -3], 2) == [1, 2, 3]
    assert limits.ordered_map(abs, [-1], 64) == [1]  # one task: no pool
    assert started == [2, 2]


def _fail_late_or_early(task):
    if task == 1:
        time.sleep(0.5)  # task 1 fails after task 3 has failed
    if task in (1, 3):
        raise ValueError(f"task {task} failed")
    return task


def test_ordered_map_raises_the_first_failing_task_in_task_order():
    for jobs in (1, 2):
        with pytest.raises(ValueError, match="^task 1 failed$"):
            limits.ordered_map(_fail_late_or_early, [0, 1, 2, 3], jobs)


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
    for axes, message in (([[]], "nonempty"),  # an empty or unsorted lambda axis
                          ([[0.0, 0.0]], "finite and strictly increasing")):
        with pytest.raises(ValueError, match=f"^lambda axis must be {message}$"):
            log_mgf(est, axes)
    no_pairs = limits.PBDensity(LOWER2, 0, (), 1, 2, 0, np.zeros((2, 0), dtype=np.int64))
    with pytest.raises(ValueError, match="^grid must be nonempty$"):
        log_mgf(no_pairs, [])


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


@pytest.mark.parametrize("h", [1, 2, 3])
def test_conjugate_equals_the_whole_product_bit_for_bit(h):
    # the conjugate is max(x @ lam.T - vals) over the whole (|x|, |lambda|)
    # product, bit for bit, also on an h = 3 lambda grid of 15^3 points,
    # where products made 256 x rows at a time differ in the last bit from
    # those of the whole product.  phi is the whole product's row of the
    # last x point, so all of that row ties at the maximum 0.0 and a
    # last-bit difference in any of its products shows.
    lam_axes = tuple([np.linspace(-10.0, 10.0, 21 if h < 3 else 15)] * h)
    lam = limits._grid_points(lam_axes)
    grids = [[np.linspace(-0.5, 0.6, count)] + [np.array([0.37])] * (h - 1)
             for count in (1, 2, 255, 256, 257)]
    grids.append([np.linspace(0.0, 0.6, {1: 1500, 2: 41, 3: 7}[h])] * h)
    for x_axes in grids:
        whole = limits._grid_points(x_axes) @ lam.T
        expect = np.max(whole - whole[-1], axis=1)
        got = legendre_transform(GridFunction(lam_axes, whole[-1]), x_axes).flat_values()
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_grid_axes_reject_non_finite_entries(bad):
    est = limits.PBDensity(LOWER2, 0, ((0.5, 0.5),), 1, 2, 0, np.array([[0], [1]]))
    with pytest.raises(ValueError, match="^lambda axis must be finite and strictly"):
        log_mgf(est, [[0.0, 1.0, bad]])
    phi = GridFunction((np.array([-1.0, 0.0, 1.0]),), np.zeros(3))
    with pytest.raises(ValueError, match="^x axis must be finite and strictly"):
        legendre_transform(phi, [[bad, 0.1]])
    with pytest.raises(ValueError, match="^grid axis must be finite and strictly"):
        GridFunction((np.array([0.0, bad]),), np.zeros(2))


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
    with pytest.raises(ValueError, match=r"^corner \(s, t\) = \(0\.6, 0\.4\) violates"):
        gap_reports(UPPER2, 0, [(0.3, 0.6), (0.6, 0.4)], 0, regular=((3, 7),))


def test_gap_task_masses_each_window_and_union_once(monkeypatch):
    calls = []
    real = limits._quadrant_masses

    def counted(filtration, *args):
        calls.append(filtration)
        return real(filtration, *args)

    monkeypatch.setattr(limits, "_quadrant_masses", counted)
    margins = verify._gap_one(("lower", verify.CORPUS_SEED + 6000))
    assert len(margins) == len(verify.GAP_NEAR) + len(verify.GAP_REGULAR) == 8
    big = sample(verify._uniform_model("lower", 2), 20, verify.CORPUS_SEED + 6000)
    # the near windows 9, 15, 12, 20, the regular windows 7, 9 and their
    # largest aligned sub-windows 3, 9, 4, 4; then one union per near spec
    windows = [restrict_box(big, Window(n, 2).box) for n in (20, 15, 12, 9, 7, 4, 3)]
    unions = [block_union(big, *spec) for spec in verify.GAP_NEAR]
    assert len(calls) == len(windows) + len(unions) == 11
    for expected in windows + unions:
        assert sum(f == expected for f in calls) == 1


# (model, corners s and t, block specs (k, r, m)): m = 0 and m >= 1 with
# r >= 1, as the spec check requires; ``ball_cover`` with r = 3, the
# smallest r that gives it independent blocks (at d = 3 only m = 0, as its
# m = 1 window is too large for a test)
UNION_CASES = [
    pytest.param(model, s, t, specs, id=f"{model.kind}-d{d}")
    for d in (2, 3)
    for model, s, t, specs in (
        (ModelSpec("lower", d, marks=(UNI,) * (d + 1)), (0.3, 0.5), (0.6, 0.8),
         ((2, 1, 1), (3, 0, 0))),
        (ModelSpec("upper", d, marks=(UNI,) * (d + 1)), (0.3, 0.5), (0.6, 0.8),
         ((2, 1, 1), (2, 1, 0))),
        (ModelSpec("perturbed_lattice", d, perturbation=LAW), (1.0, 0.9),
         (1.2, 1.1), ((2, 1, 1), (3, 2, 0))),
        (ModelSpec("ball_cover", d, perturbation=LAW, m_grid=3), (0.3, 0.4),
         (0.5, 0.6), ((4, 3, 1), (4, 3, 0)) if d == 2 else ((4, 3, 0),)),
    )
]


@pytest.mark.parametrize("model, s, t, specs", UNION_CASES)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_block_union_masses_are_the_sum_over_carved_blocks(model, s, t, specs, seed):
    big = sample(model, max((2 * m + 1) * k for k, _, m in specs), seed)
    s, t = np.array(s), np.array(t)
    for k, r, m in specs:
        union = block_union(big, k, r, m)
        blocks = [restrict_box(big, block_window(k, r, z))
                  for z in itertools.product(range(-m, m + 1), repeat=model.d)]
        # the union has as many born cubes as the blocks together
        assert (union.grid < INF).sum() == sum((b.grid < INF).sum() for b in blocks)
        for q in range(model.d):
            assert np.array_equal(
                limits._quadrant_masses(union, q, s, t),
                sum(limits._quadrant_masses(b, q, s, t) for b in blocks))


def test_block_union_records_the_window_it_carved():
    big = sample(LOWER2, 9, 23)
    for k, r, m in ((3, 1, 1), (4, 1, 0)):
        union = block_union(big, k, r, m)
        window = restrict_box(big, Window((2 * m + 1) * k, 2).box)
        assert union.meta == window.meta
        assert union.meta["n"] == (2 * m + 1) * k


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
    lines = buf.getvalue().splitlines()
    assert lines[0] == "l,i,j,count,normalized"
    # one row per occupied rectangle of the summed table, in (i, j) order
    counts = md.total.counts
    assert lines[1:] == [f"2,{i},{j},{float(c) / 2!r},{float(c) / 2 / md.volume!r}"
                         for (i, j), c in np.ndenumerate(counts) if c]


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


def _fmt_reference(x) -> str:
    """The per-value CSV rule the column-wise writer replaced."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _csv_reference(header, rows) -> str:
    return "".join(",".join(map(_fmt_reference, row)) + "\n" for row in [header, *rows])


def test_every_csv_writer_matches_the_per_value_rule():
    # each writer formats a column by one rule; its bytes are those of the
    # per-value rule over the rows the writers once built, also for signed
    # zero, the smallest subnormal, huge floats, a "-" column and bools
    pb = limits.PBDensity(LOWER2, 1, ((0.0, 5e-324), (-0.0, 1e300)), 3, 2, 0,
                          np.array([[0, 7], [2**40, 1]]))
    other = limits.PBDensity(UPPER2, 0, ((0.1, 0.2),), 2, 3, 0, np.array([[1], [0], [5]]))
    buf = io.StringIO()
    write_pb_csv(buf, pb, other)
    assert buf.getvalue() == _csv_reference(
        ["model", "q", "s", "t", "n", "trial", "value"],
        [(est.model.kind, est.q, s, t, est.n, trial, float(est.densities[trial, idx]))
         for est in (pb, other) for idx, (s, t) in enumerate(est.pairs)
         for trial in range(est.trials)])
    buf = io.StringIO()
    write_pb_csv(buf)
    assert buf.getvalue() == "model,q,s,t,n,trial,value\n"

    counts = np.zeros((17, 17), dtype=np.int64)
    counts[1, 3], counts[2, 16], counts[5, 9] = 3, 2**53, 1
    md = limits.MeanDiagram(LOWER2, 0, 3, 7, 0, limits.Histogram(2, counts, 4, 1))
    buf = io.StringIO()
    write_histogram_csv(buf, md)
    i, j = np.nonzero(counts)
    assert buf.getvalue() == _csv_reference(
        ["l", "i", "j", "count", "normalized"],
        [(2, a, b, c / 7, c / 7 / md.volume)
         for a, b, c in zip(i.tolist(), j.tolist(), counts[i, j].tolist())])

    axes = (np.array([-1e300, -0.0, 5e-324, 1.0]), np.array([-2.0, 0.5, 1e300]))
    values = np.resize([-0.0, 5e-324, 1e300, -1e-300, 0.1, 2.0], (4, 3))
    for meta, extra in (({"n": 4, "trials": 9}, (4, 9)), ({}, ("-", "-"))):
        g = GridFunction(axes, values, meta)
        rows = [(*pt, val) for pt, val in zip(g.points(), g.flat_values())]
        buf = io.StringIO()
        write_mgf_csv(buf, g)
        assert buf.getvalue() == _csv_reference(
            ["lambda_1", "lambda_2", "phi_hat", "n", "trials"],
            [(*row, *extra) for row in rows])
        buf = io.StringIO()
        write_rate_csv(buf, g)
        assert buf.getvalue() == _csv_reference(["x_1", "x_2", "phi_star"], rows)

    reports = [limits.GapReport("near_additivity", 2, 0, 1, 3, 1, 1, 9, 5, -0.0, 5e-324),
               limits.GapReport("regularity", 2, 1, 2, 2, 0, 0, 7, 5, 1e300, 1e300),
               limits.GapReport("regularity", 2, 1, 2, 2, 0, 1, 8, 5, 2.0, 0.1)]
    buf = io.StringIO()
    write_gap_csv(buf, reports)
    assert buf.getvalue() == _csv_reference(
        ["kind", "k", "r", "m", "n", "h", "measured", "bound", "pass"],
        [(g.kind, g.k, g.r, g.m, g.n, g.h, g.measured, g.bound, g.passed)
         for g in reports])
    assert buf.getvalue().splitlines()[1:] == [
        "near_additivity,3,1,1,9,1,-0.0,5e-324,true",
        "regularity,2,0,0,7,2,1e+300,1e+300,true",
        "regularity,2,0,1,8,2,2.0,0.1,false"]
    buf = io.StringIO()
    write_gap_csv(buf, [])
    assert buf.getvalue() == "kind,k,r,m,n,h,measured,bound,pass\n"


def test_out_of_range_degree_raises_not_passes():
    """A degree outside 0..d-1 raises on the diagram route, as on the rank
    route, instead of giving a zero gap or an empty histogram."""
    diagram = compute_diagram(sample(LOWER2, 2, 1))
    for q in (-1, 2, 7):
        with pytest.raises(ValueError, match=f"q={q} out of range for d=2"):
            histogram(diagram, q, 2)
    with pytest.raises(ValueError, match="q=7 out of range for d=2"):
        gap_reports(LOWER2, 7, [(0.3, 0.5)], 0, regular=((1, 3),))
    with pytest.raises(ValueError, match="q=-1 out of range for d=2"):
        gap_reports(LOWER2, -1, [(0.3, 0.5)], 0, near=((2, 1, 1),))
    with pytest.raises(ValueError, match="q=5 out of range for d=2"):
        estimate_mean_diagram(LOWER2, 5, 2, 2, 2, seed=0)
