"""Monte Carlo estimation of volume-scaled limit objects and exact gap
diagnostics.

Estimators draw independent trials of a model, compute persistent-Betti
tuples or diagram histograms per trial, and report volume-normalized
summaries.  All estimators are deterministic given (model, n, seed): trials
are keyed by index through the counter-based streams and reduced by an
ordered fold, so results are byte-identical regardless of worker count.

The gap diagnostics measure, on shared realizations, how far a big-window
statistic is from the sum over its independent translated blocks (near
additivity) and from its largest aligned sub-window (regularity), and compare
each sample against the corresponding deterministic bound
3^d sqrt(h) (1 - (1 - r/k)^d)  resp.  3^d sqrt(h) (1 - ((2m+1)k/n)^d).
A single measured > bound sample is a build-failing bug, not noise.

The persistent-Betti estimators and the gap diagnostics read their
quadrant masses through ``_quadrant_masses``.  In degree 0 it counts the
components of X_t that meet X_s (``persistence.persistent_betti_0``), with
no reduction.  In degree q >= 1 it reduces the window cut at T = the
largest t read (``models.truncate``): beta_q^{s,t} reads only the cubes
born by t, so the cut diagram has the same quadrant masses at every corner
with t <= T.  The histogram estimator neither cuts nor labels: its overflow
and infinite counts read the whole diagram.  Nothing outside the estimators
cuts (``cli diagram``, the k-triangle check, the rank route
``persistent_betti_direct``), so the two diagram routes stay independent
oracles of the full filtration, and the k-triangle check compares the
component route with both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .cubes import Window
from .models import ModelSpec, block_union, restrict_box, sample, truncate
from .persistence import (
    Filtration,
    PersistenceDiagram,
    _check_degree,
    _pb_corners,
    compute_diagram,
    persistent_betti_0,
    quadrant_mass,
)

INF = math.inf


# ---------------------------------------------------------------------------
# dyadic histogram
# ---------------------------------------------------------------------------

@dataclass
class Histogram:
    """Counts of diagram points over the fineness-l dyadic rectangle family.

    With den = 2^(l+1), the keys are the (i, j) with 1 <= i and
    i + 2 <= j <= l*den; rectangle (i, j) is the birth interval
    ((i-1)/den, i/den], closed at 0 for i = 1, times the death interval
    ((j-1)/den, j/den].  ``counts`` is one int64 table of shape
    (l*den + 1, l*den + 1): rectangle (i, j) holds ``counts[i, j]`` pairs,
    and the table is zero off the keys.  Finite pairs outside every
    rectangle are counted in ``overflow``, infinite-death pairs in
    ``infinite``.
    """

    l: int
    counts: np.ndarray
    overflow: int
    infinite: int


def rectangle_keys(l: int) -> list[tuple[int, int]]:
    """All rectangle keys of fineness l in (i, j) order."""
    jmax = l * 2 ** (l + 1)
    return [(i, j) for i in range(1, jmax - 1) for j in range(i + 2, jmax + 1)]


def rectangle_bounds(l: int, i: int, j: int) -> tuple[float, float, float, float]:
    """(s_lo, s_hi, t_lo, t_hi) of rectangle (i, j); the birth interval is
    closed at s_lo only when i = 1 (s_lo = 0)."""
    den = 2 ** (l + 1)
    return (i - 1) / den, i / den, (j - 1) / den, j / den


def _check_fineness(l: int) -> None:
    """The one check of a histogram fineness."""
    if l < 1:
        raise ValueError("fineness l must be >= 1")


def histogram(diagram: PersistenceDiagram, q: int, l: int) -> Histogram:
    """Bin the degree-q pairs of a diagram at fineness l, all at once: (b, d)
    lies in rectangle (i, j) = (max(1, ceil(b*den)), ceil(d*den)) iff
    i + 2 <= j <= l*den.  Only pairs with d <= l (exactly j <= l*den, as den
    is a power of two) are scaled, so each scaled time (b <= d) is exact."""
    _check_fineness(l)
    den = 2 ** (l + 1)
    size = l * den + 1
    pairs = np.array(diagram.degree(q), dtype=np.float64).reshape(-1, 2)
    i, j = np.ceil(pairs[pairs[:, 1] <= l] * den).astype(np.int64).T
    i = np.maximum(i, 1)
    key = i + 2 <= j
    counts = np.bincount(i[key] * size + j[key], minlength=size * size)
    infinite = int(np.count_nonzero(pairs[:, 1] == INF))
    return Histogram(l, counts.reshape(size, size).astype(np.int64),
                     len(pairs) - infinite - int(np.count_nonzero(key)), infinite)


# ---------------------------------------------------------------------------
# per-trial workers (top level for pickling)
# ---------------------------------------------------------------------------

def _quadrant_masses(filtration: Filtration, q: int, s: np.ndarray,
                     t: np.ndarray) -> np.ndarray:
    """beta_q^{s,t} of a filtration at the corner arrays (s, t): components
    of X_t meeting X_s for q = 0, else the quadrant masses of the diagram of
    the filtration cut at the largest t."""
    if q == 0:
        return persistent_betti_0(filtration, s, t)
    diagram = compute_diagram(truncate(filtration, t.max(initial=0.0)))
    return quadrant_mass(diagram, q, s, t)


def _pb_trial(args) -> np.ndarray:
    model, n, q, s, t, seed, trial = args
    return _quadrant_masses(sample(model, n, seed, trial), q, s, t)


@lru_cache(maxsize=8)
def _dyadic_tables(l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The dyadic corners (s_k, t_k), s_k <= t_k, in (s, t) order, and the
    rectangle keys (i, j) of fineness l, as read-only arrays built once per
    process, so a trial's task carries only l."""
    tables = (*np.triu_indices(l * 2 ** (l + 1) + 1), *np.array(rectangle_keys(l)).T)
    for table in tables:
        table.flags.writeable = False
    return tables


def _hist_trial(args) -> tuple[np.ndarray, np.ndarray, int, int]:
    """One trial's histogram as the flat indices and counts of the nonzero
    entries of its count table, then its overflow and infinite counts.  Each
    rectangle count is checked (zero counts included) against the
    alternating sum of its four corner quadrant masses
    m(s_hi, t_lo) - m(s_hi, t_hi) + m(s_lo, t_hi) - m(s_lo, t_lo), the last
    two only if i > 1; (s_k, t_k) are the dyadic corners and (i, j) the keys."""
    model, n, q, l, seed, trial = args
    s_k, t_k, i, j = _dyadic_tables(l)
    diagram = compute_diagram(sample(model, n, seed, trial))
    hist = histogram(diagram, q, l)
    den = 2 ** (l + 1)
    m = np.zeros_like(hist.counts)  # m[a, b] = quadrant mass at (a/den, b/den)
    m[s_k, t_k] = quadrant_mass(diagram, q, s_k / den, t_k / den)
    counts = hist.counts[i, j]
    expect = m[i, j - 1] - m[i, j] + (m[i - 1, j] - m[i - 1, j - 1]) * (i > 1)
    bad = np.flatnonzero(expect != counts)
    if len(bad):
        k = bad[0]
        raise AssertionError(f"histogram/quadrant identity failed at trial {trial}, "
                             f"rectangle ({i[k]}, {j[k]}): count {counts[k]} vs "
                             f"alternating sum {expect[k]}")
    flat = np.flatnonzero(hist.counts)
    return flat, hist.counts.flat[flat], hist.overflow, hist.infinite


def _import_scipy() -> None:
    """Import the scipy modules the library imports inside functions, bar
    the ball_cover-only scipy.spatial: before forking, so the workers
    inherit them, and before a timed run, so no step is charged for them.
    tests/test_imports.py keeps this list equal to those."""
    import scipy.ndimage, scipy.sparse, scipy.special  # noqa: E401, F401


def ordered_map(fn, tasks, jobs: int) -> list:
    """``[fn(t) for t in tasks]``, spread over ``min(jobs, len(tasks))``
    worker processes when that is > 1; the results keep the task order for
    any worker count, and so does the error raised: that of the first failing
    task in task order."""
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        return [fn(t) for t in tasks]
    from multiprocessing import Pool

    _import_scipy()
    with Pool(jobs) as pool:
        # one task per chunk, as tasks are coarse and uneven (window sizes
        # differ a lot); imap yields, and raises, in task order, where map
        # would raise the first failure to finish
        return list(pool.imap(fn, tasks, chunksize=1))


# ---------------------------------------------------------------------------
# LLN estimators
# ---------------------------------------------------------------------------

def _check_estimator_args(model: ModelSpec, q: int, n: int, trials: int) -> None:
    """The degree, window radius and trial count of an estimator call."""
    _check_degree(q, model.d)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n < 1:
        raise ValueError("window radius must be >= 1 (volume normalization)")


@dataclass
class PBDensity:
    """Per-trial persistent-Betti quadrant masses and their volume-scaled
    summary statistics."""

    model: ModelSpec
    q: int
    pairs: tuple[tuple[float, float], ...]
    n: int
    trials: int
    seed: int
    masses: np.ndarray  # (trials, h) raw integer quadrant masses

    @property
    def volume(self) -> float:
        return Window(self.n, self.model.d).volume

    @property
    def densities(self) -> np.ndarray:
        return self.masses / self.volume

    @property
    def mean(self) -> np.ndarray:
        return self.densities.mean(axis=0)

    @property
    def std(self) -> np.ndarray:
        if self.trials < 2:
            return np.zeros(len(self.pairs))
        return self.densities.std(axis=0, ddof=1)


def estimate_pb_density(
    model: ModelSpec,
    q: int,
    pairs,
    n: int,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> PBDensity:
    """Sample `trials` filtrations and record the quadrant masses at each
    (s, t) pair, normalized by window volume in the summary.  The radii of
    one seed are nested windows of one realization (the streams are keyed
    by global cell coordinates), so estimates at several radii are
    correlated, which a fit across radii gains from."""
    pairs = tuple((float(s), float(t)) for s, t in pairs)
    s, t = _pb_corners(*np.array(pairs).reshape(len(pairs), 2).T)
    _check_estimator_args(model, q, n, trials)
    args = [(model, n, q, s, t, seed, trial) for trial in range(trials)]
    rows = ordered_map(_pb_trial, args, jobs)
    return PBDensity(model, q, pairs, n, trials, seed, np.array(rows, dtype=np.int64))


@dataclass
class MeanDiagram:
    """The fineness-l histogram of the diagram summed over trials: ``total``
    holds the sum of the trials' count tables, overflow and infinite counts,
    so a mean is a total over ``trials``."""

    model: ModelSpec
    q: int
    n: int
    trials: int
    seed: int
    total: Histogram

    @property
    def volume(self) -> float:
        return Window(self.n, self.model.d).volume


def estimate_mean_diagram(
    model: ModelSpec,
    q: int,
    n: int,
    trials: int,
    l: int,
    seed: int,
    jobs: int = 1,
) -> MeanDiagram:
    """Sum the fineness-l histogram over trials.  Each trial checks every
    rectangle count against its alternating quadrant sum (``_hist_trial``),
    so the first failing (trial, rectangle) is the same for any ``jobs``.
    A trial returns only the nonzero entries of its count table, at most one
    per pair, and one ``np.bincount`` of them builds the summed table."""
    _check_estimator_args(model, q, n, trials)
    _check_fineness(l)
    args = [(model, n, q, l, seed, trial) for trial in range(trials)]
    flats, counts, overflow, infinite = zip(*ordered_map(_hist_trial, args, jobs))
    size = l * 2 ** (l + 1) + 1
    table = np.bincount(np.repeat(np.concatenate(flats), np.concatenate(counts)),
                        minlength=size * size)
    total = Histogram(l, table.reshape(size, size), sum(overflow), sum(infinite))
    return MeanDiagram(model, q, n, trials, seed, total)


# ---------------------------------------------------------------------------
# LDP estimators: empirical log-MGF and its convex conjugate
# ---------------------------------------------------------------------------

def _grid_points(axes) -> np.ndarray:
    """(P, h) array of the points of the grid with these axes, in row-major
    order; with no axes, the one empty point."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1) if grids else np.empty((1, 0))


def _check_axis(axis, name: str) -> np.ndarray:
    """The one check of a lambda or x grid axis: a 1-D float array, nonempty,
    finite and strictly increasing."""
    axis = np.asarray(axis, dtype=np.float64)
    if axis.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if axis.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(axis)) or np.any(np.diff(axis) <= 0):
        raise ValueError(f"{name} must be finite and strictly increasing")
    return axis


@dataclass
class GridFunction:
    """Values of a function on a finite axis-aligned grid in R^h."""

    axes: tuple[np.ndarray, ...]
    values: np.ndarray  # shape = tuple(len(a) for a in axes)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.axes = tuple(_check_axis(a, "grid axis") for a in self.axes)
        if not self.axes:
            raise ValueError("grid must be nonempty")
        self.values = np.asarray(self.values, dtype=np.float64).reshape(
            tuple(len(a) for a in self.axes)
        )

    @property
    def h(self) -> int:
        return len(self.axes)

    def points(self) -> np.ndarray:
        return _grid_points(self.axes)

    def flat_values(self) -> np.ndarray:
        return self.values.reshape(-1)


def log_mgf(pb: PBDensity, lambda_axes) -> GridFunction:
    """Empirical volume-scaled log-moment-generating function of the
    persistent-Betti tuple on a lambda grid, from the trials of ``pb``.

    One common set of trials serves every lambda, which makes the estimate
    exactly convex (up to float error) and ties its value at 0 to exactly 0;
    each value is a stable log-sum-exp (``scipy.special.logsumexp``, imported
    on the first call, not with this module), so overflow cannot occur.
    """
    from scipy.special import logsumexp

    if pb.trials < 2:
        raise ValueError("log-MGF estimation needs trials >= 2")
    axes = tuple(_check_axis(a, "lambda axis") for a in lambda_axes)
    if len(axes) != len(pb.pairs):
        raise ValueError("need one lambda axis per (s, t) pair")
    betas = pb.masses.astype(np.float64)  # (T, h)
    lam = _grid_points(axes)  # (P, h)
    dots = betas @ lam.T  # (T, P)
    phi = (logsumexp(dots, axis=0) - math.log(pb.trials)) / pb.volume
    meta = {"model": pb.model.kind, "n": pb.n, "trials": pb.trials,
            "seed": pb.seed, "q": pb.q, "pairs": pb.pairs, "kind": "log_mgf"}
    return GridFunction(axes, phi, meta)


def estimate_log_mgf(
    model: ModelSpec,
    q: int,
    pairs,
    lambda_axes,
    n: int,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> GridFunction:
    """``log_mgf`` of a fresh ``estimate_pb_density`` pass."""
    return log_mgf(estimate_pb_density(model, q, pairs, n, trials, seed, jobs),
                   lambda_axes)


def legendre_transform(phi: GridFunction, x_axes) -> GridFunction:
    """Convex conjugate of a grid function: for each x, the maximum of
    <lambda, x> - phi(lambda) over the lambda grid.

    A grid supremum is a pointwise lower bound of the true conjugate; when
    the lambda grid contains 0 and phi(0) = 0, the output is nonnegative by
    construction.  The products x . lambda are made in one (|x grid|,
    |lambda grid|) array and the values subtracted in place, so no second
    array of that size is made.
    """
    x_axes = tuple(_check_axis(a, "x axis") for a in x_axes)
    if len(x_axes) != phi.h:
        raise ValueError("x grid dimension must match the lambda grid")
    lam = phi.points()  # (P, h)
    vals = phi.flat_values()  # (P,)
    x = _grid_points(x_axes)  # (Q, h)
    prod = x @ lam.T
    prod -= vals
    conj = prod.max(axis=1)
    meta = dict(phi.meta)
    meta["kind"] = "rate_function"
    return GridFunction(x_axes, conj, meta)


# ---------------------------------------------------------------------------
# gap diagnostics
# ---------------------------------------------------------------------------

@dataclass
class GapReport:
    """One sample of a closed-form gap inequality."""

    kind: str  # "near_additivity" or "regularity"
    d: int
    q: int
    h: int
    k: int
    r: int
    m: int
    n: int  # big-window radius
    seed: int
    measured: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.bound


def gap_reports(
    model: ModelSpec,
    q: int,
    pairs,
    seed: int,
    near=(),
    regular=(),
) -> list[GapReport]:
    """The gap samples of one realization (trial 0 of ``seed``), h = len(pairs):

    - per (k, r, m) in ``near``, near additivity: the norm of the statistic
      on the big window [-(2m+1)k, (2m+1)k]^d minus the sum over its
      (2m+1)^d translated blocks, per unit volume, against the bound
      3^d sqrt(h) (1 - (1 - r/k)^d);
    - then per (k, n) in ``regular``, regularity: the norm of the window-n
      statistic minus that of its largest aligned sub-window of radius
      (2m+1)k <= n, per unit volume, against the bound
      3^d sqrt(h) (1 - ((2m+1)k/n)^d).

    Every spec is checked before any sampling.  The largest window is
    sampled once and every window is carved from it (carving equals
    sampling); each distinct window's masses are computed once.  The sum
    over a spec's blocks is read from one filtration, the big window with
    every cube outside the union of the blocks never born
    (``models.block_union``).  For m >= 1 the spec check gives 2r > R >= 0,
    so r >= 1 and two closed blocks lie 2r >= 2 apart: no cube of one is a
    face of a cube of another, the union is their disjoint union, and its
    homology is the direct sum at every level, so every beta_q^{s,t} of it
    is the sum over the blocks.  For m = 0 there is one block.
    """
    s, t = _pb_corners(*np.array(pairs, dtype=np.float64).reshape(len(pairs), 2).T)
    _check_degree(q, model.d)
    for k, r, m in near:
        if k <= r or r < 0:
            raise ValueError("block construction requires 0 <= r < k")
        if m < 0:
            raise ValueError("m must be nonnegative")
        if m >= 1 and 2 * r <= model.dependence_range:
            # with a single block (m = 0) no independence between blocks is used
            raise ValueError(
                f"blocks not independent: 2r = {2 * r} <= R = {model.dependence_range}"
            )
    for k, n in regular:
        if not 1 <= k <= n:
            raise ValueError("regularity requires 1 <= k <= n")
    radii = [(2 * m + 1) * k for k, _, m in near] + [n for _, n in regular]
    if not radii:
        return []
    big = sample(model, max(radii), seed)
    d, h = model.d, len(pairs)
    masses: dict[int, np.ndarray] = {}  # per window radius

    def mass(n: int) -> np.ndarray:
        if n not in masses:
            masses[n] = _quadrant_masses(restrict_box(big, Window(n, d).box), q, s, t)
        return masses[n]

    reports = []
    for k, r, m in near:
        big_n = (2 * m + 1) * k
        window = Window(big_n, d)
        s_blocks = _quadrant_masses(block_union(big, k, r, m), q, s, t)
        measured = float(np.linalg.norm(mass(big_n) - s_blocks)) / window.volume
        bound = 3 ** d * math.sqrt(h) * (1.0 - (1.0 - r / k) ** d)
        reports.append(GapReport("near_additivity", d, q, h, k, r, m, big_n,
                                 seed, measured, bound))
    for k, n in regular:
        m_n = (n - k) // (2 * k)  # unique m with (2m+1)k <= n < (2m+3)k
        sub_n = (2 * m_n + 1) * k
        window = Window(n, d)
        gap = mass(n) - mass(sub_n)
        measured = float(np.linalg.norm(gap)) / window.volume
        bound = 3 ** d * math.sqrt(h) * (1.0 - (sub_n / n) ** d)
        reports.append(GapReport("regularity", d, q, h, k, 0, m_n, n,
                                 seed, measured, bound))
    return reports


# ---------------------------------------------------------------------------
# CSV output (headers mandatory, deterministic row order, repr floats)
# ---------------------------------------------------------------------------

def _texts(column) -> list[str]:
    """The CSV texts of one column, by one rule per column: ``true``/``false``
    for bools, ``str`` for ints, ``repr`` for floats, ``str`` otherwise."""
    column = np.asarray(column)
    kind, values = column.dtype.kind, column.tolist()
    if kind == "b":
        return ["true" if v else "false" for v in values]
    return list(map(repr if kind == "f" else str, values))


def _write_csv(fp, header: list[str], columns) -> None:
    """The header, then one row per entry of the equal-length columns."""
    fp.write(",".join(header) + "\n")
    fp.writelines(",".join(row) + "\n" for row in zip(*map(_texts, columns)))


def write_pb_csv(fp, *estimates: PBDensity) -> None:
    """One header, then every estimate's rows in the order given."""
    header = ["model", "q", "s", "t", "n", "trial", "value"]
    rows = [
        (est.model.kind, est.q, s, t, est.n, trial, float(est.densities[trial, idx]))
        for est in estimates
        for idx, (s, t) in enumerate(est.pairs)
        for trial in range(est.trials)
    ]
    _write_csv(fp, header, zip(*rows))


def write_histogram_csv(fp, result: MeanDiagram) -> None:
    header = ["l", "i", "j", "count", "normalized"]
    counts, trials, vol = result.total.counts, result.trials, result.volume
    i, j = np.nonzero(counts)  # row-major, so in (i, j) order
    mean = counts[i, j] / trials
    _write_csv(fp, header, [np.full(len(i), result.total.l), i, j, mean, mean / vol])


def _write_grid_csv(fp, g: GridFunction, axis_prefix: str, value_name: str,
                    **extra) -> None:
    """One row per grid point, in row-major order: its coordinates
    ``<axis_prefix>_1, ...``, its value, then the constant ``extra`` columns."""
    header = [f"{axis_prefix}_{i + 1}" for i in range(g.h)] + [value_name, *extra]
    values = g.flat_values()
    _write_csv(fp, header, [*g.points().T, values,
                            *(np.full(len(values), v) for v in extra.values())])


def write_mgf_csv(fp, phi: GridFunction) -> None:
    _write_grid_csv(fp, phi, "lambda", "phi_hat", n=phi.meta.get("n", "-"),
                    trials=phi.meta.get("trials", "-"))


def write_rate_csv(fp, rate: GridFunction) -> None:
    _write_grid_csv(fp, rate, "x", "phi_star")


def write_gap_csv(fp, reports: list[GapReport]) -> None:
    header = ["kind", "k", "r", "m", "n", "h", "measured", "bound", "pass"]
    rows = [
        (g.kind, g.k, g.r, g.m, g.n, g.h, g.measured, g.bound, g.passed)
        for g in reports
    ]
    _write_csv(fp, header, zip(*rows))
