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

A persistent Betti number beta_q^{s,t} reads only the cubes born by t, so
the persistent-Betti estimators and the gap diagnostics reduce each window
cut at T = the largest t they read (``models.truncate``); the cut diagram
has the same quadrant masses at every corner with t <= T.  The histogram
estimator never cuts: its overflow and infinite counts read the whole
diagram.  Nor does anything outside the estimators (``cli diagram``, the
k-triangle check, the rank route ``persistent_betti_direct``), so the two
diagram routes stay independent oracles of the full filtration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from multiprocessing import Pool

import numpy as np
from scipy.special import logsumexp

from .cubes import Window
from .models import ModelSpec, block_window, restrict_box, sample, truncate
from .persistence import (
    PersistenceDiagram,
    compute_diagram,
    quadrant_mass,
)

INF = math.inf


# ---------------------------------------------------------------------------
# dyadic histogram
# ---------------------------------------------------------------------------

@dataclass
class Histogram:
    """Counts of diagram points over the fineness-l dyadic rectangle family.

    Rectangles are keyed by (i, j): the birth interval is [0, 1/2^(l+1)]
    (closed) for i = 1 and ((i-1)/2^(l+1), i/2^(l+1)] for i >= 2; the death
    interval is ((j-1)/2^(l+1), j/2^(l+1)].  Valid keys have
    2 <= i <= j <= l*2^(l+1) with j - i >= 2, or i = 1 with 3 <= j.
    Pairs outside every rectangle land in ``overflow``; infinite-death pairs
    are never binned and land in ``infinite``.
    """

    l: int
    counts: dict[tuple[int, int], float] = field(default_factory=dict)
    overflow: float = 0.0
    infinite: float = 0.0


def rectangle_keys(l: int) -> list[tuple[int, int]]:
    """All rectangle keys of fineness l in deterministic (i, j) order."""
    jmax = l * 2 ** (l + 1)
    keys = [(1, j) for j in range(3, jmax + 1)]
    for i in range(2, jmax + 1):
        for j in range(i + 2, jmax + 1):
            keys.append((i, j))
    keys.sort()
    return keys


def rectangle_bounds(l: int, i: int, j: int) -> tuple[float, float, float, float]:
    """(s_lo, s_hi, t_lo, t_hi) of rectangle (i, j); the birth interval is
    closed at s_lo only when i = 1."""
    den = 2 ** (l + 1)
    s_lo = 0.0 if i == 1 else (i - 1) / den
    return s_lo, i / den, (j - 1) / den, j / den


def bin_pair(l: int, birth: float, death: float) -> tuple[int, int] | None:
    """Rectangle key containing a finite pair, or None (overflow)."""
    den = 2 ** (l + 1)
    jmax = l * den
    j = math.ceil(death * den)  # death in ((j-1)/den, j/den]
    if j > jmax:
        return None
    if birth <= 1.0 / den:
        return (1, j) if j >= 3 else None
    i = math.ceil(birth * den)
    if 2 <= i <= j <= jmax and j - i >= 2:
        return (i, j)
    return None


def histogram(diagram: PersistenceDiagram, q: int, l: int) -> Histogram:
    """Bin the degree-q pairs of a diagram at fineness l."""
    if l < 1:
        raise ValueError("fineness l must be >= 1")
    hist = Histogram(l)
    counts = hist.counts
    for b, dth in diagram.degree(q):
        if dth == INF:
            hist.infinite += 1
            continue
        key = bin_pair(l, b, dth)
        if key is None:
            hist.overflow += 1
        else:
            counts[key] = counts.get(key, 0) + 1
    return hist


def piecewise_constant_integral(
    diagram: PersistenceDiagram, q: int, f, l: int
) -> tuple[float, float]:
    """Integral of f against the degree-q diagram, twice: the fineness-l
    piecewise-constant approximation sum_I f(UR(I)) * count(I), and the exact
    sum of f over the finite pairs.

    f is a function of (birth, death) with compact support away from the
    diagonal; infinite-death pairs contribute to neither value.
    """
    hist = histogram(diagram, q, l)
    approx = sum(
        f(*rectangle_bounds(l, i, j)[1::2]) * c for (i, j), c in sorted(hist.counts.items())
    )
    exact = sum(f(b, dth) for b, dth in diagram.degree(q) if dth < INF)
    return approx, exact


# ---------------------------------------------------------------------------
# per-trial workers (top level for pickling)
# ---------------------------------------------------------------------------

def _pb_trial(args) -> np.ndarray:
    model, n, q, s, t, seed, trial = args
    filtration = truncate(sample(model, n, seed, trial), t.max(initial=0.0))
    return quadrant_mass(compute_diagram(filtration), q, s, t)


def _hist_trial(args):
    model, n, q, l, s, t, seed, trial = args
    diagram = compute_diagram(sample(model, n, seed, trial))
    hist = histogram(diagram, q, l)
    return hist.counts, hist.overflow, hist.infinite, quadrant_mass(diagram, q, s, t)


def ordered_map(fn, tasks, jobs: int) -> list:
    """``[fn(t) for t in tasks]``, spread over ``jobs`` worker processes when
    ``jobs`` > 1; the results keep the task order for any worker count."""
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with Pool(jobs) as pool:
        # tasks are coarse and uneven (window sizes differ a lot)
        return pool.map(fn, tasks, chunksize=1)


# ---------------------------------------------------------------------------
# LLN estimators
# ---------------------------------------------------------------------------

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
    (s, t) pair, normalized by window volume in the summary."""
    pairs = tuple((float(s), float(t)) for s, t in pairs)
    for s, t in pairs:
        if not 0 <= s <= t < INF:
            raise ValueError(f"invalid pair (s, t) = ({s}, {t})")
    if not 0 <= q < model.d:
        raise ValueError(f"q={q} out of range for d={model.d}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n < 1:
        raise ValueError("window radius must be >= 1 (volume normalization)")
    s, t = np.array(pairs).reshape(len(pairs), 2).T
    args = [(model, n, q, s, t, seed, trial) for trial in range(trials)]
    rows = ordered_map(_pb_trial, args, jobs)
    return PBDensity(model, q, pairs, n, trials, seed, np.array(rows, dtype=np.int64))


def dyadic_grid_pairs(l: int) -> tuple[tuple[float, float], ...]:
    """All (s, t) with s <= t on the fineness-l dyadic corner grid."""
    den = 2 ** (l + 1)
    values = [k / den for k in range(l * den + 1)]
    return tuple((s, t) for s in values for t in values if s <= t)


@dataclass
class MeanDiagram:
    """Trial-averaged histogram of the diagram plus the per-trial quadrant
    field on the dyadic corner grid (for cross-checks against the
    persistent-Betti estimator)."""

    model: ModelSpec
    q: int
    n: int
    trials: int
    l: int
    seed: int
    mean_counts: dict[tuple[int, int], float]
    mean_overflow: float
    mean_infinite: float
    grid_pairs: tuple[tuple[float, float], ...]
    quadrant_masses: np.ndarray  # (trials, len(grid_pairs)) raw integers

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
    """Average the fineness-l histogram over trials; the per-trial quadrant
    field on the dyadic grid is reported alongside, and every rectangle count
    is re-checked per trial against its alternating quadrant sum."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n < 1:
        raise ValueError("window radius must be >= 1 (volume normalization)")
    if not 0 <= q < model.d:
        raise ValueError(f"q={q} out of range for d={model.d}")
    if l < 1:
        raise ValueError("fineness l must be >= 1")
    grid_pairs = dyadic_grid_pairs(l)
    s, t = np.array(grid_pairs).T
    args = [(model, n, q, l, s, t, seed, trial) for trial in range(trials)]
    rows = ordered_map(_hist_trial, args, jobs)

    keys = rectangle_keys(l)
    key_index = {key: k for k, key in enumerate(keys)}
    hist_counts, overflows, infinites, mass_rows = zip(*rows)
    counts = np.zeros((trials, len(keys)), dtype=np.int64)
    for trial, trial_counts in enumerate(hist_counts):
        for key, c in trial_counts.items():
            counts[trial, key_index[key]] = c
    masses = np.array(mass_rows, dtype=np.int64)
    # inclusion-exclusion identity, exact per trial, for every rectangle
    # (zero counts included): count = m(s_hi, t_lo) - m(s_hi, t_hi)
    # + m(s_lo, t_hi) - m(s_lo, t_lo), the last two terms only when i > 1
    pair_index = {p: k for k, p in enumerate(grid_pairs)}
    corners = np.array([
        [pair_index[p] for p in ((s_hi, t_lo), (s_hi, t_hi), (s_lo, t_hi), (s_lo, t_lo))]
        for s_lo, s_hi, t_lo, t_hi in (rectangle_bounds(l, i, j) for i, j in keys)
    ])
    inner = np.array([i > 1 for i, _ in keys])
    m = masses[:, corners]  # (trials, keys, 4)
    expect = m[..., 0] - m[..., 1] + (m[..., 2] - m[..., 3]) * inner
    bad = np.argwhere(expect != counts)
    if len(bad):
        trial, k = bad[0]
        raise AssertionError(
            f"histogram/quadrant identity failed at trial {trial}, "
            f"rectangle {keys[k]}: count {counts[trial, k]} vs alternating sum "
            f"{expect[trial, k]}"
        )
    mean_counts = {key: c / trials
                   for key, c in zip(keys, counts.sum(axis=0).tolist()) if c}
    return MeanDiagram(model, q, n, trials, l, seed, mean_counts,
                       sum(overflows) / trials, sum(infinites) / trials,
                       grid_pairs, masses)


def lln_sweep(
    model: ModelSpec,
    q: int,
    pairs,
    n_list,
    trials: int = 1,
    seed: int = 0,
    jobs: int = 1,
) -> list[dict]:
    """Convergence table across a window ladder: per (n, pair) the mean and
    sample standard deviation of the volume-scaled quadrant mass."""
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    rows = []
    for n in n_list:
        est = estimate_pb_density(model, q, pairs, n, trials, seed, jobs)
        for idx, (s, t) in enumerate(est.pairs):
            rows.append({
                "n": n,
                "s": s,
                "t": t,
                "mean": float(est.mean[idx]),
                "std": float(est.std[idx]),
            })
    return rows


# ---------------------------------------------------------------------------
# LDP estimators: empirical log-MGF and its convex conjugate
# ---------------------------------------------------------------------------

@dataclass
class GridFunction:
    """Values of a function on a finite axis-aligned grid in R^h."""

    axes: tuple[np.ndarray, ...]
    values: np.ndarray  # shape = tuple(len(a) for a in axes)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.axes = tuple(np.asarray(a, dtype=np.float64) for a in self.axes)
        if not self.axes or any(len(a) == 0 for a in self.axes):
            raise ValueError("grid must be nonempty")
        for a in self.axes:
            if np.any(np.diff(a) <= 0):
                raise ValueError("grid axes must be strictly increasing")
        self.values = np.asarray(self.values, dtype=np.float64).reshape(
            tuple(len(a) for a in self.axes)
        )

    @property
    def h(self) -> int:
        return len(self.axes)

    def points(self) -> np.ndarray:
        """(P, h) array of grid points in row-major order."""
        grids = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=-1)

    def flat_values(self) -> np.ndarray:
        return self.values.reshape(-1)


def log_mgf(pb: PBDensity, lambda_axes) -> GridFunction:
    """Empirical volume-scaled log-moment-generating function of the
    persistent-Betti tuple on a lambda grid, from the trials of ``pb``.

    One common set of trials serves every lambda, which makes the estimate
    exactly convex (up to float error) and ties its value at 0 to exactly 0;
    each value is a stable log-sum-exp, so overflow cannot occur.
    """
    if pb.trials < 2:
        raise ValueError("log-MGF estimation needs trials >= 2")
    axes = tuple(np.asarray(a, dtype=np.float64) for a in lambda_axes)
    if len(axes) != len(pb.pairs):
        raise ValueError("need one lambda axis per (s, t) pair")
    betas = pb.masses.astype(np.float64)  # (T, h)
    grid = GridFunction(axes, np.zeros(tuple(len(a) for a in axes)))
    lam = grid.points()  # (P, h)
    dots = betas @ lam.T  # (T, P)
    phi = (logsumexp(dots, axis=0) - math.log(pb.trials)) / pb.volume
    meta = {"model": pb.model.kind, "n": pb.n, "trials": pb.trials,
            "seed": pb.seed, "q": pb.q, "pairs": pb.pairs, "kind": "log_mgf"}
    return GridFunction(axes, phi.reshape(grid.values.shape), meta)


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
    construction.
    """
    x_axes = tuple(np.asarray(a, dtype=np.float64) for a in x_axes)
    if len(x_axes) != phi.h:
        raise ValueError("x grid dimension must match the lambda grid")
    lam = phi.points()  # (P, h)
    vals = phi.flat_values()  # (P,)
    out = GridFunction(x_axes, np.zeros(tuple(len(a) for a in x_axes)))
    x = out.points()  # (Q, h)
    conj = np.max(x @ lam.T - vals[None, :], axis=1)
    meta = dict(phi.meta)
    meta["kind"] = "rate_function"
    return GridFunction(x_axes, conj.reshape(out.values.shape), meta)


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
    sampled once and cut at the largest t; every window and block is carved
    from it (carving equals sampling), and each distinct box is reduced once.
    """
    s, t = np.array(pairs, dtype=np.float64).reshape(len(pairs), 2).T
    if not 0 <= q < model.d:
        raise ValueError(f"q={q} out of range for d={model.d}")
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
    big = truncate(sample(model, max(radii), seed), t.max(initial=0.0))
    masses: dict = {}

    def mass(box) -> np.ndarray:
        if box not in masses:
            diagram = compute_diagram(restrict_box(big, box))
            masses[box] = quadrant_mass(diagram, q, s, t)
        return masses[box]

    d, h = model.d, len(pairs)
    reports = []
    for k, r, m in near:
        big_n = (2 * m + 1) * k
        window = Window(big_n, d)
        s_blocks = sum(mass(block_window(k, r, z))
                       for z in itertools.product(range(-m, m + 1), repeat=d))
        measured = float(np.linalg.norm(mass(window.box) - s_blocks)) / window.volume
        bound = 3 ** d * math.sqrt(h) * (1.0 - (1.0 - r / k) ** d)
        reports.append(GapReport("near_additivity", d, q, h, k, r, m, big_n,
                                 seed, measured, bound))
    for k, n in regular:
        m_n = (n - k) // (2 * k)  # unique m with (2m+1)k <= n < (2m+3)k
        sub_n = (2 * m_n + 1) * k
        window = Window(n, d)
        gap = mass(window.box) - mass(Window(sub_n, d).box)
        measured = float(np.linalg.norm(gap)) / window.volume
        bound = 3 ** d * math.sqrt(h) * (1.0 - (sub_n / n) ** d)
        reports.append(GapReport("regularity", d, q, h, k, 0, m_n, n,
                                 seed, measured, bound))
    return reports


# ---------------------------------------------------------------------------
# CSV output (headers mandatory, deterministic row order, repr floats)
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(fp, header: list[str], rows) -> None:
    fp.write(",".join(header) + "\n")
    for row in rows:
        fp.write(",".join(_fmt(v) for v in row) + "\n")


def write_pb_csv(fp, *estimates: PBDensity) -> None:
    """One header, then every estimate's rows in the order given."""
    header = ["model", "q", "s", "t", "n", "trial", "value"]
    rows = [
        (est.model.kind, est.q, s, t, est.n, trial, float(est.densities[trial, idx]))
        for est in estimates
        for idx, (s, t) in enumerate(est.pairs)
        for trial in range(est.trials)
    ]
    _write_csv(fp, header, rows)


def write_histogram_csv(fp, result: MeanDiagram) -> None:
    header = ["l", "i", "j", "count", "normalized"]
    vol = result.volume
    rows = [
        (result.l, i, j, c, c / vol)
        for (i, j), c in sorted(result.mean_counts.items())
    ]
    _write_csv(fp, header, rows)


def write_mgf_csv(fp, phi: GridFunction) -> None:
    header = [f"lambda_{i + 1}" for i in range(phi.h)] + ["phi_hat", "n", "trials"]
    n = phi.meta.get("n", "-")
    trials = phi.meta.get("trials", "-")
    rows = [
        tuple(pt) + (val, n, trials)
        for pt, val in zip(phi.points(), phi.flat_values())
    ]
    _write_csv(fp, header, rows)


def write_rate_csv(fp, rate: GridFunction) -> None:
    header = [f"x_{i + 1}" for i in range(rate.h)] + ["phi_star"]
    rows = [
        tuple(pt) + (val,)
        for pt, val in zip(rate.points(), rate.flat_values())
    ]
    _write_csv(fp, header, rows)


def write_gap_csv(fp, reports: list[GapReport]) -> None:
    header = ["kind", "k", "r", "m", "n", "h", "measured", "bound", "pass"]
    rows = [
        (g.kind, g.k, g.r, g.m, g.n, g.h, g.measured, g.bound, g.passed)
        for g in reports
    ]
    _write_csv(fp, header, rows)
