"""Correctness checks for the benchmark's outputs.

Each checker returns a list of error strings (empty when the output is
right).  The checks recompute what they compare against from first
principles or from required properties, never from stored outputs:

* window pipeline: closed-form cube counts, the contractible full window,
  the Euler-Poincare identity at several levels, model support bounds on
  births, and byte-identical dump and diagram text;
* estimate outputs: volume-scaled masses are integers equal to the rank
  route's persistent Betti numbers, and the log-MGF / rate function obey
  phi(0) = 0, midpoint convexity, Jensen's bound and the grid conjugate.

They run outside the timed region.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict

import numpy as np

# tolerance of the float identities below; the same 1e-9 the library's own
# convexity check uses
TOL = 1e-9
INF = math.inf


def euler_levels(births) -> list[float]:
    """Levels at which the Euler-Poincare identity is checked: the 10%, 50%
    and 90% birth quantiles and the last birth."""
    values = sorted(births)
    return [values[int(f * (len(values) - 1))] for f in (0.1, 0.5, 0.9, 1.0)]


def support_bounds(kind: str, dim: int, d: int, eps: float) -> tuple[float, float]:
    """Closed interval every birth of a dim-cube must lie in.

    lower/upper: marks are uniform on [0, 1).  perturbed_lattice with a
    per-coordinate perturbation in [-eps, eps]: vertices are born at 0 and an
    edge has length between 1 - 2 eps and sqrt((1 + 2 eps)^2 + (d-1)(2 eps)^2).
    ball_cover: every point of a dim-cube lies within sqrt(dim)/2 of one of
    its corners, whose ball center is within eps sqrt(d) of it.
    """
    if kind in ("lower", "upper"):
        return 0.0, 1.0
    if kind == "perturbed_lattice":
        if dim == 0:
            return 0.0, 0.0
        return 1 - 2 * eps, math.sqrt((1 + 2 * eps) ** 2 + (d - 1) * (2 * eps) ** 2)
    return 0.0, math.sqrt(dim) / 2 + eps * math.sqrt(d)


def window_errors(kind: str, d: int, n: int, eps: float, births: dict,
                  diagram_pairs: dict, dump: str, redump: str,
                  reparsed_births: dict, diagram_text: str) -> list[str]:
    """Check one window pipeline: the sampled births, the diagram's pairs
    ({q: [(birth, death), ...]}), the dump and its re-format after parsing,
    and the diagram text."""
    errors = []
    dims = np.fromiter((sum(c.extent) for c in births), dtype=np.int64,
                       count=len(births))
    times = np.fromiter(births.values(), dtype=np.float64, count=len(births))

    # closed-form cube counts: every cube of [-n, n]^d gets a finite birth
    for q in range(d + 1):
        expect = math.comb(d, q) * (2 * n) ** q * (2 * n + 1) ** (d - q)
        got = int(np.count_nonzero(dims == q))
        if got != expect:
            errors.append(f"{kind}: {got} finite {q}-cubes, closed form {expect}")

    # contractible full window: one essential class, in degree 0
    infinite = [(q, b) for q, ps in diagram_pairs.items() for b, t in ps if t == INF]
    if len(infinite) != 1 or infinite[0][0] != 0:
        errors.append(f"{kind}: infinite pairs {infinite}, expected one in degree 0")
    if any(q >= d or q < 0 for q in diagram_pairs):
        errors.append(f"{kind}: pairs in degrees {sorted(diagram_pairs)}")

    # Euler-Poincare: sum_q (-1)^q beta_q(t) = sum_q (-1)^q #{q-cubes born <= t};
    # beta_q(t) counts the pairs with birth <= t < death, and beta_d = 0
    for t in euler_levels(births.values()):
        chi_cubes = sum((-1) ** q * int(np.count_nonzero((dims == q) & (times <= t)))
                        for q in range(d + 1))
        chi_pairs = sum((-1) ** q * sum(1 for b, dth in ps if b <= t < dth)
                        for q, ps in diagram_pairs.items())
        if chi_cubes != chi_pairs:
            errors.append(f"{kind}: Euler characteristic at t={t!r}: cubes "
                          f"{chi_cubes}, diagram {chi_pairs}")

    # support of the model's births, per cube dimension
    for q in range(d + 1):
        lo, hi = support_bounds(kind, q, d, eps)
        sel = times[dims == q]
        if sel.size and (sel.min() < lo or sel.max() > hi):
            errors.append(f"{kind}: {q}-cube births in [{sel.min()!r}, "
                          f"{sel.max()!r}], support [{lo!r}, {hi!r}]")

    # dump round trip: parsing gives the same births, re-dumping the same bytes
    if reparsed_births != births:
        errors.append(f"{kind}: parsed dump differs from the sampled births")
    if redump != dump:
        errors.append(f"{kind}: dump is not byte-identical after a round trip")

    # diagram text: header plus one "q birth death" line per pair, in order
    lines = diagram_text.splitlines()
    expect_rows = [(q, b, t) for q in sorted(diagram_pairs)
                   for b, t in sorted(diagram_pairs[q])]
    got_rows = []
    for ln in lines[1:]:
        q, b, t = ln.split()
        got_rows.append((int(q), float(b), float(t)))
    if not lines or not lines[0].startswith("#") or got_rows != expect_rows:
        errors.append(f"{kind}: diagram text does not list the diagram's pairs")
    return errors


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fp:
        return list(csv.DictReader(fp))


def pb_masses(rows: list[dict], volume: float) -> tuple[dict, list[str]]:
    """Integer quadrant masses {(s, t, trial): mass} from pb.csv rows."""
    errors = []
    masses = {}
    for row in rows:
        scaled = float(row["value"]) * volume
        mass = round(scaled)
        if abs(scaled - mass) > TOL * max(1.0, scaled):
            errors.append(f"pb value {row['value']} x volume {volume} is not "
                          "an integer")
        masses[(float(row["s"]), float(row["t"]), int(row["trial"]))] = mass
    return masses, errors


def pb_errors(masses: dict, pairs, trials: int, direct: dict) -> list[str]:
    """Every (pair, trial) row is present, and the masses agree with
    ``direct`` {(s, t, trial): persistent Betti number computed by ranks on
    the resampled filtration}, a route that never touches the diagram."""
    errors = []
    expect_keys = {(s, t, k) for s, t in pairs for k in range(trials)}
    if set(masses) != expect_keys:
        errors.append(f"pb.csv rows {len(masses)}, expected {len(expect_keys)}")
        return errors
    for key, value in direct.items():
        if masses[key] != value:
            errors.append(f"pb mass {masses[key]} at (s, t, trial) = {key} "
                          f"but the rank route gives {value}")
    return errors


def histogram_errors(rows: list[dict], trials: int, volume: float,
                     fineness: int) -> list[str]:
    """Mean rectangle counts are trial averages of integers, normalized by
    the volume, on valid dyadic rectangle keys."""
    errors = []
    jmax = fineness * 2 ** (fineness + 1)
    for row in rows:
        i, j = int(row["i"]), int(row["j"])
        count, normalized = float(row["count"]), float(row["normalized"])
        total = count * trials
        if count < 0 or abs(total - round(total)) > TOL * max(1.0, total):
            errors.append(f"histogram count {count} is not a mean of "
                          f"{trials} integer counts")
        if abs(normalized - count / volume) > TOL * max(1.0, normalized):
            errors.append(f"histogram ({i}, {j}) normalized {normalized} != "
                          f"count / volume")
        valid = 3 <= j <= jmax if i == 1 else 2 <= i <= j - 2 and j <= jmax
        if not valid or int(row["l"]) != fineness:
            errors.append(f"histogram key ({row['l']}, {i}, {j}) out of range")
    return errors


def mgf_grid(rows: list[dict], h: int) -> tuple[list[np.ndarray], np.ndarray]:
    """(lambda axes, phi values shaped by the axes) from mgf.csv rows."""
    points = np.array([[float(r[f"lambda_{k + 1}"]) for k in range(h)] for r in rows])
    axes = [np.unique(points[:, k]) for k in range(h)]
    phi = np.full(tuple(len(a) for a in axes), np.nan)
    for pt, row in zip(points, rows):
        idx = tuple(int(np.searchsorted(a, v)) for a, v in zip(axes, pt))
        phi[idx] = float(row["phi_hat"])
    return axes, phi


def mgf_errors(axes, phi: np.ndarray, mean_density: np.ndarray) -> list[str]:
    """phi(0) == 0 exactly, midpoint convexity along each axis, and Jensen's
    bound phi(lambda) >= <lambda, mean density>."""
    errors = []
    if np.isnan(phi).any():
        return ["mgf.csv does not fill its lambda grid"]
    zero = tuple(np.flatnonzero(a == 0.0) for a in axes)
    if any(len(z) != 1 for z in zero):
        errors.append("lambda grid lacks 0")
    elif phi[tuple(int(z[0]) for z in zero)] != 0.0:
        errors.append(f"phi(0) = {phi[tuple(int(z[0]) for z in zero)]!r}, not 0")
    for axis in range(phi.ndim):
        line = np.moveaxis(phi, axis, -1)
        size = line.shape[-1]
        for k in range(1, (size - 1) // 2 + 1):
            gap = line[..., k:size - k] - 0.5 * (line[..., :size - 2 * k]
                                                  + line[..., 2 * k:])
            if gap.max() > TOL:
                errors.append(f"phi not midpoint convex along axis {axis} "
                              f"(excess {gap.max():.3g})")
                break
    grids = np.meshgrid(*axes, indexing="ij")
    dots = sum(g * m for g, m in zip(grids, mean_density))
    worst = float((dots - phi).max())
    if worst > TOL:
        errors.append(f"Jensen bound phi >= <lambda, mean> fails by {worst:.3g}")
    return errors


def rate_errors(rows: list[dict], axes, phi: np.ndarray) -> list[str]:
    """The rate function is >= 0 and equals the grid conjugate
    max_lambda <lambda, x> - phi(lambda) of the log-MGF."""
    errors = []
    h = len(axes)
    xs = np.array([[float(r[f"x_{k + 1}"]) for k in range(h)] for r in rows])
    rate = np.array([float(r["phi_star"]) for r in rows])
    if rate.min() < 0:
        errors.append(f"rate function negative: {rate.min()!r}")
    lam = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], -1)
    conj = (xs @ lam.T - phi.reshape(-1)[None, :]).max(axis=1)
    worst = float(np.abs(conj - rate).max())
    if worst > TOL * max(1.0, float(np.abs(rate).max())):
        errors.append(f"rate differs from the grid conjugate by {worst:.3g}")
    return errors


def mean_density(masses: dict, pairs, trials: int, volume: float) -> np.ndarray:
    sums = defaultdict(int)
    for (s, t, _), mass in masses.items():
        sums[(s, t)] += mass
    return np.array([sums[p] / trials / volume for p in pairs])
