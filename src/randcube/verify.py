"""The exact-property suite: every deterministic bound the library promises,
run over seeded corpora and reported check by check.

Each check returns a CheckResult with the number of comparisons made and the
worst margin encountered (slack of the tightest inequality, or the largest
deviation for equality checks; pass requires margin >= 0).  ``run_suite``
imports the library's scipy modules before its first clock, then times each
check and sets its ``seconds``; a check called directly reports 0.0.  The
suite backs both the `verify` CLI command and the acceptance test module.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .cubes import (
    Box,
    Window,
    canonical_cells,
    cell_dims,
    cell_faces,
    cell_texts,
    cube_count_formula,
    grid_shape,
)
from .homology import betti, boundary_matrix
from .limits import (
    _import_scipy,
    estimate_log_mgf,
    estimate_pb_density,
    gap_reports,
    legendre_transform,
    log_mgf,
    ordered_map,
)
from .models import DistributionSpec, ModelSpec, _neighbour_pass, restrict_box
from .persistence import (
    Filtration,
    compute_diagram,
    persistent_betti_0,
    persistent_betti_direct,
    quadrant_mass,
    rectangle_mass,
    sublevel,
)

INF = math.inf


@dataclass
class CheckResult:
    name: str
    passed: bool
    checks: int
    worst_margin: float
    detail: str
    seconds: float = 0.0  # set by run_suite, which times each check

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: {self.checks} checks, "
                f"worst margin {self.worst_margin:.3g}, "
                f"{self.seconds:.1f}s ({self.detail})")


def _counted(name: str, bad: int, comparisons: int, detail: str) -> CheckResult:
    """The result of a check that counts its failed comparisons: the margin is
    minus that count, so 0.0 (never -0.0) when all of them hold."""
    return CheckResult(name, bad == 0, comparisons, float(-bad), detail)


@dataclass(frozen=True)
class Scale:
    chain_sets_per_d: int
    k_triangle_filtrations: int
    nested_pairs: int
    gap_seeds: int
    mgf_trials: int
    rate_trials: int
    lln_trials: int


SCALES = {
    "smoke": Scale(10, 24, 12, 5, 20, 60, 10),
    "default": Scale(100, 200, 100, 50, 50, 400, 30),
    "deep": Scale(200, 400, 200, 100, 100, 800, 60),
}

# fixed corpus seeds; the stochastic drift checks (rate zero, LLN) are
# documented to hold for these
CORPUS_SEED = 20240901
RATE_SEED = 1203
LLN_SEED = 819

_UNIFORM = DistributionSpec("uniform", (0.0, 1.0))


def _uniform_model(kind: str, d: int) -> ModelSpec:
    return ModelSpec(kind, d, marks=(_UNIFORM,) * (d + 1))


def _plattice_model(d: int) -> ModelSpec:
    return ModelSpec("perturbed_lattice", d,
                     perturbation=DistributionSpec("uniform", (-0.25, 0.25)))


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def random_face_closed_set(d: int, n: int, seed: int) -> np.ndarray:
    """Random subset of the window cubes, closed under faces, as flat grid
    cells in canonical order (a 0.4 keep mask, then the kept cubes' faces)."""
    rng = np.random.default_rng(seed)
    box = Window(n, d).box
    cells = canonical_cells(box)
    keep = np.zeros(grid_shape(box), dtype=bool)
    keep.flat[cells] = rng.random(len(cells)) < 0.4
    for axis in range(d):  # the even neighbours of a kept odd position are its faces
        pre = (slice(None),) * axis
        odd = keep[pre + (slice(1, None, 2),)]
        keep[pre + (slice(0, -1, 2),)] |= odd
        keep[pre + (slice(2, None, 2),)] |= odd
    return cells[keep.ravel()[cells]]


BIRTH_GRID = tuple((i + 1) / 10 for i in range(10))


def random_filtration(d: int, n: int, seed: int) -> Filtration:
    """Births i.i.d. on the 10-point grid {0.1, ..., 1.0} in canonical cube
    order, then raised to the max over each cube's faces so the monotone
    face condition holds."""
    rng = np.random.default_rng(seed)
    box = Window(n, d).box
    grid = np.empty(grid_shape(box))
    grid.flat[canonical_cells(box)] = np.asarray(BIRTH_GRID)[
        rng.integers(0, 10, size=grid.size)]
    _neighbour_pass(grid, 1, np.maximum)
    return Filtration(box, grid, {"n": n, "seed": seed})


def _corpus_params(count: int, seed: int) -> list[tuple[int, int, int]]:
    """(d, n, seed) triples: half d=2, half d=3, windows cycling 1..3."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        d = 2 if i % 2 == 0 else 3
        n = int(rng.integers(1, 4))
        out.append((d, n, int(rng.integers(0, 2**62))))
    return out


# s <= t holds across the whole 5x5 grid
S_GRID = (0.1, 0.2, 0.3, 0.4, 0.5)
T_GRID = (0.5, 0.6, 0.7, 0.8, 0.9)


# ---------------------------------------------------------------------------
# criterion 1: the worked boundary examples, signs included
# ---------------------------------------------------------------------------

def check_boundary_examples(scale: Scale, jobs: int = 1) -> CheckResult:
    failures = []
    box = Box((0, 0), (1, 1))
    cells = canonical_cells(box)
    cell_of = dict(zip(cell_texts(box, cells), cells.tolist()))
    for name, text, expect in (
        ("vertex", "2;0,0;00", []),
        ("edge", "2;0,0;10", [("2;1,0;00", 1), ("2;0,0;00", -1)]),
        ("square", "2;0,0;11",
         [("2;1,0;01", 1), ("2;0,0;01", -1), ("2;0,1;10", -1), ("2;0,0;10", 1)]),
    ):
        cell = [cell_of[text]]
        faces, signs = cell_faces(box, cell, cell_dims(box, cell)[0])
        got = list(zip(cell_texts(box, faces[0]), signs.tolist()))
        if got != expect:
            failures.append(f"{name} boundary {got}")

    # the same expansion as an integer matrix column over the full square complex
    mat = boundary_matrix(box, cells, 2)
    rows = cell_texts(box, cells[cell_dims(box, cells) == 1])
    entries = slice(mat.indptr[0], mat.indptr[1])
    signs = dict(zip((rows[i] for i in mat.indices[entries]), mat.data[entries].tolist()))
    expect_col = {"2;0,0;10": 1, "2;1,0;01": 1, "2;0,1;10": -1, "2;0,0;01": -1}
    if signs != expect_col:
        failures.append(f"square matrix column {signs}")

    return _counted("boundary_examples", len(failures), 4,
                    "; ".join(failures) or "worked 2d examples, signs exact")


# ---------------------------------------------------------------------------
# criterion 2: the chain-complex law on random face-closed sets
# ---------------------------------------------------------------------------

def _chain_complex_one(params) -> tuple[int, int]:
    d, n, seed = params
    box = Window(n, d).box
    cells = random_face_closed_set(d, n, seed)
    bad = 0
    comparisons = 0
    mats = [boundary_matrix(box, cells, q) for q in range(1, d + 1)]
    for lower, upper in zip(mats, mats[1:]):
        comparisons += upper.shape[1]
        # upper's rows and lower's columns are both the set's cells of one
        # degree, in the order given; exact over Z: |entry| <= 2q <= 8 < p,
        # so zero in Z is zero in GF(p)
        product = lower @ upper
        bad += int(np.count_nonzero(product.count_nonzero(axis=0)))
    return bad, comparisons


def check_chain_complex(scale: Scale, jobs: int = 1) -> CheckResult:
    rng = np.random.default_rng(CORPUS_SEED + 2)
    params = [
        (d, int(rng.integers(1, 3)), int(rng.integers(0, 2**62)))
        for _ in range(scale.chain_sets_per_d)
        for d in (2, 3, 4)
    ]
    rows = ordered_map(_chain_complex_one, params, jobs)
    return _counted(
        "chain_complex_law", sum(r[0] for r in rows), sum(r[1] for r in rows),
        f"boundary-of-boundary columns over d in (2,3,4), "
        f"{3 * scale.chain_sets_per_d} random face-closed sets")


# ---------------------------------------------------------------------------
# criterion 3: cube counting against the closed forms
# ---------------------------------------------------------------------------

def check_cube_counting(scale: Scale, jobs: int = 1) -> CheckResult:
    bad = 0
    comparisons = 0
    for d in (1, 2, 3, 4):
        qs = range(d + 1)
        # the faces of the d-cube [0,1]^d, then the windows [-n, n]^d
        cases = [(Box((0,) * d, (1,) * d), [math.comb(d, q) * 2 ** (d - q) for q in qs])]
        cases += [(Window(n, d).box, [cube_count_formula(d, n, q) for q in qs])
                  for n in (1, 2, 3)]
        for box, expect in cases:
            counts = np.bincount(cell_dims(box, canonical_cells(box)), minlength=d + 1)
            comparisons += d + 1
            bad += int((counts != expect).sum())
    return _counted("cube_counting", bad, comparisons,
                    "per-d-cube and window counts vs enumeration, d <= 4, n <= 3")


# ---------------------------------------------------------------------------
# criterion 4: the diagram/persistent-Betti bridge, exactly
# ---------------------------------------------------------------------------

def _k_triangle_one(params) -> tuple[int, int]:
    d, n, seed = params
    filtration = random_filtration(d, n, seed)
    diagram = compute_diagram(filtration)
    bad = 0
    comparisons = 0
    s = np.array(S_GRID)[:, None]
    for q in range(d):
        masses = quadrant_mass(diagram, q, s, T_GRID)
        routes = [persistent_betti_direct(filtration, q, s, T_GRID)]
        if q == 0:  # the component route, a third independent one
            routes.append(persistent_betti_0(filtration, s, T_GRID))
        for other in routes:
            comparisons += masses.size
            bad += int((masses != other).sum())
    return bad, comparisons


def check_k_triangle(scale: Scale, jobs: int = 1) -> CheckResult:
    params = _corpus_params(scale.k_triangle_filtrations, CORPUS_SEED + 4)
    rows = ordered_map(_k_triangle_one, params, jobs)
    return _counted(
        "k_triangle_lemma", sum(r[0] for r in rows), sum(r[1] for r in rows),
        f"{len(params)} random filtrations x 25 grid points x all q < d")


# ---------------------------------------------------------------------------
# criterion 5: the exact inequality suite
# ---------------------------------------------------------------------------

def _dim_counts(filt: Filtration, cells: np.ndarray) -> np.ndarray:
    """Number of the region's cells of each dimension 0..d among these."""
    return np.bincount(cell_dims(filt.region, cells), minlength=filt.d + 1)


def _inequality_one(params) -> tuple[int, int, float]:
    d, n, seed = params
    filt = random_filtration(d, n, seed)
    diagram = compute_diagram(filt)
    bad = 0
    comparisons = 0
    worst = INF
    # the 15 x 10 grid boxes (s1, s2] x (t1, t2]
    s1, s2 = np.array(list(itertools.combinations((0.0,) + S_GRID, 2))).T[..., None]
    t1, t2 = np.array(list(itertools.combinations(T_GRID, 2))).T
    # one quadrant_mass query per degree: the grid points of the trivial
    # bound, then each box's corners (s2, t1), (s2, t2), (s1, t2), (s1, t1)
    grid_s, grid_t = np.broadcast_arrays(np.array(S_GRID)[:, None], T_GRID)
    box_s, box_t = np.broadcast_arrays(np.stack([s2, s2, s1, s1]),
                                       np.stack([t1, t2, t2, t1])[:, None])
    corners_s = np.concatenate([grid_s.ravel(), box_s.ravel()])
    corners_t = np.concatenate([grid_t.ravel(), box_t.ravel()])
    levels = {s: sublevel(filt, s) for s in S_GRID}
    counts = {s: _dim_counts(filt, cells) for s, cells in levels.items()}
    bettis = {s: betti(filt.region, cells) for s, cells in levels.items()}
    for q in range(d):
        mass = quadrant_mass(diagram, q, corners_s, corners_t)
        masses = mass[:grid_s.size].reshape(grid_s.shape)
        at_s2_t1, at_s2_t2, at_s1_t2, at_s1_t1 = mass[grid_s.size:].reshape(box_s.shape)
        # trivial bound at every grid point
        for s, row in zip(S_GRID, masses):
            betti_s = bettis[s][q]
            slack = np.minimum(betti_s - row, counts[s][q] - betti_s)
            comparisons += len(slack)
            worst = min(worst, slack.min())
            bad += int((slack < 0).sum())
        # rectangle identity and nonnegativity over all grid boxes
        alt = at_s2_t1 - at_s2_t2 + at_s1_t2 - at_s1_t1
        direct = rectangle_mass(diagram, q, s1, s2, t1, t2)
        comparisons += alt.size
        worst = min(worst, float(alt.min()))
        bad += int(((alt < 0) | (alt != direct)).sum())
        # total mass bound
        comparisons += 1
        slack = cube_count_formula(d, n, q) - diagram.total_count(q)
        worst = min(worst, slack)
        if slack < 0:
            bad += 1
    # nested difference bound against the window restriction
    if n >= 2:
        inner = restrict_box(filt, Window(n - 1, d).box)
        diagram_in = compute_diagram(inner)
        ns, nt = (0.2, 0.4, 0.5), (0.6, 0.8, 0.5)  # the (s, t) pairs checked
        # per level, the cubes of each dimension born in filt but not in inner,
        # whose births are a slice of filt's
        extra = {x: _dim_counts(filt, sublevel(filt, x))
                 - _dim_counts(inner, sublevel(inner, x)) for x in set(ns + nt)}
        for q in range(d):
            diffs = abs(quadrant_mass(diagram, q, ns, nt)
                        - quadrant_mass(diagram_in, q, ns, nt))
            for s, t, diff in zip(ns, nt, diffs):
                comparisons += 1
                slack = extra[s][q] + extra[t][q + 1] - diff
                worst = min(worst, slack)
                if slack < 0:
                    bad += 1
    return bad, comparisons, worst


def check_inequalities(scale: Scale, jobs: int = 1) -> CheckResult:
    """Criterion 5 on the corpus of criterion 4: both draw
    ``_corpus_params(..., CORPUS_SEED + 4)``, so these are the first
    ``nested_pairs`` (12 / 100 / 200 at smoke / default / deep) of
    ``check_k_triangle``'s filtrations."""
    params = _corpus_params(scale.nested_pairs, CORPUS_SEED + 4)
    rows = ordered_map(_inequality_one, params, jobs)
    bad = sum(r[0] for r in rows)
    comparisons = sum(r[1] for r in rows)
    worst = min(r[2] for r in rows)
    return CheckResult(
        "inequality_suite", bad == 0, comparisons, float(worst),
        "trivial bound, nested difference bound, rectangle identity and "
        "nonnegativity, total mass")


# ---------------------------------------------------------------------------
# criterion 6: the near-additivity and regularity gap bounds
# ---------------------------------------------------------------------------

GAP_PAIRS = {
    "upper": ((0.3, 0.6),),
    "lower": ((0.3, 0.6),),
    "perturbed_lattice": ((1.0, 1.2),),
}


# the (k, r, m) near-additivity and (k, n) regularity samples per realization
GAP_NEAR = tuple((k, 1, m) for k in (3, 4) for m in (1, 2))
GAP_REGULAR = tuple((k, n) for k in (3, 4) for n in (7, 9))


def _gap_one(params) -> list[float]:
    """The margins (bound - measured) of one (model, seed) realization."""
    kind, seed = params
    model = (_plattice_model(2) if kind == "perturbed_lattice"
             else _uniform_model(kind, 2))
    reports = gap_reports(model, 0, GAP_PAIRS[kind], seed, near=GAP_NEAR,
                          regular=GAP_REGULAR)
    return [report.bound - report.measured for report in reports]


def check_gap_bounds(scale: Scale, jobs: int = 1) -> CheckResult:
    tasks = [(kind, CORPUS_SEED + 6000 + seed_idx)
             for seed_idx in range(scale.gap_seeds)
             for kind in ("upper", "lower", "perturbed_lattice")]
    margins = [m for row in ordered_map(_gap_one, tasks, jobs) for m in row]
    worst = min(margins)
    return CheckResult(
        "gap_bounds", worst >= 0, len(margins), float(worst),
        f"near-additivity and regularity, {scale.gap_seeds} seeds x "
        "{upper, lower, perturbed_lattice} x parameter grid")


# ---------------------------------------------------------------------------
# criterion 7: empirical log-MGF structure
# ---------------------------------------------------------------------------

def check_mgf_structure(scale: Scale, jobs: int = 1) -> CheckResult:
    model = _uniform_model("lower", 2)
    lam = np.linspace(-40.0, 40.0, 161)
    phi = estimate_log_mgf(model, 0, [(0.5, 0.5)], [lam], n=4,
                           trials=scale.mgf_trials, seed=CORPUS_SEED + 7,
                           jobs=jobs)
    vals = phi.flat_values()
    comparisons = 1
    worst = INF
    zero_idx = int(np.argmin(np.abs(lam)))
    exact_zero = vals[zero_idx] == 0.0

    conv_viol = 0.0
    for k in range(1, (len(vals) - 1) // 2 + 1):  # midpoint convexity at step k
        viol = vals[k:-k] - 0.5 * (vals[:-2 * k] + vals[2 * k:])
        comparisons += len(viol)
        conv_viol = max(conv_viol, viol.max())
    worst = min(worst, 1e-9 - conv_viol)

    rate = legendre_transform(phi, [np.linspace(0.0, 0.6, 61)])
    rv = rate.flat_values()
    comparisons += len(rv)
    worst = min(worst, float(rv.min()))
    viol = rv[1:-1] - 0.5 * (rv[:-2] + rv[2:])
    comparisons += len(viol)
    rate_viol = max(0.0, viol.max())
    worst = min(worst, 1e-12 - rate_viol)

    passed = exact_zero and conv_viol <= 1e-9 and rv.min() >= 0 \
        and rate_viol <= 1e-12
    return CheckResult(
        "log_mgf_structure", passed, comparisons, float(worst),
        f"phi(0)={float(vals[zero_idx])!r}, convexity violation "
        f"{conv_viol:.2e}, rate min {float(rv.min()):.2e}")


# ---------------------------------------------------------------------------
# criterion 8: the rate-function zero sits at the empirical mean
# ---------------------------------------------------------------------------

def check_rate_zero(scale: Scale, jobs: int = 1) -> CheckResult:
    model = _uniform_model("lower", 2)
    pairs = [(0.5, 0.5)]
    n = 8
    est = estimate_pb_density(model, 0, pairs, n, scale.rate_trials,
                              RATE_SEED, jobs=jobs)
    xbar = float(est.mean[0])
    phi = log_mgf(est, [np.linspace(-60.0, 60.0, 241)])
    x_axis = np.linspace(0.0, 0.6, 61)
    rate = legendre_transform(phi, [x_axis])
    rv = rate.flat_values()
    minimum = float(rv.min())
    cell = float(x_axis[1] - x_axis[0])
    argmins = x_axis[rv == minimum]
    dist = float(np.min(np.abs(argmins - xbar)))
    passed = minimum <= 0.02 and dist <= cell + 1e-12
    worst = min(0.02 - minimum, cell - dist)
    return CheckResult(
        "rate_function_zero", passed, len(rv), worst,
        f"min {minimum:.4f} at distance {dist:.4f} from mean {xbar:.4f} "
        f"(cell {cell})")


# ---------------------------------------------------------------------------
# criterion 9: LLN drift across the window ladder
# ---------------------------------------------------------------------------

def check_lln_drift(scale: Scale, jobs: int = 1) -> CheckResult:
    model = _uniform_model("lower", 2)
    ladder = [estimate_pb_density(model, 0, [(0.5, 0.5)], n, scale.lln_trials,
                                  LLN_SEED, jobs) for n in (4, 8, 12)]
    stds = [float(est.std[0]) for est in ladder]
    means = {est.n: float(est.mean[0]) for est in ladder}
    monotone = stds[0] > stds[1] > stds[2]
    drift = abs(means[12] - means[8])
    drift_ok = drift <= 0.05 * means[12]
    worst = min(stds[0] - stds[1], stds[1] - stds[2],
                0.05 * means[12] - drift)
    return CheckResult(
        "lln_drift", monotone and drift_ok, 3, float(worst),
        f"std ladder {stds[0]:.4f} > {stds[1]:.4f} > {stds[2]:.4f}, "
        f"|mean(12)-mean(8)| = {drift:.4f} vs {0.05 * means[12]:.4f}")


# ---------------------------------------------------------------------------
# criterion 10: estimator output is byte-identical across worker counts
# ---------------------------------------------------------------------------

def check_determinism(scale: Scale, jobs: int = 1) -> CheckResult:
    import tempfile
    from pathlib import Path

    from .cli import parse_config, run_estimate

    config = parse_config({
        "schema_version": 1,
        "model": {
            "kind": "lower",
            "d": 2,
            "mark": {"family": "uniform", "params": [0.0, 1.0]},
        },
        "q": 0,
        "n": 4,
        "trials": 12,
        "seed": 77,
        "pairs": [[0.3, 0.5], [0.5, 0.5]],
        "fineness": 2,
        "lambda_grid": {"min": -10.0, "max": 10.0, "points": 21},
        "x_grid": {"min": 0.0, "max": 0.6, "points": 31},
    })
    outputs = {}
    many = max(2, jobs)  # a pool of at least two workers against one process
    with tempfile.TemporaryDirectory() as tmp:
        for jobs_case in (1, many):
            out_dir = Path(tmp) / f"jobs{jobs_case}"
            out_dir.mkdir()
            for which in ("pb", "diagram", "mgf", "rate"):
                run_estimate(config, which, out_dir, jobs_case)
            outputs[jobs_case] = {
                f.name: f.read_bytes() for f in sorted(out_dir.iterdir())
            }
    same = outputs[1] == outputs[many]
    n_files = len(outputs[1])
    return _counted("determinism_across_jobs", int(not same), n_files,
                    f"{n_files} estimate output files byte-compared for "
                    f"--jobs 1 vs {many}")


ALL_CHECKS = [
    check_boundary_examples,
    check_chain_complex,
    check_cube_counting,
    check_k_triangle,
    check_inequalities,
    check_gap_bounds,
    check_mgf_structure,
    check_rate_zero,
    check_lln_drift,
    check_determinism,
]


def run_suite(scale_name: str = "default", jobs: int = 1,
              report_fp=None) -> list[CheckResult]:
    """Run every check at the given scale; one printed line per check, JSON
    report to ``report_fp`` when given."""
    scale = SCALES[scale_name]
    results = []
    _import_scipy()
    for check in ALL_CHECKS:
        start = time.perf_counter()
        result = check(scale, jobs)
        result.seconds = time.perf_counter() - start
        results.append(result)
        print(result.line())
    if report_fp is not None:
        payload = {
            "scale": scale_name,
            "jobs": jobs,
            "all_passed": bool(all(r.passed for r in results)),
            "checks": [
                {
                    "name": r.name,
                    "passed": bool(r.passed),
                    "comparisons": int(r.checks),
                    "worst_margin": float(r.worst_margin),
                    "detail": r.detail,
                    "seconds": round(r.seconds, 3),
                }
                for r in results
            ],
        }
        json.dump(payload, report_fp, indent=2)
        report_fp.write("\n")
    return results
