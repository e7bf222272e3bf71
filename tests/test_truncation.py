"""``models.truncate``: the diagram of a filtration cut at t_max is the full
diagram's prefix, and only the statistics that read no time past t_max cut.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcube import (
    DistributionSpec,
    ModelSpec,
    cli,
    compute_diagram,
    limits,
    models,
    persistent_betti_0,
    persistent_betti_direct,
    quadrant_mass,
    sample,
    sublevel,
    truncate,
    validate,
    verify,
)
from randcube.verify import random_filtration

INF = math.inf
UNIFORM = DistributionSpec("uniform", (0.0, 1.0))
TIED = DistributionSpec("empirical", (0.2, 0.3, 0.5, 0.7, 0.9, 1.0))
DEFECTIVE = DistributionSpec("uniform", (0.25, 0.75), p_inf=0.3)
LAW = DistributionSpec("uniform", (-0.25, 0.25))
LOWER2 = ModelSpec("lower", 2, marks=(UNIFORM,) * 3)
MAX_N = {1: 4, 2: 3, 3: 2, 4: 2}  # window radii per d, up to 6,561 cells


def cut_pairs(diagram, t_max):
    """The pairs the cut at t_max must give: {(b, d) : d <= t_max} and
    {(b, inf) : b <= t_max < d} of the full diagram."""
    out = {}
    for q, pairs in diagram.pairs.items():
        kept = sorted((b, dth if dth <= t_max else INF)
                      for b, dth in pairs if b <= t_max)
        if kept:
            out[q] = kept
    return out


def pick_t_max(filt, frac, on_birth):
    """A finite birth of the filtration (ties at t_max) or a time between
    0 and a little past the last finite birth."""
    births = np.sort(filt.grid[filt.grid < INF])
    if not births.size:
        return frac
    if on_birth:
        return float(births[int(frac * (births.size - 1))])
    return frac * 1.1 * float(births[-1])


def assert_cut_is_exact(filt, t_max):
    cut = truncate(filt, t_max)
    assert validate(cut) is None
    assert cut.region == filt.region and cut.meta == filt.meta
    full = compute_diagram(filt)
    cut_diagram = compute_diagram(cut)
    assert cut_diagram.pairs == cut_pairs(full, t_max)
    births = np.unique(filt.grid[filt.grid <= t_max])
    picks = births[np.linspace(0, births.size - 1, min(births.size, 12)).astype(int)]
    values = np.unique(np.concatenate([[0.0, t_max], picks]))
    s = values[:, None]
    t = np.maximum(s, values)  # every corner has s <= t <= t_max
    for q in range(filt.d):
        assert np.array_equal(quadrant_mass(cut_diagram, q, s, t),
                              quadrant_mass(full, q, s, t)), q


@settings(max_examples=80, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**62), frac=st.floats(0.0, 1.0),
       on_birth=st.booleans())
def test_truncate_random_filtration(data, seed, frac, on_birth):
    d = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, MAX_N[d]))
    filt = random_filtration(d, n, seed)
    assert_cut_is_exact(filt, pick_t_max(filt, frac, on_birth))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**62), trial=st.integers(0, 3),
       frac=st.floats(0.0, 1.0), on_birth=st.booleans())
def test_truncate_sampled_windows(data, seed, trial, frac, on_birth):
    kind = data.draw(st.sampled_from(("lower", "upper", "perturbed_lattice",
                                      "ball_cover")))
    d = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, MAX_N[d]))
    if kind in ("lower", "upper"):
        mark = data.draw(st.sampled_from((UNIFORM, TIED, DEFECTIVE)))
        model = ModelSpec(kind, d, marks=(mark,) * (d + 1))
    else:
        model = ModelSpec(kind, d, perturbation=LAW, m_grid=3)
    filt = sample(model, n, seed, trial)
    assert_cut_is_exact(filt, pick_t_max(filt, frac, on_birth))


def test_truncate_keeps_births_up_to_t_max_only():
    filt = random_filtration(2, 2, 7)
    cut = truncate(filt, 0.5)
    assert np.array_equal(cut.grid, np.where(filt.grid <= 0.5, filt.grid, INF))
    assert truncate(filt, INF) == filt


def test_a_nan_level_is_rejected():
    filt = random_filtration(2, 2, 7)
    with pytest.raises(ValueError, match="level t_max must be a number, got nan"):
        truncate(filt, math.nan)
    with pytest.raises(ValueError, match="level t must be a number, got nan"):
        sublevel(filt, np.float64(math.nan))


def test_infinite_and_negative_levels_keep_working():
    filt = random_filtration(2, 2, 7)
    assert truncate(filt, INF) == filt
    assert sublevel(filt, INF).size == int((filt.grid < INF).sum())
    empty = truncate(filt, -1.0)
    assert not (empty.grid < INF).any() and compute_diagram(empty).pairs == {}
    assert sublevel(filt, -1.0).size == 0


def test_full_diagram_paths_never_truncate(monkeypatch, tmp_path, capsys):
    """The histogram estimator, ``cli diagram``, the k-triangle check's
    reduction and rank routes, and the rank route itself read the whole
    filtration and never label components; only the estimators that read
    quadrant masses at t <= t_max cut (q >= 1) or label (q = 0).  Criterion
    4 compares the component route with the other two on purpose, so
    ``verify`` keeps the real one."""
    real = models.truncate

    def refusing(name):
        def refuse(*args):
            raise AssertionError(f"{name} called")
        return refuse

    for module in [m for name, m in sys.modules.items() if name.startswith("randcube")]:
        for attr, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, attr, refusing("truncate"))
            elif value is persistent_betti_0 and module is not verify:
                monkeypatch.setattr(module, attr, refusing("persistent_betti_0"))

    with pytest.raises(AssertionError, match="truncate called"):
        limits.estimate_pb_density(LOWER2, 1, [(0.3, 0.5)], 2, 1, seed=0)
    with pytest.raises(AssertionError, match="persistent_betti_0 called"):
        limits.estimate_pb_density(LOWER2, 0, [(0.3, 0.5)], 2, 1, seed=0)
    limits.estimate_mean_diagram(LOWER2, 0, 2, 2, 2, seed=0)
    assert verify.check_k_triangle(verify.SCALES["smoke"]).passed
    persistent_betti_direct(sample(LOWER2, 2, 0), 0, 0.3, 0.5)
    config = tmp_path / "config.json"
    config.write_text('{"schema_version": 1, "n": 2, "trials": 1, "model": '
                      '{"kind": "lower", "d": 2, "mark": {"family": "uniform", '
                      '"params": [0.0, 1.0]}}}')
    assert cli.main(["diagram", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    capsys.readouterr()
