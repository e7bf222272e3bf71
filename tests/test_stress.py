"""Stress and corner cases: heavy ties, higher ambient dimension, odd seeds,
and the window-ladder CSV path."""

import json
import math

import numpy as np

from randcube import (
    DistributionSpec,
    Filtration,
    ModelSpec,
    Window,
    compute_diagram,
    persistent_betti_direct,
    quadrant_mass,
    sample,
    validate,
)
from randcube.cli import main
from randcube.cubes import grid_shape

INF = math.inf
UNI = DistributionSpec("uniform", (0.0, 1.0))


def test_everything_born_at_once():
    # the whole window appears at t = 0: one essential component, every other
    # pair has zero persistence and is discarded
    grid = np.zeros(grid_shape(Window(2, 2).box))
    diagram = compute_diagram(Filtration(Window(2, 2), grid))
    assert diagram.pairs == {0: [(0.0, INF)]}


def test_two_ladder_levels_many_ties():
    # vertices at 0, everything else at 1: only component structure changes
    grid = np.ones(grid_shape(Window(2, 2).box))
    grid[::2, ::2] = 0.0  # the vertices: even grid coordinates on both axes
    filt = Filtration(Window(2, 2), grid)
    diagram = compute_diagram(filt)
    n_vertices = (2 * 2 + 1) ** 2
    # at time 0 every vertex is its own component; at 1 all but one die
    assert diagram.total_count(0) == n_vertices
    assert sum(1 for b, d in diagram.degree(0) if d == INF) == 1
    assert quadrant_mass(diagram, 0, 0.0, 0.5) == n_vertices
    assert persistent_betti_direct(filt, 0, 0.0, 0.5) == n_vertices
    assert persistent_betti_direct(filt, 0, 0.0, 1.0) == 1


def test_d4_window_smoke():
    model = ModelSpec("lower", 4, marks=(UNI,) * 5)
    filt = sample(model, 1, seed=2)
    assert validate(filt) is None
    diagram = compute_diagram(filt)
    for q in (0, 1, 2, 3):
        assert quadrant_mass(diagram, q, 0.5, 0.7) == \
            persistent_betti_direct(filt, q, 0.5, 0.7)


def test_extreme_master_seeds():
    model = ModelSpec("lower", 2, marks=(UNI,) * 3)
    for seed in (-1, 0, 2**63 - 1, 123456789123456789):
        filt = sample(model, 1, seed)
        assert validate(filt) is None
        again = sample(model, 1, seed)
        assert again.births == filt.births


def test_cli_pb_window_ladder(tmp_path, capsys):
    config = {
        "schema_version": 1,
        "model": {"kind": "lower", "d": 2,
                  "mark": {"family": "uniform", "params": [0.0, 1.0]}},
        "q": [0, 1],
        "n_list": [1, 2],
        "trials": 2,
        "seed": 3,
        "pairs": [[0.5, 0.5]],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["estimate", "--which", "pb", "--config", str(cfg),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    rows = (out / "pb.csv").read_text().splitlines()
    assert rows[0] == "model,q,s,t,n,trial,value"
    # 2 degrees x 2 windows x 2 trials
    assert len(rows) == 1 + 8
    seen = {tuple(r.split(",")[1:3]) for r in rows[1:]}
    assert ("1", "0.5") in seen
