"""Frozen estimate CSVs: every file ``cli.run_estimate`` writes must stay
byte-identical.

``estimate_hashes.json`` holds, per config and target, the sha256 of every
file the target writes.  The hashes of ``d2-upper`` and ``d3-lower`` were
computed by the code of the commit before the dyadic-rectangle and grid-axis
rules were restated, those of ``d2-lattice-h3`` by the code of the commit
before ``legendre_transform`` subtracted in place, ``quadrant_mass``
counted from one birth-sorted table and the CSV writer formatted by column;
never regenerate them from the code under test.

Three configs, each run for the four targets ``pb``, ``diagram``, ``mgf`` and
``rate`` (the last two at one q):

- ``d2-upper``: d = 2 ``upper`` with uniform marks, ``q: [0, 1]`` and an
  ``n_list``;
- ``d3-lower``: d = 3 ``lower`` with an ``empirical`` mark law on dyadic
  values (0 included), so births tie and fall on the fineness-2 rectangle
  boundaries, and ``q: [0, 1, 2]``;
- ``d2-lattice-h3``: d = 2 ``perturbed_lattice`` with h = 3 pairs, a
  fineness-3 histogram (1,225 dyadic corners per trial) and an x grid of
  11^3 = 1,331 points.
"""

import hashlib
import json
from pathlib import Path

import pytest

from randcube.cli import parse_config, run_estimate

HASHES = json.loads((Path(__file__).with_name("estimate_hashes.json")).read_text())

CONFIGS = {
    "d2-upper": {
        "schema_version": 1,
        "model": {"kind": "upper", "d": 2,
                  "mark": {"family": "uniform", "params": [0.0, 1.0]}},
        "q": [0, 1], "mgf_q": 1,
        "n_list": [2, 3], "trials": 3, "seed": 11,
        "pairs": [[0.25, 0.5], [0.4, 0.8]],
        "fineness": 2,
        "lambda_grid": {"min": -4.0, "max": 4.0, "points": 9},
        "x_grid": {"min": 0.0, "max": 0.5, "points": 6},
    },
    "d3-lower": {
        "schema_version": 1,
        "model": {"kind": "lower", "d": 3,
                  "mark": {"family": "empirical",
                           "params": [0.0, 0.1, 0.25, 0.4, 0.5, 0.7, 0.875, 1.0]}},
        "q": [0, 1, 2], "mgf_q": 0,
        "n": 2, "trials": 3, "seed": 23,
        "pairs": [[0.25, 0.5], [0.5, 0.875]],
        "fineness": 2,
        "lambda_grid": {"axis": [-2.0, -0.5, 0.0, 0.5, 2.0]},
        "x_grid": {"axis": [0.0, 0.25, 1.0]},
    },
    "d2-lattice-h3": {
        "schema_version": 1,
        "model": {"kind": "perturbed_lattice", "d": 2,
                  "perturbation": {"family": "uniform", "params": [-0.25, 0.25]}},
        "q": [0, 1], "mgf_q": 0,
        "n": 3, "trials": 4, "seed": 31,
        "pairs": [[0.25, 0.5], [0.5, 0.75], [0.75, 1.0]],
        "fineness": 3,
        "lambda_grid": {"min": -3.0, "max": 3.0, "points": 7},
        "x_grid": {"min": 0.0, "max": 1.0, "points": 11},
    },
}
TARGETS = ("pb", "diagram", "mgf", "rate")


def estimate_hashes(name: str, which: str, out_dir: Path) -> dict[str, str]:
    """sha256 of every file the ``which`` estimate of config ``name`` writes
    to the empty directory out_dir, by file name."""
    raw = dict(CONFIGS[name])
    mgf_q = raw.pop("mgf_q")
    if which in ("mgf", "rate"):
        raw["q"] = mgf_q
    run_estimate(parse_config(raw), which, out_dir, jobs=1)
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir())}


def test_frozen_ids_match_the_corpus():
    assert sorted(HASHES) == sorted(f"{name}/{which}" for name in CONFIGS
                                    for which in TARGETS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("which", TARGETS)
def test_estimate_csvs_byte_identical(tmp_path, name, which):
    assert estimate_hashes(name, which, tmp_path) == HASHES[f"{name}/{which}"]
