"""Frozen sampler output: every model's births must stay bit-identical.

``sampler_hashes.json`` holds one sha256 per corpus case.  The hashes were
computed by the per-cube samplers that the grid sampler replaced, so this
test gates the rewrite (and any later one) against that reference; never
regenerate them from the code under test.  The hashed text is the sorted
``<canonical cube> <birth!r>`` lines of the sampled filtration.

The corpus covers the four models at d = 1..4 on centred windows (through
``sample``) and translated boxes (through ``sample_box``), several trials,
the uniform, exponential, empirical and defective (``p_inf`` > 0) mark
families, four perturbation laws and ``m_grid`` 2..4.
"""

import hashlib
import json
from pathlib import Path

import pytest

from randcube import Box, DistributionSpec, ModelSpec, sample, sample_box

HASHES = json.loads((Path(__file__).with_name("sampler_hashes.json")).read_text())

MARKS = {
    "uniform": DistributionSpec("uniform", (0.0, 1.0)),
    "exponential": DistributionSpec("exponential", (2.0,)),
    "empirical": DistributionSpec("empirical", (0.2, 0.3, 0.5, 0.7, 0.9, 1.0)),
    "defective": DistributionSpec("uniform", (0.25, 0.75), p_inf=0.3),
}
LAWS = {
    "uniform": DistributionSpec("uniform", (-0.25, 0.25)),
    "wide": DistributionSpec("uniform", (-0.5, 0.5)),
    "empirical": DistributionSpec("empirical", (-0.3, 0.25, 0.0, 0.5, 0.4, 1.0)),
    "exponential": DistributionSpec("exponential", (3.0,)),
}
WINDOW_N = {1: (1, 3, 8), 2: (1, 2, 5), 3: (1, 2, 3), 4: (1, 2)}


def _offset_box(d: int, n: int) -> Box:
    """An asymmetric box away from the origin."""
    lo = tuple((-3, 2, -1, 5)[a] for a in range(d))
    hi = tuple(v + n + a % 2 for a, v in enumerate(lo))
    return Box(lo, hi)


def _cases():
    cases = []

    def add(label, model, n):
        for trial in (0, 1):
            seed = 1000 + len(cases)
            cases.append((f"{label}-n{n}-t{trial}", model, n, seed, trial))
            cases.append((f"{label}-box{n}-t{trial}", model, _offset_box(model.d, n),
                          seed, trial))

    for d, ns in WINDOW_N.items():
        for kind in ("lower", "upper"):
            for family, mark in MARKS.items():
                add(f"{kind}-d{d}-{family}", ModelSpec(kind, d, marks=(mark,) * (d + 1)),
                    ns[-1])
            # a different family per cube dimension
            mixed = tuple(list(MARKS.values())[q % len(MARKS)] for q in range(d + 1))
            for n in ns[:-1]:
                add(f"{kind}-d{d}-mixed", ModelSpec(kind, d, marks=mixed), n)
        for name, law in LAWS.items():
            add(f"plattice-d{d}-{name}",
                ModelSpec("perturbed_lattice", d, perturbation=law), ns[-1])
        for m_grid in (2, 3, 4):
            law = LAWS[("uniform", "wide", "empirical")[m_grid - 2]]
            for n in ns[:2]:
                add(f"ballcover-d{d}-m{m_grid}",
                    ModelSpec("ball_cover", d, perturbation=law, m_grid=m_grid), n)
    return cases


CASES = _cases()


def case_hash(model, region, seed, trial) -> str:
    if isinstance(region, Box):
        filt = sample_box(model, region, seed, trial)
    else:
        filt = sample(model, region, seed, trial)
    text = "\n".join(f"{c.canonical()} {t!r}" for c, t in sorted(filt.births.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def test_corpus_matches_frozen_ids():
    assert sorted(HASHES) == sorted(case[0] for case in CASES)


@pytest.mark.parametrize("kind", ["lower", "upper", "perturbed_lattice", "ball_cover"])
def test_sampled_births_bit_identical(kind):
    changed = [label for label, model, region, seed, trial in CASES
               if model.kind == kind
               and case_hash(model, region, seed, trial) != HASHES[label]]
    assert not changed
