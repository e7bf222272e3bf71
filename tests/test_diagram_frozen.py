"""Frozen filtration dumps and diagrams: both texts must stay byte-identical.

``diagram_hashes.json`` holds, per corpus case, the sha256 of the
filtration's text and of ``format_diagram(compute_diagram(f))``.  The hashes
were computed by the reduction on ``ElementaryCube`` keys that the grid
reduction replaced; never regenerate them from the code under test.  A
centred window's text is its ``format_filtration`` dump; a translated block
has no dump form, so its text is the sorted ``<canonical cube> <birth!r>``
lines.

The corpus: the four models at d = 1..3, n = 1..3, with uniform, empirical
(tie-heavy) and defective (``p_inf`` > 0) marks, two perturbation laws each
for the point models; for every sample also its window [-(n-1), n-1]^d
and an asymmetric block, both carved by ``restrict_box``; and 40
``verify.random_filtration``s.
"""

import hashlib
import json
from pathlib import Path

import pytest

from randcube import (
    Box,
    DistributionSpec,
    ModelSpec,
    Window,
    compute_diagram,
    format_diagram,
    format_filtration,
    restrict_box,
    sample,
)
from randcube.verify import random_filtration

HASHES = json.loads((Path(__file__).with_name("diagram_hashes.json")).read_text())

MARKS = {
    "uniform": DistributionSpec("uniform", (0.0, 1.0)),
    "empirical": DistributionSpec("empirical", (0.2, 0.3, 0.5, 0.7, 0.9, 1.0)),
    "defective": DistributionSpec("uniform", (0.25, 0.75), p_inf=0.3),
}
LAWS = {
    "uniform": DistributionSpec("uniform", (-0.25, 0.25)),
    "empirical": DistributionSpec("empirical", (-0.3, 0.25, 0.0, 0.5, 0.4, 1.0)),
}
GROUPS = ("lower", "upper", "perturbed_lattice", "ball_cover", "random")


def _block(d: int, n: int) -> Box:
    """A block of [-n, n]^d cut short on alternate sides of each axis."""
    return Box(tuple(-n + (a + 1) % 2 for a in range(d)),
               tuple(n - a % 2 for a in range(d)))


def _models(d: int):
    for kind in ("lower", "upper"):
        for family, mark in MARKS.items():
            yield f"{kind}-{family}", ModelSpec(kind, d, marks=(mark,) * (d + 1))
    for name, law in LAWS.items():
        yield f"plattice-{name}", ModelSpec("perturbed_lattice", d, perturbation=law)
        yield f"ballcover-{name}", ModelSpec("ball_cover", d, perturbation=law,
                                             m_grid=3)


def _cases():
    """(label, group, model, d, n, seed, cut) per case; ``cut`` names how the
    filtration is made from the sample (or "random" for random_filtration)."""
    cases = []
    for d in (1, 2, 3):
        for n in (1, 2, 3):
            for label, model in _models(d):
                seed = 500 + len(cases)
                tag = f"{label}-d{d}-n{n}"
                cases += [(tag, model.kind, model, d, n, seed, "window"),
                          (f"{tag}-restrict", model.kind, model, d, n, seed, "restrict"),
                          (f"{tag}-block", model.kind, model, d, n, seed, "block")]
    for i in range(40):
        d, n = 1 + i % 3, 1 + (i // 3) % 3
        cases.append((f"random-{i}-d{d}-n{n}", "random", None, d, n, 7000 + i, "random"))
    return cases


CASES = _cases()


def build(model, d, n, seed, cut):
    if cut == "random":
        return random_filtration(d, n, seed)
    filt = sample(model, n, seed)
    if cut == "restrict":
        return restrict_box(filt, Window(n - 1, d).box)
    if cut == "block":
        return restrict_box(filt, _block(d, n))
    return filt


def case_hashes(model, d, n, seed, cut) -> list[str]:
    filt = build(model, d, n, seed, cut)
    if cut == "block":
        text = "\n".join(f"{c.canonical()} {t!r}" for c, t in sorted(filt.births.items()))
    else:
        text = format_filtration(filt)
    diagram = format_diagram(compute_diagram(filt))
    return [hashlib.sha256(s.encode()).hexdigest() for s in (text, diagram)]


def test_corpus_matches_frozen_ids():
    assert sorted(HASHES) == sorted(case[0] for case in CASES)


@pytest.mark.parametrize("group", GROUPS)
def test_dumps_and_diagrams_byte_identical(group):
    changed = [label for label, g, *case in CASES
               if g == group and case_hashes(*case) != HASHES[label]]
    assert not changed
