"""The library API that the benchmark in ``benchmarks/`` relies on.

The benchmark's span recorder wraps named functions of the library and reads
its face-enumeration caches, so removing or renaming any of them breaks a
benchmark run; these tests make that show in the test suite first.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from randcube import Box, DistributionSpec, ElementaryCube, Filtration, ModelSpec, sample
from randcube.cubes import canonical_cells, grid_shape

from cube_grids import csc_columns

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_exist(spans):
    for layer, names in spans.WRAPPED.items():
        module = importlib.import_module(f"randcube.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"randcube.{layer}.{name}"


def test_face_enumerators_are_lru_cached(spans):
    cubes = importlib.import_module("randcube.cubes")
    for name in spans.LRU_FUNCTIONS:
        fn = getattr(cubes, name)
        assert callable(fn.cache_clear) and callable(fn.cache_info), name


def test_filtration_births_is_a_cube_dict():
    model = ModelSpec("lower", 2, marks=(DistributionSpec("uniform", (0.0, 1.0)),) * 3)
    births = sample(model, 1, 3, 0).births
    assert isinstance(births, dict) and len(births) == 25
    assert all(isinstance(c, ElementaryCube) and isinstance(t, float)
               for c, t in births.items())


def test_reduce_columns_gets_a_sized_sequence(monkeypatch):
    """The traced run counts ``len(args[0])`` of every ``reduce_columns``
    call, so ``kernel_basis``, ``betti`` and the rank route (which imports
    it by name) must hand it a list, not a generator."""
    from randcube import homology, persistence

    real = homology.reduce_columns
    sizes = []

    def sized(columns, *args, **kwargs):
        assert isinstance(columns, list)
        sizes.append(len(columns))
        return real(columns, *args, **kwargs)

    monkeypatch.setattr(homology, "reduce_columns", sized)
    monkeypatch.setattr(persistence, "reduce_columns", sized)
    box = Box((0, 0), (1, 1))
    cells = canonical_cells(box)
    edges = csc_columns(homology.boundary_matrix(box, cells, 1))
    assert len(homology.kernel_basis(edges)) == 1
    assert homology.betti(box, cells).tolist() == [1, 0, 0]
    assert sizes == [4, 4, 1]
    # the rank route: the edge columns alone at q = 0, the edge and the
    # square columns at q = 1
    full = Filtration(box, np.zeros(grid_shape(box)))
    assert persistence.persistent_betti_direct(full, 0, 0.0, 0.0) == 1
    assert persistence.persistent_betti_direct(full, 1, 0.0, 0.0) == 0
    assert sizes[3:] == [4, 4, 1]
