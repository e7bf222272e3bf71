"""Cube-keyed references for the tests, written against the birth-grid layout
(``cubes.grid_shape``): a cube's flat cell in a box's grid, box membership,
and a filtration built from a {cube: birth} dict."""

import math

import numpy as np

from randcube import Filtration, Window
from randcube.cubes import grid_shape


def contains(box, cube) -> bool:
    """Whether the cube has the box's ambient dimension and lies in it,
    interval by interval."""
    return len(cube.base) == len(cube.extent) == box.ambient_dim and all(
        a <= b_i and b_i + e_i <= b
        for a, b, b_i, e_i in zip(box.lo, box.hi, cube.base, cube.extent))


def cube_cells(box, cubes) -> np.ndarray:
    """Flat grid cells of cubes of the box, in the order given: each cube
    sits at the doubled coordinates 2*(base - lo) + extent."""
    index = np.array([[2 * (b - a) + e for a, b, e in zip(box.lo, c.base, c.extent)]
                      for c in cubes], dtype=np.int64).reshape(len(cubes), box.ambient_dim)
    return np.ravel_multi_index(index.T, grid_shape(box))


def filtration_from_births(region, births, meta=None) -> Filtration:
    """The filtration whose births are the dict's: absent cubes and inf
    births are never born, and a finite-birth cube outside the region
    raises.  Birth values reach ``Filtration`` unchecked, so a nan or
    negative birth raises there."""
    if isinstance(region, Window):
        region = region.box
    grid = np.full(grid_shape(region), math.inf)
    for cube, t in births.items():
        if t == math.inf:
            continue
        if not contains(region, cube):
            raise ValueError(f"finite-birth cube {cube.canonical()} lies outside the region")
        grid.flat[cube_cells(region, [cube])[0]] = t
    return Filtration(region, grid, meta)
