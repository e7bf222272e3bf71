"""Elementary cubes, window geometry, and the grid-cell layout on the integer grid.

An elementary cube in R^d is a product of d elementary intervals, each either
nondegenerate [l, l+1] or degenerate {l}.  We encode a cube as (base, extent):
``base[i]`` is the lower endpoint of the i-th interval and ``extent[i]`` is 1
for a nondegenerate interval, 0 for a degenerate one.  All operations here are
pure functions on immutable values.

It also owns the layout of a box's birth grid, one entry per cube at doubled
coordinates c = 2*(base - lo) + extent: see ``grid_shape`` and what follows.
The library computes on these flat grid cells (``cell_dims``, ``cell_faces``),
and the filtration dump names them by their canonical texts (``cell_texts``).
The layout depends only on the grid's shape, so these read one cached table
per shape (``_layout``), shared by every box of that shape.
``ElementaryCube`` objects appear only for the {cube: birth} view of a
filtration, for dump text that is not a window cube's canonical text, in
error and violation messages, and in the cube-keyed enumerators
``all_cubes_box``, ``boundary_faces``, ``faces_contained_in`` and
``cofaces_containing``, which no library module calls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True, order=True, slots=True)
class ElementaryCube:
    """A product of elementary intervals, encoded as lower corner + extent bits.

    Ordering is lexicographic on (base, extent); this is the canonical
    tie-break order used everywhere downstream.  Construction is deliberately
    unvalidated (cubes are built in bulk by the enumeration and face
    machinery); `from_canonical` validates external input.
    """

    base: tuple[int, ...]
    extent: tuple[int, ...]

    @property
    def ambient_dim(self) -> int:
        return len(self.base)

    @property
    def dim(self) -> int:
        return sum(self.extent)

    def canonical(self) -> str:
        """Textual form "d;base_1,...,base_d;extent bits" used in dumps."""
        bases = ",".join(str(b) for b in self.base)
        bits = "".join(str(e) for e in self.extent)
        return f"{self.ambient_dim};{bases};{bits}"

    @staticmethod
    def from_canonical(text: str) -> "ElementaryCube":
        d_str, bases, bits = text.split(";")
        cube = ElementaryCube(
            tuple(int(b) for b in bases.split(",")),
            tuple(int(c) for c in bits),
        )
        if (cube.ambient_dim != int(d_str) or cube.ambient_dim == 0
                or len(cube.extent) != cube.ambient_dim):
            raise ValueError(f"dimension mismatch in cube text {text!r}")
        if any(e not in (0, 1) for e in cube.extent):
            raise ValueError(f"extent bits must be 0/1 in cube text {text!r}")
        return cube

    def vertices(self) -> list[tuple[int, ...]]:
        """Lattice corner points of the cube (2^dim of them)."""
        axes = [(b, b + 1) if e else (b,) for b, e in zip(self.base, self.extent)]
        return list(itertools.product(*axes))


@dataclass(frozen=True)
class Box:
    """Axis-aligned integer box prod_i [lo_i, hi_i]; windows and block
    translates are both boxes."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have equal length")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError("box must be nonempty")

    @property
    def ambient_dim(self) -> int:
        return len(self.lo)

    def translate(self, vec: tuple[int, ...]) -> "Box":
        return Box(
            tuple(a + v for a, v in zip(self.lo, vec)),
            tuple(b + v for b, v in zip(self.hi, vec)),
        )

    def grow(self, radius: int) -> "Box":
        return Box(
            tuple(a - radius for a in self.lo),
            tuple(b + radius for b in self.hi),
        )


@dataclass(frozen=True)
class Window:
    """The centered region [-n, n]^d; |window| = (2n)^d is the scaling volume
    for all densities."""

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("window radius must be nonnegative")
        if self.d < 1:
            raise ValueError("ambient dimension must be positive")

    @property
    def volume(self) -> float:
        return float(2 * self.n) ** self.d

    @property
    def box(self) -> Box:
        return Box((-self.n,) * self.d, (self.n,) * self.d)


def grid_shape(box: Box) -> tuple[int, ...]:
    """Shape of the box's cube grid: 2*(hi - lo) + 1 positions per axis."""
    return tuple(2 * (b - a) + 1 for a, b in zip(box.lo, box.hi))


class _Layout(NamedTuple):
    """The layout of one grid shape's cells, the same for every box of that
    shape.  A cell's extent code holds its extents as bits, axis 1's the
    highest, so the codes count the extents in lex order; its base rank is
    the index of its base (less the box's lo) in lex order."""

    code: np.ndarray  # per flat cell, its extent code
    base_rank: np.ndarray  # per flat cell, its base rank
    dims: np.ndarray  # per code, the cube dimension (int64)
    order: np.ndarray  # the flat cells in canonical order: by base, then by extent
    offsets: tuple[np.ndarray, ...]  # per q, the (codes, 2q) flat offsets of a q-cube's faces
    signs: tuple[np.ndarray, ...]  # per q, the 2q signs of those faces


def _face_signs(q: int) -> np.ndarray:
    """The 2q signs of a q-cube's faces in ``cell_faces`` order."""
    return (((-1) ** np.arange(q))[:, None] * np.array([1, -1])).ravel()


@lru_cache(maxsize=64)
def _layout(shape: tuple[int, ...]) -> _Layout:
    """The layout table of a grid shape, built on first use; its arrays are
    read-only.  Along each axis the cell at grid position g has extent g & 1
    and base (g >> 1) + lo."""
    d = len(shape)
    base_shape = [(n + 1) // 2 for n in shape]
    g = np.indices(shape, sparse=True)
    code = sum((gi & 1) << (d - 1 - axis) for axis, gi in enumerate(g)).ravel()
    base_rank = sum((gi >> 1) * prod(base_shape[axis + 1:])
                    for axis, gi in enumerate(g)).ravel()
    # one slot per (base rank, code) in canonical order; cells past hi leave theirs empty
    slots = np.full(prod(base_shape) << d, -1, dtype=np.int64)
    slots[(base_rank << d) + code] = np.arange(len(code))
    bits = [[axis for axis in range(d) if c >> (d - 1 - axis) & 1] for c in range(1 << d)]
    stride = [prod(shape[axis + 1:]) for axis in range(d)]
    offsets = []
    for q in range(d + 1):
        off = np.zeros((1 << d, 2 * q), dtype=np.int64)
        for c, axes in enumerate(bits):
            if len(axes) == q:
                off[c] = [stride[axis] * s for axis in axes for s in (1, -1)]
        offsets.append(off)
    code = code.astype(np.min_scalar_type((1 << d) - 1))
    base_rank = base_rank.astype(np.min_scalar_type(prod(base_shape) - 1))
    dims = np.array([len(axes) for axes in bits], dtype=np.int64)
    order = slots[slots >= 0]
    signs = [_face_signs(q) for q in range(d + 1)]
    for array in (code, base_rank, dims, order, *offsets, *signs):
        array.flags.writeable = False
    return _Layout(code, base_rank, dims, order, tuple(offsets), tuple(signs))


def _lookup(box: Box, cells) -> tuple[_Layout, np.ndarray]:
    """The layout table of the box's grid, and the cells as an int64 array;
    a cell outside the grid raises as ``np.unravel_index`` would."""
    layout = _layout(grid_shape(box))
    cells = np.asarray(cells, dtype=np.int64)
    size = len(layout.code)
    if cells.size and (cells.min() < 0 or cells.max() >= size):
        bad = cells[(cells < 0) | (cells >= size)][0]
        raise ValueError(f"index {bad} is out of bounds for array with size {size}")
    return layout, cells


def canonical_cells(box: Box) -> np.ndarray:
    """Flat indices into the box's grid of all its cubes, in canonical order:
    by base, then by extent.  The order depends only on the grid's shape, so
    every box of one shape shares one read-only array."""
    return _layout(grid_shape(box)).order


def cell_dims(box: Box, cells) -> np.ndarray:
    """Dimensions of the cubes at these flat grid indices: the number of odd
    grid coordinates of each."""
    layout, cells = _lookup(box, cells)
    return layout.dims[layout.code[cells]]


def _cube_parts(box: Box, cells) -> tuple[list, list, list[int], list[int]]:
    """The box's bases and extents, each as a list of integer tuples in lex
    order, and per cell the index of its base and of its extent in them."""
    layout, cells = _lookup(box, cells)
    bases = list(itertools.product(*(range(a, b + 1) for a, b in zip(box.lo, box.hi))))
    extents = list(itertools.product((0, 1), repeat=box.ambient_dim))
    return bases, extents, layout.base_rank[cells].tolist(), layout.code[cells].tolist()


def cells_to_cubes(box: Box, cells: np.ndarray) -> list[ElementaryCube]:
    """The cubes at these flat grid indices, in the order given."""
    # the cubes share one tuple per base and one per extent
    bases, extents, i, k = _cube_parts(box, cells)
    return [ElementaryCube(bases[a], extents[b]) for a, b in zip(i, k)]


def cell_texts(box: Box, cells: np.ndarray) -> list[str]:
    """The canonical texts "d;b_1,...,b_d;bits" (``ElementaryCube.canonical``)
    of the cubes at these flat grid indices, in the order given."""
    bases, extents, i, k = _cube_parts(box, cells)
    bases = [f"{box.ambient_dim};" + ",".join(map(str, b)) for b in bases]
    extents = [";" + "".join(map(str, e)) for e in extents]
    return [bases[a] + extents[b] for a, b in zip(i, k)]


def cell_faces(box: Box, cells: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Signed codimension-1 faces of the q-cubes at these flat grid indices.

    Returns a (len(cells), 2q) array of the faces' flat indices and their 2q
    signs.  The faces come in pairs, one pair per nondegenerate axis in
    increasing axis order: along the k-th such axis (k = 0, 1, ...) first
    the face one axis stride up (base + 1 on that axis), with sign (-1)^k,
    then the face a stride down (the same base), with the opposite sign.
    """
    layout, cells = _lookup(box, cells)
    code = layout.code[cells]
    if np.any(layout.dims[code] != q):
        raise ValueError(f"not every cell is a {q}-cube")
    if q >= len(layout.offsets):  # no cell is a q-cube, so there are none
        return np.empty((0, 2 * q), dtype=np.int64), _face_signs(q)
    return cells[:, None] + layout.offsets[q][code], layout.signs[q]


def box_slice(outer: Box, inner: Box) -> tuple[slice, ...]:
    """The part of the outer box's grid that is the inner box's grid."""
    if inner.ambient_dim != outer.ambient_dim or not all(
            a0 <= a and b <= b0 for a0, b0, a, b in zip(outer.lo, outer.hi, inner.lo, inner.hi)):
        raise ValueError(f"box {inner.lo}..{inner.hi} is not inside the region "
                         f"{outer.lo}..{outer.hi}")
    return tuple(slice(2 * (a - a0), 2 * (b - a0) + 1)
                 for a0, a, b in zip(outer.lo, inner.lo, inner.hi))


@lru_cache(maxsize=262144)
def boundary_faces(cube: ElementaryCube) -> list[tuple[ElementaryCube, int]]:
    """Signed codimension-1 faces of the cube, as (face, sign) pairs.

    For the j-th nondegenerate axis (in increasing axis order) the face
    degenerated upward gets sign (-1)^(j-1) and the face degenerated downward
    the opposite sign.  Degenerate cubes have empty boundary.
    """
    faces: list[tuple[ElementaryCube, int]] = []
    for j, axis in enumerate(a for a, e in enumerate(cube.extent) if e):
        sign = -1 if j % 2 else 1
        ext = cube.extent[:axis] + (0,) + cube.extent[axis + 1 :]
        up = cube.base[:axis] + (cube.base[axis] + 1,) + cube.base[axis + 1 :]
        faces += [(ElementaryCube(up, ext), sign), (ElementaryCube(cube.base, ext), -sign)]
    return faces


@lru_cache(maxsize=262144)
def faces_contained_in(cube: ElementaryCube) -> list[ElementaryCube]:
    """All elementary cubes Q' with Q' contained in the cube (itself included);
    there are 3^dim of them."""
    choices = []
    for b, e in zip(cube.base, cube.extent):
        if e:
            choices.append(((b, 1), (b, 0), (b + 1, 0)))
        else:
            choices.append(((b, 0),))
    return [ElementaryCube(*zip(*combo)) for combo in itertools.product(*choices)]


@lru_cache(maxsize=262144)
def cofaces_containing(cube: ElementaryCube) -> list[ElementaryCube]:
    """All elementary cubes Q' with Q' containing the cube (itself included).

    Each degenerate axis {l} may stay degenerate or extend to [l-1, l] or
    [l, l+1]; nondegenerate axes are forced.  Count is 3^(d - dim).
    """
    choices = []
    for b, e in zip(cube.base, cube.extent):
        if e:
            choices.append(((b, 1),))
        else:
            choices.append(((b, 0), (b - 1, 1), (b, 1)))
    return [ElementaryCube(*zip(*combo)) for combo in itertools.product(*choices)]


def all_cubes_box(box: Box) -> list[ElementaryCube]:
    """Every elementary cube of any dimension contained in the box, in
    canonical order."""
    return cells_to_cubes(box, canonical_cells(box))


def cube_count_formula(d: int, n: int, q: int) -> int:
    """Closed-form number of q-cubes in the window [-n, n]^d."""
    return comb(d, q) * (2 * n) ** q * (2 * n + 1) ** (d - q)
