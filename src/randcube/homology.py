"""Exact linear algebra over a field: boundary matrices, ranks, Betti numbers.

Homology is computed over GF(p) with p = 2^31 - 1 by default.  Betti numbers
over a prime field match the real-coefficient ones unless the complex has
p-torsion, which cannot occur at the sizes handled here; an exact-rational
mode is provided for cross-checks on small instances.  GF(2) is available as
an explicitly requested fast mode only: because of 2-torsion its Betti
numbers may diverge from the real-coefficient ones for d >= 4, and its
persistence diagrams already at d = 3 (a cubical Moebius band filtered after
its boundary circle gives one bar over Q or GF(p), two bars over GF(2)).

Matrices are stored column-major as dicts {row_index: coefficient}; the
elimination engine pivots on the lowest nonzero entry of a column (the
largest row index), and any ints serve as row indices.  ``boundary_matrix``
and ``betti`` take a region's box and an array of flat grid cells of it (the
layout ``cubes`` owns), with signed faces from ``cubes.cell_faces``; the
rank-based persistent Betti route feeds the engine columns keyed by the same
cells.  The persistence diagram reduction has its own loop, so the two
routes stay independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable

import numpy as np

from .cubes import Box, cell_dims, cell_faces, cells_to_cubes, grid_shape

DEFAULT_PRIME = 2147483647

Column = dict[int, int]


class PrimeField:
    """Arithmetic in GF(p) on plain ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_PRIME):
        if p < 2:
            raise ValueError("field characteristic must be a prime >= 2")
        self.p = p

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def from_signed(self, value: int) -> int:
        return value % self.p

    def inv(self, value: int):
        return pow(value, -1, self.p)

    def submul_into(self, dst: Column, src: Column, factor: int) -> None:
        """dst -= factor * src, dropping entries that cancel."""
        p = self.p
        get = dst.get
        for row, v in src.items():
            nv = (get(row, 0) - factor * v) % p
            if nv:
                dst[row] = nv
            elif row in dst:
                del dst[row]

    def scale_into(self, col: Column, factor: int) -> None:
        p = self.p
        for row in col:
            col[row] = col[row] * factor % p


class RationalField:
    """Exact rational arithmetic; the cross-check mode for small instances."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "RationalField()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalField)

    def from_signed(self, value: int) -> Fraction:
        return Fraction(value)

    def inv(self, value: Fraction) -> Fraction:
        return 1 / value

    def submul_into(self, dst: Column, src: Column, factor) -> None:
        get = dst.get
        for row, v in src.items():
            nv = get(row, 0) - factor * v
            if nv:
                dst[row] = nv
            elif row in dst:
                del dst[row]

    def scale_into(self, col: Column, factor) -> None:
        for row in col:
            col[row] = col[row] * factor


DEFAULT_FIELD = PrimeField(DEFAULT_PRIME)


def reduce_columns(
    columns: Iterable[Column],
    field=DEFAULT_FIELD,
    want_kernel: bool = False,
):
    """Column elimination with pivot at each column's largest row index.

    Returns (rank, pivot_rows, kernel) where pivot_rows maps pivot row ->
    input column index and kernel is a list of coordinate dicts {input column
    index: coefficient} spanning the kernel (only populated when
    ``want_kernel``).
    """
    pivot_of: dict[int, int] = {}
    stored_cols: list[Column] = []
    stored_combos: list[Column] = []
    pivot_rows: dict[int, int] = {}
    kernel: list[Column] = []
    one = field.from_signed(1)
    for j, col_in in enumerate(columns):
        col = dict(col_in)
        combo: Column = {j: one} if want_kernel else {}
        while col:
            low = max(col)
            hit = pivot_of.get(low)
            if hit is None:
                break
            factor = col[low]
            field.submul_into(col, stored_cols[hit], factor)
            if want_kernel:
                field.submul_into(combo, stored_combos[hit], factor)
        if col:
            low = max(col)
            inv = field.inv(col[low])
            field.scale_into(col, inv)
            if want_kernel:
                field.scale_into(combo, inv)
            pivot_of[low] = len(stored_cols)
            pivot_rows[low] = j
            stored_cols.append(col)
            stored_combos.append(combo)
        elif want_kernel:
            kernel.append(combo)
    return len(stored_cols), pivot_rows, kernel


@dataclass
class SparseMatrix:
    """Boundary-style matrix: rows and columns indexed by flat grid cells,
    entries in the field, stored column-major with no explicit zeros."""

    row_cells: np.ndarray
    col_cells: np.ndarray
    columns: list[Column]
    field: PrimeField | RationalField

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_cells), len(self.col_cells)


def boundary_matrix(region: Box, cells, q: int, field=DEFAULT_FIELD) -> SparseMatrix:
    """Matrix of the boundary map from q-chains to (q-1)-chains of a
    face-closed set of the region's flat grid cells: rows are its
    (q-1)-cells and columns its q-cells, both in the order given.

    Raises ValueError("not face-closed ...") if some face of a q-cell is
    missing from the set.
    """
    if q < 1:
        raise ValueError("boundary matrix requires q >= 1")
    cells = np.asarray(cells, dtype=np.int64)
    dims = cell_dims(region, cells)
    rows, cols = cells[dims == q - 1], cells[dims == q]
    faces, signs = cell_faces(region, cols, q)
    row = np.full(prod(grid_shape(region)), -1, dtype=np.int64)  # -1: not in the set
    row[rows] = np.arange(len(rows))
    missing = np.argwhere(row[faces] < 0)
    if len(missing):
        j, k = missing[0]
        face, cube = cells_to_cubes(region, np.array([faces[j, k], cols[j]]))
        raise ValueError(
            f"not face-closed: {face.canonical()} missing "
            f"(face of {cube.canonical()})"
        )
    signs = [field.from_signed(x) for x in signs.tolist()]
    columns = [dict(zip(f, signs)) for f in row[faces].tolist()]
    return SparseMatrix(rows, cols, columns, field)


def rank(matrix: SparseMatrix) -> int:
    """Exact rank over the matrix's field."""
    r, _, _ = reduce_columns(matrix.columns, matrix.field)
    return r


def kernel_basis(matrix: SparseMatrix) -> list[Column]:
    """Basis of the kernel, as coordinate dicts over the matrix's columns."""
    _, _, kernel = reduce_columns(matrix.columns, matrix.field, want_kernel=True)
    return kernel


def betti(region: Box, cells, field=DEFAULT_FIELD) -> np.ndarray:
    """Exact Betti numbers b_0..b_d of a face-closed set of the region's flat
    grid cells, as an int64 array.

    b_q is the number of q-cells minus the ranks of the q-th and (q+1)-th
    boundary maps; each boundary matrix is built once.
    """
    cells = np.asarray(cells, dtype=np.int64)
    d = region.ambient_dim
    ranks = np.array([0] + [rank(boundary_matrix(region, cells, q, field))
                            for q in range(1, d + 1)] + [0])
    return np.bincount(cell_dims(region, cells), minlength=d + 1) - ranks[:-1] - ranks[1:]
