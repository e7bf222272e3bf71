"""Exact linear algebra over a field: boundary matrices, ranks, Betti numbers.

Homology is computed over GF(p) with p = 2^31 - 1 by default.  Betti numbers
over a prime field match the real-coefficient ones unless the complex has
p-torsion, which cannot occur at the sizes handled here; an exact-rational
mode is provided for cross-checks on small instances.  GF(2) is available as
an explicitly requested fast mode only: because of 2-torsion its Betti
numbers may diverge from the real-coefficient ones for d >= 4, and its
persistence diagrams already at d = 3 (a cubical Moebius band filtered after
its boundary circle gives one bar over Q or GF(p), two bars over GF(2)).

The elimination engine, ``reduce_columns``, has one mode: it works on
field-valued dict columns {row_index: coefficient} (any ints serve as row
indices), pivots on the largest row index of a column, scales a new pivot
column to pivot entry 1 unless it already is 1, and reduces the columns
left to right, so the kept columns among the first k give the rank of those
k.  ``kernel_basis`` reads the kernel from the same elimination of the
identity-augmented matrix (R = DV).  ``boundary_columns`` builds such
columns straight from ``cubes.cell_faces``, keying each face through a row
map over the flat grid (the layout ``cubes`` owns): ``betti`` keys faces by
their flat grid cells and eliminates each degree once, and the rank-based
persistent Betti route keys them by birth rank and eliminates each of its
two boundary maps once.  ``boundary_matrix`` stores a boundary matrix as the
integer array it is, a ``scipy.sparse.csc_array`` of its signed
coefficients (+-1) with rows and columns in the order given, for exact
integer products (criterion 2; scipy.sparse is imported by the first
``boundary_matrix`` call, not with this module); ``SparseMatrix.columns``
reads it back as dict columns for ``rank`` and ``kernel_basis``.  The
persistence diagram has its own union-find pairing of degrees 0 and d-1 and
its own reduction loop for the degrees in between, so the two routes stay
independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .cubes import Box, cell_dims, cell_faces, cell_texts, grid_shape

if TYPE_CHECKING:
    from scipy import sparse

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


def reduce_columns(columns: Sequence[Column], field=DEFAULT_FIELD):
    """Column elimination with pivot at each column's largest row index.

    Returns (rank, pivot_rows, pivots): rank counts the given columns that
    keep a pivot, pivot_rows maps pivot row -> input column index and pivots
    maps pivot row -> that column reduced, scaled to pivot entry 1.  The
    columns are reduced left to right, so a column keeps a pivot exactly
    when it is independent of the columns before it: the kept columns among
    the first k give the rank of those k.
    """
    pivots: dict[int, Column] = {}  # pivot row -> its reduced column
    pivot_rows: dict[int, int] = {}
    one = field.from_signed(1)
    for j, col_in in enumerate(columns):
        col = dict(col_in)
        while col:
            low = max(col)
            hit = pivots.get(low)
            if hit is None:
                break
            field.submul_into(col, hit, col[low])
        if col:  # the loop stopped at a new pivot, its row is low
            if col[low] != one:
                field.scale_into(col, field.inv(col[low]))
            pivots[low] = col
            pivot_rows[low] = j
    return len(pivot_rows), pivot_rows, pivots


@dataclass
class SparseMatrix:
    """Boundary-style matrix: rows and columns indexed by flat grid cells,
    its signed integer coefficients held as a CSC array with no explicit
    zeros, read in the field as dict columns."""

    row_cells: np.ndarray
    col_cells: np.ndarray
    coefficients: sparse.csc_array
    field: PrimeField | RationalField

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_cells), len(self.col_cells)

    @property
    def columns(self) -> list[Column]:
        """The columns as {row index: field value} dicts, entries in stored
        order; built afresh on each read, for an elimination."""
        c = self.coefficients
        rows, ptr, data = c.indices.tolist(), c.indptr.tolist(), c.data.tolist()
        value = {v: self.field.from_signed(v) for v in set(data)}
        values = [value[v] for v in data]
        return [dict(zip(rows[a:b], values[a:b])) for a, b in zip(ptr, ptr[1:])]


def _require_faces(region: Box, cells: np.ndarray, faces: np.ndarray,
                   present: np.ndarray) -> None:
    """Raise the "not face-closed" ValueError naming the first face (in cell,
    then ``cell_faces`` order) that ``present`` marks as missing."""
    if not present.all():
        j, k = np.argwhere(~present)[0]
        face, cube = cell_texts(region, np.array([faces[j, k], cells[j]]))
        raise ValueError(f"not face-closed: {face} missing (face of {cube})")


def boundary_columns(region: Box, cells, q: int, rows: np.ndarray,
                     field=DEFAULT_FIELD) -> list[Column]:
    """Boundary columns of the region's q-cells given as flat grid cells:
    {rows[face]: signed coefficient}, in ``cell_faces`` order.

    ``rows`` maps the region's flat grid to row indices, -1 for a cell
    outside the set; a face mapped to -1 raises ValueError("not
    face-closed ...").
    """
    cells = np.asarray(cells, dtype=np.int64)
    faces, signs = cell_faces(region, cells, q)
    index = rows[faces]
    _require_faces(region, cells, faces, index >= 0)
    signs = [field.from_signed(x) for x in signs.tolist()]
    return [dict(zip(f, signs)) for f in index.tolist()]


def boundary_matrix(region: Box, cells, q: int, field=DEFAULT_FIELD) -> SparseMatrix:
    """Matrix of the boundary map from q-chains to (q-1)-chains of a
    face-closed set of the region's flat grid cells: rows are its
    (q-1)-cells and columns its q-cells, both in the order given.  Each
    column holds its 2q signed faces in ``cell_faces`` order.

    Raises ValueError("not face-closed ...") if some face of a q-cell is
    missing from the set.
    """
    from scipy import sparse

    if q < 1:
        raise ValueError("boundary matrix requires q >= 1")
    cells = np.asarray(cells, dtype=np.int64)
    dims = cell_dims(region, cells)
    rows, cols = cells[dims == q - 1], cells[dims == q]
    faces, signs = cell_faces(region, cols, q)
    row = np.full(prod(grid_shape(region)), -1, dtype=np.int64)  # -1: not in the set
    row[rows] = np.arange(len(rows))
    index = row[faces]
    _require_faces(region, cols, faces, index >= 0)
    coefficients = np.empty(index.shape, dtype=np.int64)
    coefficients[:] = signs  # one row of 2q signs per column
    coefficients = sparse.csc_array(
        (coefficients.ravel(), index.ravel(), np.arange(0, index.size + 1, 2 * q)),
        shape=(len(rows), len(cols)))
    return SparseMatrix(rows, cols, coefficients, field)


def rank(matrix: SparseMatrix) -> int:
    """Exact rank over the matrix's field."""
    r, _, _ = reduce_columns(matrix.columns, matrix.field)
    return r


def kernel_basis(matrix: SparseMatrix) -> list[Column]:
    """Basis of the kernel, as coordinate dicts {column index: coefficient}:
    the columns of the identity-augmented matrix (entry 1 at row -1-j of
    column j, below every matrix row) whose reduced matrix part is zero
    (R = DV).  The vectors are reduced against each other, each with
    coefficient 1 at its pivot column; any kernel basis is correct."""
    one = matrix.field.from_signed(1)
    columns = [{**col, -1 - j: one} for j, col in enumerate(matrix.columns)]
    pivots = reduce_columns(columns, matrix.field)[2]
    return [{-1 - row: v for row, v in col.items()}
            for low, col in pivots.items() if low < 0]


def betti(region: Box, cells, field=DEFAULT_FIELD) -> np.ndarray:
    """Exact Betti numbers b_0..b_d of a face-closed set of the region's flat
    grid cells, as an int64 array.

    b_q is the number of q-cells minus the ranks of the q-th and (q+1)-th
    boundary maps.  Each map is eliminated once, from its dict columns keyed
    by flat grid index (a rank does not depend on the row order).

    Raises ValueError("not face-closed ...") if some face of a cell is
    missing from the set.
    """
    cells = np.asarray(cells, dtype=np.int64)
    d = region.ambient_dim
    dims = cell_dims(region, cells)
    rows = np.full(prod(grid_shape(region)), -1, dtype=np.int64)  # -1: not in the set
    rows[cells] = cells
    ranks = np.zeros(d + 2, dtype=np.int64)
    for q in range(1, d + 1):
        columns = boundary_columns(region, cells[dims == q], q, rows, field)
        ranks[q] = reduce_columns(columns, field)[0]
    return np.bincount(dims, minlength=d + 1) - ranks[:-1] - ranks[1:]
