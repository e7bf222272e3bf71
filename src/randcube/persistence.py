"""Bounded cubical filtrations, persistence diagrams, persistent Betti numbers.

A filtration is a birth grid: one float64 entry per elementary cube of a box
in the layout that ``cubes`` owns, inf where the cube is never born; the grid
is its only input form.  It must satisfy the monotone face condition (faces
are born no later than their cofaces).  Everything here runs on flat grid
cells; cubes are built only for the {cube: birth} view ``births`` and to
name a bad birth or a violating (face, cube) pair.  The text dump
(``models.format_filtration``/``parse_filtration``) reads and writes the
grid directly, not through ``births``.
Diagrams are computed by standard column reduction of the total boundary
matrix in birth order, on flat grid indices; persistent Betti numbers are
additionally computed by a fully independent rank-based route on the same
grid cells, over arrays of (s, t) corners, so the two act as mutual oracles
(neither calls the other; they share only the face operator ``cell_faces``).

Time values are exact binary64; birth-time comparisons are exact equality,
never epsilon-based.  Death = inf is a distinct sentinel ordered above every
finite time.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .cubes import (Box, ElementaryCube, Window, canonical_cells, cell_dims, cell_faces,
                    cells_to_cubes, grid_shape)
from .homology import DEFAULT_FIELD, Column, reduce_columns

INF = math.inf
Corner = float | np.ndarray  # one corner coordinate, or an array of them


class Filtration:
    """A region plus its birth grid ``grid`` (inf where a cube is never
    born).  A nan or negative birth is rejected, never read as "not born".
    ``births`` reads the finite births back as a {cube: birth} dict in
    canonical cube order."""

    def __init__(self, region: Box | Window, grid: np.ndarray, meta: dict | None = None):
        if isinstance(region, Window):
            region = region.box
        self.region = region
        self.meta = dict(meta) if meta else {}
        shape = grid_shape(region)
        grid = np.asarray(grid, dtype=np.float64)
        if grid.shape != shape:
            raise ValueError(f"birth grid shape {grid.shape} is not the region's {shape}")
        bad = ~(grid >= 0)  # also catches nan and -inf
        if bad.any():
            cells = canonical_cells(region)
            cell = cells[np.argmax(bad.ravel()[cells])]
            raise ValueError("birth times must be nonnegative, got "
                             f"{float(grid.flat[cell])!r} at "
                             f"{cells_to_cubes(region, [cell])[0].canonical()}")
        self.grid = grid
        self._births: dict[ElementaryCube, float] | None = None

    @property
    def d(self) -> int:
        return self.region.ambient_dim

    @property
    def births(self) -> dict[ElementaryCube, float]:
        if self._births is None:
            cells = canonical_cells(self.region)
            cells = cells[self.grid.ravel()[cells] < INF]
            self._births = dict(zip(cells_to_cubes(self.region, cells),
                                    self.grid.ravel()[cells].tolist()))
        return self._births

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Filtration)
            and self.region == other.region
            and np.array_equal(self.grid, other.grid)
        )

    def __repr__(self) -> str:
        return (
            f"Filtration(d={self.d}, region={self.region.lo}..{self.region.hi}, "
            f"{int((self.grid < INF).sum())} finite births)"
        )


def validate(filtration: Filtration) -> Optional[tuple[ElementaryCube, ElementaryCube]]:
    """Check the monotone face condition; None if ok, else the first violating
    (face, cube) pair in canonical cube order.

    Violations are data, not exceptions.  Checking codimension-1 faces
    suffices: the general condition follows by transitivity.  A cube is late
    when one of its two neighbours along an axis where it is nondegenerate
    (an odd position) is born after it.  The first late cell's first face
    (in ``cell_faces`` order) born after it is the face reported; only
    those two cells are turned into cubes.
    """
    region, grid = filtration.region, filtration.grid
    late = np.zeros(grid.shape, dtype=bool)
    for axis in range(grid.ndim):
        g, lt = np.moveaxis(grid, axis, 0), np.moveaxis(late, axis, 0)
        lt[1::2] |= (g[:-1:2] > g[1::2]) | (g[2::2] > g[1::2])
    if not late.any():
        return None
    cells = canonical_cells(region)
    cell = cells[np.argmax(late.ravel()[cells])]
    (faces,), _ = cell_faces(region, [cell], cell_dims(region, [cell])[0])
    face = faces[np.argmax(grid.flat[faces] > grid.flat[cell])]
    return tuple(cells_to_cubes(region, [face, cell]))


def sublevel(filtration: Filtration, t: float) -> np.ndarray:
    """Flat grid cells of the cubes born no later than t, in canonical
    order; face-closed whenever the filtration is valid."""
    cells = canonical_cells(filtration.region)
    return cells[filtration.grid.ravel()[cells] <= t]


class PersistenceDiagram:
    """Degree-indexed multiset of (birth, death) pairs, birth < death <= inf."""

    def __init__(self, d: int, pairs: dict[int, list[tuple[float, float]]], meta=None):
        self.d = d
        self.pairs = {q: sorted(ps) for q, ps in pairs.items() if ps}
        self.meta = dict(meta) if meta else {}

    def degree(self, q: int) -> list[tuple[float, float]]:
        """The degree-q pairs; q must lie in 0..d-1."""
        if not 0 <= q < self.d:
            raise ValueError(f"q={q} out of range for d={self.d}")
        return self.pairs.get(q, [])

    def total_count(self, q: int) -> int:
        return len(self.pairs.get(q, []))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PersistenceDiagram) and self.pairs == other.pairs

    def __repr__(self) -> str:
        counts = {q: len(ps) for q, ps in sorted(self.pairs.items())}
        return f"PersistenceDiagram(d={self.d}, counts={counts})"


def _require_valid(filtration: Filtration) -> None:
    violation = validate(filtration)
    if violation is not None:
        face, cube = violation
        raise ValueError(
            "filtration violates the monotone face condition: "
            f"face {face.canonical()} born after {cube.canonical()}"
        )


def compute_diagram(
    filtration: Filtration, field=DEFAULT_FIELD, _tie_key=None
) -> PersistenceDiagram:
    """Persistence diagram via column reduction of the total boundary matrix.

    Cubes are ordered by (birth, dimension, canonical cube order), which puts
    every face before its cofaces.  Columns live on flat grid indices, with
    signed faces from ``cell_faces``.  The reduction runs per dimension from
    the top down with the clearing shortcut (a column whose cube was already
    used as a pivot row must reduce to zero and is skipped).  Pairs with
    equal birth and death are discarded.

    ``_tie_key`` (a function of the array of finite cells, in canonical
    order, returning one key per cell) overrides the canonical tie-break
    among equal-birth cubes of equal dimension; the diagram is invariant
    under this choice, which the test suite asserts by shuffling it.
    """
    _require_valid(filtration)
    flat, d = filtration.grid.ravel(), filtration.d
    cells = canonical_cells(filtration.region)
    cells = cells[flat[cells] < INF]  # the finite cubes, in canonical order
    tie = np.arange(len(cells)) if _tie_key is None else np.asarray(_tie_key(cells))
    dims = cell_dims(filtration.region, cells)
    order = np.lexsort((tie, dims, flat[cells]))
    cells, dims = cells[order], dims[order]
    births = flat[cells].tolist()
    index = np.empty(flat.size, dtype=np.int64)
    index[cells] = np.arange(len(cells))

    pivot_row_of: dict[int, int] = {}  # pivot row index -> killing column index
    for q in range(d, 0, -1):
        cols = np.flatnonzero(dims == q)
        faces, signs = cell_faces(filtration.region, cells[cols], q)
        faces = index[faces].tolist()
        signs = [field.from_signed(s) for s in signs.tolist()]
        pivots: dict[int, dict] = {}
        for j, rows in zip(cols.tolist(), faces):
            if j in pivot_row_of:  # cleared
                continue
            col = dict(zip(rows, signs))
            while col:
                low = max(col)
                hit = pivots.get(low)
                if hit is None:
                    break
                field.submul_into(col, hit, col[low])
            if col:
                low = max(col)
                field.scale_into(col, field.inv(col[low]))
                pivots[low] = col
                pivot_row_of[low] = j

    dims = dims.tolist()
    pairs: dict[int, list[tuple[float, float]]] = {}
    for low, j in pivot_row_of.items():
        if births[low] < births[j]:
            pairs.setdefault(dims[low], []).append((births[low], births[j]))
    # creators are the zero-reduced (or cleared, or dimension-0) columns;
    # those never hit as a pivot row survive forever
    killers = set(pivot_row_of.values())
    for i, (q, b) in enumerate(zip(dims, births)):
        if i not in killers and i not in pivot_row_of:
            pairs.setdefault(q, []).append((b, INF))
    meta = dict(filtration.meta)
    meta.setdefault("d", d)
    return PersistenceDiagram(d, pairs, meta)


def quadrant_mass(diagram: PersistenceDiagram, q: int,
                  s: Corner, t: Corner) -> int | np.ndarray:
    """Number of degree-q pairs with birth <= s and death > t (inf included).

    The corners s and t broadcast as arrays: scalar corners give an int,
    array corners an int64 array of the broadcast shape.  Every corner must
    satisfy 0 <= s <= t < inf.
    """
    s, t = (np.asarray(x, dtype=np.float64)[..., None] for x in (s, t))
    if not np.all((0 <= s) & (s <= t) & (t < INF)):
        raise ValueError("quadrant requires 0 <= s <= t < inf")
    b, dth = np.array(diagram.degree(q), dtype=np.float64).reshape(-1, 2).T
    mass = ((b <= s) & (dth > t)).sum(-1, dtype=np.int64)
    return mass if mass.ndim else int(mass)


def rectangle_mass(diagram: PersistenceDiagram, q: int, s1: Corner, s2: Corner,
                   t1: Corner, t2: Corner) -> int | np.ndarray:
    """Number of degree-q pairs with birth in (s1, s2] and death in (t1, t2].

    Equals the alternating quadrant sum
    beta(s2,t1) - beta(s2,t2) + beta(s1,t2) - beta(s1,t1).  The corners
    broadcast as in ``quadrant_mass``; any misordered rectangle raises.
    """
    s1, s2, t1, t2 = (np.asarray(x, dtype=np.float64)[..., None]
                      for x in (s1, s2, t1, t2))
    if not np.all((0 <= s1) & (s1 <= s2) & (s2 <= t1) & (t1 <= t2) & (t2 < INF)):
        raise ValueError("rectangle requires 0 <= s1 <= s2 <= t1 <= t2 < inf")
    b, dth = np.array(diagram.degree(q), dtype=np.float64).reshape(-1, 2).T
    mass = ((s1 < b) & (b <= s2) & (t1 < dth) & (dth <= t2)).sum(-1, dtype=np.int64)
    return mass if mass.ndim else int(mass)


def _boundary_columns(region: Box, cells, q: int, field) -> list[Column]:
    """Boundary columns of the q-cells, keyed by the faces' flat indices."""
    faces, signs = cell_faces(region, cells, q)
    signs = [field.from_signed(x) for x in signs.tolist()]
    return [dict(zip(f, signs)) for f in faces.tolist()]


def persistent_betti_direct(
    filtration: Filtration, q: int, s: Corner, t: Corner, field=DEFAULT_FIELD
) -> int | np.ndarray:
    """Persistent Betti numbers beta_q^{s,t} by pure rank computations.

    beta_q^{s,t} = dim Z_q(s) - dim(Z_q(s) cap B_q(t))
                 = dim(Z_q(s) + B_q(t)) - rank B_q(t).
    The corners broadcast as in ``quadrant_mass``: scalar corners give an
    int, array corners an int64 array of the broadcast shape.  Every corner
    must satisfy 0 <= s <= t < inf.

    The route works on flat grid cells, with faces from ``cell_faces``.  Let
    s_1 < ... < s_m be the distinct s values.  The q-cells born by s_m are
    ordered by the first level s_k that holds them (canonical order within a
    level), and one elimination of their boundary columns gives a nested
    cycle basis: each kernel combination's largest column lies in the level
    where its cycle appears, so the combinations up to level k span
    Z_q(s_k).  Then, per distinct t, one elimination of [level-t
    (q+1)-boundary columns | lifted cycle basis] counts the cycle columns
    that keep a pivot.  A column's pivot does not depend on the columns after
    it, so the count over levels <= k is beta_q^{s_k,t}.  This route never
    touches the diagram reduction, so the two can cross-check each other.
    """
    s, t = np.broadcast_arrays(np.asarray(s, dtype=np.float64),
                               np.asarray(t, dtype=np.float64))
    if not np.all((0 <= s) & (s <= t) & (t < INF)):
        raise ValueError("persistent Betti requires 0 <= s <= t < inf")
    if not 0 <= q < filtration.d:
        raise ValueError(f"q={q} out of range for d={filtration.d}")
    _require_valid(filtration)

    region, flat = filtration.region, filtration.grid.ravel()
    cells = canonical_cells(region)
    cells = cells[flat[cells] <= t.max(initial=0.0)]
    dims = cell_dims(region, cells)
    levels = np.unique(s)
    q_cells = cells[(dims == q) & (flat[cells] <= s.max(initial=0.0))]
    level = np.searchsorted(levels, flat[q_cells])  # the first s_k >= birth
    order = np.argsort(level, kind="stable")
    q_cells, level = q_cells[order].tolist(), level[order]

    # 0-cells have empty boundary columns, so each is a cycle of its own
    kernel = reduce_columns(_boundary_columns(region, q_cells, q, field), field,
                            want_kernel=True)[2]
    cycle_level = level[np.array([max(c) for c in kernel], dtype=np.int64)]
    lifted = [{q_cells[j]: v for j, v in c.items()} for c in kernel]

    up = cells[dims == q + 1]
    up_births = flat[up]
    boundary = _boundary_columns(region, up, q + 1, field)
    s_level = np.searchsorted(levels, s)
    out = np.zeros(s.shape, dtype=np.int64)
    for t_value in np.unique(t):
        at = t == t_value
        m = np.searchsorted(cycle_level, s_level[at].max(), side="right")
        if m == 0:
            continue
        cols = [boundary[i] for i in np.flatnonzero(up_births <= t_value)]
        _, pivot_rows, _ = reduce_columns(cols + lifted[:m], field)
        kept = np.array([j - len(cols) for j in pivot_rows.values() if j >= len(cols)],
                        dtype=np.int64)
        per_level = np.bincount(cycle_level[kept], minlength=len(levels))
        out[at] = per_level.cumsum()[s_level[at]]
    return out if out.ndim else int(out)


HEADER_PREFIX = "#"


def _fmt_time(t: float) -> str:
    return "inf" if t == INF else repr(t)


def format_diagram(diagram: PersistenceDiagram) -> str:
    """Line-oriented text form: header "# d q_max n seed", then one
    "q birth death" line per pair, sorted by (q, birth, death)."""
    meta = diagram.meta
    q_max = meta.get("q_max", diagram.d - 1)
    n = meta.get("n", "-")
    seed = meta.get("seed", "-")
    lines = [f"# {diagram.d} {q_max} {n} {seed}"]
    for q in sorted(diagram.pairs):
        for b, dth in diagram.pairs[q]:
            lines.append(f"{q} {_fmt_time(b)} {_fmt_time(dth)}")
    return "\n".join(lines) + "\n"


def parse_diagram(text: str) -> PersistenceDiagram:
    lines = [(number, ln) for number, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    header = lines[0][1] if lines else ""
    if not header.startswith(HEADER_PREFIX):
        raise ValueError("diagram file must start with a '# d q_max n seed' header")
    tokens = header[1:].split()
    if len(tokens) != 4:
        raise ValueError(f"malformed diagram header: {header!r}")
    d = int(tokens[0])
    meta: dict = {"d": d}
    meta["q_max"] = int(tokens[1]) if tokens[1] != "-" else d - 1
    if tokens[2] != "-":
        meta["n"] = int(tokens[2])
    if tokens[3] != "-":
        meta["seed"] = int(tokens[3])
    pairs: dict[int, list[tuple[float, float]]] = {}
    for number, ln in lines[1:]:
        tokens = ln.split()
        if len(tokens) != 3:
            raise ValueError(f"malformed diagram line {number}: {ln!r}")
        try:
            q, b, dth = int(tokens[0]), float(tokens[1]), float(tokens[2])
        except ValueError as exc:
            raise ValueError(f"malformed diagram line {number}: {ln!r} ({exc})") from None
        if not 0 <= q < d:
            raise ValueError(f"degree {q} out of range for d={d} in diagram line "
                             f"{number}: {ln!r}")
        if b < 0:
            raise ValueError(f"negative birth in diagram line {number}: {ln!r}")
        if not b < dth:
            raise ValueError(f"pair with birth >= death in diagram line {number}: "
                             f"{ln!r}")
        pairs.setdefault(q, []).append((b, dth))
    return PersistenceDiagram(d, pairs, meta)
