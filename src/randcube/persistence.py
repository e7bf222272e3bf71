"""Bounded cubical filtrations, persistence diagrams, persistent Betti numbers.

A filtration is a birth grid: one float64 entry per elementary cube of a box
in the layout that ``cubes`` owns, inf where the cube is never born; the grid
is its only input form.  It must satisfy the monotone face condition (faces
are born no later than their cofaces).  Everything here runs on flat grid
cells; cubes are built only for the {cube: birth} view ``births`` and to
name a bad birth or a violating (face, cube) pair.  The text dump
(``models.format_filtration``/``parse_filtration``) reads and writes the
grid directly, not through ``births``.  It and the diagram file share one
header reader, ``_read_dump``, and one writer, ``_dump_header``: a "-"
header field is absent from the meta dict, and a field the meta dict does
not hold is written as "-".
Diagrams pair degrees 0 and d-1 by union-find, with no field arithmetic:
degree 0 over the edges in birth order, degree d-1 over the dual graph of
d-cubes and an outside hub in reverse order, a never-born cube being born at
inf (by Alexander duality, the components of the complement).  Only the
degrees 1..d-2 in between come from column reduction in birth order, on
flat grid indices, shortened by two boolean masks over positions.  Clearing
skips, before any column is built, the cubes known to be positive (the
dual's creators and each pass's pivot rows); compression drops the rows of
the negative edges (those that join two components in degree 0) from the
2-cube columns.  Persistent Betti numbers are additionally computed by a fully
independent rank-based route on the same grid cells, over arrays of (s, t)
corners: two plain column reductions, read through the pairing lemma.  The
two act as mutual oracles (neither calls the other; they share only the
face operator ``cell_faces``).
In degree 0 a third route, ``persistent_betti_0``, counts the components of
X_t that meet X_s by labelling the grid: two cells one step apart along one
axis differ in one doubled coordinate, one even and one odd, so they are
exactly a codimension-1 (face, cube) pair, and the cross-shaped
neighbourhood of ``ndimage.label`` joins two cells of X_t exactly when one
is a codimension-1 face of the other.  (On a face-closed set the full 3^d
neighbourhood gives the same components: two diagonal neighbours have a
common face, born no later than either.)  It uses neither the reduction nor
``cell_faces``, and it is for q = 0 only.  The estimators and gap
diagnostics of ``limits`` read their q = 0 masses from it; the diagram, its
histogram and the reduction and rank routes never do.

Time values are exact binary64; birth-time comparisons are exact equality,
never epsilon-based.  Death = inf is a distinct sentinel ordered above every
finite time.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import Optional

import numpy as np

from .cubes import (Box, ElementaryCube, Window, canonical_cells, cell_dims, cell_faces,
                    cell_texts, cells_to_cubes, grid_shape)
from .homology import DEFAULT_FIELD, boundary_columns, reduce_columns

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
                             f"{cell_texts(region, [cell])[0]}")
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
        odd, below, above = ((slice(None),) * axis + (slice(a, b, 2),)
                             for a, b in ((1, None), (0, -1), (2, None)))
        late[odd] |= (grid[below] > grid[odd]) | (grid[above] > grid[odd])
    if not late.any():
        return None
    cells = canonical_cells(region)
    cell = cells[np.argmax(late.ravel()[cells])]
    (faces,), _ = cell_faces(region, [cell], cell_dims(region, [cell])[0])
    face = faces[np.argmax(grid.flat[faces] > grid.flat[cell])]
    return tuple(cells_to_cubes(region, [face, cell]))


def sublevel(filtration: Filtration, t: float) -> np.ndarray:
    """Flat grid cells of the cubes born no later than t, in canonical
    order; face-closed whenever the filtration is valid.  A nan t is
    rejected, not read as a level below every birth."""
    if math.isnan(t):
        raise ValueError(f"sublevel level t must be a number, got {t}")
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
        _check_degree(q, self.d)
        return self.pairs.get(q, [])

    def total_count(self, q: int) -> int:
        return len(self.pairs.get(q, []))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PersistenceDiagram) and self.d == other.d
                and self.pairs == other.pairs)

    def __repr__(self) -> str:
        counts = {q: len(ps) for q, ps in sorted(self.pairs.items())}
        return f"PersistenceDiagram(d={self.d}, counts={counts})"


def _check_degree(q: int, d: int) -> None:
    """The one check that a homological degree q lies in 0..d-1."""
    if not 0 <= q < d:
        raise ValueError(f"q={q} out of range for d={d}")


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
    """Persistence diagram: degrees 0 and d-1 by union-find, the degrees in
    between by column reduction of the boundary matrix.

    The cubes are ordered by (birth, dimension, canonical cube order), a
    never-born cube as born at inf, which puts every face before its
    cofaces: the never-born cubes follow the finite ones in (dimension,
    canonical) order.  Each cube is named by its position.  Pairs with equal
    birth and death are discarded (so is every pair a never-born cube
    creates); a finite creator that nothing kills, or that a never-born cube
    kills, is an essential pair (birth, inf).

    * Degree 0: the edges in order join the components of their two
      vertices.  An edge that joins two components kills the younger one,
      the pair (birth of its root vertex, birth of the edge).
    * Degree d-1 (d >= 2), by Alexander duality the components of the
      complement: the dual graph has the region's d-cubes and one outside
      hub as nodes, and each (d-1)-cube as an edge joining its two d-cofaces
      (the hub, for a coface outside the window), fed in reverse order.  The
      hub is the oldest node, then the d-cubes latest first; as each root is
      its component's oldest node, the hub is never a younger root and the
      order among never-born cubes changes no pair.  A (d-1)-cube that joins
      two components creates a class, killed by the younger root.
    * Degrees 1..d-2: the boundary columns of the q-cubes are reduced for
      q = d-1 down to 2, on flat grid indices with signed faces from
      ``cell_faces``.  Two boolean masks over positions, made only when
      d >= 3, shorten the passes.  Clearing (Chen and Kerber): the columns
      of the cubes in ``cleared`` are dropped before any face is looked up;
      it holds the dual's creators, and after each pass that pass's pivot
      rows.  Compression (Bauer, Kerber and Reininghaus): the rows in
      ``negative``, the edges that join two components in degree 0, are
      dropped from every column as it is built.  A negative edge is never
      the pivot of a 2-cube column, and each lowest row that a reduction
      meets is some column's pivot, so a column's lowest row is never such
      an edge: each column meets the same pivots with the same
      coefficients, the pairs and the column additions are those of the
      full columns, and fewer entries are touched.  (At d = 4 the
      q = 3 pass runs first, before the signs of the 2-cube rows are known,
      so only the q = 2 pass is compressed.)  Only these degrees use
      ``field``.

    ``_tie_key`` (a function of the array of every cell, in canonical order,
    returning one key per cell) overrides the canonical tie-break among
    equal-birth cubes of equal dimension, the never-born ones included; the
    diagram is invariant under this choice, which the test suite asserts by
    shuffling it.
    """
    _require_valid(filtration)
    region, flat, d = filtration.region, filtration.grid.ravel(), filtration.d
    cells = canonical_cells(region)
    dims = cell_dims(region, cells)
    tie = np.arange(len(cells)) if _tie_key is None else np.asarray(_tie_key(cells))
    order = np.lexsort((tie, dims, flat[cells]))
    cells, dims = cells[order], dims[order]
    births = flat[cells]
    m = int((births < INF).sum())  # the finite cubes take positions 0..m-1
    n = len(cells)
    index = np.empty(flat.size, dtype=np.int64)
    index[cells] = np.arange(n)
    lows, highs = [], []  # creator and killer positions, one array per route

    edges = np.flatnonzero(dims[:m] == 1)
    joins, younger = _elder_merges(index[cell_faces(region, cells[edges], 1)[0]], m)
    merges = edges[joins]  # the negative edges, each joining two components
    lows.append(np.array(younger, dtype=np.int64))
    highs.append(merges)

    if d >= 2:
        # node ids: 0 the outside hub, then the d-cubes latest first, so the
        # d-cube at position top[k] is node len(top) - k
        top = np.flatnonzero(dims == d)
        faces = cell_faces(region, cells[top], d)[0]
        below = np.zeros(flat.size, dtype=np.int64)  # a face's coface a stride down
        above = np.zeros(flat.size, dtype=np.int64)  # and a stride up
        ids = np.arange(len(top), 0, -1)[:, None]
        below[faces[:, 0::2]], above[faces[:, 1::2]] = ids, ids
        position = np.flatnonzero(dims == d - 1)[::-1]  # the (d-1)-cubes, latest first
        sigma = cells[position]
        joins, younger = _elder_merges(
            np.stack([below[sigma], above[sigma]], axis=1), len(top) + 1)
        joins = position[joins]
        lows.append(joins)
        highs.append(top[len(top) - np.array(younger, dtype=np.int64)])

    one = field.from_signed(1)
    pivot_row_of: dict[int, int] = {}  # pivot row -> killing column
    if d >= 3:  # masks over positions, for the middle passes only
        cleared = np.zeros(n, dtype=bool)  # cubes known to be positive
        cleared[joins] = True  # the dual's creators
        negative = np.zeros(n, dtype=bool)  # rows that are never a pivot
        negative[merges] = True
    for q in range(d - 1, 1, -1):
        cols = np.flatnonzero(dims[:m] == q)
        cols = cols[~cleared[cols]]
        faces, signs = cell_faces(region, cells[cols], q)
        faces = index[faces]
        faces = np.where(negative[faces], -1, faces).tolist()  # -1: a dropped row
        signs = [field.from_signed(s) for s in signs.tolist()]
        pivots: dict[int, dict] = {}
        for j, rows in zip(cols.tolist(), faces):
            col = dict(zip(rows, signs))
            col.pop(-1, None)  # compression
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
                pivot_row_of[low] = j
        cleared[list(pivots)] = True  # clearing for the next pass
    lows.append(np.fromiter(pivot_row_of.keys(), dtype=np.int64, count=len(pivot_row_of)))
    highs.append(np.fromiter(pivot_row_of.values(), dtype=np.int64, count=len(pivot_row_of)))

    low, high = np.concatenate(lows), np.concatenate(highs)
    essential = births < INF
    essential[low] = essential[high] = False
    finite = births[low] < births[high]
    low, high = low[finite], high[finite]
    degree = np.concatenate([dims[low], dims[essential]])
    birth = np.concatenate([births[low], births[essential]])
    death = np.concatenate([births[high], np.full(int(essential.sum()), INF)])
    pairs = {int(q): list(zip(birth[degree == q].tolist(), death[degree == q].tolist()))
             for q in np.unique(degree)}
    meta = dict(filtration.meta)
    meta.setdefault("d", d)
    return PersistenceDiagram(d, pairs, meta)


def _elder_merges(ends: np.ndarray, size: int) -> tuple[list[int], list[int]]:
    """Union-find over the nodes 0..size-1, a smaller node being older, fed
    the edges ``ends`` (an (m, 2) array of node pairs) in the order given.
    By the elder rule the younger of two joined roots hangs under the older,
    so every root is its component's oldest node.  Returns the indices of
    the edges that join two components and, for each, the younger root it
    joins."""
    parent = list(range(size))
    joins, younger = [], []
    for k, a, b in zip(range(len(ends)), ends[:, 0].tolist(), ends[:, 1].tolist()):
        while (up := parent[a]) != a:  # path halving
            parent[a] = a = parent[up]
        while (up := parent[b]) != b:
            parent[b] = b = parent[up]
        if a != b:
            if a < b:
                a, b = b, a
            parent[a] = b
            joins.append(k)
            younger.append(a)
    return joins, younger


def _pb_corners(s: Corner, t: Corner) -> tuple[np.ndarray, np.ndarray]:
    """The broadcast corner arrays of a persistent Betti query; the one check
    that every corner satisfies 0 <= s <= t < inf, naming the first that does not."""
    s, t = np.asarray(s, dtype=np.float64), np.asarray(t, dtype=np.float64)
    if s.shape != t.shape:
        s, t = np.broadcast_arrays(s, t)
    bad = ~((0 <= s) & (s <= t) & (t < INF))
    if bad.any():
        i = np.argmax(bad)
        raise ValueError(f"corner (s, t) = ({float(s.flat[i])}, {float(t.flat[i])}) "
                         "violates 0 <= s <= t < inf")
    return s, t


def quadrant_mass(diagram: PersistenceDiagram, q: int,
                  s: Corner, t: Corner) -> int | np.ndarray:
    """Number of degree-q pairs with birth <= s and death > t (inf included).

    The corners s and t broadcast as arrays: scalar corners give an int,
    array corners an int64 array of the broadcast shape.  Every corner must
    satisfy 0 <= s <= t < inf (``_pb_corners``).

    The masses are read from one table.  With the P pairs sorted by birth
    and t_1 < ... < t_m the distinct t values, alive[k, j] is the number of
    the first k pairs whose death is > t_j, and the mass at (s, t_j) is
    alive[#(births <= s), j]: about P*m + C*log(P) work for C corners, in
    place of C*P.
    """
    s, t = _pb_corners(s, t)
    pairs = np.array(diagram.degree(q), dtype=np.float64).reshape(-1, 2)
    births, deaths = pairs[np.argsort(pairs[:, 0], kind="stable")].T
    levels = np.unique(t)
    alive = np.zeros((len(births) + 1, len(levels)), dtype=np.int64)
    np.cumsum(deaths[:, None] > levels, axis=0, out=alive[1:])
    mass = alive[np.searchsorted(births, s, side="right"), np.searchsorted(levels, t)]
    return mass if mass.ndim else int(mass)


def rectangle_mass(diagram: PersistenceDiagram, q: int, s1: Corner, s2: Corner,
                   t1: Corner, t2: Corner) -> int | np.ndarray:
    """Number of degree-q pairs with birth in (s1, s2] and death in (t1, t2].

    Equals the alternating quadrant sum
    beta(s2,t1) - beta(s2,t2) + beta(s1,t2) - beta(s1,t1).  The corners
    broadcast as in ``quadrant_mass``; the rectangle is checked as the
    corner chain (s1, s2), (s2, t1), (t1, t2) by ``_pb_corners``.
    """
    for lo, hi in ((s1, s2), (s2, t1), (t1, t2)):
        _pb_corners(lo, hi)
    s1, s2, t1, t2 = (np.asarray(x, dtype=np.float64)[..., None]
                      for x in (s1, s2, t1, t2))
    b, dth = np.array(diagram.degree(q), dtype=np.float64).reshape(-1, 2).T
    mass = ((s1 < b) & (b <= s2) & (t1 < dth) & (dth <= t2)).sum(-1, dtype=np.int64)
    return mass if mass.ndim else int(mass)


def persistent_betti_direct(
    filtration: Filtration, q: int, s: Corner, t: Corner, field=DEFAULT_FIELD
) -> int | np.ndarray:
    """Persistent Betti numbers beta_q^{s,t} by pure rank computations.

    As B_q(t) lies in Z_q(t) and C_q(s) cap Z_q(t) = Z_q(s),
        beta_q^{s,t} = dim Z_q(s) - dim(Z_q(s) cap B_q(t))
                     = dim Z_q(s) - dim(C_q(s) cap B_q(t)).
    The corners broadcast as in ``quadrant_mass``: scalar corners give an
    int, array corners an int64 array of the broadcast shape.  Every corner
    must satisfy 0 <= s <= t < inf.

    The route works on flat grid cells, with faces from ``cell_faces``; the
    cells born by the largest t are numbered by birth (canonical order among
    equal births), and the boundary columns are keyed by these numbers, so
    every C_q(s) is a prefix of the rows.  Both counts come from the pairing
    lemma (Cohen-Steiner, Edelsbrunner and Morozov, "Vines and vineyards by
    updating persistence in linear time", SoCG 2006): after one left-to-right
    reduction, the rank of a lower-left block, the columns of a prefix and
    the rows of a prefix, is the number of pivots inside it.  So one
    reduction of the q-cells' columns, in birth order, gives rank d_q on
    every C_q(s), hence dim Z_q(s) (none is needed at q = 0), and one of
    the (q+1)-cells' columns, in birth order, gives dim(C_q(s) cap B_q(t))
    as the number of kept columns born by t whose pivot row is born by s.
    Each C_q(s) and each B_q(t) is a union of whole groups of equal births,
    so the order among ties changes no count.  This route never touches
    the diagram reduction, so the two can cross-check each other.
    """
    s, t = _pb_corners(s, t)
    _check_degree(q, filtration.d)
    _require_valid(filtration)

    region, flat = filtration.region, filtration.grid.ravel()
    cells = canonical_cells(region)
    cells = cells[flat[cells] <= t.max(initial=0.0)]
    cells = cells[np.argsort(flat[cells], kind="stable")]  # birth order
    rows = np.full(flat.size, -1, dtype=np.int64)
    rows[cells] = np.arange(len(cells))
    births, dims = flat[cells], cell_dims(region, cells)

    def pivots(k: int, top: float) -> tuple[np.ndarray, np.ndarray]:
        """The births of the kept columns of the k-cells born by ``top``
        and of their pivot rows."""
        if k == 0:  # 0-cells have empty boundary columns
            return births[:0], births[:0]
        cols = cells[(dims == k) & (births <= top)]
        kept = reduce_columns(boundary_columns(region, cols, k, rows, field), field)[1]
        return flat[cols[list(kept.values())]], births[list(kept)]

    ranked = np.sort(pivots(q, s.max(initial=0.0))[0])
    out = np.asarray(np.searchsorted(births[dims == q], s, side="right")  # dim Z_q(s)
                     - np.searchsorted(ranked, s, side="right"), dtype=np.int64)
    born, low = pivots(q + 1, t.max(initial=0.0))
    for t_value in np.unique(t):
        at = t == t_value
        out[at] -= np.searchsorted(np.sort(low[born <= t_value]), s[at], side="right")
    return out if out.ndim else int(out)


def persistent_betti_0(filtration: Filtration, s: Corner, t: Corner) -> int | np.ndarray:
    """beta_0^{s,t} as the number of connected components of X_t that
    contain a cube of X_s: the rank of H_0(X_s) -> H_0(X_t).

    The corners broadcast as in ``persistent_betti_direct`` and must satisfy
    0 <= s <= t < inf.  Per distinct t, one ``ndimage.label`` (scipy.ndimage,
    imported on the first call, not with this module) of the cells born by
    t (the default cross structure is the codimension-1 face relation, see
    the module docstring) and the smallest birth in each component; a
    component meets X_s exactly when that birth is <= s.  The counts are
    exact integers, with no field arithmetic.
    """
    from scipy import ndimage

    s, t = _pb_corners(s, t)
    _require_valid(filtration)
    grid = filtration.grid
    out = np.zeros(s.shape, dtype=np.int64)
    for t_value in np.unique(t):
        at = t == t_value
        labels, count = ndimage.label(grid <= t_value)
        first = np.full(count + 1, INF)  # label 0, the cells not born by t, is dropped
        np.minimum.at(first, labels.ravel(), grid.ravel())
        out[at] = np.searchsorted(np.sort(first[1:]), s[at], side="right")
    return out if out.ndim else int(out)


def format_diagram(diagram: PersistenceDiagram) -> str:
    """Line-oriented text form: header "# d q_max n seed", then one
    "q birth death" line per pair, sorted by (q, birth, death)."""
    lines = [_dump_header("d q_max n seed",
                          {"q_max": diagram.d - 1, **diagram.meta, "d": diagram.d})]
    for q in sorted(diagram.pairs):
        for b, dth in diagram.pairs[q]:
            lines.append(f"{q} {b!r} {dth!r}")
    return "\n".join(lines) + "\n"


def _read_dump(text: str, kind: str, layout: str, required: int) -> tuple[dict, Iterator]:
    """The "# <layout>" header of a ``kind`` dump (a diagram or a filtration)
    as a dict of its present fields, and an iterator over its later lines as
    (line number, line) pairs, blank lines included: a reader splits each
    line anyway, and skips one with no tokens.

    The first ``required`` fields are integers.  A later field is an integer
    or "-", which means absent: the dict has no key for it.  A ``model``
    field is kept as its text.  As for a ``Window``, d must be >= 1, an
    integer n >= 0 and an integer q_max in 0..d-1."""
    lines = enumerate(text.splitlines(), 1)
    header = next((ln for _, ln in lines if ln.strip()), "")  # the first non-blank line
    if not header.startswith("#"):
        raise ValueError(f"{kind} file must start with a '# {layout}' header")
    named = zip(layout.split(), header[1:].split(), strict=True)
    try:  # a wrong token count (the strict zip), a bad integer, d, n or q_max
        meta = {name: tok if name == "model" else int(tok)
                for i, (name, tok) in enumerate(named) if tok != "-" or i < required}
        d = meta["d"]
        if d < 1 or meta.get("n", 0) < 0 or not 0 <= meta.get("q_max", 0) < d:
            raise ValueError
    except ValueError:
        raise ValueError(f"malformed {kind} header: {header!r}") from None
    return meta, lines


def _dump_header(layout: str, meta: dict) -> str:
    """The "# <layout>" header line: each field's ``meta`` value, "-" where it has none."""
    return "# " + " ".join(str(meta.get(name, "-")) for name in layout.split())


def parse_diagram(text: str) -> PersistenceDiagram:
    meta, lines = _read_dump(text, "diagram", "d q_max n seed", 1)
    d = meta["d"]
    meta = {"d": d, "q_max": d - 1, **meta}  # a "-" q_max reads as d - 1
    pairs: dict[int, list[tuple[float, float]]] = {}
    for number, ln in lines:
        tokens = ln.split()
        if not tokens:
            continue
        if len(tokens) != 3:
            raise ValueError(f"malformed diagram line {number}: {ln!r}")
        try:
            q, b, dth = int(tokens[0]), float(tokens[1]), float(tokens[2])
        except ValueError as exc:
            raise ValueError(f"malformed diagram line {number}: {ln!r} ({exc})") from None
        if not 0 <= q <= meta["q_max"]:
            limit = f"q_max={meta['q_max']}" if 0 <= q < d else f"d={d}"
            raise ValueError(f"degree {q} out of range for {limit} in diagram line "
                             f"{number}: {ln!r}")
        if b < 0:
            raise ValueError(f"negative birth in diagram line {number}: {ln!r}")
        if not b < dth:
            raise ValueError(f"pair with birth >= death in diagram line {number}: "
                             f"{ln!r}")
        pairs.setdefault(q, []).append((b, dth))
    return PersistenceDiagram(d, pairs, meta)
