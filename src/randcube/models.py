"""Samplers for the four random cubical filtration models.

All samplers are pure functions of (spec, master seed, trial index): marks
and perturbations are drawn from counter-based streams keyed by absolute cube
or lattice-point coordinates, so the same cube receives the same mark in any
region that contains it.  Carving a sub-box out of a sampled window therefore
equals sampling that sub-box directly, which is what the block constructions
in the gap diagnostics rely on.

A sampled window leaves and re-enters the library as a text dump
(``format_filtration``, ``parse_filtration``), written and read on the birth
grid's cells through their canonical texts (``cubes.cell_texts``); only a
line that does not spell a window cube canonically is read as a cube, to
find its canonical text.

Model kinds and their dependence ranges R:

* upper  (R = 1): birth of Q = min mark over all cubes containing Q
* lower  (R = 0): birth of Q = max mark over all cubes contained in Q
* perturbed_lattice (R = 0): birth of Q = max distance between perturbed
  adjacent lattice points in Q (vertices are born at 0)
* ball_cover (R from the perturbation support): birth of Q = grid-approximate
  covering radius of Q by balls around perturbed lattice points; this model
  is approximate, which only ``Filtration.meta["approximate"]`` records
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cubes import (Box, ElementaryCube, Window, _layout, box_slice, canonical_cells,
                    cell_texts, grid_shape)
from .persistence import Filtration, _dump_header, _read_dump
from .rng import TAG_CUBE_MARK, TAG_LATTICE_POINT, stream_uniform

INF = math.inf

MODEL_TAGS = {"upper": 1, "lower": 2, "perturbed_lattice": 3, "ball_cover": 4}


@dataclass(frozen=True)
class DistributionSpec:
    """One mark distribution: a family tag plus parameters.

    ``p_inf`` is the probability mass at infinity (the cube never appears);
    the remaining mass follows the family.  As a perturbation law the spec is
    applied independently per coordinate.
    """

    family: str
    params: tuple[float, ...] = ()
    p_inf: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_inf <= 1.0:
            raise ValueError("p_inf must lie in [0, 1]")
        if not all(math.isfinite(p) for p in self.params):
            raise ValueError("distribution parameters must be finite")
        if self.family == "point_mass":
            if len(self.params) != 1:
                raise ValueError("point_mass takes one parameter")
        elif self.family == "uniform":
            if len(self.params) != 2 or self.params[0] > self.params[1]:
                raise ValueError("uniform takes parameters (a, b) with a <= b")
        elif self.family == "exponential":
            if len(self.params) != 1 or self.params[0] <= 0:
                raise ValueError("exponential takes a positive rate")
        elif self.family == "empirical":
            vals, probs = self.values_and_probs()
            if len(vals) == 0 or len(vals) != len(probs):
                raise ValueError("empirical takes (v_1, c_1, ..., v_k, c_k)")
            if any(a >= b for a, b in zip(vals, vals[1:])):
                raise ValueError("empirical values must be strictly increasing")
            if (any(a > b for a, b in zip(probs, probs[1:])) or probs[0] < 0
                    or probs[-1] > 1):
                raise ValueError("empirical cumulative probabilities must be "
                                 "nondecreasing within [0, 1]")
        else:
            raise ValueError(f"unknown distribution family {self.family!r}")

    def values_and_probs(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return self.params[0::2], self.params[1::2]

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF applied to uniforms in [0, 1); returns inf on the
        defect mass.

        Elementwise: each output depends only on the uniform at its place, so
        ``quantile(u)[sel]`` equals ``quantile(u[sel])`` bit for bit.
        """
        u = np.asarray(u, dtype=np.float64)
        out = np.empty_like(u)
        never = u >= 1.0 - self.p_inf if self.p_inf > 0 else np.zeros(u.shape, bool)
        # the defect mass is never divided (with p_inf = 1 it would be 0/0)
        v = u if self.p_inf == 0 else np.divide(u, 1.0 - self.p_inf,
                                                out=np.zeros_like(u), where=~never)
        if self.family == "point_mass":
            out[...] = self.params[0]
        elif self.family == "uniform":
            a, b = self.params
            out[...] = a + (b - a) * v
        elif self.family == "exponential":
            out[...] = -np.log1p(-v) / self.params[0]
        else:
            # standard quantile function: smallest value whose cumulative
            # probability reaches u; mass beyond the table is the defect
            vals, probs = self.values_and_probs()
            idx = np.searchsorted(np.asarray(probs), v, side="left")
            padded = np.append(np.asarray(vals), INF)
            out[...] = padded[idx]
        out[never] = INF
        return out

    def coordinate_radius(self) -> float:
        """Supremum of |value| over the support; inf when unbounded."""
        if self.p_inf > 0:
            return INF
        if self.family == "point_mass":
            return abs(self.params[0])
        if self.family == "uniform":
            return max(abs(self.params[0]), abs(self.params[1]))
        if self.family == "exponential":
            return INF
        vals, _ = self.values_and_probs()
        return max(abs(v) for v in vals)


@dataclass(frozen=True)
class ModelSpec:
    """Which model to sample and with what parameters."""

    kind: str
    d: int
    marks: tuple[DistributionSpec, ...] = ()  # F_0..F_d for upper/lower
    perturbation: DistributionSpec | None = None  # per-coordinate law
    m_grid: int = 4  # ball_cover sample points per cube axis

    def __post_init__(self) -> None:
        if self.kind not in MODEL_TAGS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.d < 1:
            raise ValueError("d must be positive")
        if self.kind in ("upper", "lower"):
            if len(self.marks) != self.d + 1:
                raise ValueError(f"{self.kind} model needs d+1 mark distributions")
        else:
            if self.perturbation is None:
                raise ValueError(f"{self.kind} model needs a perturbation law")
            if self.perturbation.p_inf > 0:
                raise ValueError("perturbation law cannot have mass at infinity")
        if self.kind == "ball_cover":
            if self.m_grid < 2:
                raise ValueError("ball_cover needs m_grid >= 2 so cube corners "
                                 "are sampled")
            rho = self.perturbation.coordinate_radius()
            if not rho <= 0.5:
                raise ValueError("ball_cover requires a perturbation with "
                                 "coordinate support radius <= 1/2")

    @property
    def dependence_range(self) -> int:
        """R such that birth families over regions at max-norm distance > R
        are independent."""
        if self.kind == "upper":
            return 1
        if self.kind in ("lower", "perturbed_lattice"):
            return 0
        # ball_cover: births depend on perturbed points within the sampling
        # halo of ceil(rho)+1 lattice units on each side
        rho = self.perturbation.coordinate_radius()
        return 2 * (math.ceil(rho) + 1)

    @property
    def is_approximate(self) -> bool:
        return self.kind == "ball_cover"


def _neighbour_pass(grid: np.ndarray, first: int, op) -> None:
    """Along each axis in turn, every second position from ``first`` takes
    ``op`` of itself and its two neighbours (in place).

    From ``first`` = 1 (the nondegenerate positions) this folds every face of
    a cube into it; from 2 (the interior degenerate positions) every coface.
    """
    for axis in range(grid.ndim):
        pre = (slice(None),) * axis
        mid = grid[pre + (slice(first, -1, 2),)]
        op(mid, grid[pre + (slice(first - 1, -2, 2),)], out=mid)
        op(mid, grid[pre + (slice(first + 1, None, 2),)], out=mid)


def _mark_grid(
    marks: tuple[DistributionSpec, ...], box: Box, kind: str, seed: int, trial: int
) -> np.ndarray:
    """Independent marks u_Q ~ F_{dim Q}, one per cube of the box, keyed by
    the cube's [extent mask, base_1, ..., base_d] (axis 1's extent the
    highest bit of the mask).

    The mask is the cell's extent code in the grid shape's layout table, and
    along each axis the cube at grid position g has base (g >> 1) + lo.
    ``quantile`` is elementwise, so marks[0] is applied to the whole grid and
    only the dimensions with another law are drawn again.
    """
    shape = grid_shape(box)
    d = len(shape)
    layout = _layout(shape)
    g = np.indices(shape, sparse=True)
    keys = np.empty((d + 1,) + shape, dtype=np.int64)
    keys[0] = layout.code.reshape(shape)
    for axis, (gi, lo) in enumerate(zip(g, box.lo)):
        keys[1 + axis] = (gi >> 1) + lo
    u = stream_uniform(seed, (MODEL_TAGS[kind], TAG_CUBE_MARK, trial),
                       keys.reshape(d + 1, -1).T)
    values = marks[0].quantile(u)
    # laws equal as values may still differ in the sign of a zero parameter,
    # which point_mass and empirical quantiles return as is; repr tells them apart
    redraw = [q for q, mark in enumerate(marks) if repr(mark) != repr(marks[0])]
    if redraw:
        dims = layout.dims[layout.code]
        for q in redraw:
            sel = dims == q
            values[sel] = marks[q].quantile(u[sel])
    return values.reshape(shape)


def _perturbed_points(
    box: Box, law: DistributionSpec, kind: str, seed: int, trial: int
) -> np.ndarray:
    """Perturbed positions x_z = z + eps_z of the box's lattice points, as an
    array of shape (hi_1 - lo_1 + 1, ..., hi_d - lo_d + 1, d) indexed by
    z - lo."""
    d = box.ambient_dim
    z = np.indices(tuple(b - a + 1 for a, b in zip(box.lo, box.hi)))
    z = np.moveaxis(z, 0, -1) + np.asarray(box.lo)
    keys = z.reshape(-1, d)
    eps = np.stack([
        law.quantile(stream_uniform(
            seed, (MODEL_TAGS[kind], TAG_LATTICE_POINT, trial, axis), keys))
        for axis in range(d)
    ], axis=-1)
    return z + eps.reshape(z.shape)


def _edge_lengths(box: Box, law: DistributionSpec, seed: int, trial: int) -> np.ndarray:
    """Grid holding each edge's perturbed length at its position and 0 at
    every other cube."""
    x = _perturbed_points(box, law, "perturbed_lattice", seed, trial)
    grid = np.zeros(grid_shape(box))
    for axis in range(box.ambient_dim):
        diff = np.diff(x, axis=axis)
        # a per-vector dot product rounds as the 1-D np.linalg.norm of one
        # edge does; a batched norm or a sum of squares can differ in the
        # last bit
        length = np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])
        grid[tuple(slice(1, None, 2) if a == axis else slice(0, None, 2)
                   for a in range(box.ambient_dim))] = length
    return grid


def _cover_radii(
    box: Box, law: DistributionSpec, m_grid: int, seed: int, trial: int
) -> np.ndarray:
    """Grid of grid-approximate covering radii: per cube, the max distance to
    the nearest perturbed lattice point over its m_grid^dim sample points
    (corners included), found by a ``scipy.spatial.cKDTree`` query (imported
    on the first call, not with this module)."""
    from scipy.spatial import cKDTree

    d = box.ambient_dim
    halo = math.ceil(law.coordinate_radius()) + 1
    centers = _perturbed_points(box.grow(halo), law, "ball_cover", seed, trial)
    # the sample points of every cube of the box, shared between neighbours
    steps = np.linspace(0.0, 1.0, m_grid)[:-1]
    axes = [np.append((np.arange(a, b)[:, None] + steps).ravel(), b)
            for a, b in zip(box.lo, box.hi)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    dist, _ = cKDTree(centers.reshape(-1, d)).query(points.reshape(-1, d))
    dist = dist.reshape(points.shape[:-1])
    step = m_grid - 1
    for axis in range(d):
        a = np.moveaxis(dist, axis, -1)
        out = np.empty(a.shape[:-1] + (2 * (a.shape[-1] - 1) // step + 1,))
        out[..., 0::2] = a[..., ::step]
        edges = a[..., :-1].reshape(a.shape[:-1] + (-1, step)).max(-1)
        out[..., 1::2] = np.maximum(edges, a[..., step::step])
        dist = np.moveaxis(out, -1, axis)
    return dist


def sample_box(model: ModelSpec, box: Box, seed: int, trial: int = 0) -> Filtration:
    """Sample the model on an integer box (a window or a translated block).

    Births are computed on the box's doubled-coordinate grid by separable
    per-axis passes: the lower model folds each cube's faces into it (max),
    the upper model each cube's cofaces (min, over marks drawn on the box
    grown by one), the perturbed lattice folds edge lengths upward, and the
    ball cover reduces one nearest-centre query over all sample points.  The
    ball-cover births are grid approximations, a lower bound of the true
    covering radius with one-sided error at most the sample-grid cell
    diameter; only the filtration's ``meta["approximate"]`` records this.
    """
    if box.ambient_dim != model.d:
        raise ValueError(f"box has dimension {box.ambient_dim}, model has d = {model.d}")
    if model.kind == "lower":
        grid = _mark_grid(model.marks, box, "lower", seed, trial)
        _neighbour_pass(grid, 1, np.maximum)
    elif model.kind == "upper":
        grid = _mark_grid(model.marks, box.grow(1), "upper", seed, trial)
        _neighbour_pass(grid, 2, np.minimum)
        grid = grid[box_slice(box.grow(1), box)]
    elif model.kind == "perturbed_lattice":
        grid = _edge_lengths(box, model.perturbation, seed, trial)
        _neighbour_pass(grid, 1, np.maximum)
    else:
        grid = _cover_radii(box, model.perturbation, model.m_grid, seed, trial)
    meta = {"model": model.kind, "seed": seed, "trial": trial, **_window_meta(box)}
    if model.is_approximate:
        meta["approximate"] = True
    return Filtration(box, grid, meta)


def sample(model: ModelSpec, n: int, seed: int, trial: int = 0) -> Filtration:
    """Sample the model on the window [-n, n]^d."""
    return sample_box(model, Window(n, model.d).box, seed, trial)


def _window_meta(box: Box) -> dict:
    """{"n": m} when the box is the centred window [-m, m]^d, else {}."""
    d, m = box.ambient_dim, box.hi[0]
    return {"n": m} if box.lo == (-m,) * d and box.hi == (m,) * d else {}


def restrict_box(filtration: Filtration, box: Box) -> Filtration:
    """Restrict a filtration to an integer box inside its region: a slice of
    its birth grid.  A centred window [-m, m]^d, carved from any region that
    contains it, records its own ``meta["n"] = m``; any other box (a
    translated block) keeps the parent's metadata."""
    return Filtration(box, filtration.grid[box_slice(filtration.region, box)],
                      {**filtration.meta, **_window_meta(box)})


def truncate(filtration: Filtration, t_max: float) -> Filtration:
    """The filtration cut at time t_max: cubes born after t_max are never
    born.  Like ``restrict_box`` it is a grid operation that keeps the face
    condition (a cube born by t_max has every face born by then); the
    metadata is kept as is.

    Column reduction pairs each column using only the columns before it in
    (birth, dimension, canonical) order, so the cut diagram is exactly
    {(b, d) : d <= t_max} together with {(b, inf) : b <= t_max < d} of the
    full one: every quadrant mass with t <= t_max is unchanged.  A nan
    t_max is rejected, not read as a cut before every birth.
    """
    if math.isnan(t_max):
        raise ValueError(f"truncation level t_max must be a number, got {t_max}")
    grid = filtration.grid
    return Filtration(filtration.region, np.where(grid <= t_max, grid, INF),
                      filtration.meta)


def block_window(k: int, r: int, z: tuple[int, ...]) -> Box:
    """The translated block 2kz + [-(k-r), k-r]^d."""
    base = Window(k - r, len(z)).box
    return base.translate(tuple(2 * k * zi for zi in z))


def block_union(filtration: Filtration, k: int, r: int, m: int) -> Filtration:
    """The filtration on the window [-(2m+1)k, (2m+1)k]^d with every cube
    outside the union of the blocks ``block_window(k, r, z)``, z in
    {-m, ..., m}^d, never born.

    The union is the product of one union of intervals per axis, so the
    grid is cut one axis at a time.  Like ``truncate`` it keeps the face
    condition: each block is a closed box, so a cube in it has its faces in
    it.
    """
    n = (2 * m + 1) * k
    line = np.zeros(4 * n + 1, dtype=bool)  # one axis of the window's grid
    for z in range(-m, m + 1):
        line[box_slice(Window(n, 1).box, block_window(k, r, (z,)))] = True
    window = restrict_box(filtration, Window(n, filtration.d).box)
    grid = window.grid.copy()
    for axis in range(filtration.d):
        grid[(slice(None),) * axis + (~line,)] = INF
    return Filtration(window.region, grid, window.meta)


def format_filtration(filtration: Filtration) -> str:
    """Dump format: header "# d n seed model", then "<canonical cube> <birth>"
    per finite-birth cube in canonical order.

    Each distinct birth is written once with ``repr`` and its text reused.
    Births are told apart by their bits (``np.unique`` of the int64 view), not
    by value, so 0.0 and -0.0 keep their own texts."""
    region = filtration.region
    n = _window_meta(region).get("n")
    if n is None:
        raise ValueError("only centered-window filtrations have a dump form")
    cells = canonical_cells(region)
    births = filtration.grid.ravel()[cells]
    finite = births < INF
    bits, which = np.unique(births[finite].view(np.int64), return_inverse=True)
    reprs = [repr(birth) for birth in bits.view(np.float64).tolist()]
    lines = [_dump_header("d n seed model", {**filtration.meta, "d": filtration.d, "n": n})]
    lines += [f"{text} {reprs[k]}" for text, k in
              zip(cell_texts(region, cells[finite]), which.tolist())]
    return "\n".join(lines) + "\n"


def parse_filtration(text: str) -> Filtration:
    """Read a dump back.  Every cube line names a cube of the header's
    window, at most once; cubes without a line are never born.

    A line whose cube text is not the canonical text of a window cube is
    read through ``ElementaryCube.from_canonical``, and its canonical text
    is looked up again: an alternate spelling such as "05", "+1" or "0_1"
    names the same cell, a miss is a cube outside the window (or of another
    ambient dimension).  The first faulty line in file order is reported; a
    nan or negative birth is reported afterwards, by ``Filtration``.
    """
    meta, lines = _read_dump(text, "filtration", "d n seed model", 2)
    box = Window(meta["n"], meta.pop("d")).box
    cells = canonical_cells(box)
    index = dict(zip(cell_texts(box, cells), cells.tolist()))
    seen = bytearray(cells.size)
    read, births = [], []
    for number, ln in lines:
        tokens = ln.split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise ValueError(f"malformed filtration line {number}: {ln!r}")
        cube_text, birth_text = tokens
        try:
            birth = float(birth_text)
            cell = index.get(cube_text)
            if cell is None:  # another spelling, or not a window cube
                cube = ElementaryCube.from_canonical(cube_text).canonical()
                cell = index.get(cube)
        except ValueError as exc:
            raise ValueError(f"malformed filtration line {number}: {ln!r} ({exc})") from None
        if cell is None:
            kind = "never-born" if birth == INF else "finite-birth"
            raise ValueError(f"{kind} cube {cube} lies outside the region")
        if seen[cell]:
            raise ValueError(f"duplicate cube line {ln!r}")
        seen[cell] = 1
        read.append(cell)
        births.append(birth)
    grid = np.full(cells.size, INF)
    grid[np.array(read, dtype=np.int64)] = births
    return Filtration(box, grid.reshape(grid_shape(box)), meta)
