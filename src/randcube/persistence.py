"""Bounded cubical filtrations, persistence diagrams, persistent Betti numbers.

A filtration is a birth-time map on elementary cubes satisfying the monotone
face condition (faces are born no later than their cofaces).  Diagrams are
computed by standard column reduction of the total boundary matrix in birth
order; persistent Betti numbers are additionally computed by a fully
independent rank-based route so the two act as mutual oracles (neither calls
the other).

Time values are exact binary64; birth-time comparisons are exact equality,
never epsilon-based.  Death = inf is a distinct sentinel ordered above every
finite time.
"""

from __future__ import annotations

import math
from typing import Optional, TextIO

from .cubes import Box, ElementaryCube, Window, boundary_faces
from .homology import DEFAULT_FIELD, boundary_matrix, kernel_basis, rank, reduce_columns

INF = math.inf


class Filtration:
    """A region plus a birth-time map cube -> [0, inf); cubes that never
    appear are simply absent from the map (birth = inf).  A nan birth is
    rejected, never read as "not born"."""

    def __init__(
        self,
        region: Box | Window,
        births: dict[ElementaryCube, float],
        meta: dict | None = None,
    ):
        if isinstance(region, Window):
            region = region.box
        self.region = region
        self.births = {c: float(t) for c, t in births.items() if t != INF}
        self.meta = dict(meta) if meta else {}
        for cube in self.births:
            if cube.ambient_dim != region.ambient_dim:
                raise ValueError(
                    f"cube {cube.canonical()} has wrong ambient dimension"
                )
            if not region.contains_cube(cube):
                raise ValueError(
                    f"finite-birth cube {cube.canonical()} lies outside the region"
                )
            if not self.births[cube] >= 0:  # also catches nan and -inf
                raise ValueError("birth times must be nonnegative, got "
                                 f"{self.births[cube]!r} at {cube.canonical()}")
        self._sorted: Optional[list[ElementaryCube]] = None
        self._validated = False

    @property
    def d(self) -> int:
        return self.region.ambient_dim

    @property
    def volume(self) -> float:
        return self.region.volume

    def sorted_cubes(self) -> list[ElementaryCube]:
        if self._sorted is None:
            self._sorted = sorted(self.births)
        return self._sorted

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Filtration)
            and self.region == other.region
            and self.births == other.births
        )

    def __repr__(self) -> str:
        return (
            f"Filtration(d={self.d}, region={self.region.lo}..{self.region.hi}, "
            f"{len(self.births)} finite births)"
        )


def validate(filtration: Filtration) -> Optional[tuple[ElementaryCube, ElementaryCube]]:
    """Check the monotone face condition; None if ok, else the first violating
    (face, cube) pair in canonical cube order.

    Violations are data, not exceptions.  Checking codimension-1 faces
    suffices: the general condition follows by transitivity.
    """
    if filtration._validated:
        return None
    births = filtration.births
    for cube in filtration.sorted_cubes():
        t = births[cube]
        for face in boundary_faces(cube):
            if births.get(face.cube, INF) > t:
                return (face.cube, cube)
    filtration._validated = True
    return None


def sublevel(filtration: Filtration, t: float) -> list[ElementaryCube]:
    """Cubes born no later than t, in canonical order; face-closed whenever
    the filtration is valid."""
    births = filtration.births
    return [c for c in filtration.sorted_cubes() if births[c] <= t]


class PersistenceDiagram:
    """Degree-indexed multiset of (birth, death) pairs, birth < death <= inf."""

    def __init__(self, d: int, pairs: dict[int, list[tuple[float, float]]], meta=None):
        self.d = d
        self.pairs = {q: sorted(ps) for q, ps in pairs.items() if ps}
        self.meta = dict(meta) if meta else {}

    def degree(self, q: int) -> list[tuple[float, float]]:
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
    every face before its cofaces.  The reduction runs per dimension from the
    top down with the clearing shortcut (a column whose cube was already used
    as a pivot row must reduce to zero and is skipped).  Pairs with equal
    birth and death are discarded.

    ``_tie_key`` overrides the canonical tie-break among equal-birth cubes of
    equal dimension; the diagram is invariant under this choice, which the
    test suite asserts by shuffling it.
    """
    _require_valid(filtration)
    births = filtration.births
    tie = _tie_key if _tie_key is not None else lambda c: c
    order = sorted(births, key=lambda c: (births[c], c.dim, tie(c)))
    index = {cube: i for i, cube in enumerate(order)}
    d = filtration.d
    field_one = field.from_signed(1)

    by_dim: dict[int, list[int]] = {q: [] for q in range(d + 1)}
    for i, cube in enumerate(order):
        by_dim[cube.dim].append(i)

    cleared: set[int] = set()
    pivot_row_of: dict[int, int] = {}  # pivot row index -> killing column index
    for q in range(d, 0, -1):
        pivots: dict[int, tuple] = {}
        for j in by_dim[q]:
            if j in cleared:
                continue
            col: dict[int, int] = {}
            for face in boundary_faces(order[j]):
                i = index[face.cube]
                col[i] = field.from_signed(face.sign)
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
                cleared.add(low)

    pairs: dict[int, list[tuple[float, float]]] = {}
    for low, j in pivot_row_of.items():
        b, t = births[order[low]], births[order[j]]
        if b < t:
            pairs.setdefault(order[low].dim, []).append((b, t))
    # creators are the zero-reduced (or cleared, or dimension-0) columns;
    # those never hit as a pivot row survive forever
    killers = set(pivot_row_of.values())
    for i, cube in enumerate(order):
        if i not in killers and i not in pivot_row_of:
            pairs.setdefault(cube.dim, []).append((births[cube], INF))
    meta = dict(filtration.meta)
    meta.setdefault("d", d)
    return PersistenceDiagram(d, pairs, meta)


def quadrant_mass(diagram: PersistenceDiagram, q: int, s: float, t: float) -> int:
    """Number of degree-q pairs with birth <= s and death > t (inf included)."""
    if s > t:
        raise ValueError("quadrant requires s <= t")
    return sum(1 for b, dth in diagram.degree(q) if b <= s and dth > t)


def rectangle_mass(
    diagram: PersistenceDiagram,
    q: int,
    s1: float,
    s2: float,
    t1: float,
    t2: float,
) -> int:
    """Number of degree-q pairs with birth in (s1, s2] and death in (t1, t2].

    Equals the alternating quadrant sum
    beta(s2,t1) - beta(s2,t2) + beta(s1,t2) - beta(s1,t1).
    """
    if not (0 <= s1 <= s2 <= t1 <= t2 < INF):
        raise ValueError("rectangle requires 0 <= s1 <= s2 <= t1 <= t2 < inf")
    return sum(
        1 for b, dth in diagram.degree(q) if s1 < b <= s2 and t1 < dth <= t2
    )


def persistent_betti_direct(
    filtration: Filtration, q: int, s: float, t: float, field=DEFAULT_FIELD
) -> int:
    """Persistent Betti number at (s, t) by pure rank computations.

    dim Z_q at level s minus the dimension of its intersection with the
    boundary space at level t; the intersection dimension comes from the rank
    of a kernel basis concatenated with the higher boundary columns.  This
    route never touches the diagram reduction, so the two can cross-check
    each other.
    """
    if s > t:
        raise ValueError("persistent Betti requires s <= t")
    if not 0 <= q < filtration.d:
        raise ValueError(f"q={q} out of range for d={filtration.d}")
    _require_valid(filtration)

    cubes_s = sublevel(filtration, s)
    cubes_t = sublevel(filtration, t)
    kq_s = [c for c in cubes_s if c.dim == q]
    kq_t = [c for c in cubes_t if c.dim == q]
    if not kq_s:
        return 0
    t_index = {c: i for i, c in enumerate(kq_t)}

    if q == 0:
        # the 0-th boundary map is zero: the kernel is all of C_0(X(s))
        kernel = [{i: field.from_signed(1)} for i in range(len(kq_s))]
    else:
        kernel = kernel_basis(boundary_matrix(cubes_s, q, field))
    dim_z = len(kernel)
    if dim_z == 0:
        return 0

    bnd_t = boundary_matrix(cubes_t, q + 1, field)
    # concatenate [boundary columns | lifted kernel vectors]; one elimination
    # pass yields rank B first and dim(Z + B) at the end
    lifted = [
        {t_index[kq_s[i]]: v for i, v in vec.items()} for vec in kernel
    ]
    rank_b, _, _ = reduce_columns(bnd_t.columns, field)
    total, _, _ = reduce_columns(bnd_t.columns + lifted, field)
    dim_zb = total
    dim_cap = dim_z + rank_b - dim_zb
    return dim_z - dim_cap


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
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(HEADER_PREFIX):
        raise ValueError("diagram file must start with a '# d q_max n seed' header")
    tokens = lines[0][1:].split()
    if len(tokens) != 4:
        raise ValueError(f"malformed diagram header: {lines[0]!r}")
    d = int(tokens[0])
    meta: dict = {"d": d}
    meta["q_max"] = int(tokens[1]) if tokens[1] != "-" else d - 1
    if tokens[2] != "-":
        meta["n"] = int(tokens[2])
    if tokens[3] != "-":
        meta["seed"] = int(tokens[3])
    pairs: dict[int, list[tuple[float, float]]] = {}
    for ln in lines[1:]:
        q_str, b_str, d_str = ln.split()
        b = float(b_str)
        dth = INF if d_str == "inf" else float(d_str)
        if not b < dth:
            raise ValueError(f"pair with birth >= death in line {ln!r}")
        pairs.setdefault(int(q_str), []).append((b, dth))
    return PersistenceDiagram(d, pairs, meta)


def write_diagram(diagram: PersistenceDiagram, fp: TextIO) -> None:
    fp.write(format_diagram(diagram))


def read_diagram(fp: TextIO) -> PersistenceDiagram:
    return parse_diagram(fp.read())
