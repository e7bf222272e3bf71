"""Exact cubical persistent homology on integer windows, random cubical
filtration models, and Monte Carlo estimation of their volume-scaled limits
(persistent-Betti densities, mean diagrams, log-moment-generating functions
and their convex conjugates), with deterministic gap diagnostics."""

from .cubes import (
    Box,
    ElementaryCube,
    Window,
    boundary_faces,
    cofaces_containing,
    cube_count_formula,
    faces_contained_in,
)
from .homology import (
    DEFAULT_FIELD,
    DEFAULT_PRIME,
    PrimeField,
    RationalField,
    betti,
    boundary_matrix,
    kernel_basis,
)
from .models import (
    DistributionSpec,
    ModelSpec,
    block_window,
    format_filtration,
    parse_filtration,
    restrict_box,
    sample,
    sample_box,
    truncate,
)
from .persistence import (
    Filtration,
    PersistenceDiagram,
    compute_diagram,
    format_diagram,
    parse_diagram,
    persistent_betti_0,
    persistent_betti_direct,
    quadrant_mass,
    rectangle_mass,
    sublevel,
    validate,
)

__version__ = "0.1.0"
