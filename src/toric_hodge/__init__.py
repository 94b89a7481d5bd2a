"""Exact Hodge-theoretic invariants of toric complete intersections.

The package computes, in exact arbitrary-precision integer arithmetic, Euler
characteristics of sheaves of (alternating, symmetric, tensor) differential
forms and Hodge numbers of quasi-smooth complete intersections in complete
simplicial toric varieties, starting from purely combinatorial data: a fan
and the Newton supports of the defining equations.
"""

from .errors import ConsistencyError, InputError
from .fans import (
    AdaptedSubfan,
    Fan,
    TorusCIProblem,
    adapted_subfan,
    all_cones,
    degrees_of,
    is_complete,
    is_regular,
    is_simplicial,
    normal_fan,
    orbit_problem,
    restrict_supports,
    simplicial_refinement,
    validate,
)
from .forms import (
    chi_all,
    chi_alt,
    chi_alt_hilbert,
    chi_sym,
    chi_tensor,
)
from .hilbert import HilbertContext, build_context, chi_structure_sheaf, h_of_s
from .hodge import clear_epq_memo, epq_c_ci, epq_torus, hodge_compact
from .hodge_tables import EPQTable, zero_table
from .lattice import (
    AffineReduction,
    Polytope,
    affine_lattice_reduction,
    convex_hull,
    minkowski_support,
    primitive,
)
from .wps import (
    Weights,
    residue_infinity,
    residue_zero,
    wps_chi,
    wps_chi_all,
    wps_fan,
    wps_hilbert,
    wps_hodge,
    wps_lattice_count,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptedSubfan",
    "AffineReduction",
    "ConsistencyError",
    "EPQTable",
    "Fan",
    "HilbertContext",
    "InputError",
    "Polytope",
    "TorusCIProblem",
    "Weights",
    "adapted_subfan",
    "affine_lattice_reduction",
    "all_cones",
    "build_context",
    "chi_all",
    "chi_alt",
    "chi_alt_hilbert",
    "chi_structure_sheaf",
    "chi_sym",
    "chi_tensor",
    "clear_epq_memo",
    "convex_hull",
    "degrees_of",
    "epq_c_ci",
    "epq_torus",
    "h_of_s",
    "hodge_compact",
    "is_complete",
    "is_regular",
    "is_simplicial",
    "minkowski_support",
    "normal_fan",
    "orbit_problem",
    "primitive",
    "residue_infinity",
    "residue_zero",
    "restrict_supports",
    "simplicial_refinement",
    "validate",
    "wps_chi",
    "wps_chi_all",
    "wps_fan",
    "wps_hilbert",
    "wps_hodge",
    "wps_lattice_count",
    "zero_table",
]
