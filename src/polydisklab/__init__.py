"""Interpolation, varieties, and operator certificates on the polydisk.

The package is organized around one dichotomy: an interpolation problem
on an embedded variety either extends to the full polydisk without norm
growth (a decomposition certificate exists) or there is a commuting
contraction tuple on which the interpolant violates the von Neumann
inequality (a dual kernel certificate exists).  The modules supply the
geometry (disk_geometry, balance), the solvers (pick_disk, agler), the
operator side (operators, polynomials), the variety tooling (variety),
and end-to-end experiment drivers (experiments) with a CLI (labcli).
"""

from .agler import (
    AglerDecomposition,
    DualKernel,
    Feasible,
    Infeasible,
    PolyPickData,
    SchurAglerNorm,
    agler_feasible,
    sample_schur_agler_function,
    schur_agler_norm,
)
from .balance import (
    BalanceReport,
    BalancedDisk,
    CaratheodoryExtremal,
    balanced_disk_through,
    caratheodory_extremal_for_pair,
    classify_pair,
    find_balanced_pair_on_graph,
    scan_balanced_pairs,
)
from .disk_geometry import (
    BlaschkeProduct,
    MobiusMap,
    PolydiskAutomorphism,
    apply_automorphism,
    blaschke_eval,
    check_disk_point,
    check_poly_point,
    kobayashi_distance_polydisk,
    mobius_interchange,
    pseudo_hyperbolic,
)
from .errors import (
    ConditioningError,
    DegenerateDataError,
    DimensionMismatchError,
    DomainError,
    InfeasibleConstraintsError,
    PolydiskLabError,
    UndecidedError,
)
from .experiments import (
    CircleImageResult,
    Exg1Report,
    ExtensionVNReport,
    circle_image_test,
    exg1_data,
    exg1_extremal_candidate,
    exg1_reproduce,
    extension_vs_vn,
)
from .operators import (
    AndoTuple,
    VNReport,
    ViolationWitness,
    apply_node_values,
    build_tuple_from_kernel,
    defect_identity_residual,
    evaluate_function,
    violation_witness,
    von_neumann_check,
)
from .pick_disk import (
    CPDataOrigin,
    DiskPickData,
    infinitesimal_extremal_origin,
    is_extremal,
    minimal_norm,
    pick_matrix,
    schur_construct,
    solvable,
)
from .polynomials import (
    Polynomial,
    monomial,
    random_polynomial,
    sup_on_torus,
)
from .variety import (
    GraphReport,
    RationalGraphFit,
    RetractReport,
    builtin_rational_inner_graph,
    builtin_v0,
    contains,
    extract_graph,
    fit_rational_graph,
    retract_check,
    sample_variety,
    uniqueness_coincidence_check,
    uniqueness_variety_points,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
