"""kinreg: a desk-scale laboratory for boundary regularity of kinetic
Fokker-Planck equations with specular reflection.

Subpackages cover the kinetic geometry (group, cylinders, distance),
exact polynomial calculus, self-contained special functions, the explicit
Tricomi obstruction solution, the constructive half-space Liouville
classification, a half-strip finite-difference solver, an empirical
regularity probe, and the curved-boundary obstruction condition.
"""

from .geometry import (
    CylinderSpec,
    HalfSpaceDomain,
    KineticPoint,
    Sided,
    compose,
    cylinder_contains,
    frame_map,
    frame_unmap,
    inverse,
    kinetic_distance,
    origin,
    reflect_velocity,
    reflected_set_membership,
    scale,
)
from .polynomials import (
    KineticPolynomial,
    MultiIndex,
    OperatorSpec,
    PolySpaceSpec,
    TricomiMarker,
    apply_operator,
    full_space,
    kernel_basis,
    kolmogorov_operator,
    l2_project,
    mono,
    particular_solve_1d,
    particular_solve_general,
    space_basis,
    space_dim,
    specular_space,
    transport_derivative,
    tricomi_augmented_space,
)
from .specfun import (
    HypergeomEval,
    Regime,
    asymptotic_m,
    asymptotic_u_kinetic,
    gamma_real,
    kummer_m,
    tricomi_u,
)
from .tricomi import TricomiParams, as_field, cusp_ratio, eval_tricomi, pde_residual, residual_constant
from .liouville import ClassificationResult, HalfSpaceRHS, classify, classify_homogeneous, flip_symmetric_shortcut, verify_solution
from .solver import BoundaryCondition, Field, HalfStripGrid, SolverOptions, mirror_extend, solve_stationary, solve_timedep
from .probe import ExponentFit, best_approx_error, exponent_fit, gamma0_tricomi_coefficient
from .flatten import (
    FlattenMap,
    GraphDomain,
    build_flatten,
    counterexample_condition,
    flat_domain,
    limit_rhs_p1,
    parabola_domain,
    reflection_commutation_check,
    transform_coefficients,
)

__version__ = "0.1.0"
