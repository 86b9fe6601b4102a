"""Numerical laboratory for self-shrinking gradient graphs under the
interpolating family of fully nonlinear Hessian-eigenvalue operators:
exact quadratic solutions and their certification, graph geometry, the
transform pipeline, non-quadratic entire constructions with certificates,
and radial shooting experiments.
"""

__version__ = "0.1.0"  # before the imports: reports reads it

from .numerics import (
    ConstructionError,
    DomainError,
    InputError,
    Trajectory,
    eig_sym,
    eig_sym_full,
    integrate_ode,
)
from .fields import (
    AffineScaledField,
    QuadraticField,
    ScalarField,
    SeparableExtensionField,
    Table1DField,
)
from .tau import (
    Branch,
    ConeSpec,
    TauParams,
    admissible,
    cone_spec,
    f_derivative,
    f_inverse,
    f_value,
    growth_ratio,
    minkowski_residual,
    operator_value,
    phase,
    shrinker_residual,
)
from .geometry import (
    mean_curvature,
    metric_duality_defect,
    normal_project,
    shrinker_defect,
)
from .quadratics import build_quadratic, random_admissible_matrix, verify_quadratic
from .transforms import (
    convexify_shift,
    legendre_1d,
    legendre_dual_residual,
    normalize_counterexample_branch,
    self_similar_extension,
)
from .constructor import (
    Certificate,
    PhaseTrajectory,
    assemble_w1,
    build_counterexample,
    build_mss_counterexample,
    solve_phase_ode,
)
from .shooting import RadialProfile, ShotEvent, radial_quadratic_reference, shoot_radial
