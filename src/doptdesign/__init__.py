"""D-optimal experimental design on compact semi-algebraic sets.

The package discretizes the design space into a finite candidate set,
maximizes the log-determinant of the information matrix over the weight
simplex, and certifies optimality through the dual: the Christoffel-Darboux
polynomial of the optimal design stays below the model dimension n_d on the
design space, touching it exactly on the optimal support.  For first-degree
models the dual is the minimum-volume enclosing ellipsoid problem.
"""

__version__ = "0.1.0"

from .basis import (
    MultiIndexBasis,
    enumerate_basis,
    eval_basis,
    vandermonde,
)
from .certificate import (
    CDCoefficients,
    DualCertificate,
    adjoint_expand,
    adjoint_identity_check,
    build_certificate,
    contact_points,
    validate_dual_feasibility,
)
from .design import (
    CDPolynomial,
    DesignMeasure,
    MomentVector,
    assemble_information,
    cd_eval,
    cd_polynomial,
    cd_profile,
    moment_matrix,
    moment_vector,
)
from .errors import (
    ConfigError,
    DegenerateDesignError,
    DimensionMismatchError,
    EmptyCandidateSetError,
    InvalidDimensionError,
    NotAnEllipsoidError,
    NotPositiveDefiniteError,
    SizeMismatchError,
    TooFewCandidatesError,
    WrongDegreeError,
)
from .geometry import (
    Ellipsoid,
    LevelSetReport,
    contains,
    ellipsoid_from_quadratic,
    extract_ellipsoid,
    levelset_membership,
    levelset_report,
)
from .semialg import (
    CandidateSet,
    SemiAlgebraicSet,
    SparsePolynomial,
    eval_poly,
    explicit_candidates,
    grid_candidates,
    membership,
)
from .solver import (
    SolveResult,
    SolverConfig,
    init_uniform,
    solve,
)
from .spd import SpdFactor, factorize, quad_form_inv
from .spd import solve as spd_solve

__all__ = [
    "__version__",
    "MultiIndexBasis",
    "enumerate_basis",
    "eval_basis",
    "vandermonde",
    "CDCoefficients",
    "DualCertificate",
    "adjoint_expand",
    "adjoint_identity_check",
    "build_certificate",
    "contact_points",
    "validate_dual_feasibility",
    "CDPolynomial",
    "DesignMeasure",
    "MomentVector",
    "assemble_information",
    "cd_eval",
    "cd_polynomial",
    "cd_profile",
    "moment_matrix",
    "moment_vector",
    "ConfigError",
    "DegenerateDesignError",
    "DimensionMismatchError",
    "EmptyCandidateSetError",
    "InvalidDimensionError",
    "NotAnEllipsoidError",
    "NotPositiveDefiniteError",
    "SizeMismatchError",
    "TooFewCandidatesError",
    "WrongDegreeError",
    "Ellipsoid",
    "LevelSetReport",
    "contains",
    "ellipsoid_from_quadratic",
    "extract_ellipsoid",
    "levelset_membership",
    "levelset_report",
    "CandidateSet",
    "SemiAlgebraicSet",
    "SparsePolynomial",
    "eval_poly",
    "explicit_candidates",
    "grid_candidates",
    "membership",
    "SolveResult",
    "SolverConfig",
    "init_uniform",
    "solve",
    "SpdFactor",
    "factorize",
    "quad_form_inv",
    "spd_solve",
]
