"""D-optimal experimental design on compact semi-algebraic sets.

The package discretizes the design space into a finite candidate set,
maximizes the log-determinant of the information matrix over the weight
simplex, and certifies optimality through the dual: the Christoffel-Darboux
polynomial of the optimal design stays below the model dimension n_d on the
design space, touching it exactly on the optimal support.  For first-degree
models the dual is the minimum-volume enclosing ellipsoid problem.

The top level holds the calls of the README's Library example, the types
they return and the errors they raise; everything else is imported from its
module (`doptdesign.design`, `doptdesign.geometry`, ...).
"""

import types as _types

__version__ = "0.1.0"

from .certificate import DualCertificate, build_certificate, validate_dual_feasibility
from .errors import (
    DegenerateDesignError,
    DimensionMismatchError,
    EmptyCandidateSetError,
    FloatRangeError,
    InvalidDimensionError,
    NotPositiveDefiniteError,
    TooFewCandidatesError,
)
from .semialg import CandidateSet, SemiAlgebraicSet, SparsePolynomial, grid_candidates
from .solver import SolveResult, SolverConfig, solve

# The imports above are the export list; submodules are reached by name.
__all__ = ["__version__"] + sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
