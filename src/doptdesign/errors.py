"""Exception types shared across the package."""


class InvalidDimensionError(ValueError):
    """Ambient dimension or degree outside the supported range."""


class DimensionMismatchError(ValueError):
    """A point, vector or polynomial has the wrong number of coordinates."""


class SizeMismatchError(ValueError):
    """A matrix or coefficient vector has an incompatible size."""


class FloatRangeError(ValueError):
    """A monomial or polynomial value at some point is beyond the float range."""


class EmptyCandidateSetError(ValueError):
    """No candidate point satisfies the set membership conditions."""


class NotPositiveDefiniteError(ArithmeticError):
    """Factorization failed: the matrix is not numerically positive definite.

    ``pivot`` is the zero-based index of the elimination step at which
    positivity was lost.
    """

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"matrix is not positive definite (pivot {pivot})")


class DegenerateDesignError(ValueError):
    """The design's information matrix is singular; the model is not identified."""


class TooFewCandidatesError(ValueError):
    """Fewer candidate points than regression functions."""


class NotAnEllipsoidError(ValueError):
    """The quadratic level set does not describe a bounded ellipsoid."""


class WrongDegreeError(ValueError):
    """Operation requires a different polynomial degree (the ellipsoid view needs degree 1)."""


class ConfigError(ValueError):
    """Problem configuration is malformed or inconsistent."""
