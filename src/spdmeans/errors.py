"""Exception hierarchy shared by all modules."""


class SpdMeansError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(SpdMeansError):
    """Operands have incompatible shapes."""


class ParamOutOfRange(SpdMeansError):
    """A scalar parameter violates its documented range."""


class DomainError(SpdMeansError):
    """A matrix function was requested outside its domain (e.g. log of a
    non-positive-definite matrix)."""


class SingularInput(SpdMeansError):
    """Input matrix is singular or too close to singular for the operation."""


class NoConvergence(SpdMeansError):
    """A LAPACK eigenvalue or singular value computation did not converge."""


class LengthMismatch(SpdMeansError):
    """Vector operands have different lengths."""


class NonPositiveEntry(SpdMeansError):
    """A vector that must be strictly positive contains a non-positive entry."""


class InvalidMatrixFile(SpdMeansError):
    """A matrix file failed schema validation (non-square, non-finite, ...)."""


class MaxIterReached(SpdMeansError):
    """Orbit solver hit its iteration budget before reaching tolerance.

    Carries the best iterate found so far in ``self.solution``.
    """

    def __init__(self, message, solution):
        super().__init__(message)
        self.solution = solution
