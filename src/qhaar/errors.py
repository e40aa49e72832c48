"""Exception hierarchy shared across the package."""


class QhaarError(Exception):
    """Base class for all package errors."""


class InvalidDimensionError(QhaarError):
    """Raised when a dimension N is outside the admissible range."""


class InvalidArgumentError(QhaarError, ValueError):
    """Raised for an argument no computation accepts: odd k or p, a bad pattern."""


class InvalidIndexError(QhaarError):
    """Raised when a generator index is below 1 or exceeds the dimension N."""


class ModelMismatchError(QhaarError):
    """Raised when polynomials over different models are combined."""


class ResourceLimitError(QhaarError):
    """Raised when a computation would exceed a configured limit.

    The limits are k_max and the D_N scan's grid size.  Carries the table
    length that would be required, or None when the limit is not k_max.
    """

    def __init__(self, message: str, required_k: int | None = None):
        super().__init__(message)
        self.required_k = required_k


class SingularMatrixError(QhaarError):
    """Raised when an exact elimination hits a zero pivot."""


class PolyParseError(QhaarError):
    """Raised on malformed polynomial / word text."""
