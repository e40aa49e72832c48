"""Exact Haar-state moments for O_N^+ / U_N^+, free limits, and RD bounds."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    InvalidArgumentError,
    InvalidDimensionError,
    InvalidIndexError,
    ModelMismatchError,
    PolyParseError,
    QhaarError,
    ResourceLimitError,
    SingularMatrixError,
)
