"""Exceptions shared by the filtering modules."""

__all__ = ["FilterRangeError", "NonConvergenceError", "InsufficientOrderError"]


class FilterRangeError(ValueError):
    """The filter range is too small for the signal grid."""


class NonConvergenceError(ArithmeticError):
    """A series cannot be truncated below the requested tolerance within k_max."""


class InsufficientOrderError(ValueError):
    """Construction depth is too small for the requested derivative order."""
