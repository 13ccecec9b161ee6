"""Exception types shared across the package, and the one tolerance check."""


class WeakGordonError(Exception):
    """Base class for all package errors."""


class DomainError(WeakGordonError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ValidationError(WeakGordonError, ValueError):
    """A measure representation or input file violates its invariants."""


class ToleranceError(WeakGordonError, RuntimeError):
    """A certified computation could not reach the requested tolerance."""


class ResourceError(WeakGordonError, RuntimeError):
    """A computation would exceed a configured resource budget."""


def check_tol(tol):
    """Raise DomainError unless tol is a positive number (NaN is not)."""
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")
