"""Exception types shared across the package."""


class QGevreyError(Exception):
    """Base class for all package errors."""


class DomainError(QGevreyError):
    """A point lies outside the domain an operation requires.

    ``membership`` names the failed test (e.g. ``"theta_safe"``,
    ``"discrete_spiral"``) so callers can report it.
    """

    def __init__(self, message, membership=None):
        super().__init__(message)
        self.membership = membership


class ThetaOverflowError(QGevreyError):
    """The rescaling factor of a theta evaluation exceeds double range.

    ``exponent`` is the integer reduction exponent that produced the
    overflowing factor.
    """

    def __init__(self, message, exponent):
        super().__init__(message)
        self.exponent = exponent


class ConvergenceError(QGevreyError):
    """An iterative scheme did not reach its tolerance.

    ``last`` and ``previous`` carry the two most recent estimates so the
    caller can judge how far the iteration got.  Where the scheme ran a
    batch, ``block`` is the index of the failing member in it.
    """

    def __init__(self, message, last=None, previous=None, block=None):
        super().__init__(message)
        self.last = last
        self.previous = previous
        self.block = block


class ConfigError(QGevreyError):
    """A run configuration is malformed (schema violation, unknown field)."""
