"""Exception types shared across the package."""

from fractions import Fraction


class CacheLabError(Exception):
    """Base class for all cachelab errors."""


class InvalidCapacity(CacheLabError, ValueError):
    """Cache capacity must be a positive integer."""


class RequestTooLarge(CacheLabError, ValueError):
    """A single request is larger than the cache capacity.

    The eviction loop could never make room for such a file, so the
    request is rejected instead of served-and-bypassed.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class InstanceTooLarge(CacheLabError, ValueError):
    """Instance past the exact offline search's work budget, longer than a
    caller's ``max_length``, a sweep to a cache size past 65,536, or an
    adversarial trace whose level plan is longer than ``advgen.MAX_LENGTH``
    requests."""


class InvalidParams(CacheLabError, ValueError):
    """Parameter outside the domain of a formula or constructor."""


class InvalidSizes(CacheLabError, ValueError):
    """Cache-size pair violates h <= k."""


class NTooSmall(CacheLabError, ValueError):
    """Range n cannot support the adversarial construction.

    Carries the smallest feasible n as ``minimal_n``.
    """

    def __init__(self, message, minimal_n=None):
        super().__init__(message)
        self.minimal_n = minimal_n


class ParseError(CacheLabError, ValueError):
    """Malformed trace input."""

    def __init__(self, line_no, reason):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class ConsistencyError(CacheLabError, ValueError):
    """A file id seen with two (size, cost) pairs (``core.validated`` names
    the request), or a schedule or request that does not fit its
    sequence."""


class AuditDrift(CacheLabError, RuntimeError):
    """The audit's running totals disagree with a direct recomputation.

    Raised when the incrementally kept potential differs from its definition
    or the replayed optimal schedule's cost differs from the search result:
    a fault in the program, not in its input.
    """


def check_positive_int(value, name, error=InvalidCapacity):
    """Raise ``error`` unless ``value`` is an ``int`` of at least 1.

    ``bool`` is an ``int`` subclass but never a size: ``True`` is refused.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise error(f"{name} must be a positive integer, got {value!r}")


def check_rational(value, name):
    """``value`` as a ``Fraction``; ``InvalidParams`` unless it is a rational number."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise InvalidParams(f"{name} must be a rational number, got {value!r}") from None
