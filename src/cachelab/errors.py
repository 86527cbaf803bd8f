"""Exception types shared across the package."""

from fractions import Fraction

_MAX_SIZES = 2 ** 16  # see check_sweep_size


class CacheLabError(Exception):
    """Base class for all cachelab errors."""


class InvalidCapacity(CacheLabError, ValueError):
    """Cache capacity must be a positive integer."""


class RequestTooLarge(CacheLabError, ValueError):
    """A single request is larger than the cache capacity.

    The eviction loop could never make room for such a file, so the
    request is rejected instead of served-and-bypassed.  ``check_fits``
    raises it, for the engine and the exact search alike, with one message
    naming the request by its ``index``.
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


class InvalidSizes(InvalidCapacity):
    """Cache-size pair violates 1 <= h <= k (``check_cache_sizes``).  An
    ``InvalidCapacity``, since h < 1 is a size that is not positive."""


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
    """A file id seen with two (size, cost) pairs (``check_same_file`` names
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


def check_cache_sizes(h, k):
    """The one check of a cache-size pair: ``InvalidCapacity`` unless ``h``
    (the optimum's) and ``k`` (the online algorithm's) are ints, ``bool``
    refused, and ``InvalidSizes`` unless 1 <= h <= k."""
    for value, name in ((h, "h"), (k, "k")):
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidCapacity(f"{name} must be a positive integer, got {value!r}")
    if not 1 <= h <= k:
        raise InvalidSizes(f"need 1 <= h <= k, got h={h}, k={k}")


def check_fits(g, k, index):
    """``RequestTooLarge`` naming request ``index`` unless file ``g`` fits in
    a cache of size ``k``."""
    if g.size > k:
        raise RequestTooLarge(f"request {index}: file {g.id!r} (size {g.size}) exceeds "
                              f"cache capacity {k}", index=index)


def check_sweep_size(k, name="cache size "):
    """``InstanceTooLarge`` if a sweep reaches cache size ``k`` past 65,536;
    ``name`` leads the message.  Every size at or above a trace's total size
    has the same optimum, so a longer range would add only rows."""
    if k > _MAX_SIZES:
        raise InstanceTooLarge(f"{name}{k} is past the limit of {_MAX_SIZES} cache sizes "
                               f"for one sweep")


def check_same_file(known, g, index):
    """``ConsistencyError`` naming request ``index`` unless ``g`` has the size
    and cost of ``known``, the first request for its id: the one comparison
    of the rule that a file has one size and one cost."""
    if known.size != g.size or known.cost != g.cost:
        raise ConsistencyError(
            f"request {index}: file {g.id!r} seen as (size={g.size}, cost={g.cost}) "
            f"but previously (size={known.size}, cost={known.cost})")


def check_rational(value, name):
    """``value`` as a ``Fraction``; ``InvalidParams`` unless it is a rational number."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise InvalidParams(f"{name} must be a rational number, got {value!r}") from None
