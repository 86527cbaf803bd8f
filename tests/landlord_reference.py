"""The Landlord engine as it stood before the rent clock: the reference.

Every rent round scans every resident: delta is the minimum credit/size, each
resident pays delta * size, and the residents left at exactly zero credit
are the newly zeroed ones, listed in the order of the residents.
Zero-credit residents are mirrored in ``_zero`` in the order they reached
zero, so a round with zero minimum yields them without a scan.  FIFO sorts
its candidates by insertion clock rather than take them as listed, so its
evictions do not rest on the listing order that the tests compare.  The
differential tests serve the same requests through this engine and through
``cachelab.core`` and require identical event streams and identical credits
after every request.

``state`` keeps the public query surface of ``cachelab.core.CacheState`` that
the tests and the audit read (``credit_of``, ``residents``, ``clone``,
``used_size``, ``free_space``).
The pessimal selector reads this module's own ``FutureIndex``, occurrence
lists searched by bisection at the state's clock, not ``cachelab.FutureView``.
"""

from bisect import bisect_right
from fractions import Fraction

from cachelab import EvictionGreediness, EvictionSelector, InvalidParams, RequestTooLarge

_FR0 = Fraction(0)

# entry field indices (entries are small lists for speed)
_SPEC, _CREDIT, _LAST, _INS = 0, 1, 2, 3


class CacheState:
    __slots__ = ("capacity_k", "_free", "_entries", "_zero", "_clock")

    def __init__(self, capacity_k):
        self.capacity_k = capacity_k
        self._free = capacity_k
        self._entries = {}
        self._zero = {}  # ordered set: id -> None
        self._clock = 0

    def __contains__(self, file_id):
        return file_id in self._entries

    @property
    def used_size(self):
        return self.capacity_k - self._free

    @property
    def free_space(self):
        return self._free

    def residents(self):
        return {fid: (e[_SPEC], e[_CREDIT]) for fid, e in self._entries.items()}

    def credit_of(self, file_id):
        e = self._entries.get(file_id)
        return e[_CREDIT] if e is not None else Fraction(0)

    def clone(self):
        other = CacheState.__new__(CacheState)
        other.capacity_k = self.capacity_k
        other._free = self._free
        other._entries = {fid: e.copy() for fid, e in self._entries.items()}
        other._zero = self._zero.copy()
        other._clock = self._clock
        return other


class FutureIndex:
    """Every request index of each id, in order."""

    def __init__(self, seq):
        self.occurrences = {}
        for i, g in enumerate(seq):
            self.occurrences.setdefault(g.id, []).append(i)

    def next_after(self, file_id, position):
        """The first request for ``file_id`` after ``position``, or infinity."""
        positions = self.occurrences.get(file_id, ())
        j = bisect_right(positions, position)
        return positions[j] if j < len(positions) else float("inf")


def _eviction_order(selector, zeroed, entries, future, position):
    if selector is EvictionSelector.LRU_ORDER:
        return sorted(zeroed, key=lambda fid: entries[fid][_LAST])
    if selector is EvictionSelector.FIFO_ORDER:
        return sorted(zeroed, key=lambda fid: entries[fid][_INS])
    if future is None:
        raise InvalidParams("PESSIMAL_NEXT_REQUEST needs the future request sequence")
    return sorted(zeroed, key=lambda fid: (future.next_after(fid, position), fid))


def serve_events(state, g, policy, future=None):
    entries = state._entries
    zero = state._zero
    state._clock += 1
    now = state._clock

    entry = entries.get(g.id)
    if entry is not None:
        entry[_LAST] = now
        old = entry[_CREDIT]
        lam = policy.refresh_lambda
        if lam and old != g.cost:
            new = g.cost if lam == 1 else old + lam * (g.cost - old)
            entry[_CREDIT] = new
            if new and not old:
                del zero[g.id]
        else:
            new = old
        yield ("refresh", old, new)
        return

    gsize = g.size
    if gsize > state.capacity_k:
        raise RequestTooLarge(
            f"file {g.id!r} (size {gsize}) exceeds cache capacity {state.capacity_k}"
        )

    until_room = policy.greediness is EvictionGreediness.EVICT_UNTIL_ROOM
    while state._free < gsize:
        if zero:
            # some resident already has credit 0, so this round charges nothing
            delta = _FR0
            zeroed = tuple(zero)
        else:
            delta = min(e[_CREDIT] / e[_SPEC].size for e in entries.values())
            newly = []
            for fid, e in entries.items():
                credit = e[_CREDIT] - delta * e[_SPEC].size
                e[_CREDIT] = credit
                if not credit:
                    newly.append(fid)
                    zero[fid] = None
            zeroed = tuple(newly)
        yield ("rent", delta, zeroed)
        # the clock counts the requests served, this one included
        for fid in _eviction_order(policy.selector, zeroed, entries, future, now - 1):
            if until_room and state._free >= gsize:
                break
            gone = entries.pop(fid)
            del zero[fid]
            state._free += gone[_SPEC].size
            yield ("evict", fid)

    entries[g.id] = [g, g.cost, now, now]
    if not g.cost:
        zero[g.id] = None
    state._free -= gsize
    yield ("retrieve",)
