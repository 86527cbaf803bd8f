"""Direct paging simulators: LRU, FIFO, FWF, randomized marking, Belady.

Paging is the uniform case (every item has size 1 and cost 1).  These
straight-line implementations are deliberately independent of the Landlord
engine so the two can cross-check each other, and they count faults rather
than costs.

LRU, FIFO and FWF serve a request in O(1) amortized time; marking and
Belady choose each victim with O(log k) comparisons:

- LRU keeps its residents in an ordered dict, least recently used first:
  a hit moves the file to the end, and an eviction pops the front;
- FIFO keeps a set of residents and a deque of them in insertion order;
- FWF keeps a set and clears it when a fault finds it full;
- marking keeps its unmarked residents as a sorted list and evicts the one
  at an index drawn as ``random.Random(seed).choice`` draws it;
- Belady keeps the residents requested again in a heap keyed by their next
  request, and those never requested again in a list sorted by id.

A trace is any iterable of hashable ids.  Belady indexes it and the phase
cut takes its length, so one that is not a sequence (a generator, say) is
read into a tuple first; the simulators read it once, in order.
"""

import random
from bisect import bisect_left, insort
from collections import OrderedDict, deque
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from heapq import heapify, heappop, heappush

from .errors import InvalidParams, check_positive_int

__all__ = [
    "PagingAlg",
    "PhaseDecomposition",
    "simulate_paging",
    "belady_opt",
    "belady_schedule",
    "decompose_phases",
]


class PagingAlg(Enum):
    LRU = "lru"
    FIFO = "fifo"
    FWF = "fwf"
    MARKING = "marking"


def _as_alg(alg):
    if isinstance(alg, PagingAlg):
        return alg
    try:
        return PagingAlg(str(alg).lower())
    except ValueError:
        names = ", ".join(a.value for a in PagingAlg)
        raise InvalidParams(f"unknown paging policy {alg!r}: expected one of {names}") from None


def simulate_paging(trace, k, alg, seed=None):
    """Run one paging policy over a trace.

    ``trace`` is an iterable of hashable ids; ``alg`` is a ``PagingAlg`` or
    its name, and any other value raises ``InvalidParams``.
    Returns ``(fault_count, fault_positions)``.  A seed is required for
    MARKING and rejected for the deterministic policies; the same seed always
    yields the same evictions, the ones that ``random.Random(seed).choice``
    over the sorted unmarked residents gives.
    """
    check_positive_int(k, "cache size")
    alg = _as_alg(alg)
    if alg is PagingAlg.MARKING:
        if seed is None:
            raise InvalidParams("MARKING is randomized: a seed is required")
    elif seed is not None:
        raise InvalidParams(f"{alg.value} is deterministic: seed must be omitted")

    faults = []
    if alg is PagingAlg.LRU:
        cache = OrderedDict()  # the residents, least recently used first
        move_to_end, popitem = cache.move_to_end, cache.popitem
        for i, x in enumerate(trace):
            if x in cache:
                move_to_end(x)
            else:
                faults.append(i)
                if len(cache) == k:
                    popitem(last=False)
                cache[x] = None
    elif alg is PagingAlg.FIFO:
        cache = set()
        order = deque()  # the residents in insertion order
        for i, x in enumerate(trace):
            if x not in cache:
                faults.append(i)
                if len(cache) == k:
                    cache.remove(order.popleft())
                cache.add(x)
                order.append(x)
    elif alg is PagingAlg.FWF:
        cache = set()
        for i, x in enumerate(trace):
            if x not in cache:
                faults.append(i)
                if len(cache) == k:
                    cache.clear()
                cache.add(x)
    else:  # MARKING
        # Random.choice(seq) draws the index as _randbelow(len(seq)) does:
        # getrandbits(n.bit_length()) until it is below n.  Drawing it here
        # takes the same bits from the same stream, so a seed evicts exactly
        # what rng.choice(unmarked) would.
        getrandbits = random.Random(seed).getrandbits
        marked = {}  # resident -> marked?
        unmarked = []  # the unmarked residents, sorted
        for i, x in enumerate(trace):
            m = marked.get(x)
            if m is None:
                faults.append(i)
                if len(marked) == k:
                    if not unmarked:  # every resident is marked: a new phase
                        unmarked = sorted(marked)
                        marked = dict.fromkeys(unmarked, False)
                    n = len(unmarked)
                    bits = n.bit_length()
                    r = getrandbits(bits)
                    while r >= n:
                        r = getrandbits(bits)
                    del marked[unmarked.pop(r)]
                marked[x] = True
            elif not m:
                marked[x] = True
                del unmarked[bisect_left(unmarked, x)]
    return len(faults), faults


def belady_opt(trace, k):
    """Minimum fault count for paging: evict the item used farthest in future.

    Among residents never requested again the largest id goes first; ids are
    compared only then, so a trace of mutually incomparable ids that never
    makes such a choice is served.  A fault costs O(log k).
    """
    return _belady(trace, k, None)


def belady_schedule(trace, k):
    """The eviction schedule of ``belady_opt``, one entry per fault.

    A fault at index i that evicts a victim gives ``(i, (victim,))``; one
    that fills a free slot gives ``(i, ())``.  The fault count is the
    schedule's length.
    """
    schedule = []
    _belady(trace, k, schedule)
    return tuple(schedule)


def _indexable(trace):
    """``trace`` itself if it is a sequence, else its ids read into a tuple."""
    return trace if isinstance(trace, Sequence) else tuple(trace)


def _belady(trace, k, schedule):
    """Belady's fault count; each fault is appended to ``schedule`` unless
    it is None, so the count alone builds no tuple."""
    check_positive_int(k, "cache size")
    trace = _indexable(trace)
    later = [None] * len(trace)  # position of the next request for the same id
    last = {}
    for i in range(len(trace) - 1, -1, -1):
        x = trace[i]
        later[i] = last.get(x)
        last[x] = i

    faults = 0
    resident = set()
    # Negated next-request positions of the residents requested again.  A
    # hit at position i leaves the key -i behind; such a key is larger than
    # every live key, and the heap is popped only when all k residents have
    # a live key, so it never surfaces.  Rebuilding past 2k keys drops them.
    ahead = []
    done = []  # residents never requested again, sorted by id
    fresh = []  # residents never requested again, not yet in ``done``
    for i, x in enumerate(trace):
        if x not in resident:
            faults += 1
            if len(resident) == k:
                if fresh or done:
                    for f in fresh:
                        insort(done, f)
                    fresh.clear()
                    victim = done.pop()
                else:
                    victim = trace[-heappop(ahead)]
                resident.remove(victim)
                if schedule is not None:
                    schedule.append((i, (victim,)))
            elif schedule is not None:
                schedule.append((i, ()))
            resident.add(x)
        j = later[i]
        if j is None:
            fresh.append(x)
        else:
            heappush(ahead, -j)
            if len(ahead) > 2 * k:
                ahead = [key for key in ahead if key < -i]
                heapify(ahead)
    return faults


@dataclass(frozen=True)
class PhaseDecomposition:
    """Trace split at flush-when-full boundaries.

    ``phases`` are half-open index ranges covering the trace.  Every phase
    except possibly the last references exactly k distinct items, and every
    phase after the first begins with an item absent from the previous phase.
    """

    k: int
    phases: tuple

    def __len__(self):
        return len(self.phases)


def decompose_phases(trace, k):
    """Cut the trace where FWF with cache size k would flush.

    The request that triggers a flush belongs to the new phase.  An empty
    trace has no phases.
    """
    check_positive_int(k, "cache size")
    trace = _indexable(trace)
    phases = []
    start = 0
    seen = set()
    for i, x in enumerate(trace):
        if x not in seen:
            if len(seen) == k:
                phases.append((start, i))
                start = i
                seen = {x}
            else:
                seen.add(x)
    if len(trace):
        phases.append((start, len(trace)))
    return PhaseDecomposition(k, tuple(phases))
