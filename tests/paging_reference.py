"""The direct paging simulators in earlier, simpler forms: the reference.

``belady_opt`` scans every resident for the one requested farthest in the
future on each fault; ``simulate_marking`` sorts the unmarked residents on
every fault and draws the victim with ``rng.choice`` from that list.  Both
are as they stood before the O(log k) victim choice.  ``simulate_lru`` and
``simulate_fifo`` keep the residents in one dict whose insertion order is
the eviction order, and ``simulate_fwf`` in one set, as they stood before
LRU and FIFO moved to a deque.  The differential tests run the same traces
through these and through ``cachelab.paging`` and require equal fault
counts and, for every simulator but Belady, equal fault positions (for
marking, for every seed).
"""

import random

_NEVER = float("inf")


def belady_opt(trace, k):
    occurrences = {}
    for i, x in enumerate(trace):
        occurrences.setdefault(x, []).append(i)
    cursor = {x: 0 for x in occurrences}

    faults = 0
    next_use = {}  # resident -> position of its next request (or _NEVER)
    for i, x in enumerate(trace):
        cursor[x] += 1
        upcoming = occurrences[x]
        j = cursor[x]
        coming = upcoming[j] if j < len(upcoming) else _NEVER
        if x in next_use:
            next_use[x] = coming
            continue
        faults += 1
        if len(next_use) == k:
            victim = max(next_use, key=lambda f: (next_use[f], f))
            del next_use[victim]
        next_use[x] = coming
    return faults


def simulate_marking(trace, k, seed):
    """``(fault_count, fault_positions)`` of randomized marking."""
    faults = []
    rng = random.Random(seed)
    marked = {}  # id -> bool
    for i, x in enumerate(trace):
        if x in marked:
            marked[x] = True
        else:
            faults.append(i)
            if len(marked) == k:
                unmarked = sorted(f for f, m in marked.items() if not m)
                if not unmarked:
                    for f in marked:
                        marked[f] = False
                    unmarked = sorted(marked)
                del marked[rng.choice(unmarked)]
            marked[x] = True
    return len(faults), faults


def simulate_lru(trace, k):
    """``(fault_count, fault_positions)`` of LRU."""
    faults = []
    cache = {}  # insertion order doubles as recency order
    for i, x in enumerate(trace):
        if x in cache:
            del cache[x]
        else:
            faults.append(i)
            if len(cache) == k:
                del cache[next(iter(cache))]
        cache[x] = None
    return len(faults), faults


def simulate_fifo(trace, k):
    """``(fault_count, fault_positions)`` of FIFO."""
    faults = []
    cache = {}
    for i, x in enumerate(trace):
        if x not in cache:
            faults.append(i)
            if len(cache) == k:
                del cache[next(iter(cache))]
            cache[x] = None
    return len(faults), faults


def simulate_fwf(trace, k):
    """``(fault_count, fault_positions)`` of flush-when-full."""
    faults = []
    cache = set()
    for i, x in enumerate(trace):
        if x not in cache:
            faults.append(i)
            if len(cache) == k:
                cache.clear()
            cache.add(x)
    return len(faults), faults
