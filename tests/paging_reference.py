"""Belady and randomized marking as they stood before the O(log k) victim
choice: the reference.

``belady_opt`` scans every resident for the one requested farthest in the
future on each fault; ``simulate_marking`` sorts the unmarked residents on
every fault and draws the victim from that list.  The differential tests run
the same traces through these and through ``cachelab.paging`` and require
equal fault counts and, for marking, equal fault positions for every seed.
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
