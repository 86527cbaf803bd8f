"""Exact offline optimum for file caching.

This module alone decides how an optimum is computed, by one rule.  On a
paging-shaped sequence (every size and every cost 1) the optimum is
Belady's farthest-in-future schedule (``paging.belady_schedule``), at any
length.  Any other sequence goes to the exact search below, which is meant
for desk scale.

The model forces retrieval: a missed file must be brought into the cache,
paying its cost, and files may be evicted only at that moment to make room.
The search memoizes on (request index, resident set) and, on each miss,
branches over the inclusion-minimal eviction subsets that create room.
Because holding a file is free, any non-minimal eviction can be deferred;
``opt_cost_full_subsets`` keeps the unrestricted branching as a validation
oracle for that claim.

The eviction subsets come from one depth-first walk over the resident ids in
sorted order.  Which subsets make room depends only on the residents' sizes
in that order and on the room still needed, so each search caches the walk's
index sets by that size pattern and reuses them for every resident set with
the same pattern.

Costs are scaled to a common integer denominator internally, so the search
runs on plain integers and the returned minimum is exact.

The search is exponential in the number of distinct files.  It refuses
more than ``MAX_DISTINCT`` of them, which bounds one step, and stops with
``InstanceTooLarge`` once the states it has expanded pass ``SEARCH_BUDGET``,
a deterministic count.  Neither guard applies to a paging-shaped sequence.
"""

import copy
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, InstanceTooLarge, RequestTooLarge, check_positive_int
from .core import validated
from .paging import belady_opt, belady_schedule
from .trace import is_paging_sequence

__all__ = [
    "OptResult",
    "OptSearch",
    "opt_cost",
    "opt_cost_full_subsets",
    "opt_costs_by_k",
    "replay_witness",
    "MAX_DISTINCT",
    "SEARCH_BUDGET",
]

# The file cap bounds one step: before request i >= 1 the frontier holds only
# sets that contain request i-1, at most 2**11, and an eviction walk over the
# other residents lists at most 2**11 subsets.  Without it one walk over 30
# unit-size residents for a size-15 request lists C(30, 15) ~ 1.6e8 subsets.
MAX_DISTINCT = 12
# States expanded (frontier sizes summed before each request) past which the
# search refuses.  Any 24 requests over 12 files expand at most
# 1 + 23 * 2**11 = 47,105, so all are served; a 40-request desk instance
# expands a few thousand, and 12 unit-size files at k = 6 (462 states wide)
# trip it within a second.
SEARCH_BUDGET = 2 ** 16

_EMPTY = frozenset()


@dataclass(frozen=True)
class OptResult:
    """Minimum retrieval cost plus one schedule achieving it.

    ``witness_schedule`` holds ``(request_index, evicted_ids)`` for every
    miss of the optimal run, evicted ids sorted.  Ties between equally good
    schedules are broken so that reports reproduce: on a paging-shaped
    sequence by Belady's rule (evict the resident requested farthest in the
    future; among residents never requested again, the largest id), and
    otherwise lexicographically, as ``OptSearch`` describes.
    """

    min_cost: Fraction
    witness_schedule: tuple


def _room_making(sizes, need, minimal):
    """``(indices, freed)`` for each subset of ``sizes`` that frees ``need``.

    The walk extends index sets in increasing order, so the subsets come out
    in lexicographic order.  With ``minimal`` only the inclusion-minimal
    subsets are kept: a set stops growing once it frees ``need``, and is kept
    only if dropping its smallest member would free too little.
    """
    found = []
    chosen = []

    def extend(start, freed, smallest):
        for i in range(start, len(sizes)):
            size = sizes[i]
            total = freed + size
            least = min(smallest, size)
            chosen.append(i)
            if total >= need and (not minimal or total - least < need):
                found.append((tuple(chosen), total))
            if total < need or not minimal:
                extend(i + 1, total, least)
            chosen.pop()

    extend(0, 0, math.inf)
    return tuple(found)


def _tie_key(prev, evicted):
    # hits (evicted None) first, then lexicographic evictions and prev set
    return (evicted is not None, evicted or (), sorted(prev))


class OptSearch:
    """Forward search over resident sets, advanced one request at a time.

    ``frontier`` maps each reachable resident set (frozenset of ids) to the
    least cost of any serving schedule ending in that set, and ``used`` maps
    it to its total size.  ``min_cost()`` is the optimum for the requests
    fed so far.  With ``track_witness`` a backpointer trail is kept for
    schedule extraction; among equally cheap ways into a set the trail keeps
    the least by a total order on (previous set, evicted ids), so neither
    the frontier's order nor the walk's changes a cost or a witness.

    A miss branches over the subsets of the residents that make room for the
    request, found by ``_room_making`` over the residents' sizes in sorted-id
    order and cached per search by ``(sizes, room needed)``.  Each id keeps
    the size it was first fed with: feeding it again with another size
    raises ``ConsistencyError``, and a file larger than ``k`` raises
    ``RequestTooLarge``.
    """

    def __init__(self, k, restrict_minimal=True, track_witness=False):
        check_positive_int(k, "cache size")
        self.k = k
        self.restrict_minimal = restrict_minimal
        self.track_witness = track_witness
        self.frontier = {_EMPTY: 0}
        self.sizes = {}
        self.used = {_EMPTY: 0}     # resident set -> total size
        self.trail = []             # per step: {state: (prev_state, evicted or None)}
        self.steps = 0
        self._walks = {}            # (member sizes, need) -> _room_making result

    def clone(self):
        """A copy to extend with other requests.  ``advance`` rebinds
        ``frontier``, ``used`` and ``steps`` and only adds to ``sizes`` and
        the walk cache, so a shallow copy shares just those two."""
        if self.track_witness:
            raise ValueError("cannot clone a witness-tracking search")
        return copy.copy(self)

    def _eviction_choices(self, state, need):
        """``(evicted ids, freed size)`` for each way to free ``need`` in ``state``."""
        members = sorted(state)
        sizes = self.sizes
        key = (tuple([sizes[f] for f in members]), need)
        walk = self._walks.get(key)
        if walk is None:
            walk = self._walks[key] = _room_making(key[0], need, self.restrict_minimal)
        return [(tuple([members[i] for i in chosen]), freed) for chosen, freed in walk]

    def advance(self, g, cost_value=None):
        """Feed the next request; ``cost_value`` overrides g.cost (int scaling)."""
        gid, gsize = g.id, g.size
        paid = g.cost if cost_value is None else cost_value
        k = self.k
        if gsize > k:
            raise RequestTooLarge(
                f"request {self.steps}: file {gid!r} (size {gsize}) exceeds cache size {k}",
                index=self.steps,
            )
        known = self.sizes.setdefault(gid, gsize)
        if known != gsize:
            raise ConsistencyError(
                f"request {self.steps}: file {gid!r} seen with size {gsize} "
                f"but previously with size {known}"
            )
        used = self.used
        new_frontier = {}
        new_used = {}
        back = {} if self.track_witness else None
        added = (gid,)

        for state, cost in self.frontier.items():
            held = used[state]
            if gid in state:
                moves = ((state, None, held),)
            else:
                cost += paid
                after = held + gsize
                need = after - k
                if need <= 0:
                    moves = ((state.union(added), (), after),)
                else:
                    moves = [(state.difference(evicted).union(added), evicted, after - freed)
                             for evicted, freed in self._eviction_choices(state, need)]
            for nxt, evicted, size in moves:
                old = new_frontier.get(nxt)
                if old is None or cost < old:
                    new_frontier[nxt] = cost
                    new_used[nxt] = size
                    if back is not None:
                        back[nxt] = (state, evicted)
                elif (back is not None and cost == old
                      and _tie_key(state, evicted) < _tie_key(*back[nxt])):
                    back[nxt] = (state, evicted)

        self.frontier = new_frontier
        self.used = new_used
        if back is not None:
            self.trail.append(back)
        self.steps += 1

    def min_cost(self):
        return min(self.frontier.values())

    def witness(self):
        """Extract the (request_index, evicted_ids) schedule of one optimum."""
        if not self.track_witness:
            raise ValueError("witness tracking was not enabled")
        best = self.min_cost()
        state = min((s for s, c in self.frontier.items() if c == best), key=sorted)
        schedule = []
        for index in range(self.steps - 1, -1, -1):
            prev, evicted = self.trail[index][state]
            if evicted is not None:  # this request was a miss
                schedule.append((index, tuple(sorted(evicted))))
            state = prev
        schedule.reverse()
        return tuple(schedule)


def _search(seq, k, restrict_minimal, track_witness, max_length=None):
    seq = validated(seq)
    search = OptSearch(k, restrict_minimal=restrict_minimal, track_witness=track_witness)
    if max_length is not None and len(seq) > max_length:
        raise InstanceTooLarge(f"sequence length {len(seq)} exceeds limit {max_length}")
    distinct = len({g.id for g in seq})
    if distinct > MAX_DISTINCT:
        raise InstanceTooLarge(f"{distinct} distinct files exceed limit {MAX_DISTINCT}")
    scale = math.lcm(*[g.cost.denominator for g in seq])
    expanded = 0
    for index, g in enumerate(seq):
        width = len(search.frontier)
        expanded += width
        if expanded > SEARCH_BUDGET:
            raise InstanceTooLarge(
                f"request {index}: the exact search has expanded {expanded} states "
                f"(frontier {width} wide), over its budget of {SEARCH_BUDGET}")
        search.advance(g, cost_value=g.cost.numerator * (scale // g.cost.denominator))
    return search, scale


def _min_cost(seq, k, restrict_minimal):
    search, scale = _search(seq, k, restrict_minimal, False)
    return Fraction(search.min_cost(), scale)


def opt_cost(seq, k, *, max_length=None):
    """Exact minimum retrieval cost with a cache of size k, plus a witness.

    On a paging-shaped sequence this is Belady's schedule, at any length;
    otherwise the search's, which raises ``InstanceTooLarge`` on more than
    ``MAX_DISTINCT`` files or more than ``SEARCH_BUDGET`` states expanded.
    ``max_length``, if given, also refuses a general sequence longer than
    that.
    """
    if is_paging_sequence(seq):  # one size and one cost per id, so consistent
        schedule = belady_schedule([g.id for g in seq], k)
        return OptResult(Fraction(len(schedule)), schedule)
    search, scale = _search(seq, k, True, True, max_length)
    return OptResult(Fraction(search.min_cost(), scale), search.witness())


def opt_cost_full_subsets(seq, k):
    """Validation oracle: identical search but branching over all room-making
    eviction subsets, not just the inclusion-minimal ones."""
    return _min_cost(seq, k, False)


def opt_costs_by_k(seq, ks):
    """``{k: optimum}`` for every cache size in ``ks``, by ``opt_cost``'s
    rule with one paging-shape test for all of them; neither Belady's fault
    count nor the search's minimum needs a schedule.  The sequence is
    checked once for all of them."""
    if is_paging_sequence(seq):  # one size and one cost per id, so consistent
        items = [g.id for g in seq]
        return {k: Fraction(belady_opt(items, k)) for k in ks}
    seq = validated(seq)
    return {k: _min_cost(seq, k, True) for k in ks}


def replay_witness(seq, k, witness_schedule):
    """Run a witness schedule through a model-conformant cache.

    Returns the total cost paid; raises ``ConsistencyError`` if the schedule's
    request indices do not strictly increase within the sequence, or it
    evicts at a hit, evicts a non-resident or leaves no room for a request,
    so tests can certify witnesses independently.
    """
    check_positive_int(k, "cache size")
    evictions = {}
    for index, fids in witness_schedule:
        if not next(reversed(evictions), -1) < index < len(seq):
            raise ConsistencyError(f"witness index {index} is out of order or past the end")
        evictions[index] = fids
    resident = {}
    free = k
    total = Fraction(0)
    for i, g in enumerate(seq):
        if g.id in resident:
            if i in evictions:
                raise ConsistencyError(f"witness schedules an eviction at hit {i}")
            continue
        for fid in evictions.get(i, ()):
            if fid not in resident:
                raise ConsistencyError(f"witness evicts non-resident {fid!r} at request {i}")
            free += resident.pop(fid)
        if g.size > free:
            raise ConsistencyError(f"witness leaves no room for {g.id!r} at request {i}")
        resident[g.id] = g.size
        free -= g.size
        total += g.cost
    return total
