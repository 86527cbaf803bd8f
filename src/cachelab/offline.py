"""Exact offline optimum for file caching.

This module alone decides how an optimum is computed, by one rule.  On a
paging-shaped sequence (every size and every cost 1) the optimum is
Belady's farthest-in-future schedule (``paging.belady_schedule``), at any
length.  Any other sequence goes to the exact search below, which is meant
for desk scale.

The model forces retrieval: a missed file must be brought into the cache,
paying its cost, and files may be evicted only at that moment to make room.
The search keeps the least cost of every reachable resident set and, on
each miss, branches over the inclusion-minimal eviction subsets that create
room.  Because holding a file is free, any non-minimal eviction can be
deferred; ``opt_cost_full_subsets`` keeps the unrestricted branching as a
validation oracle for that claim.

A resident set is an int bitmask: each file id takes the next bit the first
time the search is fed it.  The eviction subsets come from one depth-first
walk over the residents, largest size first, then bit, cached by their
sizes and the room needed.  No backpointer is kept: a witness is read
backward from the kept per-step frontiers.  Equal-cost ties are broken on
sorted ids, never on bits, sizes or the walk's order.

Costs are scaled to a common integer denominator internally, so the search
runs on plain integers and the returned minimum is exact.

The search is exponential in the number of distinct files.  It has one
guard, a deterministic count of its work: ``OptSearch.advance`` raises
``InstanceTooLarge`` once the states it has expanded plus the eviction sets
its misses have relaxed pass ``SEARCH_BUDGET``, however many files the
sequence holds and whoever drives the search.  The guard does not apply to a
paging-shaped sequence, which never reaches the search.
"""

import bisect
import copy
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, InstanceTooLarge, InvalidParams
from .errors import check_fits, check_positive_int, check_same_file, check_sweep_size
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
    "SEARCH_BUDGET",
]

# The search's work past which ``advance`` refuses, in units of one state
# expanded (each request meets every state of the frontier once) or one
# eviction set a miss relaxes (a miss that fits relaxes one, the empty set).
# A walk stops once it would list more sets than the budget has left, so one
# step costs about the budget at most, whatever the files: 30 unit-size
# residents and a size-15 request, C(30, 15) ~ 1.6e8 sets, are refused once
# the walk has listed the budget's worth.  The 40-request, 12-file desk
# instances (perfbench's desk_exact, 0 to 599 at seeds 1 and 4242, k = 3..9)
# take at most 17,534 units; the full-subset oracle on 12 unit-size files
# requested twice, the widest 12-file instance of the tests, 222,672 at
# k = 6 and 161,415 at k = 10.  Twelve unit-size files drawn 200 times at
# k = 6, 462 states wide, pass it at request 166.
SEARCH_BUDGET = 2 ** 18


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


def _room_making(sizes, need, minimal, limit):
    """The index sets of ``sizes``, largest first, that free ``need``, in
    lexicographic order; the walk stops once it has listed more than
    ``limit``.  With ``minimal`` only the inclusion-minimal ones: a set stops
    growing once it frees ``need``, and is minimal then, because its last
    member is its smallest.  A set grows by a member only if the sizes from
    there on can still free ``need``, so every set the walk builds leads to one
    it lists, and its work follows the length of its listing."""
    tails = list(itertools.accumulate(reversed(sizes), initial=0))[::-1]
    found = []
    chosen = []
    freed = i = 0
    while len(found) <= limit:
        if i < len(sizes) and freed + tails[i] >= need:
            chosen.append(i)
            freed += sizes[i]
            if freed >= need:
                found.append(tuple(chosen))
                if minimal:
                    freed -= sizes[chosen.pop()]
        elif chosen:
            i = chosen.pop()
            freed -= sizes[i]
        else:
            break
        i += 1
    return found


def _ids(bits, mask):
    """The ids whose bits are set in ``mask``, in bit order."""
    return [fid for fid, bit in bits.items() if mask & bit]


class _ByIds(Mapping):
    """A read-only view of a dict keyed by resident masks, keyed by the
    frozensets of ids those masks stand for."""

    __slots__ = ("_data", "_bits")

    def __init__(self, data, bits):
        self._data = data
        self._bits = bits

    def __len__(self):
        return len(self._data)

    def __iter__(self):
        for mask in self._data:
            yield frozenset(_ids(self._bits, mask))

    def __getitem__(self, key):
        bits = self._bits
        if isinstance(key, frozenset) and all(fid in bits for fid in key):
            mask = sum(bits[fid] for fid in key)
            if mask in self._data:
                return self._data[mask]
        raise KeyError(key)

    def __repr__(self):
        return repr(dict(self.items()))


class OptSearch:
    """Forward search over resident sets, advanced one request at a time.

    ``frontier`` maps each reachable resident set (frozenset of ids) to the
    least cost of any serving schedule ending in that set, a read-only view
    over the masks inside.
    ``min_cost()`` is the optimum for the requests fed so far.  Clones share
    the bit table, each id's first ``FileSpec``, the layout memo and the
    caches, and each carries on the work count of the search it was cloned
    from.  An id fed with another size or cost raises ``ConsistencyError``
    as ``validated`` does, and a file larger than ``k`` ``RequestTooLarge``
    (``errors.check_fits``, the engine's check).
    A request that takes the work past ``SEARCH_BUDGET`` raises
    ``InstanceTooLarge``, naming the request, the work counted, the
    frontier's width and the budget.  A refused request, like any other,
    leaves ``frontier``, ``steps`` and ``min_cost()`` as they were.

    With ``track_witness`` the search keeps, per step, the frontier before
    it (a tuple of sets and a tuple of costs) and the request's bit, size
    and cost.  The way into a set is the least edge from the previous
    frontier that reaches it at exactly its cost: a hit beats every miss,
    and misses go by their sorted evicted ids, which with the set fix the
    previous set.  A miss edge needs the set, less the request, among the
    sets the cached walk leaves of the previous set, so both directions
    share one rule of minimality.  ``witness()`` follows the ways in back
    from the final set.
    """

    def __init__(self, k, restrict_minimal=True, track_witness=False):
        check_positive_int(k, "cache size")
        self.k = k
        self.restrict_minimal = restrict_minimal
        self.track_witness = track_witness
        self.steps = 0
        self._specs = {}            # id -> the FileSpec it was first fed as
        self._left = SEARCH_BUDGET  # the work still allowed
        self._bits = {}             # id -> its bit, in the order ids were first fed
        self._frontier = {0: 0}     # resident mask -> least cost
        self._kept = []             # per step: (sets before it, their costs, bit, size, paid)
        self._by_size = []          # (size, bit) of every id, sorted
        self._layouts = {0: (0, (), ())}  # mask -> (total size, sizes, bits) in walk order
        self._walks = {}            # (sizes in walk order, need) -> _room_making result
        self._rests = {}            # (mask, request size) -> masks a miss can leave
        self._names = {}            # mask -> its ids, sorted

    @property
    def frontier(self):
        return _ByIds(self._frontier, self._bits)

    def clone(self):
        """A copy to extend with other requests: ``advance`` rebinds the
        frontier and only adds to what clones share."""
        if self.track_witness:
            raise InvalidParams("cannot clone a witness-tracking search")
        return copy.copy(self)

    def _sorted_ids(self, mask):
        """The ids in ``mask``, sorted: the order ties and witnesses use."""
        names = self._names.get(mask)
        if names is None:
            names = self._names[mask] = tuple(sorted(_ids(self._bits, mask)))
        return names

    def _layout(self, mask):
        """``(total size, sizes, bits)`` of the set, largest size, then bit, first."""
        layout = self._layouts.get(mask)
        if layout is None:
            sizes, bits = zip(*[pair for pair in reversed(self._by_size) if mask & pair[1]])
            layout = self._layouts[mask] = (sum(sizes), sizes, bits)
        return layout

    def _leaves(self, state, gsize, limit=math.inf):
        """The masks a miss of size ``gsize`` can leave of ``state`` before
        the request joins: ``state`` if the request fits, else what each of
        the walk's eviction sets leaves.  Cached by ``(state, gsize)``.  A walk
        that lists more than ``limit`` sets is cut short and returned as it
        stands, for the caller to refuse: neither it nor its masks are kept."""
        rests = self._rests.get((state, gsize))
        if rests is not None:
            return rests
        used, sizes, held = self._layout(state)
        need = used + gsize - self.k
        if need <= 0:
            rests = (state,)
        else:
            walk = self._walks.get((sizes, need))
            if walk is None:
                walk = _room_making(sizes, need, self.restrict_minimal, limit)
                if len(walk) > limit:
                    return walk
                self._walks[sizes, need] = walk
            bit_at = held.__getitem__
            rests = [state ^ sum(map(bit_at, chosen)) for chosen in walk]
        self._rests[state, gsize] = rests
        return rests

    def advance(self, g, cost_value=None):
        """Feed the next request; ``cost_value`` overrides g.cost (int scaling)."""
        gid, gsize = g.id, g.size
        paid = g.cost if cost_value is None else cost_value
        check_fits(g, self.k, self.steps)
        known = self._specs.setdefault(gid, g)
        if known is not g:
            check_same_file(known, g, self.steps)
        bits = self._bits
        gbit = bits.get(gid)
        if gbit is None:
            gbit = bits[gid] = 1 << len(bits)
            bisect.insort(self._by_size, (gsize, gbit))
        rests_of = self._rests
        width = len(self._frontier)
        left = self._left - width  # each state is expanded once
        frontier = {}

        for state, cost in self._frontier.items():
            if state & gbit:  # a hit keeps the state
                if frontier.get(state, cost) >= cost:
                    frontier[state] = cost
                continue
            cost += paid
            rests = rests_of.get((state, gsize)) or self._leaves(state, gsize, left)
            left -= len(rests)
            if left < 0:
                break
            for rest in rests:
                nxt = rest | gbit
                if frontier.get(nxt, cost) >= cost:
                    frontier[nxt] = cost

        if left < 0:
            raise InstanceTooLarge(
                f"request {self.steps}: the exact search has expanded {SEARCH_BUDGET - left} "
                f"states and eviction sets (frontier {width} wide), "
                f"over its budget of {SEARCH_BUDGET}")
        if self.track_witness:
            before = self._frontier
            self._kept.append((tuple(before), tuple(before.values()), gbit, gsize, paid))
        self._frontier = frontier
        self._left = left
        self.steps += 1

    def _way_in(self, index, state, cost):
        """``(prev, evicted mask or None)``: the way into ``state`` at ``cost``
        at step ``index``.  A miss keeps all it does not evict, so only sets
        holding the rest of ``state`` are expanded."""
        states, costs, gbit, gsize, paid = self._kept[index]
        shared = state ^ gbit
        best = None
        for prev, before in zip(states, costs):
            if prev & gbit:
                if prev == state and before == cost:
                    return prev, None  # a hit beats every miss
            elif prev & shared == shared and before + paid == cost:
                for rest in self._leaves(prev, gsize):
                    if rest | gbit == state and (best is None or self._sorted_ids(prev ^ rest)
                                                 < self._sorted_ids(best[1])):
                        best = (prev, prev ^ rest)
        return best

    def min_cost(self):
        return min(self._frontier.values())

    def witness(self):
        """Extract the (request_index, evicted_ids) schedule of one optimum."""
        if not self.track_witness:
            raise InvalidParams("witness tracking was not enabled")
        cost = self.min_cost()
        state = min((s for s, c in self._frontier.items() if c == cost), key=self._sorted_ids)
        schedule = []
        for index in range(self.steps - 1, -1, -1):
            state, evicted = self._way_in(index, state, cost)
            if evicted is not None:  # a miss: the set before it cost what it paid less
                schedule.append((index, self._sorted_ids(evicted)))
                cost -= self._kept[index][4]
        schedule.reverse()
        return tuple(schedule)


def _search(seq, k, restrict_minimal, track_witness, max_length=None):
    seq = validated(seq)
    search = OptSearch(k, restrict_minimal=restrict_minimal, track_witness=track_witness)
    if max_length is not None and len(seq) > max_length:
        raise InstanceTooLarge(f"sequence length {len(seq)} exceeds limit {max_length}")
    scale = math.lcm(*[g.cost.denominator for g in seq])
    for g in seq:
        search.advance(g, cost_value=g.cost.numerator * (scale // g.cost.denominator))
    return search, scale


def _min_cost(seq, k, restrict_minimal):
    search, scale = _search(seq, k, restrict_minimal, False)
    return Fraction(search.min_cost(), scale)


def opt_cost(seq, k, *, max_length=None):
    """Exact minimum retrieval cost with a cache of size k, plus a witness.

    On a paging-shaped sequence this is Belady's schedule, at any length;
    otherwise the search's, which raises ``InstanceTooLarge`` once its work
    passes ``SEARCH_BUDGET`` (see ``OptSearch``).  ``max_length``, if given,
    also refuses a general sequence longer than that; it stays only for the
    benchmark harness's calls.
    """
    seq = validated(seq)
    if is_paging_sequence(seq):
        schedule = belady_schedule([g.id for g in seq], k)
        return OptResult(Fraction(len(schedule)), schedule)
    search, scale = _search(seq, k, True, True, max_length)
    return OptResult(Fraction(search.min_cost(), scale), search.witness())


def opt_cost_full_subsets(seq, k):
    """Validation oracle: identical search but branching over all room-making
    eviction subsets, not just the inclusion-minimal ones."""
    return _min_cost(seq, k, False)


def opt_costs_by_k(seq, ks):
    """``{k: optimum}`` for every cache size in ``ks``, in ``ks`` order, by
    ``opt_cost``'s rule with one paging-shape test for all of them; neither
    Belady's fault count nor the search's minimum needs a schedule.  The
    sequence is checked once for all of them.  The search solves the largest
    size first, so a size its budget refuses costs no work on smaller ones.
    A size past 65,536 is refused with ``InstanceTooLarge``
    (``errors.check_sweep_size``) before any is solved, as soon as ``ks``
    yields it."""
    sizes = []
    for k in ks:
        check_positive_int(k, "cache size")
        check_sweep_size(k)
        sizes.append(k)
    seq = validated(seq)
    if is_paging_sequence(seq):
        items = [g.id for g in seq]
        return {k: Fraction(belady_opt(items, k)) for k in sizes}
    optima = {k: _min_cost(seq, k, True) for k in sorted(set(sizes), reverse=True)}
    return {k: optima[k] for k in sizes}


def replay_witness(seq, k, witness_schedule):
    """Run a witness schedule through a model-conformant cache.

    Returns the total cost paid; raises ``ConsistencyError`` if ``seq`` gives
    an id two (size, cost) pairs (through ``validated``), if the schedule's
    request indices do not strictly increase within the sequence, or if it
    evicts at a hit, evicts a non-resident or leaves no room for a request,
    so tests can certify witnesses independently.
    """
    check_positive_int(k, "cache size")
    seq = validated(seq)
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
