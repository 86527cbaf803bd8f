"""The exact offline search as it stood before the minimal-set walk: the
reference.

On every cache miss ``OptSearch._eviction_choices`` walks all ``2^|state|``
masks of the resident set and drops the non-minimal room-making ones; its
cache is keyed by ``(state, need)`` and cleared whenever a new file id
appears, and ``advance`` sorts the frontier before every step.  The
differential tests feed the same requests to this search and to
``cachelab.offline`` and require equal frontiers, resident sizes, optima and
witness trails after every request.
"""

import math
from fractions import Fraction

from cachelab import InstanceTooLarge, OptResult, RequestTooLarge, validate_sequence
from cachelab.errors import check_positive_int

DEFAULT_MAX_DISTINCT = 12
DEFAULT_MAX_LENGTH = 24

_EMPTY = frozenset()


def _check_limits(seq, k, max_distinct, max_length):
    check_positive_int(k, "cache size")
    if len(seq) > max_length:
        raise InstanceTooLarge(f"sequence length {len(seq)} exceeds limit {max_length}")
    ids = {g.id for g in seq}
    if len(ids) > max_distinct:
        raise InstanceTooLarge(f"{len(ids)} distinct files exceed limit {max_distinct}")
    for i, g in enumerate(seq):
        if g.size > k:
            raise RequestTooLarge(
                f"request {i}: file {g.id!r} (size {g.size}) exceeds cache size {k}",
                index=i,
            )


def _scaled_costs(seq):
    """Map id -> (size, integer cost) after clearing denominators; plus the scale."""
    scale = 1
    for g in seq:
        scale = math.lcm(scale, g.cost.denominator)
    table = {}
    for g in seq:
        table[g.id] = (g.size, int(g.cost * scale))
    return table, scale


class OptSearch:
    """Forward search over resident sets, advanced one request at a time.

    ``frontier`` maps each reachable resident set (frozenset of ids) to the
    least cost of any serving schedule ending in that set.  ``min_cost()``
    is the optimum for the requests fed so far.  With ``track_witness`` a
    backpointer trail is kept for schedule extraction.
    """

    def __init__(self, k, restrict_minimal=True, track_witness=False):
        self.k = k
        self.restrict_minimal = restrict_minimal
        self.track_witness = track_witness
        self.frontier = {_EMPTY: 0}
        self.sizes = {}
        self.used = {_EMPTY: 0}     # resident set -> total size
        self.trail = []             # per step: {state: (prev_state, evicted or None)}
        self.steps = 0
        self._subset_cache = {}

    def clone(self):
        """Cheap copy for branch-and-extend enumeration over prefixes.

        Frontier and size maps are copied; the eviction-subset cache and the
        size catalog are shared (both grow append-only and depend only on
        file ids, so sharing is safe).  Witness trails are not cloned.
        """
        if self.track_witness:
            raise ValueError("cannot clone a witness-tracking search")
        other = OptSearch.__new__(OptSearch)
        other.k = self.k
        other.restrict_minimal = self.restrict_minimal
        other.track_witness = False
        other.frontier = self.frontier.copy()
        other.sizes = self.sizes
        other.used = self.used.copy()
        other.trail = []
        other.steps = self.steps
        other._subset_cache = self._subset_cache
        return other

    def _eviction_choices(self, state, need):
        key = (state, need)
        cached = self._subset_cache.get(key)
        if cached is not None:
            return cached
        members = sorted(state)
        sizes = self.sizes
        choices = []
        for mask in range(1, 1 << len(members)):
            total = 0
            chosen = []
            for b, fid in enumerate(members):
                if mask >> b & 1:
                    total += sizes[fid]
                    chosen.append(fid)
            if total < need:
                continue
            if self.restrict_minimal and any(total - sizes[f] >= need for f in chosen):
                continue
            choices.append((tuple(chosen), total))
        choices.sort()
        self._subset_cache[key] = choices
        return choices

    def advance(self, g, cost_value=None):
        """Feed the next request; ``cost_value`` overrides g.cost (int scaling)."""
        gid, gsize = g.id, g.size
        paid = g.cost if cost_value is None else cost_value
        if gid not in self.sizes:
            self.sizes[gid] = gsize
            self._subset_cache.clear()
        k = self.k
        new_frontier = {}
        new_used = {}
        back = {} if self.track_witness else None

        def tie_key(prev, evicted):
            # hits (evicted None) first, then lexicographic evictions and prev set
            return (evicted is not None, evicted or (), sorted(prev))

        def offer(state, cost, prev, evicted):
            old = new_frontier.get(state)
            if old is None or cost < old:
                new_frontier[state] = cost
                if back is not None:
                    back[state] = (prev, evicted)
            elif back is not None and cost == old:
                cur_prev, cur_ev = back[state]
                if tie_key(prev, evicted) < tie_key(cur_prev, cur_ev):
                    back[state] = (prev, evicted)

        for state in sorted(self.frontier, key=sorted):
            cost = self.frontier[state]
            if gid in state:
                offer(state, cost, state, None)
                continue
            need = gsize - (k - self.used[state])
            if need <= 0:
                nxt = state | {gid}
                offer(nxt, cost + paid, state, ())
                new_used[nxt] = self.used[state] + gsize
                continue
            for evicted, freed in self._eviction_choices(state, need):
                nxt = (state - frozenset(evicted)) | {gid}
                offer(nxt, cost + paid, state, evicted)
                new_used[nxt] = self.used[state] - freed + gsize

        for state in new_frontier:
            if state not in new_used:
                new_used[state] = sum(self.sizes[f] for f in state)
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


def _search(seq, k, restrict_minimal, track_witness, max_distinct, max_length):
    validate_sequence(seq)
    _check_limits(seq, k, max_distinct, max_length)
    table, scale = _scaled_costs(seq)
    search = OptSearch(k, restrict_minimal=restrict_minimal, track_witness=track_witness)
    for g in seq:
        search.advance(g, cost_value=table[g.id][1])
    return search, scale


def opt_cost(seq, k, *, max_distinct=DEFAULT_MAX_DISTINCT, max_length=DEFAULT_MAX_LENGTH):
    """Exact minimum retrieval cost with a cache of size k, plus a witness."""
    if not len(seq):
        return OptResult(Fraction(0), ())
    search, scale = _search(seq, k, True, True, max_distinct, max_length)
    return OptResult(Fraction(search.min_cost(), scale), search.witness())


def opt_cost_full_subsets(seq, k, *, max_distinct=DEFAULT_MAX_DISTINCT,
                          max_length=DEFAULT_MAX_LENGTH):
    """Validation oracle: identical search but branching over all room-making
    eviction subsets, not just the inclusion-minimal ones."""
    if not len(seq):
        return Fraction(0)
    search, scale = _search(seq, k, False, False, max_distinct, max_length)
    return Fraction(search.min_cost(), scale)
