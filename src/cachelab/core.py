"""Landlord cache engine: credit-based eviction for files with sizes and costs.

Every file in the cache holds a credit in [0, cost].  A requested file that
is already resident may have its credit refreshed (interpolated toward its
cost by ``refresh_lambda``).  A miss charges "rent" to every resident --
``delta * size`` per round, with delta chosen as the minimum credit/size so
at least one resident reaches exactly zero -- and evicts zero-credit files
until the newcomer fits.  All arithmetic is exact: the eviction trigger is
an exact-zero test, so runs are reproducible across platforms.

Rent is collected lazily, as in GreedyDual-Size's inflation value (Cao &
Irani, 1997).  A rent clock ``L`` holds the total rent charged per unit of
size so far; a resident's credit is stored with the clock value at which it
was valid, and a heap orders the residents by the clock value at which their
credit runs out, ``L + credit/size``.  A rent round moves the clock to the
smallest such key and pops exactly the residents that reach zero, so no
round touches every resident.

Inside the engine the clock, the credits, the heap keys and the costs are
stored scaled by a per-state integer ``D``.  The clock is always a Python
int, and so is every stored clock value (``_BASE``), every cost and every
key a miss pushes, ``clock + cost/size``: ``D`` is a multiple of ``q * size``
for every file served whose cost has denominator ``q``, and it also holds
the denominator of every key the clock has reached, since a rent round that
reaches a ``Fraction`` key first grows ``D`` by that key's denominator.
Every credit, at every lambda, is a pair of ints: a numerator over the
entry's own denominator (``_DEN``).  The denominator is 1 for every preset;
a hit at lambda = p/q not in {0, 1} multiplies it by q, and a refresh at
lambda = 1 or a round that zeroes the file sets it back to 1.  So a hit
builds no ``Fraction`` and takes no gcd; only the heap key of a file
refreshed at such a lambda may be one.  ``D`` never shrinks, and every
stored value is rescaled when it grows.  Values leave the engine as
``Fraction``: ``credit_of``, ``residents`` and ``RentRound.delta``.

``request`` serves a request; its outcome is the event log of the request
(rent rounds in order, each with its zero-credit residents in the order
the selector takes them, and its evictions), which the potential audit
(``analysis.audit_landlord``) replays step by step.  The
pessimal selector's ``FutureView(seq)`` is read at the state's count of
served requests, so the state must have served ``seq`` from its first request.
A sequence is an instance only if each id has one size and one cost;
``validated`` checks a sequence for it once, and ``request`` each hit.
``request`` makes every refusal before it changes the state, each through
the one check that owns it (``errors.check_same_file``, ``check_fits``).

The selector/greediness knobs choose *which* zero-credit files go, which is
how the classic paging policies fall out of the same engine:

* LRU    -> lambda=1, LRU_ORDER, EVICT_UNTIL_ROOM
* FIFO   -> lambda=0, FIFO_ORDER, EVICT_UNTIL_ROOM
* FWF    -> lambda=0, FIFO_ORDER, EVICT_ALL_ZERO
* balance (uniform sizes, arbitrary costs) -> lambda=0, EVICT_UNTIL_ROOM
* pessimal flush -> lambda=0, PESSIMAL_NEXT_REQUEST, EVICT_UNTIL_ROOM
  (offline: evicts the zero-credit file that will be requested soonest)
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from heapq import heappop, heappush, heapreplace
from math import gcd

from .errors import (ConsistencyError, InvalidParams, check_fits, check_positive_int,
                     check_rational, check_same_file)

__all__ = [
    "FileSpec",
    "LandlordPolicy",
    "EvictionSelector",
    "EvictionGreediness",
    "CacheState",
    "FutureView",
    "RentRound",
    "RequestOutcome",
    "RunReport",
    "new_cache",
    "request",
    "run_trace",
    "validated",
]

_FR0 = Fraction(0)

# entry field indices (entries are small lists for speed): the credit is
# _CREDIT / _DEN, both ints, valid at rent clock _BASE; _KEYED says the
# resident's heap item carries its current key (false for zero-credit
# residents, which have no item); _CREDIT / _DEN, _BASE and _COST are
# scaled by the state's D
_SPEC, _CREDIT, _BASE, _LAST, _INS, _KEYED, _COST, _DEN = 0, 1, 2, 3, 4, 5, 6, 7


def _exact(value, what):
    """``value`` as a Fraction; floats are refused because they are not exact."""
    if isinstance(value, float):
        raise InvalidParams(
            f"{what} must be exact (an int, a Fraction or a rational string), got {value!r}")
    return check_rational(value, what)


class EvictionSelector(Enum):
    """Order in which zero-credit files are considered for eviction."""

    LRU_ORDER = "lru"           # least recently requested first
    FIFO_ORDER = "fifo"         # earliest inserted first
    PESSIMAL_NEXT_REQUEST = "pessimal"  # soonest next request first (offline)


class EvictionGreediness(Enum):
    EVICT_ALL_ZERO = "all-zero"      # evict every zero-credit file
    EVICT_UNTIL_ROOM = "until-room"  # stop as soon as the newcomer fits


@dataclass(frozen=True)
class FileSpec:
    """A cacheable file: opaque str id, positive integer size, rational cost >= 0."""

    id: str
    size: int
    cost: Fraction

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise InvalidParams(f"file id {self.id!r} must be a str")
        if (not isinstance(self.size, int) or isinstance(self.size, bool)
                or self.size < 1):
            raise InvalidParams(f"file {self.id!r}: size must be a positive integer")
        object.__setattr__(self, "cost", _exact(self.cost, f"file {self.id!r}: cost"))
        if self.cost < 0:
            raise InvalidParams(f"file {self.id!r}: cost must be non-negative")


@dataclass(frozen=True)
class LandlordPolicy:
    """Tunable knobs of the engine, checked once; its field defaults are the
    package's one default policy (LRU).

    ``refresh_lambda`` controls the credit refresh on a hit:
    new credit = credit + lambda * (cost - credit).  lambda=1 restores full
    credit (LRU-like), lambda=0 leaves it unchanged (FIFO/FWF-like); any
    rational in between is legal.  ``selector`` and ``greediness`` take a
    member of their enum or its value string (``"fifo"``, ``"all-zero"``,
    the CLI's flag values); anything else raises ``InvalidParams``.
    """

    refresh_lambda: Fraction = Fraction(1)
    selector: EvictionSelector = EvictionSelector.LRU_ORDER
    greediness: EvictionGreediness = EvictionGreediness.EVICT_UNTIL_ROOM

    def __post_init__(self):
        lam = _exact(self.refresh_lambda, "refresh_lambda")
        if not 0 <= lam <= 1:
            raise InvalidParams("refresh_lambda must lie in [0, 1]")
        object.__setattr__(self, "refresh_lambda", lam)
        for name, enum in (("selector", EvictionSelector), ("greediness", EvictionGreediness)):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, enum(value))
            except ValueError:
                allowed = ", ".join(repr(member.value) for member in enum)
                raise InvalidParams(f"{name} must be one of {allowed}, got {value!r}") from None
        # resolved once for the engine, whose per-request tests then read no
        # Fraction and no enum member; not fields, so ==, hash and repr ignore them
        object.__setattr__(self, "_lam_num", lam.numerator)
        object.__setattr__(self, "_lam_den", lam.denominator)
        object.__setattr__(self, "_lru", self.selector is EvictionSelector.LRU_ORDER)
        object.__setattr__(self, "_pessimal",
                           self.selector is EvictionSelector.PESSIMAL_NEXT_REQUEST)
        object.__setattr__(self, "_until_room",
                           self.greediness is EvictionGreediness.EVICT_UNTIL_ROOM)

    @classmethod
    def lru(cls):
        return cls()

    @classmethod
    def fifo(cls):
        return cls(Fraction(0), EvictionSelector.FIFO_ORDER)

    # the classic balance policy for uniform-size caches is FIFO's setting
    balance = fifo

    @classmethod
    def fwf(cls):
        return cls(Fraction(0), EvictionSelector.FIFO_ORDER, EvictionGreediness.EVICT_ALL_ZERO)

    @classmethod
    def pessimal_flush(cls):
        return cls(Fraction(0), EvictionSelector.PESSIMAL_NEXT_REQUEST)


@dataclass(frozen=True)
class RentRound:
    """One pass of rent collection: every resident pays delta * size.

    ``zeroed`` holds the zero-credit residents as its evictions start (if
    delta > 0, the files it zeroed), in the order the selector takes them;
    ``evicted`` is the prefix of ``zeroed`` that the round evicted.
    """

    delta: Fraction
    zeroed: tuple
    evicted: tuple


@dataclass(frozen=True)
class RequestOutcome:
    was_hit: bool
    retrieval_cost_paid: Fraction
    rent_rounds: tuple

    @property
    def evicted(self):
        """Every round's evicted ids, round by round, in eviction order."""
        rounds = self.rent_rounds  # empty on a hit: skip the generator there
        return tuple(fid for rnd in rounds for fid in rnd.evicted) if rounds else ()


_HIT_OUTCOME = RequestOutcome(True, _FR0, ())  # hits share one outcome object


class CacheState:
    """Mutable cache: resident files with credits, bounded by capacity_k.

    Owned by a single simulation at a time; independent simulations may run
    concurrently as long as they do not share a state.

    ``_scale`` is D and ``_rent`` the rent clock (see the module docstring);
    a charging round moves the clock strictly forward, so an entry whose
    ``_BASE`` is the clock has paid no rent since, and a hit on it only refreshes.

    ``_heap`` holds one item ``(base + credit/size, insertion clock, id)``
    per resident with positive credit.  A hit only raises a credit, so it
    leaves the item's key too low and clears the entry's ``_KEYED`` flag;
    the rent round that pops such an item pushes it back with its current
    key.  ``_zero`` holds the zero-credit residents, which have no heap
    item and a stored ``_CREDIT`` of 0, by last access if ``_zero_lru``,
    else by insertion: the order LRU or FIFO evicts them.  A charging round
    fills it only when it is empty, in insertion order; a cost-0 file enters
    last, and so, by last access, does a hit left at zero.  A round under
    LRU or FIFO sorts it when it is in the other order.
    """

    __slots__ = ("capacity_k", "_free", "_entries", "_zero", "_zero_lru", "_heap", "_rent",
                 "_clock", "_scale")

    def __init__(self, capacity_k):
        check_positive_int(capacity_k, "capacity")
        self.capacity_k = capacity_k
        self._free = capacity_k
        self._entries = {}
        self._zero = {}  # ordered set: id -> None
        self._zero_lru = True
        self._heap = []
        self._rent = 0
        self._clock = 0
        self._scale = 1

    def __contains__(self, file_id):
        return file_id in self._entries

    def __len__(self):
        return len(self._entries)

    @property
    def used_size(self):
        return self.capacity_k - self._free

    @property
    def free_space(self):
        return self._free

    def _credit(self, e):
        """The entry's current credit, as the ``Fraction`` a caller sees."""
        den = e[_DEN]
        return Fraction(e[_CREDIT] - (self._rent - e[_BASE]) * e[_SPEC].size * den,
                        den * self._scale)

    def residents(self):
        """Snapshot of residents as {id: (FileSpec, credit)}."""
        return {fid: (e[_SPEC], self._credit(e)) for fid, e in self._entries.items()}

    def credit_of(self, file_id):
        """Credit of a file; 0 for non-residents by convention."""
        e = self._entries.get(file_id)
        return self._credit(e) if e is not None else Fraction(0)

    def clone(self):
        other = CacheState.__new__(CacheState)
        other.capacity_k = self.capacity_k
        other._free = self._free
        other._entries = {fid: e.copy() for fid, e in self._entries.items()}
        other._zero = self._zero.copy()
        other._zero_lru = self._zero_lru
        other._heap = self._heap.copy()
        other._rent = self._rent
        other._clock = self._clock
        other._scale = self._scale
        return other

    def _rescale(self, factor):
        """Multiply D and every stored value by ``factor``.

        A credit scales through its numerator; a key that comes out whole
        is kept as an int.  Multiplying by a positive factor keeps the
        heap's order, so the heap needs no rebuild.
        """
        self._scale *= factor
        self._rent *= factor
        for e in self._entries.values():
            e[_CREDIT] *= factor
            e[_BASE] *= factor
            e[_COST] *= factor
        self._heap[:] = [(_whole(key * factor), ins, fid) for key, ins, fid in self._heap]


def new_cache(k):
    """Empty cache of capacity k (k >= 1)."""
    return CacheState(k)


class FutureView:
    """Next-request table of a request sequence, for the pessimal selector.

    ``later[i]`` is the index of the next request for the id requested at
    ``i`` (``len(seq)`` if none), read at each resident's last access.  The state
    must have served ``seq`` from its first request; ``request`` raises
    ``ConsistencyError`` on an id that is not ``seq``'s at that index.
    """

    __slots__ = ("ids", "later")

    def __init__(self, seq):
        self.ids = ids = [g.id for g in seq]
        self.later = later = [len(ids)] * len(ids)
        last = {}
        for i in range(len(ids) - 1, -1, -1):
            later[i] = last.get(ids[i], len(ids))
            last[ids[i]] = i


def _sort_zero(state, lru):
    """Put ``_zero`` in the order LRU (``lru``) or FIFO evicts it; return it."""
    state._zero_lru = lru
    if len(state._zero) > 1:
        entries, col = state._entries, _LAST if lru else _INS
        state._zero = dict.fromkeys(sorted(state._zero, key=lambda fid: entries[fid][col]))
    return state._zero


def _soonest_first(zero, entries, future):
    """The zero-credit residents soonest next request first, ties by id: the
    pessimal selector's order.  A helper, so ``request`` keeps no closure cells."""
    return tuple(sorted(zero, key=lambda fid: (future.later[entries[fid][_LAST] - 1], fid)))


def _whole(value):
    """``value`` as an int when it is whole; else the ``Fraction`` itself."""
    return value.numerator if value.denominator == 1 else value


def _run_out(base, num, rate):
    """The clock value at which a credit, valid at clock ``base``, runs out.

    The credit is ``num / den`` and pays ``size`` per unit of clock, so it
    runs out ``num / rate`` later, with ``rate = size * den``.  An exact
    integer division where ``rate`` divides ``num``, else the ``Fraction``
    quotient.
    """
    step, rest = divmod(num, rate)
    return base + (Fraction(num, rate) if rest else step)


def _refresh(state, entry, fid, p, q):
    """Raise a hit resident's credit toward its cost, for lambda = p/q > 0.

    With lambda = 1 the new credit is the cost whatever the old one was, so
    that case never brings the credit up to the rent clock, and it sets the
    entry's denominator back to 1.  Any other lambda charges the rent owed
    since ``_BASE`` to the numerator and multiplies the denominator by q:
    int work only, with no ``Fraction`` and no gcd.
    """
    clock = state._rent
    cost = entry[_COST]
    if p == q:
        # a credit stored at an earlier clock value has paid rent since, so
        # only a current one can already equal the cost
        if entry[_BASE] == clock and entry[_CREDIT] == cost and entry[_DEN] == 1:
            return
        new = cost
        den = 1
        revived = not entry[_CREDIT]  # a stored credit of 0 is a file in ``_zero``
    else:
        old = entry[_CREDIT]
        den = entry[_DEN]
        base = entry[_BASE]
        if base != clock:
            old -= (clock - base) * entry[_SPEC].size * den
        cost *= den
        if old == cost:
            return
        # old/den + lam * (cost - old)/den, for lam = p/q, over den * q
        new = old * (q - p) + p * cost
        den *= q
        revived = not old
    entry[_CREDIT] = new
    entry[_DEN] = den
    entry[_BASE] = clock
    if not revived:
        entry[_KEYED] = False  # the credit rose, so the heap item's key is too low
    elif new:
        del state._zero[fid]
        entry[_KEYED] = True
        heappush(state._heap, (_run_out(clock, new, entry[_SPEC].size * den), entry[_INS], fid))


def _collect_rent(state):
    """Charge one round of rent and return its delta.

    Only called with no zero-credit resident, so the heap is non-empty.  The
    clock moves to the smallest current key, after D grows by that key's
    denominator if it is a ``Fraction``; the residents whose key equals it
    reach zero and come off the heap into ``_zero`` in insertion order.
    """
    heap = state._heap
    entries = state._entries
    while True:
        key, ins, fid = heap[0]
        e = entries[fid]
        if e[_KEYED]:
            break
        e[_KEYED] = True
        heapreplace(heap, (_run_out(e[_BASE], e[_CREDIT], e[_SPEC].size * e[_DEN]), ins, fid))
    if type(key) is not int:
        # keep the clock an int: times its denominator, the key is its numerator
        state._rescale(key.denominator)
        key = key.numerator
    delta = Fraction(key - state._rent, state._scale)
    state._rent = key
    zero = state._zero
    state._zero_lru = False
    while True:  # the top item is keyed and its key is the clock: it goes first
        _, ins, fid = heappop(heap)
        e = entries[fid]
        if e[_KEYED]:
            e[_CREDIT] = 0
            e[_DEN] = 1
            e[_BASE] = key
            e[_KEYED] = False
            zero[fid] = None
        else:
            e[_KEYED] = True
            heappush(heap, (_run_out(e[_BASE], e[_CREDIT], e[_SPEC].size * e[_DEN]), ins, fid))
        if not heap or heap[0][0] != key:
            return delta


def request(state, g, policy, future=None):
    """Serve one request against ``state``, mutating it; returns the outcome.

    A hit refreshes the credit (compare ``credit_of`` before and after).  A
    miss runs rent rounds, each followed by its evictions, until the
    newcomer fits, then retrieves it; the outcome lists the rounds in order.
    A round's ``zeroed`` lists the zero-credit residents in the order the
    selector takes them: as ``_zero`` keeps them, or by next request.

    Every refusal comes before the state changes, so it leaves the state,
    its request count included, as it was: a request that is not
    ``future``'s at this index and a hit with another size or cost than the
    resident's raise ``ConsistencyError``, a miss larger than the cache
    ``RequestTooLarge``, and a miss that needs a rent round under the
    pessimal selector without ``future`` ``InvalidParams``.  Hits and misses
    that fit need no future.
    """
    entries = state._entries
    now = state._clock + 1
    if future is not None and (now > len(future.ids) or future.ids[now - 1] != g.id):
        raise ConsistencyError(
            f"request {now - 1}: file {g.id!r} is not the future view's request there")

    entry = entries.get(g.id)
    if entry is not None:
        if entry[_SPEC] is not g:
            check_same_file(entry[_SPEC], g, now - 1)
        state._clock = entry[_LAST] = now
        if policy._lam_num:
            _refresh(state, entry, g.id, policy._lam_num, policy._lam_den)
        if not entry[_CREDIT] and state._zero_lru:  # left at zero, now the latest
            state._zero[g.id] = state._zero.pop(g.id)
        return _HIT_OUTCOME

    gsize = g.size
    if gsize > state.capacity_k:
        check_fits(g, state.capacity_k, now - 1)
    if state._free < gsize and future is None and policy._pessimal:
        raise InvalidParams(
            "PESSIMAL_NEXT_REQUEST needs the future request sequence; "
            "serve the trace through run_trace or pass future="
        )
    state._clock = now

    zero = state._zero
    until_room = policy._until_room
    rounds = []
    while state._free < gsize:
        if zero:
            # some resident already has credit 0, so this round charges nothing
            delta = _FR0
        else:
            delta = _collect_rent(state)
        if state._zero_lru is not policy._lru and not policy._pessimal:
            zero = _sort_zero(state, policy._lru)
        zeroed = _soonest_first(zero, entries, future) if policy._pessimal else tuple(zero)
        evicted = []
        for fid in zeroed:
            if until_room and state._free >= gsize:
                break
            gone = entries.pop(fid)
            del zero[fid]
            state._free += gone[_SPEC].size
            evicted.append(fid)
        rounds.append(RentRound(delta, zeroed, tuple(evicted)))

    den = g.cost.denominator
    unit = den * gsize
    if state._scale % unit:
        state._rescale(unit // gcd(state._scale, unit))
    # D is a multiple of den * gsize, so gsize divides the scaled cost
    cost = g.cost.numerator * (state._scale // den)
    clock = state._rent
    if cost:
        entries[g.id] = [g, cost, clock, now, now, True, cost, 1]
        heappush(state._heap, (clock + cost // gsize, now, g.id))
    else:
        entries[g.id] = [g, 0, clock, now, now, False, 0, 1]
        zero[g.id] = None
    state._free -= gsize
    return RequestOutcome(False, g.cost, tuple(rounds))


@dataclass(frozen=True)
class RunReport:
    """Per-request outcome log plus the total retrieval cost."""

    capacity_k: int
    policy: LandlordPolicy
    outcomes: tuple
    total_cost: Fraction

    @property
    def fault_positions(self):
        return [i for i, out in enumerate(self.outcomes) if not out.was_hit]

    @property
    def fault_count(self):
        return sum(1 for out in self.outcomes if not out.was_hit)


class _Validated(tuple):
    """Requests that passed ``validated``.  A tuple of frozen ``FileSpec``s
    cannot change, so it never needs the check again."""

    __slots__ = ()


def validated(seq):
    """``seq`` as a tuple of requests, checked that no id carries two (size,
    cost) pairs: ``ConsistencyError`` names the first request that does.

    Every entry point that takes a sequence runs it before reading it.  A
    sequence this returned comes back as it is, so one loaded by
    ``load_trace`` or swept over many cache sizes is checked once.
    """
    if type(seq) is _Validated:
        return seq
    seq = _Validated(seq)
    seen = {}
    for i, g in enumerate(seq):
        known = seen.setdefault(g.id, g)
        if known is not g:
            check_same_file(known, g, i)
    return seq


def run_trace(seq, k, policy, validate=True):
    """Fold the engine over a request sequence; deterministic for fixed inputs.

    ``seq`` goes through ``validated``, which skips a sequence it returned
    before: pass ``validated(seq)`` to serve one sequence at many cache
    sizes with one check.  The ``validate`` keyword, false to skip the
    check, stays only for the benchmark harness's calls and goes with them;
    without the check ``seq`` is still read into a tuple once, since the
    pessimal selector reads it twice.
    """
    if validate:
        seq = validated(seq)
    elif not isinstance(seq, tuple):
        seq = tuple(seq)
    state = new_cache(k)
    future = FutureView(seq) if policy._pessimal else None
    outcomes = []
    paid = {}  # cost denominator -> sum of the numerators paid at it
    for g in seq:
        out = request(state, g, policy, future)
        outcomes.append(out)
        if not out.was_hit:
            cost = out.retrieval_cost_paid
            paid[cost.denominator] = paid.get(cost.denominator, 0) + cost.numerator
    total = sum((Fraction(num, den) for den, num in paid.items()), _FR0)
    return RunReport(k, policy, tuple(outcomes), total)
