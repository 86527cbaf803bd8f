"""Adversarial paging traces on which flush-when-full is bad at most cache
sizes in {k0..n} while LRU stays near-optimal.

Construction sketch: pick the level sizes k0 < k1 < ... (k0 = ceil((1-delta)n),
geometric growth 1 + 1/(4c)), start from k0 one-shot "special" requests, and
repeatedly (a) keep just enough specials to lift the distinct-item count to
the next level -- always keeping the first, (b) replace the other specials
with fresh recurring items, and (c) append a second copy of the string.  Every
occurrence of a special is a globally unique item.  Items introduced at step i
recur with exact period k0 * 2**i; every window of that length references
exactly k_i distinct items, so the k_i-phases align with the doubling
structure.  FWF then faults k_i times per k_i-phase while LRU faults only on
items of longer periodicity.

All ids encode their role: ``S<j>`` for specials, ``L<i>_<j>`` for recurring
items introduced at step i.

The level plan decides what can be built.  It needs c >= 1/4 (a growth of
at most 2) and n > 4c/(1 - delta); ``minimal_valid_n`` starts its search at
that bound, and ``build_sequence`` reads the plan's length k0 * 2**m and
refuses one past ``MAX_LENGTH`` before it builds a request.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .analysis import lower_bound_c
from .errors import (InstanceTooLarge, InvalidParams, NTooSmall, check_positive_int,
                     check_rational)
from .paging import PagingAlg, decompose_phases, simulate_paging

__all__ = [
    "SPECIAL",
    "AdversarialSequence",
    "build_sequence",
    "minimal_valid_n",
    "MAX_LENGTH",
    "StructureReport",
    "verify_structure",
    "LevelRates",
    "KRates",
    "FaultRateReport",
    "measure_fault_rates",
]

SPECIAL = "special"  # level marker for items requested exactly once
MAX_LENGTH = 1 << 20  # longest trace build_sequence builds, in requests


@dataclass(frozen=True)
class AdversarialSequence:
    """The generated trace plus the bookkeeping needed to verify it.

    ``k_levels`` is [k0, ..., km] with k(m-1) <= n < km; ``level_of_item``
    maps every id to the step that introduced it (or SPECIAL for one-shot
    items).  ``c`` is the ratio target the construction defeats.
    """

    items: tuple
    k_levels: tuple
    level_of_item: dict
    epsilon: Fraction
    delta: Fraction
    n: int
    c: float

    @property
    def k0(self):
        return self.k_levels[0]

    @property
    def m(self):
        return len(self.k_levels) - 1

    def period_of_level(self, level):
        return self.k0 * (1 << level)

    def periodicity_exceeds(self, item, level):
        """True when the item's recurrence period is greater than k0 * 2**level."""
        item_level = self.level_of_item[item]
        return item_level == SPECIAL or item_level > level


def _plan(delta, n, c):
    """Level sizes [k0, ..., km] for range n, or None when n cannot support
    the construction.

    k0 = ceil((1 - delta) * n) must exceed 4c, and k_i = ceil(k0 * g**i)
    with growth g = 1 + 1/(4c), stopping just past n.  None also when the
    growth stalls (k stops strictly increasing) or a step needs more
    specials than the previous step left behind (the construction keeps
    2*(k_{i+1} - k_i) specials alive).
    """
    c = Fraction(c)
    if n <= 4 * c / (1 - delta):
        return None
    k0 = math.ceil((1 - delta) * n)
    growth = 1 + 1 / (4 * c)
    levels, specials, power = [k0], k0, Fraction(1)
    while levels[-1] <= n:
        power *= growth
        nxt = math.ceil(k0 * power)
        keep = nxt - levels[-1]
        if keep < 1 or keep > specials:
            return None
        levels.append(nxt)
        specials = 2 * keep
    return levels


def _ratio_target(epsilon, delta):
    """``(epsilon, delta, lower_bound_c(epsilon, delta))`` with epsilon and
    delta as Fractions; ``InvalidParams`` outside the construction's domain.

    Below c = 1/4 the growth 1 + 1/(4c) exceeds 2, so the first step needs
    ceil(k0 * g) - k0 > k0 specials and no n supports the construction.
    """
    epsilon, delta = check_rational(epsilon, "epsilon"), check_rational(delta, "delta")
    c = lower_bound_c(epsilon, delta)  # refuses epsilon not in (0, 1), delta not in (0, 1/2)
    if Fraction(c) < Fraction(1, 4):
        raise InvalidParams(f"ratio target {c} is below 1/4: no n supports the construction")
    return epsilon, delta, c


def minimal_valid_n(epsilon, delta):
    """Smallest n admitting the construction, searched upward from the first
    n that ``_plan`` does not refuse outright, n > 4c/(1 - delta)."""
    _, delta, c = _ratio_target(epsilon, delta)
    # The search ends.  From its start k0 > 4c, so k0*(g - 1) > 1 and every
    # step keeps at least one special.  Once k0 >= 3/((g - 1)(2 - g)), the
    # ceilings (each off by less than 1) cannot make a step keep more than
    # twice what the step before it kept, nor the first step more than k0,
    # so no step needs more specials than it has.  At g = 2 the levels
    # k0 * 2**i are exact and every step keeps just the specials it has.
    n = math.floor(4 * Fraction(c) / (1 - delta)) + 1
    while _plan(delta, n, c) is None:
        n += 1
    return n


def build_sequence(epsilon, delta, n):
    """Construct the adversarial trace for (epsilon, delta, n).

    The ratio target is ``lower_bound_c(epsilon, delta)`` and the level sizes
    follow from it.  ``NTooSmall`` names the smallest feasible n when ``n``
    cannot support the construction; ``InstanceTooLarge`` refuses a plan
    longer than ``MAX_LENGTH`` requests before any request is built.
    """
    epsilon, delta, c = _ratio_target(epsilon, delta)
    check_positive_int(n, "n", InvalidParams)
    levels = _plan(delta, n, c)
    if levels is None:
        minimal = minimal_valid_n(epsilon, delta)
        raise NTooSmall(f"n={n} cannot support the construction for epsilon={epsilon}, "
                        f"delta={delta}; smallest feasible n is {minimal}", minimal_n=minimal)
    length = levels[0] << (len(levels) - 1)
    if length > MAX_LENGTH:
        raise InstanceTooLarge(f"n={n} plans {length} requests, past the limit {MAX_LENGTH}")

    k0 = levels[0]
    level_of = {}
    next_special = k0
    seq = [f"S{j}" for j in range(k0)]
    special_ids = set(seq)

    for i in range(len(levels) - 1):
        keep = levels[i + 1] - levels[i]
        special_positions = [p for p, tok in enumerate(seq) if tok in special_ids]
        # keep the first special (phase alignment depends on it), then the
        # earliest others; demote the rest to fresh recurring items
        for fresh, p in enumerate(special_positions[keep:]):
            special_ids.discard(seq[p])
            item = f"L{i}_{fresh}"
            seq[p] = item
            level_of[item] = i
        second = []
        for tok in seq:
            if tok in special_ids:
                tok = f"S{next_special}"
                next_special += 1
                special_ids.add(tok)
            second.append(tok)
        seq.extend(second)

    level_of.update(dict.fromkeys(special_ids, SPECIAL))

    return AdversarialSequence(
        items=tuple(seq),
        k_levels=tuple(levels),
        level_of_item=level_of,
        epsilon=epsilon,
        delta=delta,
        n=n,
        c=c,
    )


@dataclass(frozen=True)
class StructureReport:
    violations: tuple
    checks: int

    @property
    def ok(self):
        return not self.violations


def verify_structure(s):
    """Check every structural promise of the construction.

    Covered: total length k0 * 2**m and k_m distinct items; specials occur
    exactly once; items of level i recur with exact period k0 * 2**i starting
    within the first period; every window of length k0 * 2**i references
    exactly k_i distinct items (every window, counted by one sliding pass per
    level, O(length)); and the k_i-phases all have length k0 * 2**i and start
    with an item of longer periodicity.
    """
    items = s.items
    length = len(items)
    violations = []
    checks = 0

    checks += 1
    if length != s.k0 << s.m:
        violations.append(f"length {length} != k0*2^m = {s.k0 << s.m}")

    positions = {}
    for p, item in enumerate(items):
        positions.setdefault(item, []).append(p)

    checks += 1
    if len(positions) != s.k_levels[-1]:
        violations.append(f"{len(positions)} distinct items != k_m = {s.k_levels[-1]}")

    for item, occ in positions.items():
        level = s.level_of_item.get(item)
        checks += 1
        if level is None:
            violations.append(f"item {item!r} missing from the level map")
        elif level == SPECIAL:
            if len(occ) != 1:
                violations.append(f"special {item!r} requested {len(occ)} times")
        else:
            period = s.period_of_level(level)
            expected = list(range(occ[0], length, period))
            if occ[0] >= period or occ != expected:
                violations.append(f"item {item!r} lacks exact period {period}: {occ}")

    for level, k_i in enumerate(s.k_levels):
        window = s.period_of_level(level)
        if window > length:
            break
        counts = {}
        for p in range(window):
            counts[items[p]] = counts.get(items[p], 0) + 1
        distinct = len(counts)
        for start in range(length - window + 1):
            checks += 1
            if distinct != k_i:
                violations.append(
                    f"window [{start}, {start + window}) references "
                    f"{distinct} items, expected k_{level} = {k_i}"
                )
            if start + window < length:
                old, new = items[start], items[start + window]
                counts[new] = counts.get(new, 0) + 1
                if counts[new] == 1:
                    distinct += 1
                counts[old] -= 1
                if not counts[old]:
                    del counts[old]
                    distinct -= 1

        phases = decompose_phases(items, k_i)
        for start, end in phases.phases:
            checks += 1
            if end - start != window:
                violations.append(
                    f"k_{level}-phase [{start}, {end}) has length {end - start}, "
                    f"expected {window}"
                )
            if not s.periodicity_exceeds(items[start], level):
                violations.append(
                    f"k_{level}-phase at {start} starts with {items[start]!r}, "
                    f"whose periodicity is not greater than {window}"
                )

    return StructureReport(tuple(violations), checks)


@dataclass(frozen=True)
class LevelRates:
    """Measured fault rates at one level size k_i.

    ``*_rate`` are whole-trace rates.  ``*_recurrent_rate`` drop the first
    window of length k0 * 2**i: from the second window on the trace is in its
    periodic regime, where the rates match the closed forms exactly
    (FWF: k_i / (k0 * 2**i); LRU: (k_{i+1} - k_i) / (k0 * 2**i)).  FWF's
    whole-trace rate matches too, because a flush leaves the cache exactly as
    cold as the start; LRU's differs by its one-off cold misses.
    """

    level: int
    k: int
    period: int
    fwf_faults: int
    lru_faults: int
    fwf_rate: Fraction
    lru_rate: Fraction
    fwf_recurrent_rate: Fraction
    lru_recurrent_rate: Fraction
    expected_fwf_rate: Fraction
    expected_lru_rate: Fraction


@dataclass(frozen=True)
class KRates:
    """Whole-trace and recurrent fault counts at one cache size.

    The recurrent counts drop the first window of length k0 * 2**i, where i
    is the highest level with k_i <= k: past that point the trace is in its
    periodic regime.  The FWF/LRU ratio guarantee binds on the recurrent
    counts; with small ratio targets (c below about 7/4) it holds for the
    whole-trace counts as well, but LRU's one-off cold misses can dilute the
    whole-trace ratio below c near the top level when c is larger.
    """

    k: int
    fwf_faults: int
    lru_faults: int
    ratio: Fraction
    fwf_rate: Fraction
    fwf_recurrent: int
    lru_recurrent: int
    recurrent_ratio: Fraction


@dataclass(frozen=True)
class FaultRateReport:
    levels: tuple
    per_k: tuple  # KRates for every k in [k0, n]

    @property
    def level_rates_exact(self):
        return all(row.fwf_rate == row.expected_fwf_rate
                   and row.lru_recurrent_rate == row.expected_lru_rate
                   for row in self.levels)


def measure_fault_rates(s):
    """Measure FWF and LRU on the trace, one simulation of each per k.

    Per cache size k in [k0, n]: the FWF/LRU fault ratio (this is where FWF
    exceeds the ratio target c) and FWF's overall fault rate (which stays
    above epsilon).  Per level with k_i <= n: fault counts and rates against
    the closed forms, read off the row of k = k_i, whose recurrent counts
    already drop the first k0 * 2**i requests.
    """
    items = list(s.items)
    length = len(items)

    per_k = []
    for k in range(s.k0, s.n + 1):
        level = max(i for i, k_i in enumerate(s.k_levels) if k_i <= k)
        cut = s.period_of_level(level)
        fwf_n, fwf_pos = simulate_paging(items, k, PagingAlg.FWF)
        lru_n, lru_pos = simulate_paging(items, k, PagingAlg.LRU)
        fwf_warm = sum(1 for p in fwf_pos if p >= cut)
        lru_warm = sum(1 for p in lru_pos if p >= cut)
        per_k.append(KRates(
            k=k,
            fwf_faults=fwf_n,
            lru_faults=lru_n,
            ratio=Fraction(fwf_n, lru_n) if lru_n else Fraction(fwf_n, 1),
            fwf_rate=Fraction(fwf_n, length),
            fwf_recurrent=fwf_warm,
            lru_recurrent=lru_warm,
            recurrent_ratio=(Fraction(fwf_warm, lru_warm) if lru_warm
                             else Fraction(fwf_warm, 1)),
        ))

    levels = []
    for level, k_i in enumerate(s.k_levels):
        if k_i > s.n:
            break
        row = per_k[k_i - s.k0]
        period = s.period_of_level(level)
        warm = length - period
        levels.append(LevelRates(
            level=level,
            k=k_i,
            period=period,
            fwf_faults=row.fwf_faults,
            lru_faults=row.lru_faults,
            fwf_rate=row.fwf_rate,
            lru_rate=Fraction(row.lru_faults, length),
            fwf_recurrent_rate=Fraction(row.fwf_recurrent, warm) if warm else Fraction(0),
            lru_recurrent_rate=Fraction(row.lru_recurrent, warm) if warm else Fraction(0),
            expected_fwf_rate=Fraction(k_i, period),
            expected_lru_rate=Fraction(s.k_levels[level + 1] - k_i, period),
        ))

    return FaultRateReport(tuple(levels), tuple(per_k))
