"""Competitive-analysis instruments.

Three groups of tools live here:

* the potential function over a Landlord cache and an optimal cache, plus an
  event-by-event audit that replays both caches side by side and checks the
  bound each event must satisfy for the k/(k-h+1) guarantee to telescope;
* the loose-competitiveness evaluator: which cache sizes k in {1..n} are
  "bad" for an algorithm, i.e. its cost exceeds both c times the optimum and
  epsilon times the total requested cost;
* closed-form threshold formulas for c (deterministic, randomized, the
  underlying technical bound, and the flush-when-full lower bound).

Audits and bad-set tests are exact rational comparisons.  The c-formulas are
plain floating point (about 16 significant digits); they feed thresholds,
never exact-equality tests.

Each instrument refuses a bad instance before it runs a search or an
algorithm, through the one check in ``errors`` that owns the rule.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import EvictionSelector, FutureView, new_cache, request, run_trace, validated
from .errors import (AuditDrift, InvalidParams, check_cache_sizes, check_positive_int,
                     check_rational, check_sweep_size)
from .offline import opt_cost, opt_costs_by_k

__all__ = [
    "potential",
    "AuditStep",
    "PotentialAudit",
    "audit_landlord",
    "KRow",
    "BadSetReport",
    "evaluate_loose",
    "landlord_algorithm",
    "bound_c_deterministic",
    "bound_c_randomized",
    "MARKING_ALPHA",
    "MARKING_BETA",
    "marking_bound_c",
    "BoundQuery",
    "bound_c_technical",
    "lower_bound_c",
    "proof_b",
    "holds_trivially",
]

E = math.e

OPT_EVICT = "opt_evict"
OPT_RETRIEVE = "opt_retrieve"
RENT_ROUND = "rent_round"
LANDLORD_EVICT = "landlord_evict"
LANDLORD_RETRIEVE = "landlord_retrieve"
CREDIT_REFRESH = "credit_refresh"


def potential(ll, opt_residents, h, k):
    """(h-1) * sum of resident credits + k * sum over the optimal cache of
    (cost - credit).  Non-residents contribute credit 0.  Zero when both
    caches are empty; never negative."""
    check_cache_sizes(h, k)
    credits = sum((credit for _, credit in ll.residents().values()), Fraction(0))
    uncovered = sum((f.cost - ll.credit_of(f.id) for f in opt_residents), Fraction(0))
    return (h - 1) * credits + k * uncovered


@dataclass(frozen=True)
class AuditStep:
    request_index: int
    kind: str
    phi_before: Fraction
    phi_after: Fraction
    bound: Fraction
    satisfied: bool

    @property
    def delta_phi(self):
        return self.phi_after - self.phi_before


@dataclass(frozen=True)
class PotentialAudit:
    """Every event of a side-by-side replay with its verdict.

    Event bounds: an optimal-cache retrieval may raise the potential by at
    most k*cost; a Landlord retrieval must lower it by at least (k-h+1)*cost;
    every other event must not raise it.  When all verdicts hold, the
    telescoped inequality (k-h+1) * landlord_cost <= k * opt_cost follows,
    recorded in ``ratio_certified``.
    """

    h: int
    k: int
    steps: tuple
    landlord_cost: Fraction
    opt_cost: Fraction
    all_satisfied: bool
    phi_nonnegative: bool
    ratio_certified: bool


def audit_landlord(seq, h, k, policy, *, max_length=None):
    """Replay Landlord (cache k) against an optimal schedule (cache h).

    Events are ordered as the accounting argument requires: the optimal cache
    first evicts and retrieves the requested file, then Landlord collects
    rent, evicts, and retrieves (or refreshes credit on a hit).  The optimal
    schedule comes from ``opt_cost``: Belady's on a paging-shaped sequence,
    at any length, and otherwise the search's, which raises
    ``InstanceTooLarge`` past its work budget and, if ``max_length`` (kept
    only for the benchmark harness's calls) is given, on more requests.

    Each event is booked with its change in ``potential``, with c a credit
    before the event (the requested g is in the optimal cache by the time
    Landlord serves it): the optimal cache evicts f, -k*(cost_f - c_f), or
    retrieves g, k*(cost_g - c_g); a hit raises c_g by inc, (h-1-k)*inc; a
    rent round charges delta, delta*(k*size in both caches - (h-1)*size in
    Landlord's); Landlord evicts, 0, or retrieves g, (h-1-k)*cost_g.

    A pair outside 1 <= h <= k is refused (``errors.check_cache_sizes``)
    before the sequence is read or the optimum searched.
    """
    check_cache_sizes(h, k)
    seq = validated(seq)
    opt = opt_cost(seq, h, max_length=max_length)
    opt_evictions = dict(opt.witness_schedule)

    state = new_cache(k)
    future = None
    if policy.selector is EvictionSelector.PESSIMAL_NEXT_REQUEST:
        future = FutureView(seq)

    specs = {g.id: g for g in seq}
    opt_set = set()
    zero = Fraction(0)

    steps = []
    ll_total = zero
    opt_total = zero
    phi = zero

    def record(index, kind, bound, dphi):
        nonlocal phi
        after = phi + dphi
        steps.append(AuditStep(index, kind, phi, after, bound, dphi <= bound))
        phi = after

    for i, g in enumerate(seq):
        if g.id not in opt_set:
            for fid in opt_evictions.get(i, ()):
                opt_set.discard(fid)
                record(i, OPT_EVICT, zero, -k * (specs[fid].cost - state.credit_of(fid)))
            opt_set.add(g.id)
            opt_total += g.cost
            record(i, OPT_RETRIEVE, k * g.cost, k * (g.cost - state.credit_of(g.id)))

        # sizes in Landlord's cache and in both caches, before any eviction
        size_ll = state.used_size
        size_opt_ll = sum(specs[fid].size for fid in opt_set if fid in state)
        old = state.credit_of(g.id)
        out = request(state, g, policy, future)
        if out.was_hit:
            record(i, CREDIT_REFRESH, zero, (h - 1 - k) * (state.credit_of(g.id) - old))
            continue

        for rnd in out.rent_rounds:
            record(i, RENT_ROUND, zero, rnd.delta * (k * size_opt_ll - (h - 1) * size_ll))
            for fid in rnd.evicted:
                if fid in opt_set:
                    size_opt_ll -= specs[fid].size
                size_ll -= specs[fid].size
                record(i, LANDLORD_EVICT, zero, zero)
        ll_total += g.cost
        record(i, LANDLORD_RETRIEVE, -(k - h + 1) * g.cost, (h - 1 - k) * g.cost)

    if phi != potential(state, [specs[fid] for fid in opt_set], h, k):
        raise AuditDrift("incremental potential drifted from its definition")
    if opt_total != opt.min_cost:
        raise AuditDrift("optimal replay cost drifted from the search result")

    return PotentialAudit(h, k, tuple(steps), ll_total, opt_total,
                          all(step.satisfied for step in steps),
                          all(step.phi_after >= 0 for step in steps),
                          (k - h + 1) * ll_total <= k * opt_total)


@dataclass(frozen=True)
class KRow:
    alg_cost: Fraction
    opt_cost: Fraction
    total_request_cost: Fraction


@dataclass(frozen=True)
class BadSetReport:
    """Per-k costs and the set of cache sizes violating the loose bound.

    A size k is bad when alg_cost > max(c * opt_cost, epsilon * total
    requested cost), compared exactly.  Sizes smaller than the largest
    request are inapplicable and excluded from both the bad set and the
    fraction's denominator.
    """

    n: int
    epsilon: Fraction
    c: Fraction
    per_k: dict
    bad_ks: frozenset
    inapplicable_ks: frozenset
    bad_fraction: Fraction


def landlord_algorithm(policy):
    """Adapt a Landlord policy into an algorithm handle for evaluate_loose."""
    def run(seq, k):
        return run_trace(seq, k, policy).total_cost
    return run


def evaluate_loose(seq, n, epsilon, c, alg, *, opt_costs=None):
    """Evaluate the loose-competitiveness condition for k in {1..n}.

    ``alg`` is a callable (seq, k) -> cost.  ``opt_costs`` may supply
    precomputed per-k optimal costs (or any upper bounds on them, which makes
    the bad-set test conservative); otherwise ``opt_costs_by_k`` gives the
    optimum per k: Belady's farthest-in-future rule on a paging-shaped
    sequence of any length, the exact offline search on any other, which
    raises ``InstanceTooLarge`` past its work budget.  A range ``n`` past
    65,536 is refused with ``InstanceTooLarge`` before any size is served,
    and an ``opt_costs`` that lacks an applicable size with ``InvalidParams``
    naming it, before ``alg`` is called.
    ``epsilon`` and ``c`` are converted to Fractions so the test is an exact
    comparison.
    The sequence is checked once: ``alg`` receives it as ``validated``
    returns it, so a ``landlord_algorithm`` handle does not check it again.
    """
    check_positive_int(n, "n", InvalidParams)
    check_sweep_size(n, "range n=")
    epsilon, c = check_rational(epsilon, "epsilon"), check_rational(c, "c")
    seq = validated(seq)
    total = sum((g.cost for g in seq), Fraction(0))
    largest = max((g.size for g in seq), default=1)
    if opt_costs is None:
        opt_costs = opt_costs_by_k(seq, range(largest, n + 1))
    else:
        for k in range(largest, n + 1):
            if k not in opt_costs:
                raise InvalidParams(f"opt_costs has no cost for cache size {k}")

    per_k = {}
    bad = set()
    inapplicable = set()
    for k in range(1, n + 1):
        if k < largest:
            inapplicable.add(k)
            continue
        opt_k = Fraction(opt_costs[k])
        alg_k = Fraction(alg(seq, k))
        per_k[k] = KRow(alg_k, opt_k, total)
        if alg_k > max(c * opt_k, epsilon * total):
            bad.add(k)
    applicable = n - len(inapplicable)
    fraction = Fraction(len(bad), applicable) if applicable else Fraction(0)
    return BadSetReport(n, epsilon, c, per_k, frozenset(bad),
                        frozenset(inapplicable), fraction)


def _float_in(name, value, high=1, closed=True):
    """``value`` as a float, once its exact value lies in (0, high], or in
    (0, high) unless ``closed``, and stays positive as a float."""
    exact = check_rational(value, name)
    if not (0 < exact <= high if closed else 0 < exact < high):
        raise InvalidParams(f"{name} must lie in (0, {high}{']' if closed else ')'}, "
                            f"got {value}")
    as_float = float(exact)
    if not as_float:
        raise InvalidParams(f"{name} = {value} is too small for a float")
    return as_float


def _float_n(n):
    """The range ``n``, a positive int, as a float; one past a float's range
    is refused, since ``delta * n`` would raise ``OverflowError``."""
    check_positive_int(n, "n", InvalidParams)
    try:
        return float(n)
    except OverflowError:
        raise InvalidParams(f"n has {n.bit_length()} bits, too many for a float") from None


def bound_c_deterministic(epsilon, delta):
    """Loose-competitiveness constant (e/delta) * ln(e/epsilon) guaranteed for
    every k/(k-h+1)-competitive algorithm."""
    epsilon, delta = _float_in("epsilon", epsilon), _float_in("delta", delta)
    return (E / delta) * math.log(E / epsilon)


def bound_c_randomized(alpha, beta, epsilon, delta):
    """Constant e*alpha + e*beta * ln((1/delta) * ln(e/epsilon)) guaranteed for
    every (alpha + beta * ln(k/(k-h+1)))-competitive algorithm."""
    alpha, beta = float(alpha), float(beta)
    epsilon, delta = _float_in("epsilon", epsilon), _float_in("delta", delta)
    if not (0 <= alpha < math.inf and 0 <= beta < math.inf):
        raise InvalidParams(f"alpha and beta must be finite and non-negative, "
                            f"got alpha={alpha}, beta={beta}")
    return E * alpha + E * beta * math.log(math.log(E / epsilon) / delta)


# The randomized marking policy is (1 + 2 ln 2 + 2 ln(k/(k-h+1)))-competitive,
# so these constants plug straight into bound_c_randomized.
MARKING_ALPHA = 1 + 2 * math.log(2)
MARKING_BETA = 2.0


def marking_bound_c(epsilon, delta):
    return bound_c_randomized(MARKING_ALPHA, MARKING_BETA, epsilon, delta)


@dataclass(frozen=True)
class BoundQuery:
    """Competitive-ratio shape tau for the technical bound.

    ``tau_kind`` is "ratio" for tau(k, d) = k/(d+1) or "log" for
    tau(k, d) = alpha + beta * ln(k/(d+1)); ``b`` is the spacing parameter,
    0 < b < delta*n - 1.
    """

    tau_kind: str
    b: float
    alpha: float = 0.0
    beta: float = 0.0

    def tau(self, k, d):
        if self.tau_kind == "ratio":
            return k / (d + 1)
        if self.tau_kind == "log":
            return self.alpha + self.beta * math.log(k / (d + 1))
        raise InvalidParams(f"unknown tau_kind {self.tau_kind!r}")


def bound_c_technical(query, n, epsilon, delta):
    """tau(n, b) * epsilon ** (-(b+1) / (delta*n - b - 1)).

    Any tau(k, k-h)-competitive algorithm (tau increasing in k, decreasing in
    k-h) is loosely c-competitive for this c; the deterministic and
    randomized constants are instances of it under the right b.
    """
    epsilon, delta = _float_in("epsilon", epsilon), _float_in("delta", delta)
    n = _float_n(n)
    b = float(query.b)
    if b <= 0 or b >= delta * n:
        raise InvalidParams(f"need 0 < b < delta*n, got b={b}, delta*n={delta * n}")
    denom = delta * n - b - 1
    if denom <= 0:
        raise InvalidParams(
            f"need b < delta*n - 1 for a positive exponent denominator, got b={b}"
        )
    return query.tau(n, b) * epsilon ** (-(b + 1) / denom)


def lower_bound_c(epsilon, delta):
    """(1/(8*delta)) * log2(1/(2*epsilon)): no flush-when-full-like policy is
    loosely c-competitive at this c (for epsilon < 1, delta < 1/2)."""
    epsilon = _float_in("epsilon", epsilon, closed=False)
    delta = _float_in("delta", delta, Fraction(1, 2), closed=False)
    c = math.log2(1 / (2 * epsilon)) / (8 * delta)
    if c == math.inf:
        raise InvalidParams("the lower bound overflows a float at this epsilon and delta")
    return c


def proof_b(epsilon, delta, n):
    """The spacing parameter delta*n / ln(e/epsilon) - 1 used to derive the
    deterministic and randomized constants from the technical bound."""
    epsilon, delta = _float_in("epsilon", epsilon), _float_in("delta", delta)
    return delta * _float_n(n) / math.log(E / epsilon) - 1


def holds_trivially(epsilon, delta, n):
    """True when the spacing parameter is non-positive: then the constant is
    at least n, and plain k-competitiveness already implies the loose bound
    for every k <= n."""
    return proof_b(epsilon, delta, n) <= 0
