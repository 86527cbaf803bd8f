import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from cachelab import (
    CacheState,
    ConsistencyError,
    EvictionGreediness,
    EvictionSelector,
    FileSpec,
    FutureView,
    InvalidCapacity,
    InvalidParams,
    LandlordPolicy,
    RequestTooLarge,
    audit_landlord,
    belady_opt,
    build_sequence,
    decompose_phases,
    evaluate_loose,
    landlord_algorithm,
    new_cache,
    opt_cost,
    opt_cost_full_subsets,
    opt_costs_by_k,
    paging_sequence,
    potential,
    replay_witness,
    request,
    run_trace,
    serialize_trace,
    simulate_paging,
    validated,
)
from cachelab.offline import OptSearch

A = FileSpec("a", 2, Fr(4))
B = FileSpec("b", 1, Fr(1))
C = FileSpec("c", 2, Fr(3))

LRU = LandlordPolicy.lru()
FIFO = LandlordPolicy.fifo()
FWF = LandlordPolicy.fwf()


def naive_landlord(seq, k, lam, order_key):
    """Straight-line re-implementation used as an oracle for the engine.

    Keeps (credit, last, inserted) per resident in plain dicts, charges rent
    round by round, and evicts zero-credit files one at a time in the order
    given by ``order_key`` until there is room.  No shortcuts, no shared code
    with the engine.
    """
    credit, last, inserted, sizes, costs = {}, {}, {}, {}, {}
    free = k
    total = Fr(0)
    faults = []
    for t, g in enumerate(seq):
        sizes[g.id], costs[g.id] = g.size, g.cost
        if g.id in credit:
            last[g.id] = t
            credit[g.id] += lam * (g.cost - credit[g.id])
            continue
        faults.append(t)
        total += g.cost
        while free < g.size:
            delta = min(credit[f] / sizes[f] for f in credit)
            for f in credit:
                credit[f] -= delta * sizes[f]
            zeroed = [f for f in credit if credit[f] == 0]
            for f in sorted(zeroed, key=lambda f: order_key(f, last, inserted)):
                if free >= g.size:
                    break
                del credit[f]
                free += sizes[f]
        credit[g.id] = g.cost
        last[g.id] = inserted[g.id] = t
        free -= g.size
    return total, faults


def test_new_cache_basics():
    state = new_cache(4)
    assert state.capacity_k == 4
    assert len(state) == 0
    assert state.free_space == 4


@pytest.mark.parametrize("bad", [0, -1, 2.5, "4"])
def test_new_cache_rejects_bad_capacity(bad):
    with pytest.raises(InvalidCapacity):
        new_cache(bad)


_UNIT = [FileSpec("a", 1, Fr(1)), FileSpec("b", 1, Fr(1)), FileSpec("a", 1, Fr(1))]


@pytest.mark.parametrize("entry, error", [
    (new_cache, InvalidCapacity),
    (CacheState, InvalidCapacity),
    (lambda k: run_trace(_UNIT, k, LRU), InvalidCapacity),
    (lambda k: simulate_paging(list("aba"), k, "lru"), InvalidCapacity),
    (lambda k: simulate_paging(list("aba"), k, "marking", seed=1), InvalidCapacity),
    (lambda k: belady_opt(list("aba"), k), InvalidCapacity),
    (lambda k: decompose_phases(list("aba"), k), InvalidCapacity),
    (lambda k: opt_cost(_UNIT, k), InvalidCapacity),
    (lambda k: opt_cost_full_subsets(_UNIT, k), InvalidCapacity),
    (lambda k: opt_costs_by_k(_UNIT, (k,)), InvalidCapacity),
    (OptSearch, InvalidCapacity),
    (lambda k: potential(new_cache(1), [FileSpec("a", 1, Fr(3))], k, k), InvalidCapacity),
    (lambda n: evaluate_loose(_UNIT, n, Fr(1, 2), 2, lambda seq, k: Fr(0)), InvalidParams),
    (lambda n: build_sequence(Fr(1, 8), Fr(1, 4), n), InvalidParams),
    (lambda k: replay_witness(_UNIT, k, ()), InvalidCapacity),
], ids=["new_cache", "CacheState", "run_trace", "simulate_paging",
        "simulate_marking", "belady_opt", "decompose_phases", "opt_cost",
        "opt_cost_full_subsets", "opt_costs_by_k", "OptSearch", "potential",
        "evaluate_loose", "build_sequence", "replay_witness"])
def test_bool_capacity_is_refused_everywhere(entry, error):
    with pytest.raises(error, match="must be a positive integer"):
        entry(True)


def test_minimal_capacity_fits_unit_file():
    state = new_cache(1)
    out = request(state, FileSpec("x", 1, Fr(7)), LRU)
    assert not out.was_hit and out.retrieval_cost_paid == 7
    assert state.used_size == 1


def test_filespec_validation():
    with pytest.raises(InvalidParams):
        FileSpec("x", 0, Fr(1))
    with pytest.raises(InvalidParams):
        FileSpec("x", 1, Fr(-1))


@pytest.mark.parametrize("file_id,size,cost", [
    pytest.param("x", True, Fr(1), id="True-cost0"),  # a bool is not a size
    pytest.param("x", 1, 0.1, id="1-0.1"),            # floats are not exact
    pytest.param("x", 1, 1.0, id="1-1.0"),
    pytest.param("x", 1, "x", id="1-x"),
    pytest.param("x", 1, None, id="1-None"),
    pytest.param(1, 1, Fr(1), id="int-id"),           # ids are str, so they sort
    pytest.param(None, 1, Fr(1), id="None-id"),
])
def test_filespec_rejects_inexact_or_non_numeric_input(file_id, size, cost):
    with pytest.raises(InvalidParams):
        FileSpec(file_id, size, cost)


def test_filespec_accepts_exact_costs():
    assert [FileSpec("x", 1, c).cost for c in (3, Fr(1, 3), "7/2", "0.1")] == [
        3, Fr(1, 3), Fr(7, 2), Fr(1, 10)]


def test_policy_validation():
    with pytest.raises(InvalidParams):
        LandlordPolicy(refresh_lambda=Fr(3, 2))


@pytest.mark.parametrize("lam", [0.1, 0.5, "half"])
def test_policy_rejects_inexact_or_non_numeric_lambda(lam):
    with pytest.raises(InvalidParams):
        LandlordPolicy(refresh_lambda=lam)


def test_policy_accepts_exact_lambdas():
    assert [LandlordPolicy(lam).refresh_lambda for lam in (0, 1, "1/3", Fr(1, 2))] == [
        0, 1, Fr(1, 3), Fr(1, 2)]
    assert LandlordPolicy.balance() == LandlordPolicy.fifo()


def test_cold_miss_sets_full_credit():
    state = new_cache(4)
    g = FileSpec("g", 2, Fr(5))
    out = request(state, g, LRU)
    assert not out.was_hit
    assert out.retrieval_cost_paid == 5
    assert out.rent_rounds == ()
    assert state.credit_of("g") == 5


def test_hit_is_free_and_credit_never_drops():
    state = new_cache(4)
    g = FileSpec("g", 2, Fr(5))
    request(state, g, LRU)
    out = request(state, g, LRU)
    assert out.was_hit
    assert out.retrieval_cost_paid == 0
    assert out.evicted == ()
    assert state.credit_of("g") == 5  # already at cost: step-7 fixed point


def test_half_lambda_interpolates_exactly():
    state = new_cache(4)
    g = FileSpec("g", 1, Fr(8))
    f = FileSpec("f", 1, Fr(2))
    pol = LandlordPolicy(Fr(1, 2), EvictionSelector.LRU_ORDER,
                         EvictionGreediness.EVICT_UNTIL_ROOM)
    request(state, g, pol)
    request(state, f, pol)
    # x needs one rent round: delta = min(8/1, 2/1) = 2, f evicted, g at 6
    request(state, FileSpec("x", 3, Fr(1)), pol)
    assert "f" not in state
    assert state.credit_of("g") == 6
    request(state, g, pol)
    assert state.credit_of("g") == 7        # 6 + (8-6)/2
    request(state, g, pol)
    assert state.credit_of("g") == Fr(15, 2)  # 7 + (8-7)/2


def test_rent_round_trace_matches_hand_computation():
    # k=3: a(2,4), b(1,1) resident; c(2,3) needs two rounds of rent
    report = run_trace([A, B, C], 3, LRU)
    out = report.outcomes[2]
    assert [r.delta for r in out.rent_rounds] == [1, 1]
    assert [sorted(r.zeroed) for r in out.rent_rounds] == [["b"], ["a"]]
    assert out.evicted == ("b", "a")
    assert out.retrieval_cost_paid == 3
    assert report.total_cost == 8


def test_total_cost_is_one_exact_fraction():
    # misses at cost denominators 2, 3 and 6 and at cost 0 sum to exactly 1
    seq = [FileSpec("h", 1, Fr(1, 2)), FileSpec("t", 1, Fr(1, 3)), FileSpec("s", 1, Fr(1, 6)),
           FileSpec("z", 1, Fr(0)), FileSpec("h", 1, Fr(1, 2))]
    for seq, k, total in ((seq, 4, Fr(1)), (seq, 1, Fr(3, 2)), ([], 1, Fr(0))):
        report = run_trace(seq, k, LRU)
        assert report.total_cost == total
        assert type(report.total_cost) is Fr


def test_request_too_large():
    state = new_cache(3)
    with pytest.raises(RequestTooLarge) as err:
        request(state, FileSpec("big", 4, Fr(1)), LRU)
    assert err.value.index == 0
    with pytest.raises(RequestTooLarge) as err:
        run_trace([A, FileSpec("big", 4, Fr(1))], 3, LRU)
    assert err.value.index == 1
    assert str(err.value) == "request 1: file 'big' (size 4) exceeds cache capacity 3"
    # the exact search refuses the same request with the same message
    with pytest.raises(RequestTooLarge) as searched:
        opt_cost([A, FileSpec("big", 4, Fr(1))], 3)
    assert searched.value.index == 1 and str(searched.value) == str(err.value)


def test_future_view_of_another_sequence_is_refused():
    """The pessimal selector reads its view at the cache's request count, so
    a view whose id there differs, or that has run out, is refused."""
    policy = LandlordPolicy.pessimal_flush()
    for served, view in (([A, B, C], [A, C, B]), ([A, B, C], [A, B]),
                         ([B, A, C], [A, B, C])):
        state, future = new_cache(3), FutureView(view)
        with pytest.raises(ConsistencyError, match="future view"):
            for g in served:
                request(state, g, policy, future)
    # so is a view given to a state that did not serve its sequence from the start
    state = new_cache(3)
    request(state, B, policy, FutureView([B]))
    with pytest.raises(ConsistencyError):
        request(state, A, policy, FutureView([A, B]))


def test_validated_reads_an_iterator_once_and_names_the_first_conflict():
    seq = [FileSpec("a", 1, Fr(1)), FileSpec("b", 2, Fr(3)), FileSpec("a", 1, Fr(1))]
    checked = validated(iter(seq))  # a one-shot iterator is read once
    assert checked == tuple(seq) and validated(checked) is checked
    for later in (FileSpec("b", 1, Fr(3)), FileSpec("b", 2, Fr(4))):
        with pytest.raises(ConsistencyError, match=(
                rf"^request 3: file 'b' seen as \(size={later.size}, cost={later.cost}\) "
                r"but previously \(size=2, cost=3\)$")):
            validated(iter([*seq, later, FileSpec("a", 5, Fr(1))]))


def test_every_entry_point_gives_an_iterator_what_it_gives_the_list():
    """Every public entry point that takes a sequence checks it before it
    reads it, so a one-shot iterator is read once and gives the list's
    answer, on a general trace and on a paging one alike."""
    pessimal = LandlordPolicy.pessimal_flush()
    entry_points = {
        "run_trace": lambda seq: run_trace(seq, 3, LRU),
        "opt_cost": lambda seq: opt_cost(seq, 2),
        "opt_cost_full_subsets": lambda seq: opt_cost_full_subsets(seq, 2),
        "opt_costs_by_k": lambda seq: opt_costs_by_k(seq, [2, 3, 4]),
        "audit_landlord lru": lambda seq: audit_landlord(seq, 2, 3, LRU),
        "audit_landlord pessimal": lambda seq: audit_landlord(seq, 2, 3, pessimal),
        "evaluate_loose": lambda seq: evaluate_loose(seq, 4, Fr(1, 10), Fr(2),
                                                     landlord_algorithm(LRU)),
        "serialize_trace": serialize_trace,
    }
    for seq in ([A, B, C, A, B, C, A], list(paging_sequence("abcabdab"))):
        witness = opt_cost(seq, 2).witness_schedule
        calls = {**entry_points,
                 "replay_witness": lambda seq, witness=witness: replay_witness(seq, 2, witness)}
        for name, call in calls.items():
            assert call(iter(seq)) == call(seq), name


def test_unchecked_run_reads_an_iterator_once():
    """``run_trace(validate=False)`` reads ``seq`` into a tuple too: the
    pessimal selector's future table and the serve loop both read it."""
    a, b = FileSpec("a", 1, 1), FileSpec("b", 1, 2)
    pessimal = LandlordPolicy.pessimal_flush()
    for policy in (pessimal, LRU):
        listed = run_trace([a, b, a], 1, policy, validate=False)
        assert listed.total_cost == 4 and len(listed.outcomes) == 3
        assert run_trace(iter([a, b, a]), 1, policy, validate=False) == listed


def state_fields(state):
    """Everything a ``CacheState`` holds, by slot, for comparing two of them."""
    return {slot: getattr(state, slot) for slot in CacheState.__slots__}


def run_state(seq, k, policy):
    """The state after serving ``seq`` from an empty cache of size ``k``."""
    state, future = new_cache(k), FutureView(seq)
    for g in seq:
        request(state, g, policy, future)
    return state


def test_request_refuses_before_it_changes_the_state():
    """A hit on an id whose size or cost differs from the resident's, a
    request the future view does not hold, a file larger than the cache and,
    under the pessimal selector, a miss that needs a rent round with no
    future view are refused with the state, its request count included, as
    it was; a retry serves as if the refused request never came."""
    big = FileSpec("big", 5, Fr(1))
    pessimal = LandlordPolicy.pessimal_flush()
    for policy in (LRU, FIFO, LandlordPolicy(Fr(1, 2)), pessimal):
        future = FutureView([A, B, A, C])
        refused = [(FileSpec("a", 1, Fr(4)), future, ConsistencyError,
                    r"^request 2: file 'a' seen as \(size=1, cost=4\) "
                    r"but previously \(size=2, cost=4\)$"),
                   (FileSpec("a", 2, Fr(5)), future, ConsistencyError,
                    r"^request 2: file 'a' seen as \(size=2, cost=5\) "
                    r"but previously \(size=2, cost=4\)$"),
                   (B, FutureView([A, B, A]), ConsistencyError, "future view"),
                   (big, FutureView([A, B, big]), RequestTooLarge, "exceeds cache capacity")]
        if policy is pessimal:  # c does not fit beside a and b: a round must choose
            refused.append((C, None, InvalidParams, "needs the future request sequence"))
        served = new_cache(4)
        for g in (A, B):
            request(served, g, policy, future)
        untouched = served.clone()
        for bad, view, error, message in refused:
            with pytest.raises(error, match=message):
                request(served, bad, policy, view)
            assert state_fields(served) == state_fields(untouched)
        # an equal FileSpec that is another object is the same file: a hit
        out = request(served, FileSpec("a", 2, Fr(4)), policy, future)
        request(untouched, A, policy, future)
        assert out.was_hit and state_fields(served) == state_fields(untouched)
        request(served, C, policy, future)
        assert state_fields(served) == state_fields(run_state([A, B, A, C], 4, policy))


def test_zero_cost_file_enters_at_zero_credit_and_leaves_first():
    state = new_cache(2)
    zero = FileSpec("z", 1, Fr(0))
    request(state, zero, FIFO)
    assert state.credit_of("z") == 0
    out = request(state, FileSpec("y", 2, Fr(1)), FIFO)
    # the delta=0 round is still recorded
    assert out.rent_rounds[0].delta == 0
    assert "z" in out.rent_rounds[0].zeroed
    assert out.evicted == ("z",)


def test_single_file_repeated_costs_once():
    g = FileSpec("g", 2, Fr(5))
    report = run_trace([g] * 7, 3, LRU)
    assert report.total_cost == 5
    assert report.fault_count == 1


def test_pessimal_outside_run_trace_needs_future():
    state = new_cache(1)
    pol = LandlordPolicy.pessimal_flush()
    request(state, FileSpec("x", 1, Fr(1)), pol)
    with pytest.raises(InvalidParams):
        request(state, FileSpec("y", 1, Fr(1)), pol)


def test_pessimal_evicts_soonest_next_request():
    # k=2 paging: at the miss on c, b is requested sooner than a, so the
    # pessimal order sacrifices b and the later request to b faults again
    items = ["a", "b", "c", "b", "a"]
    seq = [FileSpec(x, 1, Fr(1)) for x in items]
    report = run_trace(seq, 2, LandlordPolicy.pessimal_flush())
    assert report.fault_positions == [0, 1, 2, 3, 4]


def test_determinism_same_inputs_same_report():
    rng = random.Random(3)
    pool = [FileSpec(f"f{i}", rng.randrange(1, 4), Fr(rng.randrange(0, 9), rng.randrange(1, 4)))
            for i in range(5)]
    seq = [pool[rng.randrange(5)] for _ in range(40)]
    for pol in (LRU, FIFO, FWF, LandlordPolicy.pessimal_flush()):
        r1 = run_trace(seq, 5, pol)
        r2 = run_trace(seq, 5, pol)
        assert r1 == r2


def test_fifo_selector_with_until_room_stops_early():
    pol = LandlordPolicy(Fr(0), EvictionSelector.FIFO_ORDER,
                         EvictionGreediness.EVICT_UNTIL_ROOM)
    seq = [FileSpec(x, 1, Fr(1)) for x in "abcx"]
    report = run_trace(seq, 3, pol)
    # one rent round zeroes a, b, c; until-room evicts only the first
    assert report.outcomes[3].evicted == ("a",)


def test_engine_agrees_with_naive_oracle_on_random_weighted_traces():
    rng = random.Random(11)
    orders = {
        EvictionSelector.LRU_ORDER: lambda f, last, ins: last[f],
        EvictionSelector.FIFO_ORDER: lambda f, last, ins: ins[f],
    }
    for trial in range(150):
        pool = [FileSpec(f"f{i}", rng.randrange(1, 4),
                         Fr(rng.choice([0, 1, 2, 5, Fr(7, 2)])))
                for i in range(rng.randrange(2, 6))]
        k = rng.randrange(max(f.size for f in pool), 8)
        seq = [pool[rng.randrange(len(pool))] for _ in range(rng.randrange(1, 25))]
        lam = rng.choice([Fr(0), Fr(1, 2), Fr(1)])
        for selector, key in orders.items():
            pol = LandlordPolicy(lam, selector, EvictionGreediness.EVICT_UNTIL_ROOM)
            report = run_trace(seq, k, pol)
            total, faults = naive_landlord(seq, k, lam, key)
            assert report.total_cost == total, (trial, selector, lam)
            assert report.fault_positions == faults, (trial, selector, lam)


@st.composite
def weighted_instances(draw):
    n_files = draw(st.integers(2, 5))
    pool = []
    for i in range(n_files):
        size = draw(st.integers(1, 3))
        cost = Fr(draw(st.integers(0, 12)), draw(st.integers(1, 4)))
        pool.append(FileSpec(f"f{i}", size, cost))
    k = draw(st.integers(max(f.size for f in pool), 7))
    seq = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))
    lam = draw(st.sampled_from([Fr(0), Fr(1, 3), Fr(1, 2), Fr(1)]))
    selector = draw(st.sampled_from(list(EvictionSelector)))
    greediness = draw(st.sampled_from(list(EvictionGreediness)))
    return seq, k, LandlordPolicy(lam, selector, greediness)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(weighted_instances())
def test_invariants_hold_after_every_request(instance):
    seq, k, policy = instance
    report = run_trace(seq, k, policy)
    paid = [out.retrieval_cost_paid for out in report.outcomes if not out.was_hit]
    assert report.total_cost == sum(paid, Fr(0))
    assert type(report.total_cost) is Fr
    state = new_cache(k)
    future = FutureView(seq)
    for g, expected in zip(seq, report.outcomes):
        out = request(state, g, policy, future)
        assert out == expected
        # capacity and credit-range invariants, after every request
        used = sum(spec.size for spec, _ in state.residents().values())
        assert used <= k
        assert used == state.used_size
        for spec, credit in state.residents().values():
            assert 0 <= credit <= spec.cost
        # hits pay nothing and evict nobody
        if out.was_hit:
            assert out.retrieval_cost_paid == 0 and out.evicted == ()
        else:
            assert state.credit_of(g.id) == g.cost
        # each rent round zeroes at least one resident; evictions happen
        # only at exactly zero credit (zeroed covers each eviction)
        zeroed_union = set()
        for rnd in out.rent_rounds:
            assert rnd.delta >= 0
            assert rnd.zeroed
            zeroed_union.update(rnd.zeroed)
        assert set(out.evicted) <= zeroed_union


def test_clone_isolates_state():
    state = new_cache(3)
    request(state, A, LRU)
    twin = state.clone()
    request(twin, B, LRU)
    assert "b" in twin and "b" not in state
