import itertools
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction as Fr

import pytest

from cachelab import (
    ConsistencyError,
    FileSpec,
    InstanceTooLarge,
    InvalidCapacity,
    InvalidParams,
    LandlordPolicy,
    OptResult,
    RequestTooLarge,
    audit_landlord,
    belady_opt,
    evaluate_loose,
    landlord_algorithm,
    opt_cost,
    opt_cost_full_subsets,
    opt_costs_by_k,
    paging_sequence,
    replay_witness,
    run_trace,
    validated,
)
from cachelab.offline import SEARCH_BUDGET, OptSearch

import offline_reference as reference

A = FileSpec("a", 2, Fr(4))
B = FileSpec("b", 1, Fr(1))
C = FileSpec("c", 2, Fr(3))


def random_instance(rng, max_files=5, max_len=12, max_size=3):
    pool = [FileSpec(f"f{i}", rng.randrange(1, max_size + 1),
                     Fr(rng.randrange(0, 13), rng.randrange(1, 4)))
            for i in range(rng.randrange(1, max_files + 1))]
    seq = [pool[rng.randrange(len(pool))] for _ in range(rng.randrange(1, max_len + 1))]
    k = rng.randrange(max(f.size for f in pool), 7)
    return seq, k


def searched(seq, k, **options):
    """The minimal-eviction search driven directly, request by request: on
    paging-shaped input ``opt_cost`` takes Belady's schedule instead."""
    search = OptSearch(k, **options)
    for g in seq:
        search.advance(g)
    return search


def frontier_widths(seq, k, **options):
    """The search's frontier width before each request of ``seq``."""
    search = OptSearch(k, **options)
    widths = []
    for g in seq:
        widths.append(len(search.frontier))
        search.advance(g)
    return widths


def reference_work(seq, k):
    """``(states, eviction sets)`` per request of ``seq``, tallied on the
    reference search: the states it expands, and the (state, eviction set)
    pairs of its misses, where a miss that fits relaxes one, the empty set."""
    search = reference.OptSearch(k)
    tally = []
    for g in seq:
        sets = 0
        for state in search.frontier:
            if g.id not in state:
                need = g.size - (k - search.used[state])
                sets += len(search._eviction_choices(state, need)) if need > 0 else 1
        tally.append((len(search.frontier), sets))
        search.advance(g)
    return tally


def wide_trace(length, seed=3):
    """Twelve unit-size files with unequal costs in a seeded order: at k=6
    the search keeps all C(11, 5) = 462 resident sets that hold the last
    request."""
    rng = random.Random(seed)
    files = [FileSpec(f"w{i:02d}", 1, Fr(rng.randint(1, 9), rng.randint(1, 3)))
             for i in range(12)]
    return [rng.choice(files) for _ in range(length)]


def test_paging_example_matches_belady():
    # the search driven directly: opt_cost takes Belady's schedule here
    search = OptSearch(2)
    for g in paging_sequence("abcab"):
        search.advance(g)
    assert search.min_cost() == 4 == belady_opt(list("abcab"), 2)


def test_paging_optimum_is_belady_schedule():
    # Belady evicts b, requested farthest ahead; the search's tie order
    # would evict a
    result = opt_cost(paging_sequence("abcab"), 2)
    assert result == OptResult(4, ((0, ()), (1, ()), (2, ("b",)), (4, ("c",))))


def test_paging_optimum_at_any_length_is_belady_with_a_full_witness():
    rng = random.Random(43)
    for _ in range(60):
        items = [str(rng.randrange(rng.randint(1, 30)))
                 for _ in range(rng.randint(0, 200))]
        k = rng.randint(1, 12)
        seq = paging_sequence(items)
        result = opt_cost(seq, k)
        assert result.min_cost == belady_opt(items, k)
        # one entry per miss: replay refuses an entry at a hit, and every
        # miss costs 1
        indices = [i for i, _ in result.witness_schedule]
        assert indices == sorted(set(indices))
        assert len(indices) == replay_witness(seq, k, result.witness_schedule) \
            == result.min_cost


def test_everything_fits_costs_each_distinct_file_once():
    seq = [A, B, A, B, B, A]
    result = opt_cost(seq, 3)
    assert result.min_cost == A.cost + B.cost
    assert all(evicted == () for _, evicted in result.witness_schedule)


def test_weighted_example_conflicting_sizes():
    # a and c (sizes 2+2) can never share a 3-slot cache, so the final a
    # must re-fault at k=3; one slot more lets b go instead and a stay
    seq = [A, B, C, A]
    assert opt_cost(seq, 3).min_cost == 12
    assert opt_cost(seq, 4).min_cost == 8
    assert opt_cost_full_subsets(seq, 3) == 12
    assert opt_cost_full_subsets(seq, 4) == 8


def test_witness_replays_to_min_cost():
    rng = random.Random(17)
    for _ in range(80):
        seq, k = random_instance(rng)
        result = opt_cost(seq, k)
        assert replay_witness(seq, k, result.witness_schedule) == result.min_cost
        search = searched(seq, k, track_witness=True)
        assert replay_witness(seq, k, search.witness()) == search.min_cost()


@pytest.mark.parametrize("seq,k,schedule", [
    ([A, A], 2, [(0, ()), (1, ("a",))]),    # an eviction at a hit
    ([A, B], 3, [(0, ()), (1, ("c",))]),    # the eviction of a non-resident
    ([A, C], 3, [(0, ()), (1, ())]),        # no room left for c
    ([A, B, A, B], 3, [(9, ("zz",))]),      # an entry past the end
    ([A, B], 3, [(-1, ("a",)), (0, ())]),   # an entry before the start
    ([A, B, C, B], 3, [(0, ()), (1, ()), (2, ("b",)), (2, ("a",))]),  # a repeated index
    ([A, B], 3, [(1, ()), (0, ())]),        # indices out of order
], ids=["evict-at-hit", "evict-non-resident", "no-room", "past-the-end",
        "before-the-start", "repeated-index", "out-of-order"])
def test_invalid_witness_raises_consistency_error(seq, k, schedule):
    with pytest.raises(ConsistencyError) as err:
        replay_witness(seq, k, schedule)
    assert isinstance(err.value, ValueError)  # callers catching ValueError still do


@pytest.mark.parametrize("later", [FileSpec("a", 3, Fr(1)), FileSpec("a", 1, Fr(2))],
                         ids=["size", "cost"])
def test_replay_refuses_an_id_that_changes_size_or_cost(later):
    # unchecked, request 2 would count as a hit on the size-1 a, and the
    # sequence would replay to 6 as if it were an instance
    seq = [FileSpec("a", 1, Fr(1)), FileSpec("b", 1, Fr(5)), later]
    with pytest.raises(ConsistencyError, match=r"^request 2: file 'a' seen as"):
        replay_witness(seq, 2, ())
    assert replay_witness(seq[:2], 2, ()) == 6


def test_witness_is_deterministic():
    rng = random.Random(23)
    for _ in range(20):
        seq, k = random_instance(rng)
        assert opt_cost(seq, k) == opt_cost(seq, k)


def test_minimal_equals_full_subsets_on_random_instances():
    rng = random.Random(29)
    for _ in range(120):
        seq, k = random_instance(rng)
        assert searched(seq, k).min_cost() == opt_cost_full_subsets(seq, k)


def test_minimal_equals_full_subsets_six_files_length_ten():
    # sampled at the six-file/length-10 box; the acceptance suite covers the
    # five-file/length-9 box exhaustively
    rng = random.Random(31)
    for _ in range(150):
        seq, k = random_instance(rng, max_files=6, max_len=10)
        assert searched(seq, k).min_cost() == opt_cost_full_subsets(seq, k)


def test_monotone_in_k():
    rng = random.Random(37)
    for _ in range(60):
        seq, k = random_instance(rng)
        a = searched(seq, k).min_cost()
        b = searched(seq, k + 1).min_cost()
        assert b <= a


def test_never_beats_no_algorithm_is_cheaper():
    rng = random.Random(41)
    policies = [LandlordPolicy.lru(), LandlordPolicy.fifo(), LandlordPolicy.fwf(),
                LandlordPolicy.pessimal_flush()]
    for _ in range(60):
        seq, k = random_instance(rng)
        optimum = opt_cost(seq, k).min_cost
        for policy in policies:
            assert optimum <= run_trace(seq, k, policy).total_cost


def test_limits_enforced():
    # the file count refuses nothing: 13 unit-size files at k = 13 are each
    # missed once; cost 2 keeps the pool off the paging path, so
    # evaluate_loose searches too
    pool = [FileSpec(f"f{i}", 1, Fr(2)) for i in range(13)]
    lru = LandlordPolicy.lru()
    assert opt_cost(pool, 13).min_cost == 26
    assert audit_landlord(pool, 13, 13, lru).opt_cost == 26
    report = evaluate_loose(pool, 13, Fr(1, 2), 2, lambda seq, k: Fr(0))
    assert report.per_k[13].opt_cost == 26
    # length alone refuses nothing: 25 requests expand 25 states
    assert opt_cost([A] * 25, 3).min_cost == 4
    assert audit_landlord([A] * 25, 3, 3, lru).ratio_certified
    # an explicit max_length still refuses a longer sequence
    with pytest.raises(InstanceTooLarge):
        opt_cost([A] * 25, 3, max_length=24)
    with pytest.raises(InstanceTooLarge):
        audit_landlord([A] * 25, 3, 3, lru, max_length=24)
    # the work budget refuses a wide instance through every caller
    seq = wide_trace(200)
    with pytest.raises(InstanceTooLarge):
        opt_cost(seq, 6)
    with pytest.raises(InstanceTooLarge):
        audit_landlord(seq, 6, 6, lru)
    with pytest.raises(InstanceTooLarge):
        evaluate_loose(seq, 6, Fr(1, 2), 2, lambda seq, k: Fr(0))


def test_a_wide_instance_is_refused_by_the_work_it_does():
    seq = wide_trace(600)
    started = time.process_time()
    with pytest.raises(InstanceTooLarge) as caught:
        opt_cost(seq, 6)
    assert time.process_time() - started < 2
    message = str(caught.value)
    index, work, width = map(int, re.fullmatch(
        r"request (\d+): the exact search has expanded (\d+) states and eviction sets "
        r"\(frontier (\d+) wide\), over its budget of \d+", message).groups())
    assert width == 462
    # the count is every state expanded and every eviction set relaxed before
    # this request, this request's states, and its misses' sets up to the
    # first miss past the budget, which relaxes at most 6
    tally = reference_work(seq[:index + 1], 6)
    done = sum(states + sets for states, sets in tally[:-1])
    states, sets = tally[-1]
    assert states == width
    assert done + states <= work <= done + states + sets
    assert done <= SEARCH_BUDGET < work <= SEARCH_BUDGET + 6
    with pytest.raises(InstanceTooLarge) as again:
        opt_cost(seq, 6)
    assert str(again.value) == message


def test_the_widest_instance_under_the_old_caps_is_still_served():
    # 12 weighted unit-size files, 24 requests: at k=6 the frontier reaches
    # 462 states, the most that 12 unit-size files allow; the full-subset
    # oracle keeps every smaller set too and expands most at k=10
    files = [FileSpec(f"w{i:02d}", 1, Fr(i + 1, 1 + i % 3)) for i in range(12)]
    seq = files + files[::-1]
    assert sum(frontier_widths(seq, 6)) == 6012
    assert sum(frontier_widths(seq, 10, restrict_minimal=False)) == 25466
    lru = LandlordPolicy.lru()
    optima = {}
    for k in range(1, 13):
        result = opt_cost(seq, k)
        assert audit_landlord(seq, k, k, lru).ratio_certified
        optima[k] = result.min_cost
    assert opt_cost(seq, 6) == reference.opt_cost(seq, 6)
    assert opt_cost_full_subsets(seq, 6) == optima[6]
    assert opt_cost_full_subsets(seq, 10) == optima[10]
    assert opt_costs_by_k(seq, range(1, 13)) == optima
    report = evaluate_loose(seq, 12, Fr(1, 2), 2, lambda seq, k: Fr(0))
    assert {k: row.opt_cost for k, row in report.per_k.items()} == optima


def test_optima_by_k_solve_the_largest_size_first_in_ks_order():
    seq = wide_trace(200)
    # the budget refuses k = 6 at request 166 and k = 7 at request 171: the
    # search meets k = 7 first and spends nothing on the smaller sizes
    with pytest.raises(InstanceTooLarge, match=r"^request 166: .* expanded 262148 states"):
        opt_costs_by_k(seq, [6])
    with pytest.raises(InstanceTooLarge, match=r"^request 171: .* expanded 262146 states"):
        opt_costs_by_k(seq, range(1, 8))
    short = seq[:20]
    optima = opt_costs_by_k(short, [4, 2, 3, 4])
    assert list(optima) == [4, 2, 3]
    assert optima == {k: opt_cost(short, k).min_cost for k in (2, 3, 4)}


def test_size_larger_than_cache():
    with pytest.raises(RequestTooLarge):
        opt_cost([A], 1)


def test_fast_paging_dispatch():
    seq = paging_sequence("abcab")
    assert opt_costs_by_k(seq, (2,)) == {2: 4}
    # non-paging input falls back to the general search
    assert opt_costs_by_k([A, B, C, A], (4,)) == {4: 8}


def test_empty_sequence():
    assert opt_cost([], 3).min_cost == 0
    assert opt_cost([], 3).witness_schedule == ()


@pytest.mark.parametrize("k", [0, -1, True, 2.5])
def test_empty_sequence_still_checks_capacity(k):
    with pytest.raises(InvalidCapacity):
        opt_cost([], k)
    with pytest.raises(InvalidCapacity):
        opt_cost_full_subsets([], k)
    with pytest.raises(InvalidCapacity):
        replay_witness([], k, ())


@pytest.mark.parametrize("k", [0, -1, True, 2.5])
def test_search_rejects_bad_capacity(k):
    with pytest.raises(InvalidCapacity):
        OptSearch(k)


def test_search_rejects_oversized_request_and_keeps_its_frontier():
    search = OptSearch(2)
    search.advance(B)
    with pytest.raises(RequestTooLarge) as caught:
        search.advance(FileSpec("big", 3, Fr(1)))
    assert caught.value.index == 1
    assert search.frontier == {frozenset({"b"}): 1}
    assert search.min_cost() == 1


def test_search_misuse_raises_typed_errors():
    tracked, plain = OptSearch(3, track_witness=True), OptSearch(3)
    for search in (tracked, plain):
        search.advance(A)
    with pytest.raises(InvalidParams, match="clone"):
        tracked.clone()
    with pytest.raises(InvalidParams, match="witness tracking"):
        plain.witness()
    # both still ValueErrors, for callers that catch those
    assert issubclass(InvalidParams, ValueError)
    assert tracked.witness() == ((0, ()),)


@pytest.mark.parametrize("k", [6, 9, 12])
def test_witness_search_keeps_little_beyond_the_cost_only_search(k):
    # a witness search keeps each step's frontier; its peak memory stays
    # within 2.5 times that of the search for the cost alone
    files = [FileSpec(f"m{i:02d}", i % 3 + 1, Fr(i + 1, 1 + i % 3)) for i in range(12)]
    rng = random.Random(5)
    seq = files + [rng.choice(files) for _ in range(60)]

    def peak(solve):
        solve()  # once untraced, so allocations made once per process do not count
        tracemalloc.start()
        try:
            solve()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    tracked = peak(lambda: opt_cost(seq, k))
    cost_only = peak(lambda: opt_costs_by_k(seq, [k]))
    assert tracked <= 2.5 * cost_only


def test_search_rejects_a_known_id_with_another_size():
    search = OptSearch(4)
    search.advance(A)
    with pytest.raises(ConsistencyError):
        search.advance(FileSpec("a", 1, Fr(4)))
    # clones share the size catalog, so a clone refuses it too
    with pytest.raises(ConsistencyError):
        search.clone().advance(FileSpec("a", 3, Fr(4)))
    search.advance(A)
    assert search.min_cost() == 4


def test_a_driven_search_and_its_clones_refuse_a_cost_conflict_as_validated_does():
    a1, b5, a7 = FileSpec("a", 1, Fr(1)), FileSpec("b", 1, Fr(5)), FileSpec("a", 1, Fr(7))
    with pytest.raises(ConsistencyError) as checked:
        validated([a1, b5, a7])
    search = OptSearch(1)
    search.advance(a1)
    search.advance(b5)
    for driven in (search.clone(), search):
        with pytest.raises(ConsistencyError) as err:
            driven.advance(a7)
        assert str(err.value) == str(checked.value)
    assert (search.steps, search.min_cost()) == (2, 6)
    # clones share the table: an id first fed to a clone binds the search too
    search.clone().advance(FileSpec("c", 1, Fr(2)))
    with pytest.raises(ConsistencyError, match=r"^request 2: file 'c' seen as \(size=1, cost=3\)"):
        search.advance(FileSpec("c", 1, Fr(3)))
    search.advance(FileSpec("a", 1, Fr(1)))  # equal to a1, another object
    assert (search.steps, search.min_cost()) == (3, 7)


def test_a_miss_among_many_small_residents_branches_only_over_minimal_sets():
    # 24 residents of size 1 and a request needing one slot: the minimal
    # eviction sets are the 24 single files, while the room-making subsets
    # number 2**24 - 1; a search that walked them all would take many seconds
    files = [FileSpec(f"u{i:02d}", 1, Fr(1)) for i in range(25)]
    search = OptSearch(24)
    started = time.process_time()
    for g in files:
        search.advance(g)
    elapsed = time.process_time() - started
    assert search.min_cost() == 25
    assert len(search.frontier) == 24
    assert elapsed < 2


def units(count):
    """``count`` unit-size files costing 1, 2 and 3 in turn."""
    return [FileSpec(f"u{i:02d}", 1, Fr(1 + i % 3)) for i in range(count)]


@pytest.mark.parametrize("seq,k,index,width", [
    # 30 unit-size residents and a size-15 request: one walk of C(30, 15)
    # ~ 1.6e8 minimal eviction sets
    (units(30) + [FileSpec("big", 15, Fr(5))], 30, 30, 1),
    # 20 unit-size files at k = 16 leave 3,876 sets of residents, and a size-8
    # request relaxes the same walk of C(16, 8) = 12,870 sets from each
    (units(20) + [FileSpec("big", 8, Fr(5))], 16, 20, 3876),
    # a unit-size file and 29 of size 10 for a size-145 request: no set that
    # holds the unit-size file is minimal, and a walk that tried them all
    # first would visit 2**28 sets before listing one
    ([FileSpec("one", 1, Fr(1))] + [FileSpec(f"t{i:02d}", 10, Fr(1)) for i in range(29)]
     + [FileSpec("big", 145, Fr(5))], 291, 30, 1),
], ids=["one-wide-walk", "wide-frontier-times-walk", "walk-with-a-barren-branch"])
def test_a_step_past_the_budget_is_refused_within_it(seq, k, index, width):
    for solve in (lambda: opt_cost(seq, k), lambda: searched(seq, k)):
        started = time.process_time()
        with pytest.raises(InstanceTooLarge, match=fr"^request {index}: .* "
                                                   fr"\(frontier {width} wide\)"):
            solve()
        assert time.process_time() - started < 2


def test_a_walk_does_work_in_proportion_to_what_it_lists():
    # 30 unit-size residents and a size-29 request: 30 minimal eviction sets
    # among 2**30 subsets of the residents
    seq = units(30) + [FileSpec("big", 29, Fr(5))]
    started = time.process_time()
    assert opt_cost(seq, 30).min_cost == 65
    assert len(searched(seq, 30).frontier) == 30
    assert time.process_time() - started < 2


def test_a_walk_cut_short_is_kept_for_no_search():
    # a clone that has spent most of the budget cuts the walk of C(18, 9) =
    # 48,620 sets short; the search it was cloned from shares the walk memo
    # and has the budget to list them all
    files, big = units(18), FileSpec("big", 9, Fr(5))
    roomy = searched(files, 18)
    tight = roomy.clone()
    for _ in range(215_000):  # hits on its one resident set, one unit each
        tight.advance(files[-1])
    with pytest.raises(InstanceTooLarge, match=r"\(frontier 1 wide\)"):
        tight.advance(big)
    roomy.advance(big)
    assert len(roomy.frontier) == math.comb(18, 9)


def test_a_refused_request_leaves_a_driven_search_as_it_was():
    seq = units(20) + [FileSpec("big", 8, Fr(5))]
    search = searched(seq[:-1], 16)
    frontier, cost = dict(search.frontier), search.min_cost()
    messages = []
    for _ in range(2):
        with pytest.raises(InstanceTooLarge) as caught:
            search.advance(seq[-1])
        messages.append(str(caught.value))
        assert search.steps == 20 and search.min_cost() == cost
        assert search.frontier == frontier
    # a refused request adds nothing to the count, so it is refused alike again
    assert messages[0] == messages[1]
    search.advance(seq[0])  # a unit-size request still fits the budget
    assert search.steps == 21 and search.min_cost() == cost


def test_a_trace_of_sixteen_files_is_served_by_every_caller():
    rng = random.Random(53)
    files = [FileSpec(f"s{i:02d}", rng.randint(1, 3), Fr(rng.randint(1, 9), rng.randint(1, 3)))
             for i in range(16)]
    seq = files + [rng.choice(files) for _ in range(24)]
    lru = LandlordPolicy.lru()
    result = opt_cost(seq, 6)
    assert result == reference.opt_cost(seq, 6, max_distinct=16, max_length=40)
    assert replay_witness(seq, 6, result.witness_schedule) == result.min_cost
    audit = audit_landlord(seq, 6, 6, lru)
    assert audit.ratio_certified and audit.opt_cost == result.min_cost
    report = evaluate_loose(seq, 8, Fr(1, 2), 2, landlord_algorithm(lru))
    assert report.per_k[6].opt_cost == result.min_cost


def test_a_sweep_past_its_limit_is_refused_before_any_size_is_solved():
    seq = [A, B, C, A]
    for sizes in (range(1, 2 ** 16 + 2), range(1, 10 ** 309), itertools.count(1),
                  range(10 ** 309, 0, -1), [4, 10 ** 9]):
        started = time.process_time()
        with pytest.raises(InstanceTooLarge, match=r"^cache size \d+ is past the limit of 65536"):
            opt_costs_by_k(seq, sizes)
        assert time.process_time() - started < 1
    # the limit holds on paging-shaped input too, where each size is cheap
    with pytest.raises(InstanceTooLarge):
        opt_costs_by_k(paging_sequence("abcab"), range(1, 10 ** 9))
    assert len(opt_costs_by_k(paging_sequence("abcab"), range(1, 2 ** 16 + 1))) == 2 ** 16
