"""Differential tests: the direct paging simulators against the reference.

``paging_reference`` holds ``belady_opt`` and randomized marking as they were
before the next-use heap and the sorted unmarked list, and LRU, FIFO and FWF
as they were before LRU and FIFO moved to a deque.  Both versions serve the
same traces at every cache size up to one past the number of distinct ids.
Belady's fault counts must be equal.  For LRU, FIFO and FWF, and for marking
at every seed, the fault counts and fault positions must be equal; for
marking that holds only if both draw the same victims from the same random
stream.
"""

from fractions import Fraction as Fr

from hypothesis import given, settings, strategies as st

import paging_reference as reference
from cachelab import belady_opt, build_sequence, simulate_paging

SEEDS = (0, 1, 2, 4242)
DETERMINISTIC = {
    "lru": reference.simulate_lru,
    "fifo": reference.simulate_fifo,
    "fwf": reference.simulate_fwf,
}


def outcome(fn, *args, **kwargs):
    """The result of a call, or ``TypeError`` when it compares incomparable ids."""
    try:
        return fn(*args, **kwargs)
    except TypeError:
        return TypeError


def assert_agree_at_every_k(trace):
    for k in range(1, len(set(trace)) + 2):
        assert outcome(belady_opt, trace, k) == outcome(reference.belady_opt, trace, k)
        for alg, simulate in DETERMINISTIC.items():
            assert simulate_paging(trace, k, alg) == simulate(trace, k)
        for seed in SEEDS:
            assert (outcome(simulate_paging, trace, k, "marking", seed=seed)
                    == outcome(reference.simulate_marking, trace, k, seed))


int_ids = st.integers(0, 9)
str_ids = st.sampled_from("abcdefghij")


def with_singletons(xs):
    """Replace each ``None`` by an id requested only there."""
    return [100 + i if x is None else x for i, x in enumerate(xs)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.lists(int_ids, max_size=60), st.lists(str_ids, max_size=60)))
def test_agree_on_int_and_str_traces(trace):
    assert_agree_at_every_k(trace)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.integers(0, 4), st.none()), max_size=60).map(with_singletons))
def test_agree_when_many_residents_are_never_requested_again(trace):
    # the victims then come from the tie rule: the largest such id first
    assert_agree_at_every_k(trace)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.integers(0, 4), st.sampled_from("abcde")), max_size=40))
def test_mixed_incomparable_ids_raise_only_where_the_reference_does(trace):
    assert_agree_at_every_k(trace)
    # a cache that never fills compares no ids
    k = max(len(set(trace)), 1)
    assert belady_opt(trace, k) == len(set(trace))
    assert simulate_paging(trace, k, "marking", seed=3)[0] == len(set(trace))


def test_empty_trace():
    assert_agree_at_every_k([])
    assert belady_opt([], 1) == 0
    assert simulate_paging([], 1, "marking", seed=0) == (0, [])


def test_agree_on_the_adversarial_trace():
    s = build_sequence(Fr(1, 32), Fr(1, 5), 240)
    items = list(s.items)
    for k in range(1, len(set(items)) + 2):
        for alg, simulate in DETERMINISTIC.items():
            assert simulate_paging(items, k, alg) == simulate(items, k)
    ks = sorted({k for k in s.k_levels if k <= 240} | set(range(1, 241, 16)))
    for k in ks:
        assert belady_opt(items, k) == reference.belady_opt(items, k)
        for seed in (1, 4242):
            assert (simulate_paging(items, k, "marking", seed=seed)
                    == reference.simulate_marking(items, k, seed))
