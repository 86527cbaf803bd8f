"""Differential tests: the bitmask search and its minimal-set walk against a
reference that scans all 2^|state| subsets of the residents on every miss.

``offline_reference`` holds the exact offline search as it was before the
eviction subsets came from a depth-first walk cached by size pattern, and
before resident sets were bitmasks: it keys its frontier by frozensets.  Both
searches are fed the same requests in lockstep; after every request their
frontiers and optima must be equal, and so must their witness schedules when
witnesses are tracked.  ``cachelab.offline`` reads a witness backward from
the frontiers it keeps, so every step's kept frontier is read again at each
request.  Both branching modes are covered: the inclusion-minimal subsets
and the full-subset oracle.
"""

import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

import offline_reference as reference
from cachelab import (FileSpec, is_paging_sequence, opt_cost, opt_cost_full_subsets,
                      replay_witness)
from cachelab.offline import OptSearch

COSTS = (Fr(0), Fr(1), Fr(2), Fr(5), Fr(7, 2), Fr(1, 3))


def pair(k, minimal, witness):
    return (OptSearch(k, restrict_minimal=minimal, track_witness=witness),
            reference.OptSearch(k, restrict_minimal=minimal, track_witness=witness))


def feed(searches, seq):
    new, old = searches
    for g in seq:
        new.advance(g)
        old.advance(g)
        assert new.frontier == old.frontier
        assert new.min_cost() == old.min_cost()
        if new.track_witness:
            assert new.witness() == old.witness()


@st.composite
def instances(draw, sizes=st.integers(1, 4), costs=st.sampled_from(COSTS), max_len=16):
    """A pool of files, a request sequence over it, and a cache size that fits
    the largest file."""
    pool = [FileSpec(f"f{i}", draw(sizes), draw(costs))
            for i in range(draw(st.integers(1, 7)))]
    seq = draw(st.lists(st.sampled_from(pool), max_size=max_len))
    largest = max(g.size for g in pool)
    k = draw(st.integers(largest, largest + 6))
    return pool, seq, k


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instances(), st.booleans())
def test_lockstep_with_witness(instance, minimal):
    _, seq, k = instance
    feed(pair(k, minimal, True), seq)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(instances(sizes=st.just(2), costs=st.just(Fr(3))), st.booleans())
def test_lockstep_when_every_file_is_alike(instance, minimal):
    # equal sizes and costs: every eviction choice ties, so the witness rests
    # on the tie order alone
    _, seq, k = instance
    feed(pair(k, minimal, True), seq)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(instances(sizes=st.integers(1, 2), costs=st.sampled_from((Fr(0), Fr(1)))),
       st.booleans())
def test_lockstep_on_zero_cost_and_tie_heavy_files(instance, minimal):
    _, seq, k = instance
    feed(pair(k, minimal, True), seq)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(instances(), st.booleans(), st.data())
def test_lockstep_after_clone_mid_run(instance, minimal, data):
    pool, seq, k = instance
    searches = pair(k, minimal, False)
    cut = data.draw(st.integers(0, len(seq)))
    feed(searches, seq[:cut])
    clones = tuple(s.clone() for s in searches)
    # the original and its clone go on with different requests; they share
    # the size catalog and the cache of walks
    feed(searches, seq[cut:])
    feed(clones, data.draw(st.lists(st.sampled_from(pool), max_size=8)))
    feed(searches, data.draw(st.lists(st.sampled_from(pool), max_size=4)))
    # then each meets an id the other has not seen; both take their bits from
    # the one table they share, and these ids sort before every pool id
    ours, theirs = FileSpec("a-original", 1, Fr(2)), FileSpec("a-clone", 1, Fr(1, 2))
    feed(searches, [ours])
    feed(clones, [theirs])
    feed(searches, data.draw(st.lists(st.sampled_from(pool + [ours]), max_size=6)))
    feed(clones, data.draw(st.lists(st.sampled_from(pool + [theirs]), max_size=6)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(instances(), st.booleans())
def test_lockstep_when_ids_arrive_in_reverse_sorted_order(instance, minimal):
    # each id takes the next bit when first fed, so here bit order is the
    # reverse of id order: a tie broken by bits instead of sorted ids differs
    pool, seq, k = instance
    feed(pair(k, minimal, True), sorted(pool, key=lambda g: g.id, reverse=True) + seq)


@pytest.mark.parametrize("minimal", [True, False])
@pytest.mark.parametrize("k", [2, 4, 6])
def test_lockstep_when_alike_ids_arrive_in_reverse_sorted_order(k, minimal):
    # every file alike: each eviction choice ties, and the witness rests on
    # the tie order alone
    files = [FileSpec(f"e{i}", 2, Fr(3)) for i in range(6, -1, -1)]
    seq = files + files[::2] + files[::-1] + files[1::3]
    feed(pair(k, minimal, True), seq)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(instances(max_len=12))
def test_opt_cost_results_match(instance):
    _, seq, k = instance
    expected = reference.opt_cost(seq, k)
    if is_paging_sequence(seq):
        # opt_cost takes Belady's schedule here: the same cost, its own ties
        assert opt_cost(seq, k).min_cost == expected.min_cost
    else:
        assert opt_cost(seq, k) == expected
    assert opt_cost_full_subsets(seq, k) == reference.opt_cost_full_subsets(seq, k)


def test_searches_agree_past_twelve_files():
    # 13 to 16 files of sizes 1 to 3, each requested, in 24 requests
    rng = random.Random(47)
    for _ in range(24):
        pool = [FileSpec(f"f{i}", rng.randint(1, 3), rng.choice(COSTS))
                for i in range(rng.randint(13, 16))]
        seq = pool + [rng.choice(pool) for _ in range(24 - len(pool))]
        rng.shuffle(seq)
        k = rng.randint(3, 8)
        assert not is_paging_sequence(seq)
        result = opt_cost(seq, k)
        assert result == reference.opt_cost(seq, k, max_distinct=16)
        assert replay_witness(seq, k, result.witness_schedule) == result.min_cost
        assert opt_cost_full_subsets(seq, k) == result.min_cost \
            == reference.opt_cost_full_subsets(seq, k, max_distinct=16)
        feed(pair(k, True, True), seq)


def desk_instance(seed):
    """Twelve files, four each of size 1, 2 and 3, each requested three times
    plus four extra requests: 40 requests in a seeded order."""
    rng = random.Random(seed)
    sizes = [1, 2, 3] * 4
    rng.shuffle(sizes)
    files = [FileSpec(f"d{i}", size, Fr(rng.randint(1, 6), rng.randint(1, 3)))
             for i, size in enumerate(sizes)]
    seq = files * 3 + [rng.choice(files) for _ in range(4)]
    rng.shuffle(seq)
    return seq


def test_lockstep_on_desk_instances():
    for seed in (1, 2, 4242):
        seq = desk_instance(seed)
        for k in range(3, 10):
            feed(pair(k, True, True), seq)
            # the reference keeps its 24-request cap
            assert opt_cost(seq, k) == reference.opt_cost(seq, k, max_length=40)
        for k in (3, 4):
            feed(pair(k, False, False), seq)
