import itertools
import random
import tracemalloc

import pytest

from cachelab import (
    InvalidParams,
    LandlordPolicy,
    PagingAlg,
    belady_opt,
    decompose_phases,
    paging_sequence,
    run_trace,
    simulate_paging,
)
from cachelab.paging import belady_schedule

ABCAB = list("abcab")


class TestSimulate:
    def test_lru_hand_trace(self):
        faults, positions = simulate_paging(ABCAB, 2, PagingAlg.LRU)
        assert faults == 5 and positions == [0, 1, 2, 3, 4]

    def test_fwf_hand_trace(self):
        faults, positions = simulate_paging(ABCAB, 2, PagingAlg.FWF)
        assert faults == 5 and positions == [0, 1, 2, 3, 4]

    def test_fifo_small(self):
        # a b a c: FIFO keeps a until it is oldest, so c evicts a, then a faults
        faults, positions = simulate_paging(list("abaca"), 2, "fifo")
        assert positions == [0, 1, 3, 4]
        assert faults == 4

    def test_everything_fits(self):
        trace = list("abcabcabc")
        for alg in ("lru", "fifo", "fwf"):
            faults, _ = simulate_paging(trace, 3, alg)
            assert faults == 3
        faults, _ = simulate_paging(trace, 3, "marking", seed=5)
        assert faults == 3

    def test_empty_trace(self):
        assert simulate_paging([], 3, "lru") == (0, [])

    def test_seed_contract(self):
        with pytest.raises(InvalidParams):
            simulate_paging(ABCAB, 2, "marking")
        with pytest.raises(InvalidParams):
            simulate_paging(ABCAB, 2, "lru", seed=1)

    @pytest.mark.parametrize("alg", ["bogus", "", 3, None, 1.5])
    def test_unknown_policy_raises_typed_error(self, alg):
        with pytest.raises(InvalidParams, match="lru, fifo, fwf, marking"):
            simulate_paging([], 1, alg)

    def test_lru_memory_stays_bounded_on_a_hit_streak(self):
        # all hits after the first two requests: LRU keeps one request
        # position per hit, and it must drop the stale ones as it goes
        trace = [0, 1] * 100_000
        tracemalloc.start()
        try:
            faults, positions = simulate_paging(trace, 2, "lru")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert faults == 2 and positions == [0, 1]
        assert peak < 1_000_000

    def test_lru_evicts_correctly_after_pruning_its_positions(self):
        # at k=2 the hit at position 5 finds 5 > 2k positions and keeps the
        # live ones, 2 (a) and 4 (b); c then evicts a, the least recently
        # used, a evicts b, and b evicts c
        trace = list("ababbbcab")
        assert simulate_paging(trace, 2, "lru") == (5, [0, 1, 6, 7, 8])

    def test_a_one_shot_iterator_is_served_as_its_list(self):
        # LRU, Belady and the phase cut index the trace or take its length:
        # one that is not a sequence is read into a tuple first, so an
        # iterator gives the list's answer
        rng = random.Random(11)
        drawn = [rng.randrange(10) for _ in range(80)]
        for trace, ks in ((list("ababbbcab"), [2]), (drawn, range(1, 12))):
            for k in ks:
                for alg in PagingAlg:
                    seed = 3 if alg is PagingAlg.MARKING else None
                    assert (simulate_paging(iter(trace), k, alg, seed=seed)
                            == simulate_paging(trace, k, alg, seed=seed))
                assert belady_opt(iter(trace), k) == belady_opt(trace, k)
                assert belady_schedule(iter(trace), k) == belady_schedule(trace, k)
                assert decompose_phases(iter(trace), k) == decompose_phases(trace, k)

    def test_marking_deterministic_per_seed(self):
        rng = random.Random(0)
        trace = [str(rng.randrange(9)) for _ in range(120)]
        a = simulate_paging(trace, 4, "marking", seed=42)
        b = simulate_paging(trace, 4, "marking", seed=42)
        c = simulate_paging(trace, 4, "marking", seed=43)
        assert a == b
        assert a[0] >= belady_opt(trace, 4) and c[0] >= belady_opt(trace, 4)


class TestBelady:
    def test_hand_trace(self):
        assert belady_opt(ABCAB, 2) == 4

    def test_all_fit(self):
        assert belady_opt(list("abcabc"), 3) == 3
        assert belady_opt(list("abcabc"), 9) == 3

    def test_alternating_pair(self):
        assert belady_opt(list("abababab"), 2) == 2

    def test_lower_bounds_every_policy(self):
        rng = random.Random(2)
        for _ in range(100):
            trace = [str(rng.randrange(7)) for _ in range(60)]
            k = rng.randrange(1, 7)
            opt = belady_opt(trace, k)
            for alg in ("lru", "fifo", "fwf"):
                assert opt <= simulate_paging(trace, k, alg)[0]
            assert opt <= simulate_paging(trace, k, "marking", seed=7)[0]

    def test_matches_search_up_to_eight_items_length_fourteen(self):
        # sampled from the wider family; the acceptance suite covers the
        # <= 6 items / length <= 12 box exhaustively.  The search is driven
        # directly, because opt_cost takes Belady's schedule on paging input
        from cachelab import paging_sequence
        from cachelab.offline import OptSearch

        rng = random.Random(19)
        for _ in range(300):
            items = [str(rng.randrange(8)) for _ in range(rng.randint(1, 14))]
            k = rng.randint(1, 6)
            search = OptSearch(k)
            for g in paging_sequence(items):
                search.advance(g)
            assert belady_opt(items, k) == search.min_cost()

    def test_lru_competitive_bound_vs_handicapped_optimum(self):
        # LRU with cache k pays at most k/(k-h+1) times the size-h optimum
        rng = random.Random(5)
        for _ in range(60):
            trace = [str(rng.randrange(8)) for _ in range(70)]
            for h, k in [(1, 3), (2, 4), (3, 3), (2, 6), (4, 4)]:
                lru = simulate_paging(trace, k, "lru")[0]
                assert lru * (k - h + 1) <= k * belady_opt(trace, h)


class TestPhases:
    def test_hand_trace(self):
        dec = decompose_phases(ABCAB, 2)
        assert dec.phases == ((0, 2), (2, 4), (4, 5))

    def test_single_phase_when_everything_fits(self):
        dec = decompose_phases(list("abcbca"), 3)
        assert dec.phases == ((0, 6),)

    def test_empty(self):
        assert decompose_phases([], 2).phases == ()

    def test_matches_fwf_flushes_and_counts(self):
        rng = random.Random(9)
        for _ in range(80):
            trace = [str(rng.randrange(9)) for _ in range(90)]
            k = rng.randrange(1, 8)
            dec = decompose_phases(trace, k)
            # phases tile the trace
            assert dec.phases[0][0] == 0 and dec.phases[-1][1] == len(trace)
            assert all(a[1] == b[0] for a, b in itertools.pairwise(dec.phases))
            distinct = [len(set(trace[s:e])) for s, e in dec.phases]
            # every phase but the last references exactly k distinct items,
            # and FWF's fault count is their sum
            assert all(d == k for d in distinct[:-1])
            assert distinct[-1] <= k
            assert sum(distinct) == simulate_paging(trace, k, "fwf")[0]
            # each later phase starts with an item absent from the previous
            for (s0, e0), (s1, e1) in itertools.pairwise(dec.phases):
                assert trace[s1] not in set(trace[s0:e0])


class TestEngineEquivalence:
    def test_figure_settings_match_direct_simulators(self):
        rng = random.Random(31)
        personas = [("lru", LandlordPolicy.lru()),
                    ("fifo", LandlordPolicy.fifo()),
                    ("fwf", LandlordPolicy.fwf())]
        for _ in range(40):
            items = [str(rng.randrange(12)) for _ in range(rng.randrange(1, 120))]
            seq = paging_sequence(items)
            for k in (1, 2, 3, 5, 8):
                for name, policy in personas:
                    _, positions = simulate_paging(items, k, name)
                    report = run_trace(seq, k, policy)
                    assert report.fault_positions == positions
