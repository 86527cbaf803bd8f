import dataclasses
import itertools
from fractions import Fraction as Fr

import pytest

from cachelab import (
    InstanceTooLarge,
    InvalidParams,
    LandlordPolicy,
    NTooSmall,
    SPECIAL,
    build_sequence,
    decompose_phases,
    lower_bound_c,
    measure_fault_rates,
    minimal_valid_n,
    paging_sequence,
    run_trace,
    simulate_paging,
    verify_structure,
)
from cachelab import advgen

# a comfortable multi-level instance: c = 2, growth 9/8, levels 30/34/38/43
EPS, DELTA, N = Fr(1, 32), Fr(1, 4), 40


def test_worked_example_smallest_instance():
    # the smallest formula instance: c = 1, k0 = ceil(3/4 * 6) = 5, growth 5/4
    s = build_sequence(Fr(1, 8), Fr(1, 4), 6)
    assert s.k_levels == (5, 7)
    assert s.items == ("S0", "S1", "L0_0", "L0_1", "L0_2",
                       "S5", "S6", "L0_0", "L0_1", "L0_2")
    levels = [s.level_of_item[x] for x in s.items]
    assert levels == [SPECIAL, SPECIAL, 0, 0, 0, SPECIAL, SPECIAL, 0, 0, 0]
    # whole string is one window of length 10 with k_1 = 7 distinct items
    assert len(set(s.items)) == 7 == s.k_levels[-1]
    assert verify_structure(s).ok


def test_lengths_and_level_heads():
    s = build_sequence(EPS, DELTA, N)
    assert s.k_levels == (30, 34, 38, 43)
    assert s.k0 == 30 and s.m == 3
    assert len(s.items) == 30 * 2 ** 3
    assert s.k_levels[-2] <= N < s.k_levels[-1]


def test_structure_clean_on_parameter_grid():
    grid = [(Fr(1, 8), Fr(1, 4), 6), (Fr(1, 8), Fr(1, 4), 20),
            (Fr(1, 32), Fr(1, 4), 40), (Fr(1, 16), Fr(1, 3), 30),
            (Fr(1, 4), Fr(2, 5), 25)]
    for eps, delta, n in grid:
        s = build_sequence(eps, delta, n)
        report = verify_structure(s)
        assert report.ok, (eps, delta, n, report.violations)


def test_every_window_references_k_i_distinct_items():
    s = build_sequence(EPS, DELTA, N)
    items = s.items
    for level, k_i in enumerate(s.k_levels):
        window = s.k0 * 2 ** level
        for start in range(len(items) - window + 1):
            assert len(set(items[start:start + window])) == k_i


def test_phases_align_with_doubling():
    s = build_sequence(EPS, DELTA, N)
    for level, k_i in enumerate(s.k_levels):
        window = s.k0 * 2 ** level
        dec = decompose_phases(list(s.items), k_i)
        assert all(e - b == window for b, e in dec.phases)
        assert all(s.periodicity_exceeds(s.items[b], level) for b, _ in dec.phases)


def test_corrupted_periodicity_is_flagged():
    s = build_sequence(Fr(1, 8), Fr(1, 4), 6)
    items = list(s.items)
    p = items.index("L0_0")
    q = items.index("L0_1")
    items[p], items[q] = items[q], items[p]  # swap across a period boundary
    corrupted = dataclasses.replace(s, items=tuple(items))
    report = verify_structure(corrupted)
    assert not report.ok
    assert any("period" in v for v in report.violations)


def test_specials_occur_exactly_once():
    s = build_sequence(EPS, DELTA, N)
    specials = [x for x in s.items if s.level_of_item[x] == SPECIAL]
    counts = {x: specials.count(x) for x in specials}
    assert all(c == 1 for c in counts.values())


def test_param_domain():
    with pytest.raises(InvalidParams):
        build_sequence(Fr(1, 2), Fr(1, 4), 50)  # ratio target collapses to 0
    with pytest.raises(InvalidParams, match="below 1/4"):
        build_sequence(Fr(2, 5), Fr(49, 100), 50)  # growth above 2: no n supports it
    with pytest.raises(InvalidParams):
        build_sequence(Fr(1, 8), Fr(3, 5), 50)
    with pytest.raises(InvalidParams):
        build_sequence(Fr(1, 8), Fr(1, 4), None)


NON_NUMERIC = ((None, 1 / 4), ("x", 1 / 4), (Fr(1, 8), None), (float("inf"), 1 / 4))


def test_build_sequence_refuses_non_numeric_params():
    for epsilon, delta in NON_NUMERIC:
        with pytest.raises(InvalidParams, match="rational number"):
            build_sequence(epsilon, delta, 6)
    # floats are still converted exactly
    assert build_sequence(1 / 8, 1 / 4, 6) == build_sequence(Fr(1, 8), Fr(1, 4), 6)


def test_minimal_valid_n_refuses_non_numeric_params():
    for epsilon, delta in NON_NUMERIC:
        with pytest.raises(InvalidParams, match="rational number"):
            minimal_valid_n(epsilon, delta)
    with pytest.raises(InvalidParams):
        minimal_valid_n(Fr(1, 2), Fr(1, 4))  # ratio target collapses to 0


def test_n_too_small_reports_minimal_feasible_n():
    with pytest.raises(NTooSmall) as err:
        build_sequence(Fr(1, 8), Fr(1, 4), 5)
    assert err.value.minimal_n == 6
    assert "6" in str(err.value)
    assert minimal_valid_n(Fr(1, 8), Fr(1, 4)) == 6
    # and the reported n really is feasible
    assert verify_structure(build_sequence(Fr(1, 8), Fr(1, 4), 6)).ok
    # an answer far past any fixed search cap is still found
    with pytest.raises(NTooSmall) as err:
        build_sequence(Fr(1, 10 ** 300), Fr(1, 1000), 10)
    assert err.value.minimal_n == 498288
    assert minimal_valid_n(Fr(1, 10 ** 300), Fr(1, 1000)) == 498288


def _oracle_plan(delta, n, c):
    """The level plan as first written: refuse n <= 4c/(1 - delta), then
    grow k0 = ceil((1 - delta) n) by 1 + 1/(4c) until past n."""
    if n <= 4 * Fr(c) / (1 - delta):
        return None
    ceil = lambda x: -((-x.numerator) // x.denominator)
    k0 = ceil((1 - delta) * n)
    growth = 1 + Fr(1, 4) / Fr(c)
    levels, specials, power = [k0], k0, Fr(1)
    while levels[-1] <= n:
        power *= growth
        keep = ceil(k0 * power) - levels[-1]
        if keep < 1 or keep > specials:
            return None
        levels.append(levels[-1] + keep)
        specials = 2 * keep
    return levels


def _oracle_minimal_n(epsilon, delta):
    """The smallest feasible n by a scan from n = 1."""
    c = lower_bound_c(epsilon, delta)
    return next(n for n in itertools.count(1) if _oracle_plan(delta, n, c))


# epsilon = 1/2 .. 1/40 against every delta = p/q < 1/2 with q <= 20
PLAN_GRID = sorted({(Fr(1, e), Fr(p, q)) for e in range(2, 41)
                    for q in range(2, 21) for p in range(1, (q + 1) // 2)})


def test_minimal_valid_n_matches_a_scan_from_one():
    refused = 0
    for eps, delta in PLAN_GRID:
        if lower_bound_c(eps, delta) < Fr(1, 4):
            refused += 1
            with pytest.raises(InvalidParams):
                minimal_valid_n(eps, delta)
            continue
        n = minimal_valid_n(eps, delta)
        assert n == _oracle_minimal_n(eps, delta), (eps, delta)
        s = build_sequence(eps, delta, n)
        assert list(s.k_levels) == _oracle_plan(delta, n, s.c)
        with pytest.raises(NTooSmall) as err:
            build_sequence(eps, delta, n - 1)
        assert err.value.minimal_n == n
    assert 0 < refused < len(PLAN_GRID)


def test_a_plan_past_the_length_limit_is_refused_before_it_is_built(monkeypatch):
    # k0 = 750,000,000 and m = 2: 4 * k0 = 3 * 10**9 requests
    with pytest.raises(InstanceTooLarge) as err:
        build_sequence(Fr(1, 8), Fr(1, 4), 10 ** 9)
    message = str(err.value)
    assert "n=1000000000" in message and "3000000000" in message
    assert str(advgen.MAX_LENGTH) in message
    # the limit is inclusive: a 10-request plan builds at a limit of 10
    monkeypatch.setattr(advgen, "MAX_LENGTH", 10)
    assert len(build_sequence(Fr(1, 8), Fr(1, 4), 6).items) == 10
    monkeypatch.setattr(advgen, "MAX_LENGTH", 9)
    with pytest.raises(InstanceTooLarge):
        build_sequence(Fr(1, 8), Fr(1, 4), 6)


class TestFaultRates:
    def test_levels_match_closed_forms_exactly(self):
        s = build_sequence(EPS, DELTA, N)
        report = measure_fault_rates(s)
        ks = [row.k for row in report.levels]
        assert ks == [30, 34, 38]  # levels with k_i <= n
        for row in report.levels:
            period = s.k0 * 2 ** row.level
            k_next = s.k_levels[row.level + 1]
            assert row.fwf_rate == Fr(row.k, period)
            assert row.fwf_recurrent_rate == Fr(row.k, period)
            assert row.lru_recurrent_rate == Fr(k_next - row.k, period)
            # the whole-trace LRU rate carries the one-off cold misses
            cold = 2 * row.k - k_next
            assert row.lru_faults == (k_next - row.k) * len(s.items) // period + cold
        assert report.level_rates_exact
        # the level rows are read off the per-k rows: each must equal a
        # direct simulation at k_i, with the first period dropped
        for eps, delta, n in [(EPS, DELTA, N), (Fr(1, 8), Fr(1, 4), 20)]:
            s = build_sequence(eps, delta, n)
            items = list(s.items)
            rows = measure_fault_rates(s).levels
            assert [row.k for row in rows] == [k for k in s.k_levels if k <= n]
            for row in rows:
                warm = len(items) - row.period
                for alg, faults, rate in [("fwf", row.fwf_faults, row.fwf_recurrent_rate),
                                          ("lru", row.lru_faults, row.lru_recurrent_rate)]:
                    count, positions = simulate_paging(items, row.k, alg)
                    assert faults == count
                    assert rate == Fr(sum(1 for p in positions if p >= row.period), warm)

    def test_lru_faults_exactly_on_long_period_items_after_warmup(self):
        s = build_sequence(EPS, DELTA, N)
        for row_level, k_i in enumerate(s.k_levels[:-1]):
            if k_i > s.n:
                break
            period = s.k0 * 2 ** row_level
            _, positions = simulate_paging(list(s.items), k_i, "lru")
            warm = [p for p in positions if p >= period]
            expected = [p for p in range(period, len(s.items))
                        if s.periodicity_exceeds(s.items[p], row_level)]
            assert warm == expected

    def test_ratio_and_rate_thresholds(self):
        s = build_sequence(EPS, DELTA, N)
        report = measure_fault_rates(s)
        c = lower_bound_c(EPS, DELTA)
        for level_row in report.levels:
            k_next = s.k_levels[level_row.level + 1]
            steady_ratio = Fr(level_row.k, k_next - level_row.k)
            assert steady_ratio >= 2 * c
        for k_row in report.per_k:
            # in the periodic regime FWF beats the target everywhere; the
            # whole-trace ratio can dip below c = 2 near the top level, where
            # LRU's one-off cold misses still dominate its fault count
            assert k_row.recurrent_ratio > c
            assert k_row.fwf_rate >= EPS

    def test_whole_trace_ratio_holds_at_small_c(self):
        for eps, delta, n in [(Fr(1, 8), Fr(1, 4), 6), (Fr(1, 8), Fr(1, 4), 20),
                              (Fr(1, 16), Fr(1, 3), 30)]:
            s = build_sequence(eps, delta, n)
            c = lower_bound_c(eps, delta)
            for k_row in measure_fault_rates(s).per_k:
                assert k_row.ratio > c

    def test_pessimal_flusher_matches_fwf_costs(self):
        s = build_sequence(Fr(1, 8), Fr(1, 4), 6)
        seq = paging_sequence(s.items)
        for k in range(s.k0, s.n + 1):
            fwf_faults, fwf_positions = simulate_paging(list(s.items), k, "fwf")
            report = run_trace(seq, k, LandlordPolicy.pessimal_flush())
            assert report.fault_positions == fwf_positions
            assert report.total_cost == fwf_faults
