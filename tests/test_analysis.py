import dataclasses
import math
import random
import sys
from fractions import Fraction as Fr

import mpmath
import pytest

from cachelab import (
    AuditDrift,
    BoundQuery,
    ConsistencyError,
    FileSpec,
    FutureView,
    InstanceTooLarge,
    InvalidParams,
    InvalidSizes,
    LandlordPolicy,
    audit_landlord,
    belady_opt,
    bound_c_deterministic,
    bound_c_randomized,
    bound_c_technical,
    build_sequence,
    evaluate_loose,
    landlord_algorithm,
    lower_bound_c,
    marking_bound_c,
    new_cache,
    opt_cost,
    paging_sequence,
    potential,
    request,
    run_trace,
)
from cachelab import core, offline
from cachelab.analysis import MARKING_ALPHA, MARKING_BETA, holds_trivially, proof_b
from test_acceptance import ALL_PERSONAS
from test_offline import wide_trace

A = FileSpec("a", 2, Fr(4))
B = FileSpec("b", 1, Fr(1))
C = FileSpec("c", 2, Fr(3))
G = FileSpec("g", 1, Fr(5))
LRU = LandlordPolicy.lru()


def count_checks(monkeypatch):
    """Route every cachelab module's ``validated`` through a counter and
    return the list of the lengths it checks.  ``validated`` returns a
    sequence it has already checked as it is, so a call that returns another
    object is one that ran the check."""
    checks = []
    real = core.validated

    def counted(seq):
        out = real(seq)
        if out is not seq:
            checks.append(len(out))
        return out
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cachelab" and getattr(module, "validated", None) is real:
            monkeypatch.setattr(module, "validated", counted)
    return checks


class TestPotential:
    def test_empty_caches(self):
        assert potential(new_cache(4), [], 2, 4) == 0

    def test_landlord_side_only(self):
        state = new_cache(4)
        request(state, G, LRU)
        assert potential(state, [], 4, 4) == 3 * 5  # (h-1) * credit

    def test_opt_side_only(self):
        assert potential(new_cache(4), [G], 2, 4) == 4 * 5  # k * (cost - 0)

    def test_rejects_h_above_k(self):
        with pytest.raises(InvalidSizes):
            potential(new_cache(4), [], 5, 4)


class TestAudit:
    def test_empty_sequence(self):
        audit = audit_landlord([], 2, 3, LRU)
        assert audit.steps == ()
        assert audit.all_satisfied and audit.phi_nonnegative and audit.ratio_certified

    def test_single_request_two_steps(self):
        audit = audit_landlord([G], 2, 4, LRU)
        kinds = [s.kind for s in audit.steps]
        assert kinds == ["opt_retrieve", "landlord_retrieve"]
        opt_step, ll_step = audit.steps
        assert opt_step.bound == 4 * 5 and opt_step.delta_phi == 4 * 5
        assert ll_step.bound == -(4 - 2 + 1) * 5 and ll_step.delta_phi == -15
        assert audit.all_satisfied

    def test_rent_rounds_never_raise_phi(self):
        audit = audit_landlord([A, B, C], 3, 3, LRU)
        rent_steps = [s for s in audit.steps if s.kind == "rent_round"]
        assert rent_steps, "the c request must charge rent"
        assert all(s.delta_phi <= 0 for s in rent_steps)
        assert audit.all_satisfied and audit.phi_nonnegative

    def test_zero_cost_files_audit_cleanly(self):
        z = FileSpec("z", 1, Fr(0))
        audit = audit_landlord([z, A, z, B, C, z], 2, 3, LandlordPolicy.fifo())
        assert audit.all_satisfied and audit.phi_nonnegative and audit.ratio_certified

    def test_adversarial_paging_trace_certifies_beyond_the_search_caps(self):
        # 120 requests over 47 items: the optimum is Belady's schedule, where
        # the exact search, which the full-subset oracle always runs, refuses
        items = build_sequence(Fr(1, 8), Fr(1, 4), 40).items
        seq = paging_sequence(items)
        with pytest.raises(InstanceTooLarge, match="over its budget"):
            offline.opt_cost_full_subsets(seq, 20)
        for policy in (LRU, LandlordPolicy.fifo(), LandlordPolicy.fwf()):
            for h, k in ((1, 6), (3, 8), (8, 16), (20, 20), (25, 40)):
                audit = audit_landlord(seq, h, k, policy)
                assert audit.all_satisfied and audit.phi_nonnegative
                assert audit.ratio_certified
                assert audit.opt_cost == belady_opt(items, h)

    def test_random_instances_all_policies(self):
        rng = random.Random(13)
        policies = [LRU, LandlordPolicy.fifo(), LandlordPolicy.fwf(),
                    LandlordPolicy.pessimal_flush(),
                    LandlordPolicy(Fr(1, 2), selector=LRU.selector)]
        for trial in range(60):
            pool = [FileSpec(f"f{i}", rng.randrange(1, 3),
                             Fr(rng.randrange(0, 9), rng.randrange(1, 3)))
                    for i in range(rng.randrange(2, 5))]
            seq = [pool[rng.randrange(len(pool))] for _ in range(rng.randrange(1, 14))]
            max_size = max(f.size for f in pool)
            h = rng.randrange(max_size, 6)
            k = rng.randrange(h, 7)
            audit = audit_landlord(seq, h, k, policies[trial % len(policies)])
            assert audit.all_satisfied and audit.phi_nonnegative
            assert audit.ratio_certified
            assert (k - h + 1) * audit.landlord_cost <= k * audit.opt_cost

    def test_phi_matches_potential_after_every_request(self):
        """Landlord served through ``request`` and the optimal cache replayed
        from the witness: after each request the audit's last ``phi_after``
        equals ``potential`` of the two caches, for every persona."""
        rng = random.Random(29)
        for trial in range(360):
            policy = ALL_PERSONAS[trial % len(ALL_PERSONAS)]
            pool = [FileSpec(f"f{i}", rng.randint(1, 3),
                             Fr(rng.randint(0, 9), rng.randint(1, 3)))
                    for i in range(rng.randint(2, 5))]
            seq = [rng.choice(pool) for _ in range(rng.randint(1, 14))]
            h = rng.randint(max(g.size for g in seq), 6)
            k = rng.randint(h, 7)
            last_phi = {step.request_index: step.phi_after
                        for step in audit_landlord(seq, h, k, policy).steps}
            evictions = dict(opt_cost(seq, h).witness_schedule)
            state, future, opt_files = new_cache(k), FutureView(seq), {}
            for i, g in enumerate(seq):
                for fid in evictions.get(i, ()):
                    del opt_files[fid]
                opt_files[g.id] = g
                request(state, g, policy, future)
                assert last_phi[i] == potential(state, list(opt_files.values()), h, k)

    @pytest.mark.parametrize("target", ["potential", "opt_cost"])
    def test_drift_raises_typed_error(self, monkeypatch, target):
        import cachelab.analysis as analysis_mod

        real = getattr(analysis_mod, target)
        if target == "potential":
            def skewed(*args):
                return real(*args) + 1
        else:
            def skewed(*args, **kwargs):
                return dataclasses.replace(real(*args, **kwargs), min_cost=Fr(-1))
        monkeypatch.setattr(analysis_mod, target, skewed)
        with pytest.raises(AuditDrift):
            audit_landlord([A, B, C], 2, 3, LRU)


class TestEvaluateLoose:
    def test_non_numeric_epsilon_or_c_is_a_typed_error(self):
        seq = paging_sequence("abab")
        alg = landlord_algorithm(LRU)
        for epsilon, c in ((None, 2), ("x", 2), (Fr(1, 2), None), (float("nan"), 2)):
            with pytest.raises(InvalidParams, match="rational number"):
                evaluate_loose(seq, 2, epsilon, c, alg)
        # floats, ints and Fractions are still converted exactly
        assert (evaluate_loose(seq, 2, 0.5, 2, alg)
                == evaluate_loose(seq, 2, Fr(1, 2), Fr(2), alg))

    def test_repeated_single_file_never_bad(self):
        seq = [G] * 9
        report = evaluate_loose(seq, 6, Fr(1, 100), Fr(2), landlord_algorithm(LRU))
        assert report.bad_ks == frozenset()
        assert report.bad_fraction == 0

    def test_epsilon_one_never_bad(self):
        rng = random.Random(3)
        pool = [FileSpec(f"f{i}", 1, Fr(rng.randrange(1, 9))) for i in range(6)]
        seq = [pool[rng.randrange(6)] for _ in range(18)]
        report = evaluate_loose(seq, 8, Fr(1), Fr(1, 1000), landlord_algorithm(LRU))
        assert report.bad_ks == frozenset()

    def test_inapplicable_sizes_are_flagged_and_excluded(self):
        seq = [A, C, A, C]  # sizes 2, so k=1 cannot serve them
        report = evaluate_loose(seq, 4, Fr(1, 2), Fr(3), landlord_algorithm(LRU))
        assert report.inapplicable_ks == frozenset({1})
        assert set(report.per_k) == {2, 3, 4}
        assert report.bad_fraction.denominator <= 3

    def test_supplied_opt_costs_take_precedence(self):
        seq = paging_sequence("abcab")
        fwf = lambda s, k: Fr(5)
        report = evaluate_loose(seq, 2, Fr(1, 100), Fr(1), fwf,
                                opt_costs={1: Fr(5), 2: Fr(4)})
        assert report.per_k[2].opt_cost == 4
        assert 2 in report.bad_ks  # 5 > max(1*4, 5/100)

    def test_paging_optimum_is_belady_at_any_length(self):
        rng = random.Random(5)
        items = [f"p{rng.randrange(15)}" for _ in range(60)]
        report = evaluate_loose(paging_sequence(items), 16, Fr(1, 10), Fr(2),
                                landlord_algorithm(LRU))
        assert {k: row.opt_cost for k, row in report.per_k.items()} == {
            k: belady_opt(items, k) for k in range(1, 17)}

    def test_sequence_is_validated_once(self, monkeypatch):
        """One check for every cache size, through the optima and the
        Landlord handle; each of them alone still checks its input."""
        calls = count_checks(monkeypatch)
        seq = [A, B, C, A, B, G, C, A, G, B, A, C]
        report = evaluate_loose(seq, 6, Fr(1, 10), Fr(2), landlord_algorithm(LRU))
        assert sorted(report.per_k) == [2, 3, 4, 5, 6]
        assert calls == [12]

        bad = [A, B, FileSpec("a", 2, Fr(5))]
        for call in (lambda: landlord_algorithm(LRU)(bad, 3), lambda: opt_cost(bad, 3),
                     lambda: evaluate_loose(bad, 3, Fr(1, 10), Fr(2), lambda s, k: Fr(0),
                                            opt_costs={2: Fr(0), 3: Fr(0)})):
            with pytest.raises(ConsistencyError):
                call()

    def test_general_sequence_keeps_the_search_caps(self):
        # the exact search's work budget, not the length, refuses a trace
        served = [A, B, C] * 8 + [G]  # 25 requests, not paging-shaped
        report = evaluate_loose(served, 3, Fr(1, 10), Fr(2), lambda s, k: Fr(0))
        assert sorted(report.per_k) == [2, 3]
        with pytest.raises(InstanceTooLarge, match="over its budget"):
            evaluate_loose(wide_trace(200), 6, Fr(1, 10), Fr(2), lambda s, k: Fr(0))

    def test_a_range_past_the_sweep_limit_is_refused_before_any_size(self):
        calls = []

        def alg(seq, k):
            calls.append(k)
            return Fr(0)
        for seq in ([A, B, C, A], paging_sequence("abcab")):
            for n in (2 ** 16 + 1, 10 ** 9, 10 ** 309):
                with pytest.raises(InstanceTooLarge, match=f"^range n={n} is past the limit"):
                    evaluate_loose(seq, n, Fr(1, 10), Fr(2), alg, opt_costs={})
        assert calls == []
        report = evaluate_loose(paging_sequence("abcab"), 2 ** 16, Fr(1, 10), Fr(2), alg)
        assert len(report.per_k) == 2 ** 16


class TestBoundFormulas:
    def test_deterministic_trivial_point(self):
        assert bound_c_deterministic(1, 1) == pytest.approx(math.e, rel=1e-15)

    def test_deterministic_oracle_value(self):
        # frozen from the 30-digit oracle below
        assert bound_c_deterministic(0.01, 0.1) == pytest.approx(152.36432261991836, rel=1e-13)
        with mpmath.workdps(30):
            oracle = (mpmath.e / mpmath.mpf("0.1")) * mpmath.log(mpmath.e / mpmath.mpf("0.01"))
            assert bound_c_deterministic(0.01, 0.1) == pytest.approx(float(oracle), rel=1e-13)

    def test_deterministic_linear_in_inverse_delta(self):
        c1 = bound_c_deterministic(Fr(1, 10), Fr(2, 5))
        c2 = bound_c_deterministic(Fr(1, 10), Fr(1, 5))
        assert c2 == pytest.approx(2 * c1, rel=1e-13)

    def test_deterministic_domain(self):
        for eps, delta in [(0, 0.5), (0.5, 0), (-1, 0.5), (0.5, 2)]:
            with pytest.raises(InvalidParams):
                bound_c_deterministic(eps, delta)

    def test_domain_is_checked_on_exact_values(self):
        tiny = Fr(1, 10 ** 400)  # in (0, 1], but 0.0 as a float
        for formula in (bound_c_deterministic, marking_bound_c,
                        lambda e, d: proof_b(e, d, 100),
                        lambda e, d: bound_c_technical(BoundQuery("ratio", 1.0), 100, e, d)):
            for eps, delta in ((tiny, Fr(1, 2)), (Fr(1, 2), tiny)):
                with pytest.raises(InvalidParams, match=f"= {tiny} is too small") as info:
                    formula(eps, delta)
                assert "0.0" not in str(info.value)
            # just above 1 as an exact value, 1.0 as a float
            with pytest.raises(InvalidParams, match=r"must lie in \(0, 1\]"):
                formula(1 + Fr(1, 10 ** 20), Fr(1, 2))

    def test_lower_bound_domain_is_checked_on_exact_values(self):
        tiny = Fr(1, 10 ** 400)
        with pytest.raises(InvalidParams, match=f"epsilon = {tiny} is too small"):
            lower_bound_c(tiny, Fr(1, 4))
        with pytest.raises(InvalidParams, match=r"delta must lie in \(0, 1/2\)"):
            lower_bound_c(Fr(1, 4), Fr(1, 2) + Fr(1, 10 ** 20))  # 0.5 as a float
        # a float, but 1/(2*epsilon) is not
        with pytest.raises(InvalidParams, match="overflows a float"):
            lower_bound_c(1e-310, Fr(1, 4))

    @pytest.mark.parametrize("alpha,beta", [
        (math.nan, 1), (1, math.nan), (math.inf, 1), (1, math.inf), (-1, 1), (1, -0.5)])
    def test_randomized_refuses_non_finite_or_negative_weights(self, alpha, beta):
        with pytest.raises(InvalidParams, match="finite and non-negative"):
            bound_c_randomized(alpha, beta, 0.5, 0.5)

    @pytest.mark.parametrize("n", [0, -5, True])
    def test_proof_b_needs_a_positive_range(self, n):
        with pytest.raises(InvalidParams, match="positive integer"):
            proof_b(0.1, 0.2, n)

    def test_a_range_past_a_float_is_refused(self):
        huge = 10 ** 309  # delta * huge raises OverflowError
        for formula in (proof_b, holds_trivially,
                        lambda e, d, n: bound_c_technical(BoundQuery("ratio", 1.0), n, e, d)):
            with pytest.raises(InvalidParams, match="too many for a float"):
                formula(0.1, 0.2, huge)
        assert proof_b(0.1, 0.2, 10 ** 308) > 0

    def test_randomized_beta_zero(self):
        assert bound_c_randomized(1, 0, 0.3, 0.7) == pytest.approx(math.e, rel=1e-15)

    def test_randomized_marking_point(self):
        # e + 2e ln 2, frozen from the oracle
        assert marking_bound_c(1, 1) == pytest.approx(6.486620599186486, rel=1e-13)
        assert MARKING_ALPHA == pytest.approx(1 + 2 * math.log(2), rel=1e-15)
        assert MARKING_BETA == 2.0

    def test_randomized_zero_when_log_term_vanishes(self):
        assert bound_c_randomized(0, 1, 1, 1) == pytest.approx(0, abs=1e-15)

    def test_lower_bound_values(self):
        assert lower_bound_c(Fr(1, 8), Fr(1, 4)) == pytest.approx(1.0, rel=1e-15)
        assert lower_bound_c(Fr(1, 2), Fr(1, 4)) == pytest.approx(0, abs=1e-15)
        assert lower_bound_c(Fr(1, 8), Fr(1, 8)) == pytest.approx(2.0, rel=1e-15)

    def test_lower_bound_domain(self):
        with pytest.raises(InvalidParams):
            lower_bound_c(1, 0.25)
        with pytest.raises(InvalidParams):
            lower_bound_c(0.25, 0.5)


class TestTechnicalBound:
    def test_matches_deterministic_under_substitution(self):
        for eps in (0.01, 0.1, 0.4, 0.9):
            for delta in (0.1, 0.3, 0.8):
                n = 2000
                b = proof_b(eps, delta, n)
                assert b > 0
                got = bound_c_technical(BoundQuery("ratio", b), n, eps, delta)
                assert got == pytest.approx(bound_c_deterministic(eps, delta), rel=1e-12)

    def test_matches_randomized_under_substitution(self):
        for alpha, beta in [(MARKING_ALPHA, MARKING_BETA), (1.0, 1.0), (0.5, 3.0)]:
            for eps, delta in [(0.05, 0.2), (0.3, 0.6)]:
                n = 5000
                b = proof_b(eps, delta, n)
                query = BoundQuery("log", b, alpha=alpha, beta=beta)
                got = bound_c_technical(query, n, eps, delta)
                want = bound_c_randomized(alpha, beta, eps, delta)
                assert got == pytest.approx(want, rel=1e-12)

    def test_exponent_factor_is_e_at_half_spacing(self):
        # epsilon = 1/e and delta*n = 2(b+1) make the epsilon power exactly e
        b = 3.0
        n = 100
        delta = 2 * (b + 1) / n
        eps = 1 / math.e
        got = bound_c_technical(BoundQuery("ratio", b), n, eps, delta)
        assert got == pytest.approx((n / (b + 1)) * math.e, rel=1e-12)

    def test_domain(self):
        with pytest.raises(InvalidParams):
            bound_c_technical(BoundQuery("ratio", -1.0), 100, 0.1, 0.5)
        with pytest.raises(InvalidParams):
            bound_c_technical(BoundQuery("ratio", 60.0), 100, 0.1, 0.5)
        # singular band: b in [delta*n - 1, delta*n)
        with pytest.raises(InvalidParams):
            bound_c_technical(BoundQuery("ratio", 49.5), 100, 0.1, 0.5)

    def test_trivial_case_detection(self):
        # delta*n below ln(e/epsilon) pushes b under zero: c >= n covers all k
        assert holds_trivially(0.1, 0.2, 10)
        assert not holds_trivially(0.1, 0.2, 1000)
        assert bound_c_deterministic(0.1, 0.2) >= 10


class TestLooseBoundEndToEnd:
    def test_landlord_bad_fraction_under_deterministic_c(self):
        rng = random.Random(8)
        for trial in range(10):
            pool = [FileSpec(f"f{i}", 1, Fr(rng.randrange(1, 10), rng.randrange(1, 3)))
                    for i in range(rng.randrange(3, 8))]
            seq = [pool[rng.randrange(len(pool))] for _ in range(rng.randrange(6, 18))]
            n = 8
            eps, delta = Fr(1, 10), Fr(1, 4)
            c = Fr(bound_c_deterministic(eps, delta))
            report = evaluate_loose(seq, n, eps, c, landlord_algorithm(LRU))
            assert report.bad_fraction < delta
