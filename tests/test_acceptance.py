"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The exhaustive halves
enumerate every sequence in their stated families; two lossless reductions
keep that feasible and are relied on throughout:

* paging fault counts are invariant under item relabeling, so paging families
  are enumerated in first-occurrence-canonical form only;
* an immediately repeated request is a forced, state-preserving hit for every
  policy and for the offline optimum alike, so repeat-free sequences cover
  all sequences.
"""

import math
import random
from fractions import Fraction as Fr

from cachelab import (
    EvictionGreediness,
    EvictionSelector,
    FileSpec,
    FutureView,
    LandlordPolicy,
    belady_opt,
    build_sequence,
    evaluate_loose,
    landlord_algorithm,
    lower_bound_c,
    marking_bound_c,
    measure_fault_rates,
    minimal_valid_n,
    new_cache,
    opt_cost,
    opt_cost_full_subsets,
    paging_sequence,
    request,
    run_trace,
    simulate_paging,
    validated,
    verify_structure,
)
from cachelab.analysis import (
    BoundQuery,
    MARKING_ALPHA,
    MARKING_BETA,
    audit_landlord,
    bound_c_deterministic,
    bound_c_randomized,
    bound_c_technical,
    proof_b,
)
from cachelab.offline import OptSearch

SEED = 20260809
KMAX = 6

# fixed pool for the exhaustive criterion-1/2 suite: sizes cover {1,2,3},
# costs cover {0,1,2,5}
POOL4 = (
    FileSpec("a", 1, Fr(5)),
    FileSpec("b", 2, Fr(2)),
    FileSpec("c", 3, Fr(1)),
    FileSpec("d", 1, Fr(0)),
)

LAMBDAS = (Fr(0), Fr(1, 2), Fr(1))

# the prefix-extensible personas (eviction depends only on the past)
INCREMENTAL_PERSONAS = tuple(
    LandlordPolicy(lam, selector, greediness)
    for lam in LAMBDAS
    for selector, greediness in (
        (EvictionSelector.FIFO_ORDER, EvictionGreediness.EVICT_ALL_ZERO),
        (EvictionSelector.LRU_ORDER, EvictionGreediness.EVICT_UNTIL_ROOM),
        (EvictionSelector.FIFO_ORDER, EvictionGreediness.EVICT_UNTIL_ROOM),
    )
)
PESSIMAL_PERSONAS = tuple(
    LandlordPolicy(lam, EvictionSelector.PESSIMAL_NEXT_REQUEST,
                   EvictionGreediness.EVICT_UNTIL_ROOM)
    for lam in LAMBDAS
)
ALL_PERSONAS = INCREMENTAL_PERSONAS + PESSIMAL_PERSONAS


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def run_pessimal(seq, k, policy):
    """Total cost of a pessimal-selector run (future recomputed per call)."""
    future = FutureView(seq)
    state = new_cache(k)
    total = 0
    for g in seq:
        total += request(state, g, policy, future).retrieval_cost_paid.numerator
    return total


def iter_pool4_sequences():
    """Every sequence over POOL4 of length 1..8, depth-first."""
    path = []

    def walk():
        for g in POOL4:
            path.append(g)
            yield tuple(path)
            if len(path) < 8:
                yield from walk()
            path.pop()

    yield from walk()


def test_criterion_1_competitive_inequality_exact():
    """Landlord cost <= (k/(k-h+1)) * opt(h), exactly, across the suite."""
    violations = []
    checks = 0

    # --- exhaustive half: prefix-shared enumeration ---------------------
    n_inc = len(INCREMENTAL_PERSONAS)

    def check_node(seq, maxsize, costs, opt_mins, pessimal_costs):
        nonlocal checks
        for h in range(maxsize, KMAX + 1):
            opt_h = opt_mins[h]
            for k in range(h, KMAX + 1):
                for pi in range(n_inc):
                    if costs[(pi, k)] * (k - h + 1) > k * opt_h:
                        violations.append((seq, h, k, pi, "incremental"))
                for li in range(len(PESSIMAL_PERSONAS)):
                    if pessimal_costs[(li, k)] * (k - h + 1) > k * opt_h:
                        violations.append((seq, h, k, li, "pessimal"))
                checks += n_inc + len(PESSIMAL_PERSONAS)

    def walk(path, states, opts, maxsize):
        for g in POOL4:
            path.append(g)
            size = max(maxsize, g.size)
            nstates = {}
            costs = {}
            for (pi, k), entry in states.items():
                if entry is None or g.size > k:
                    nstates[(pi, k)] = None
                    continue
                state, cost = entry
                state = state.clone()
                cost += request(state, g, INCREMENTAL_PERSONAS[pi],
                                None).retrieval_cost_paid.numerator
                nstates[(pi, k)] = (state, cost)
                costs[(pi, k)] = cost
            nopts = {}
            opt_mins = {}
            for h, search in opts.items():
                if search is None or g.size > h:
                    nopts[h] = None
                    continue
                search = search.clone()
                search.advance(g, cost_value=g.cost.numerator)
                nopts[h] = search
                opt_mins[h] = search.min_cost()
            pessimal_costs = {}
            for li, policy in enumerate(PESSIMAL_PERSONAS):
                for k in range(size, KMAX + 1):
                    pessimal_costs[(li, k)] = run_pessimal(path, k, policy)
            check_node(tuple(path), size, costs, opt_mins, pessimal_costs)
            if len(path) < 8:
                walk(path, nstates, nopts, size)
            path.pop()

    root_states = {(pi, k): (new_cache(k), 0)
                   for pi in range(n_inc) for k in range(1, KMAX + 1)}
    root_opts = {h: OptSearch(h) for h in range(1, KMAX + 1)}
    walk([], root_states, root_opts, 1)
    exhaustive_checks = checks

    # --- random half: 1000 seeded instances, both greediness modes ------
    rng = random.Random(SEED)
    cost_choices = [Fr(0), Fr(1), Fr(2), Fr(5), Fr(7, 2), Fr(1, 3)]
    random_personas = tuple(
        LandlordPolicy(lam, selector, greediness)
        for lam in LAMBDAS
        for selector in EvictionSelector
        for greediness in EvictionGreediness
        if not (selector is EvictionSelector.PESSIMAL_NEXT_REQUEST
                and greediness is EvictionGreediness.EVICT_ALL_ZERO)
    )
    for _ in range(1000):
        pool = [FileSpec(f"f{i}", rng.randint(1, 3), rng.choice(cost_choices))
                for i in range(rng.randint(2, 5))]
        seq = validated([rng.choice(pool) for _ in range(rng.randint(4, 12))])
        maxsize = max(g.size for g in seq)
        opt_h = {h: opt_cost(seq, h).min_cost for h in range(maxsize, KMAX + 1)}
        for policy in random_personas:
            for k in range(maxsize, KMAX + 1):
                cost = run_trace(seq, k, policy).total_cost
                for h in range(maxsize, k + 1):
                    checks += 1
                    if cost * (k - h + 1) > k * opt_h[h]:
                        violations.append((tuple(seq), h, k, policy, "random"))

    report(1, not violations,
           f"{checks} exact inequality checks ({exhaustive_checks} exhaustive, "
           f"{checks - exhaustive_checks} random), {len(violations)} violations")


def test_criterion_2_potential_audit():
    """Every audited event satisfies its bound; phi stays non-negative."""
    bad_steps = 0
    audits = 0
    phi_failures = 0

    def run_audit(seq, h, k, policy):
        nonlocal bad_steps, audits, phi_failures
        audit = audit_landlord(seq, h, k, policy)
        audits += 1
        bad_steps += sum(1 for s in audit.steps if not s.satisfied)
        if not audit.phi_nonnegative:
            phi_failures += 1

    for index, seq in enumerate(iter_pool4_sequences()):
        maxsize = max(g.size for g in seq)
        pairs = [(h, k) for h in range(maxsize, KMAX + 1)
                 for k in range(h, KMAX + 1)]
        if len(seq) > 6:
            # deterministic rotation keeps the long tail tractable
            pairs = [pairs[index % len(pairs)],
                     pairs[(index * 7 + 3) % len(pairs)]]
        for h, k in pairs:
            policy = ALL_PERSONAS[(index + h + k) % len(ALL_PERSONAS)]
            run_audit(seq, h, k, policy)

    rng = random.Random(SEED + 2)
    cost_choices = [Fr(0), Fr(1), Fr(2), Fr(5), Fr(7, 2), Fr(1, 3)]
    for index in range(1000):
        pool = [FileSpec(f"f{i}", rng.randint(1, 3), rng.choice(cost_choices))
                for i in range(rng.randint(2, 5))]
        seq = [rng.choice(pool) for _ in range(rng.randint(4, 12))]
        maxsize = max(g.size for g in seq)
        pairs = [(h, k) for h in range(maxsize, KMAX + 1) for k in range(h, KMAX + 1)]
        h, k = pairs[index % len(pairs)]
        run_audit(seq, h, k, ALL_PERSONAS[index % len(ALL_PERSONAS)])

    report(2, bad_steps == 0 and phi_failures == 0,
           f"{audits} audits, {bad_steps} unsatisfied steps, "
           f"{phi_failures} negative-phi audits")


def test_criterion_3_specialization_equivalence():
    """Engine with the classic settings = direct LRU/FIFO/FWF, positionwise."""
    rng = random.Random(SEED + 3)
    personas = (("lru", LandlordPolicy.lru()),
                ("fifo", LandlordPolicy.fifo()),
                ("fwf", LandlordPolicy.fwf()))
    mismatches = 0
    comparisons = 0
    for _ in range(1000):
        n_items = rng.randint(1, 50)
        length = rng.randint(1, 500)
        items = [str(rng.randrange(n_items)) for _ in range(length)]
        seq = paging_sequence(items)
        for k in range(1, 21):
            for name, policy in personas:
                comparisons += 1
                _, positions = simulate_paging(items, k, name)
                if run_trace(seq, k, policy).fault_positions != positions:
                    mismatches += 1
    report(3, mismatches == 0,
           f"{comparisons} trace/k/policy fault-position comparisons, "
           f"{mismatches} mismatches")


def _bits(mask):
    out = []
    b = 1
    while b <= mask:
        if mask & b:
            out.append(b)
        b <<= 1
    return out


_BITS = [_bits(m) for m in range(64)]


def _advance_paging_min_dp(frontier, k, bit):
    """One request of the minimal-eviction search, bitmask form (unit sizes:
    the inclusion-minimal room-making subsets are exactly the singletons)."""
    new = {}
    for mask, cost in frontier.items():
        if mask & bit:
            if cost < new.get(mask, 1 << 30):
                new[mask] = cost
        elif mask.bit_count() < k:
            m2 = mask | bit
            if cost + 1 < new.get(m2, 1 << 30):
                new[m2] = cost + 1
        else:
            for b in _BITS[mask]:
                m2 = (mask ^ b) | bit
                if cost + 1 < new.get(m2, 1 << 30):
                    new[m2] = cost + 1
    return new


def _searched_faults(items, k):
    """The minimal-eviction search's fault count on a paging trace, driven
    directly: on paging input ``opt_cost`` takes Belady's schedule."""
    search = OptSearch(k)
    for g in paging_sequence(items):
        search.advance(g, cost_value=1)
    return search.min_cost()


def test_criterion_4_oracle_agreement():
    """belady == the memoized minimal-eviction search on paging, exhaustively;
    minimal == full-subset search on file caching, exhaustively."""
    # --- 4a: paging, <= 6 items, length <= 12, k in 1..4 ------------------
    mismatches = 0
    instances = 0
    library_crosschecks = 0
    seq = []

    def walk_paging(frontiers, distinct):
        nonlocal mismatches, instances, library_crosschecks
        length = len(seq)
        for sym in range(min(distinct + 1, 6)):
            if length and seq[-1] == sym:
                continue  # repeats are forced hits for every oracle
            seq.append(sym)
            ndistinct = max(distinct, sym + 1)
            bit = 1 << sym
            nfrontiers = [_advance_paging_min_dp(f, k + 1, bit)
                          for k, f in enumerate(frontiers)]
            instances += 1
            for k, frontier in enumerate(nfrontiers, start=1):
                dp = min(frontier.values())
                if belady_opt(seq, k) != dp:
                    mismatches += 1
            if ndistinct <= 5 and len(seq) <= 9 and instances % 59 == 0:
                # periodic cross-check of the bitmask transcription against
                # the library search proper
                for k, frontier in enumerate(nfrontiers, start=1):
                    library_crosschecks += 1
                    assert _searched_faults(seq, k) == min(frontier.values())
            if len(seq) < 12:
                walk_paging(nfrontiers, ndistinct)
            seq.pop()

    walk_paging([{0: 0} for _ in range(4)], 0)
    paging_instances = instances

    # random in-range spot check: library belady vs library search
    rng = random.Random(SEED + 4)
    for _ in range(500):
        items = [str(rng.randrange(6)) for _ in range(rng.randint(10, 12))]
        k = rng.randint(1, 4)
        library_crosschecks += 1
        if belady_opt(items, k) != _searched_faults(items, k):
            mismatches += 1

    # --- 4b: file caching, <= 5 files, length <= 9, minimal vs full -------
    pool5 = (FileSpec("a", 1, Fr(2)), FileSpec("b", 2, Fr(5)),
             FileSpec("c", 3, Fr(3)), FileSpec("d", 1, Fr(0)),
             FileSpec("e", 2, Fr(7)))
    sizes = [g.size for g in pool5]
    costs = [int(g.cost) for g in pool5]
    ks = (3, 4, 5)

    def room_subsets(mask, fid, k, minimal):
        need = sizes[fid] - (k - sum(sizes[i] for i in range(5) if mask >> i & 1))
        if need <= 0:
            return ((0, 0),) if minimal else tuple(
                (ev, sum(sizes[i] for i in range(5) if ev >> i & 1))
                for ev in range(64) if ev & mask == ev)
        out = []
        for ev in range(1, 64):
            if ev & mask != ev:
                continue
            freed = sum(sizes[i] for i in range(5) if ev >> i & 1)
            if freed < need:
                continue
            if minimal and any(freed - sizes[i] >= need
                               for i in range(5) if ev >> i & 1):
                continue
            out.append((ev, freed))
        return tuple(out)

    transitions = {}
    for mask in range(32):
        for fid in range(5):
            if mask >> fid & 1:
                continue
            for k in ks:
                if sum(sizes[i] for i in range(5) if mask >> i & 1) > k:
                    continue
                transitions[(mask, fid, k, True)] = room_subsets(mask, fid, k, True)
                transitions[(mask, fid, k, False)] = room_subsets(mask, fid, k, False)

    def advance_file_dp(frontier, fid, k, minimal):
        bit = 1 << fid
        new = {}
        for mask, cost in frontier.items():
            if mask & bit:
                if cost < new.get(mask, 1 << 30):
                    new[mask] = cost
                continue
            for ev, _freed in transitions[(mask, fid, k, minimal)]:
                m2 = (mask ^ ev) | bit
                c2 = cost + costs[fid]
                if c2 < new.get(m2, 1 << 30):
                    new[m2] = c2
        return new

    file_instances = 0
    path5 = []

    def walk_files(min_fronts, full_fronts, last):
        nonlocal mismatches, file_instances, library_crosschecks
        for fid in range(5):
            if fid == last:
                continue
            path5.append(fid)
            nmin = {k: advance_file_dp(min_fronts[k], fid, k, True) for k in ks}
            nfull = {k: advance_file_dp(full_fronts[k], fid, k, False) for k in ks}
            file_instances += 1
            for k in ks:
                if min(nmin[k].values()) != min(nfull[k].values()):
                    mismatches += 1
            if file_instances % 997 == 0:
                ref = [pool5[i] for i in path5]
                for k in ks:
                    library_crosschecks += 1
                    got = opt_cost(ref, k).min_cost
                    assert got == min(nmin[k].values())
                    assert opt_cost_full_subsets(ref, k) == min(nfull[k].values())
            if len(path5) < 9:
                walk_files(nmin, nfull, fid)
            path5.pop()

    walk_files({k: {0: 0} for k in ks}, {k: {0: 0} for k in ks}, -1)

    report(4, mismatches == 0,
           f"{paging_instances} canonical paging instances x k<=4 (belady vs "
           f"minimal search), {file_instances} file instances x k in {ks} "
           f"(minimal vs full subsets), {library_crosschecks} library "
           f"cross-checks, {mismatches} mismatches")


def _weighted_paging_traces(rng, count, unit_costs=False):
    traces = []
    for _ in range(count):
        n_files = rng.randint(3, 10)
        pool = [FileSpec(f"f{i}", 1,
                         Fr(1) if unit_costs
                         else Fr(rng.randint(1, 12), rng.randint(1, 4)))
                for i in range(n_files)]
        seq = [rng.choice(pool) for _ in range(rng.randint(8, 20))]
        traces.append(seq)
    return traces


def test_criterion_5_loose_bound_deterministic():
    """Landlord's bad fraction stays below delta at c = (e/delta)ln(e/eps)."""
    rng = random.Random(SEED + 5)
    traces = _weighted_paging_traces(rng, 200)
    n = 10
    combos = [(Fr(1, 10), Fr(1, 5)), (Fr(1, 100), Fr(1, 10)), (Fr(1, 2), Fr(1, 2))]
    policy = LandlordPolicy.lru()
    failures = []
    for ti, seq in enumerate(traces):
        opt_by_k = {k: opt_cost(seq, k).min_cost for k in range(1, n + 1)}
        for eps, delta in combos:
            c = Fr(bound_c_deterministic(eps, delta))
            rep = evaluate_loose(seq, n, eps, c, landlord_algorithm(policy),
                                 opt_costs=opt_by_k)
            if not rep.bad_fraction < delta:
                failures.append((ti, eps, delta, rep.bad_fraction))
    report(5, not failures,
           f"{len(traces) * len(combos)} (trace, eps, delta) sweeps with exact "
           f"optima, {len(failures)} with bad fraction >= delta")


def test_criterion_6_lower_bound_construction():
    """At (1/8, 1/4) and the smallest valid n, flush-when-full is bad on more
    than delta*n cache sizes; the pessimal one-at-a-time variant matches."""
    eps, delta = Fr(1, 8), Fr(1, 4)
    c = lower_bound_c(eps, delta)
    n = minimal_valid_n(eps, delta)
    s = build_sequence(eps, delta, n)
    problems = []

    if c != 1.0:
        problems.append(f"c = {c}, expected 1 by the formula")
    if n != 6:
        problems.append(f"smallest n = {n}, expected 6")

    structure = verify_structure(s)
    if not structure.ok:
        problems.append(f"structure violations: {structure.violations}")

    rates = measure_fault_rates(s)
    for row in rates.per_k:
        if not row.fwf_rate > eps:
            problems.append(f"FWF rate {row.fwf_rate} at k={row.k} not above eps")
        if not row.ratio > c:
            problems.append(f"FWF/LRU ratio {row.ratio} at k={row.k} not above c")

    items = list(s.items)
    seq = paging_sequence(items)
    total_cost = Fr(len(items))
    lru_costs = {k: Fr(simulate_paging(items, k, "lru")[0]) for k in range(1, n + 1)}

    def fwf_cost(_seq, k):
        return Fr(simulate_paging(items, k, "fwf")[0])

    # LRU upper-bounds the optimum, so badness against it implies badness
    # against the true optimum
    rep = evaluate_loose(seq, n, eps, Fr(c), fwf_cost, opt_costs=lru_costs)
    if not len(rep.bad_ks) > delta * n:
        problems.append(f"only {len(rep.bad_ks)} bad sizes, need > {delta * n}")
    if not set(range(s.k0, n + 1)) <= rep.bad_ks:
        problems.append(f"range [k0, n] not fully bad: {sorted(rep.bad_ks)}")

    # pessimal one-at-a-time flusher: same fault positions, so same verdicts
    pessimal = LandlordPolicy.pessimal_flush()
    for k in range(s.k0, n + 1):
        run = run_trace(seq, k, pessimal)
        if run.fault_positions != simulate_paging(items, k, "fwf")[1]:
            problems.append(f"pessimal variant diverges from FWF at k={k}")

    def pessimal_cost(_seq, k):
        return run_trace(seq, k, pessimal).total_cost

    rep2 = evaluate_loose(seq, n, eps, Fr(c), pessimal_cost, opt_costs=lru_costs)
    if not len(rep2.bad_ks) > delta * n:
        problems.append(f"pessimal variant: only {len(rep2.bad_ks)} bad sizes")

    report(6, not problems,
           f"n={n}, levels={s.k_levels}, |s|={len(items)}, "
           f"bad sizes={sorted(rep.bad_ks)} (fwf) / {sorted(rep2.bad_ks)} "
           f"(pessimal); {'; '.join(problems) if problems else 'all thresholds hold'}")


def test_criterion_7_fault_rate_formulas_exact():
    """Measured rates match the closed forms as exact rationals per level."""
    problems = []
    for eps, delta, n in [(Fr(1, 8), Fr(1, 4), 6), (Fr(1, 32), Fr(1, 4), 40)]:
        s = build_sequence(eps, delta, n)
        rates = measure_fault_rates(s)
        if not rates.levels:
            problems.append(f"no levels with k_i <= n at n={n}")
        for row in rates.levels:
            if row.fwf_rate != row.expected_fwf_rate:
                problems.append(
                    f"FWF rate {row.fwf_rate} != {row.expected_fwf_rate} "
                    f"at level {row.level} (n={n})")
            if row.lru_recurrent_rate != row.expected_lru_rate:
                problems.append(
                    f"LRU recurrent rate {row.lru_recurrent_rate} != "
                    f"{row.expected_lru_rate} at level {row.level} (n={n})")
    report(7, not problems,
           "FWF whole-trace and LRU recurrent rates equal k_i/(k0*2^i) and "
           f"(k_(i+1)-k_i)/(k0*2^i) exactly on both instances"
           + (f"; {problems}" if problems else ""))


def test_criterion_8_bound_formula_consistency():
    """The technical bound reproduces both closed forms to 12 digits."""
    eps_grid = [0.01, 0.02, 0.04, 0.08, 0.15, 0.25, 0.4, 0.55, 0.7, 0.9]
    delta_grid = [0.05 + 0.1 * i for i in range(10)]
    worst_ratio = 0.0
    worst_log = 0.0
    points = 0
    for eps in eps_grid:
        for delta in delta_grid:
            n = math.ceil(3 * math.log(math.e / eps) / delta) + 10
            b = proof_b(eps, delta, n)
            assert b > 0
            points += 1
            got = bound_c_technical(BoundQuery("ratio", b), n, eps, delta)
            want = bound_c_deterministic(eps, delta)
            worst_ratio = max(worst_ratio, abs(got - want) / want)
            got = bound_c_technical(
                BoundQuery("log", b, alpha=MARKING_ALPHA, beta=MARKING_BETA),
                n, eps, delta)
            want = bound_c_randomized(MARKING_ALPHA, MARKING_BETA, eps, delta)
            worst_log = max(worst_log, abs(got - want) / want)
    ok = worst_ratio < 1e-12 and worst_log < 1e-12
    report(8, ok,
           f"{points} grid points; worst relative gaps "
           f"{worst_ratio:.2e} (ratio form), {worst_log:.2e} (log form)")


def test_criterion_9_marking_bound_empirical():
    """Marking's bad fraction stays below delta in >= 95% of cells."""
    rng = random.Random(SEED + 9)
    traces = _weighted_paging_traces(rng, 200, unit_costs=True)
    n = 10
    n_seeds = 50
    combos = [(Fr(1, 10), Fr(1, 5)), (Fr(1, 100), Fr(1, 10)), (Fr(1, 2), Fr(1, 2))]
    failing_cells = []
    total_cells = 0
    for ti, seq in enumerate(traces):
        items = [g.id for g in seq]
        total = Fr(len(items))
        opt_by_k = {k: Fr(belady_opt(items, k)) for k in range(1, n + 1)}
        mean_by_k = {}
        for k in range(1, n + 1):
            faults = sum(simulate_paging(items, k, "marking", seed=SEED + s)[0]
                         for s in range(n_seeds))
            mean_by_k[k] = Fr(faults, n_seeds)
        for eps, delta in combos:
            total_cells += 1
            c = Fr(marking_bound_c(eps, delta))
            bad = sum(1 for k in range(1, n + 1)
                      if mean_by_k[k] > max(c * opt_by_k[k], eps * total))
            if not Fr(bad, n) < delta:
                failing_cells.append((ti, float(eps), float(delta), bad))
    passing = total_cells - len(failing_cells)
    ok = passing >= math.ceil(0.95 * total_cells)
    for cell in failing_cells:
        print(f"    marking cell over delta: trace={cell[0]} eps={cell[1]} "
              f"delta={cell[2]} bad={cell[3]}/{10}")
    report(9, ok,
           f"{passing}/{total_cells} cells with bad fraction below delta "
           f"(threshold 95%); expected-cost estimate = mean over {n_seeds} seeds")
