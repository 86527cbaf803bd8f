"""Differential tests: the rent-clock engine against the rent-scan reference.

``landlord_reference`` is the engine before the rent clock and heap; it
serves a request as a stream of events, which ``reference_request`` folds
into a ``RequestOutcome``.  Its pessimal selector reads its own
``FutureIndex``, so the two engines share no view of the future.  Both
engines serve the same requests in lockstep; after every request they must
have returned the same outcome (hit or miss, each rent round's delta, its
zeroed files and its evictions, all in order) and must report the same
credits and residents.  A round's zeroed files are a tuple in insertion
order, and rounds compare as ordered tuples.
"""

import math
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import assume, given, settings, strategies as st

import landlord_reference as reference
from cachelab import (
    EvictionGreediness,
    EvictionSelector,
    FileSpec,
    FutureView,
    LandlordPolicy,
    RentRound,
    RequestOutcome,
    RunReport,
    new_cache,
    paging_sequence,
    request,
    run_trace,
    save_trace,
)
from cachelab import analysis, cli, core
from test_acceptance import ALL_PERSONAS, INCREMENTAL_PERSONAS, KMAX, LAMBDAS, POOL4, SEED


def assert_same_state(new, ref):
    assert new.free_space == ref.free_space
    # same residents, same credits, same insertion order
    assert list(new.residents().items()) == list(ref.residents().items())
    # an int equals the Fraction of the same value, so check the type too
    assert all(type(credit) is Fr for _, credit in new.residents().values())


def reference_request(ref, g, policy, future=None):
    """``request`` on the reference engine: its events folded into an outcome."""
    rounds = []
    for event in reference.serve_events(ref, g, policy, future):
        if event[0] == "refresh":
            return RequestOutcome(True, Fr(0), ())
        if event[0] == "rent":
            rounds.append((event[1], event[2], []))
        elif event[0] == "evict":
            rounds[-1][2].append(event[1])
    return RequestOutcome(False, g.cost, tuple(
        RentRound(delta, zeroed, tuple(evicted)) for delta, zeroed, evicted in rounds))


def views(seq):
    """Each engine's own view of ``seq``'s future, for the pessimal selector."""
    return FutureView(seq), reference.FutureIndex(seq)


def serve_both(new, ref, g, policy, both=(None, None)):
    """Serve ``g`` on both engines; compare the outcomes and the states."""
    # the residents in insertion order, and those at zero credit
    order = list(ref.residents())
    zero = [fid for fid in order if not ref.credit_of(fid)]
    got = request(new, g, policy, both[0])
    assert got == reference_request(ref, g, policy, both[1])
    for rnd in got.rent_rounds:
        assert type(rnd.delta) is Fr and type(rnd.zeroed) is tuple
        if rnd.delta:
            # a charging round comes only when no resident is at zero
            assert not zero and rnd.zeroed
            zero = [fid for fid in order if fid in rnd.zeroed]
        # a delta=0 round lists every zero-credit resident; either kind
        # lists its files in insertion order
        assert list(rnd.zeroed) == zero
        assert set(rnd.evicted) <= set(zero)
        zero = [fid for fid in zero if fid not in rnd.evicted]
    assert_same_state(new, ref)
    return got


def lockstep(seq, k, policy, clone_at=None):
    """Serve ``seq`` on both engines, comparing after every request.

    At request ``clone_at`` both runs continue on clones; the originals must
    stay as they were.  Returns both final states.
    """
    new, ref = new_cache(k), reference.CacheState(k)
    both = views(seq)
    ids = {g.id for g in seq}
    frozen = None
    for i, g in enumerate(seq):
        if i == clone_at:
            frozen = (new, list(new.residents().items()))
            new, ref = new.clone(), ref.clone()
        serve_both(new, ref, g, policy, both)
        for fid in ids:
            assert new.credit_of(fid) == ref.credit_of(fid)
            assert type(new.credit_of(fid)) is Fr
    if frozen is not None:
        assert list(frozen[0].residents().items()) == frozen[1]
    return new, ref


@st.composite
def instances(draw):
    pool = [FileSpec(f"f{i}", draw(st.integers(1, 3)),
                     Fr(draw(st.integers(0, 12)), draw(st.integers(1, 4))))
            for i in range(draw(st.integers(2, 6)))]
    k = draw(st.integers(max(f.size for f in pool), 8))
    seq = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    lam = draw(st.one_of(
        st.sampled_from([Fr(0), Fr(1, 2), Fr(1)]),
        st.fractions(min_value=0, max_value=1, max_denominator=7)))
    policy = LandlordPolicy(lam, draw(st.sampled_from(list(EvictionSelector))),
                            draw(st.sampled_from(list(EvictionGreediness))))
    split = draw(st.integers(0, len(seq)))
    return seq, k, policy, split


@settings(max_examples=400, deadline=None, derandomize=True)
@given(instances())
def test_engines_agree_after_every_request(instance):
    seq, k, policy, split = instance
    lockstep(seq, k, policy, clone_at=split)


@st.composite
def rescale_instances(draw):
    """Runs whose scale must grow after rent has been charged.

    The head requests every early file once: sizes 1, 2 and 4, positive
    costs in halves, more total size than k.  Its overflow charges rent,
    since no resident is at zero yet, and the scale stays a divisor of 8.
    Then comes a late file of size 3, 5, 6 or 7, an odd factor the scale
    lacks; later files bring more sizes and cost denominators.
    """
    early = [FileSpec(f"e{i}", draw(st.sampled_from([1, 2, 4])),
                      Fr(draw(st.integers(1, 12)), draw(st.sampled_from([1, 2]))))
             for i in range(draw(st.integers(5, 7)))]
    k = draw(st.integers(4, sum(f.size for f in early) - 1))
    late = [FileSpec("n0", draw(st.sampled_from([s for s in (3, 5, 6, 7) if s <= k])),
                     Fr(draw(st.integers(0, 12)), draw(st.integers(1, 7))))]
    late += [FileSpec(f"n{i}", draw(st.integers(1, k)),
                      Fr(draw(st.integers(0, 12)), draw(st.integers(1, 7))))
             for i in range(1, draw(st.integers(1, 3)))]
    head = early + draw(st.lists(st.sampled_from(early), max_size=10))
    tail = draw(st.lists(st.sampled_from(early + late), max_size=25))
    lam = draw(st.one_of(
        st.sampled_from([Fr(0), Fr(1, 2), Fr(1)]),
        st.fractions(min_value=0, max_value=1, max_denominator=9)))
    policy = LandlordPolicy(lam, draw(st.sampled_from(list(EvictionSelector))),
                            draw(st.sampled_from(list(EvictionGreediness))))
    return head + [late[0]] + tail, k, policy, len(head)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rescale_instances())
def test_rescale_mid_run_matches_reference(instance):
    """Lockstep through a rescale: rent is charged before the late file
    arrives, a clone is taken just before it, and the original and the
    clone both serve the rest against their own reference engines."""
    seq, k, policy, late_at = instance
    new, ref = new_cache(k), reference.CacheState(k)
    both = views(seq)
    charged = False
    for g in seq[:late_at]:
        charged |= any(rnd.delta for rnd in serve_both(new, ref, g, policy, both).rent_rounds)
    assert charged
    runs = [(new, ref), (new.clone(), ref.clone())]
    for g in seq[late_at:]:
        for new, ref in runs:
            serve_both(new, ref, g, policy, both)
    for new, ref in runs:
        for fid in {g.id for g in seq}:
            assert new.credit_of(fid) == ref.credit_of(fid)
            assert type(new.credit_of(fid)) is Fr


@st.composite
def hit_streak_instances(draw):
    """Runs in which long hit streaks follow rent rounds.

    Each segment requests the whole pool, whose total size exceeds k, so
    its misses charge rent; then each of a few residents is hit 6 to 15
    times in a row, with no miss and so no rent in between.  Residents that
    paid rent are preferred, because every hit refreshes their credit by
    lambda = p/q and multiplies its denominator.  The reference engine
    tells which files are resident; the pessimal selector is left out,
    because its evictions depend on requests not drawn yet.
    """
    pool = [FileSpec(f"f{i}", draw(st.integers(1, 3)),
                     Fr(draw(st.integers(1, 12)), draw(st.integers(1, 4))))
            for i in range(draw(st.integers(3, 6)))]
    k = draw(st.integers(max(f.size for f in pool), sum(f.size for f in pool) - 1))
    lam = draw(st.one_of(
        st.sampled_from([Fr(1, 2), Fr(1, 3)]),
        st.fractions(min_value=0, max_value=1, max_denominator=13).filter(
            lambda f: f.denominator > 1)))
    selectors = [s for s in EvictionSelector if s is not EvictionSelector.PESSIMAL_NEXT_REQUEST]
    policy = LandlordPolicy(lam, draw(st.sampled_from(selectors)),
                            draw(st.sampled_from(list(EvictionGreediness))))
    seq, hits = [], []
    ref = reference.CacheState(k)
    for _ in range(draw(st.integers(1, 3))):
        for g in draw(st.permutations(pool)):
            seq.append(g)
            reference_request(ref, g, policy)
        residents = [spec for spec, _ in ref.residents().values()]
        paid = [spec for spec in residents if ref.credit_of(spec.id) != spec.cost]
        for g in draw(st.lists(st.sampled_from(paid or residents), min_size=1, max_size=3)):
            for _ in range(draw(st.integers(6, 15))):
                hits.append(len(seq))
                seq.append(g)
                reference_request(ref, g, policy)
    return seq, k, policy, hits


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hit_streak_instances())
def test_hit_streaks_match_reference(instance):
    """Lockstep through long hit streaks at lambda not in {0, 1}, whose
    refreshes grow the credits' denominators."""
    seq, k, policy, hits = instance
    lockstep(seq, k, policy)
    outcomes = run_trace(seq, k, policy).outcomes
    assert all(outcomes[i].was_hit for i in hits)


@st.composite
def fractional_key_instances(draw):
    """Runs whose rent rounds reach keys off the engine's insertion lattice.

    lambda = p/q with 1 <= p < q <= 13, so a hit on a resident that has
    paid rent may leave its credit off the lattice of ``q' * size`` (q' a
    cost denominator) that the files' insertions set; files of size 1 to 3
    are requested often enough, with k below their total size, for rounds
    to reach such a credit's key in most runs.
    """
    q = draw(st.integers(2, 13))
    lam = Fr(draw(st.integers(1, q - 1)), q)
    pool = [FileSpec(f"f{i}", draw(st.integers(1, 3)),
                     Fr(draw(st.integers(1, 12)), draw(st.integers(1, 4))))
            for i in range(draw(st.integers(3, 5)))]
    # a cache a little too small for the pool keeps residents that paid rent
    total = sum(f.size for f in pool)
    k = draw(st.integers(max(max(f.size for f in pool), total - 3), total - 1))
    # every file once, then the first two thrice as often as the others, so
    # residents that paid rent are hit
    seq = draw(st.permutations(pool)) + draw(
        st.lists(st.sampled_from(pool[:2] * 3 + pool[2:]), min_size=20, max_size=40))
    policy = LandlordPolicy(lam, draw(st.sampled_from(list(EvictionSelector))),
                            draw(st.sampled_from(list(EvictionGreediness))))
    return seq, k, policy


def off_lattice(outcome, unit):
    """Whether a round of ``outcome`` moved the clock by a step that is not a
    multiple of 1/``unit``."""
    return any(unit % rnd.delta.denominator for rnd in outcome.rent_rounds)


def first_off_lattice(seq, k, policy):
    """The index of the first request, on the reference engine, with a round
    off the lattice of the files served before it; None if there is none."""
    ref, future = reference.CacheState(k), reference.FutureIndex(seq)
    unit = 1
    for i, g in enumerate(seq):
        if off_lattice(reference_request(ref, g, policy, future), unit):
            return i
        unit = math.lcm(unit, g.cost.denominator * g.size)
    return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fractional_key_instances())
def test_rounds_off_the_insertion_lattice_match_reference(instance):
    """Lockstep through the first round that reaches a key off the lattice,
    where the engine grows its scale by the key's denominator: a clone is
    taken just before that request, and the original and the clone both
    serve the rest against their own reference engines."""
    seq, k, policy = instance
    at = first_off_lattice(seq, k, policy)
    assume(at is not None)
    new, ref = new_cache(k), reference.CacheState(k)
    both = views(seq)
    for g in seq[:at]:
        serve_both(new, ref, g, policy, both)
    unit = math.lcm(*(g.cost.denominator * g.size for g in seq[:at]))
    runs = [(new, ref), (new.clone(), ref.clone())]
    for i, g in enumerate(seq[at:]):
        for new, ref in runs:
            got = serve_both(new, ref, g, policy, both)
            assert i or off_lattice(got, unit)
    for new, ref in runs:
        for fid in {g.id for g in seq}:
            assert new.credit_of(fid) == ref.credit_of(fid)
            assert type(new.credit_of(fid)) is Fr


@pytest.mark.parametrize("lam", [Fr(1, 2), Fr(1, 3), Fr(5, 7)])
def test_long_hit_streak_credit_is_exact(lam):
    """b pays rent 1, then 2,000 hits close the gap to its cost by (1 - lam)
    each: the credit is cost - (cost - 1) * (1 - lam)**2000, and its
    denominator is lam's to the 2,000th power."""
    a, b, c = FileSpec("a", 1, Fr(1)), FileSpec("b", 1, Fr(2)), FileSpec("c", 1, Fr(3))
    seq = [a, b, c] + [b] * 2000
    new, _ = lockstep(seq, 2, LandlordPolicy(lam))
    credit = new.credit_of("b")
    assert credit == b.cost - (b.cost - 1) * (1 - lam) ** 2000
    assert credit.denominator == lam.denominator ** 2000


def entry_denominators(state):
    """The int denominator each resident's credit is kept over, and D.

    These are the engine's private fields; only this test reads them, since
    a denominator that fails to reset leaves every credit's value intact
    and shows only in the size of the ints."""
    return {fid: e[core._DEN] for fid, e in state._entries.items()}, state._scale


# lambda = 1/2, 1, 2/7 and 0 in turn, with mixed selectors and greediness
MIXED_CYCLE = (
    LandlordPolicy(Fr(1, 2), EvictionSelector.LRU_ORDER, EvictionGreediness.EVICT_UNTIL_ROOM),
    LandlordPolicy(Fr(1), EvictionSelector.FIFO_ORDER, EvictionGreediness.EVICT_ALL_ZERO),
    LandlordPolicy(Fr(2, 7), EvictionSelector.PESSIMAL_NEXT_REQUEST,
                   EvictionGreediness.EVICT_UNTIL_ROOM),
    LandlordPolicy(Fr(0), EvictionSelector.FIFO_ORDER, EvictionGreediness.EVICT_ALL_ZERO),
)


def mixed_corpus(rng, count):
    """(seq, k, clone index) for the mixed-lambda test: one trace built by
    hand, then ``count`` seeded random ones.

    In the hand-built trace, x's hit at lambda = 1/2 (request 4) leaves it
    credit 3/2 over denominator 2; v enters with the same key, so the round
    of request 6 zeroes both, and the pessimal selector evicts v, which is
    requested next, and keeps x.  A zeroed file that a round keeps is rare
    in random traces, because it must tie another file's key."""
    x, y, z, w = (FileSpec(fid, 1, Fr(cost)) for fid, cost in zip("xyzw", (2, 1, 3, 1)))
    v, u = FileSpec("v", 1, Fr(1, 2)), FileSpec("u", 1, Fr(5))
    yield [x, y, z, w, x, v, u, v, x], 3, 8
    for _ in range(count):
        pool = [FileSpec(f"f{i}", rng.randint(1, 3), Fr(rng.randint(1, 12), rng.randint(1, 4)))
                for i in range(rng.randint(3, 6))]
        k = rng.randint(max(f.size for f in pool), sum(f.size for f in pool) - 1)
        seq = [rng.choice(pool) for _ in range(rng.randint(20, 60))]
        # back-to-back repeats: the next policy in the cycle refreshes a
        # credit the last one just set, with no rent charged in between
        seq = [h for g in seq for h in ([g, g] if rng.random() < 0.3 else [g])]
        yield seq, k, rng.randrange(len(seq))


def test_mixed_lambdas_on_one_state_match_reference():
    """One state serves request i with ``MIXED_CYCLE[i % 4]``, in lockstep
    with the reference engine, and continues on a clone from a seeded
    request on; the original must stay as it was.

    A model tracks each resident's denominator: 1 on insertion; times q
    on a hit at lambda = p/q in (0, 1) that raises the credit; back to 1 on
    a hit at lambda = 1 and in a round that zeroes the file; left alone by
    a hit at lambda = 0 and by a growth of D.  The corpus must contain
    each of the three events that act on a denominator above 1."""
    seen = dict.fromkeys(("lambda=1 reset", "zeroing reset", "kept through rescale"), 0)
    for seq, k, split in mixed_corpus(random.Random(SEED + 7), 150):
        new, ref = new_cache(k), reference.CacheState(k)
        both = views(seq)
        model = {}
        for i, g in enumerate(seq):
            if i == split:
                frozen = (new, list(new.residents().items()), entry_denominators(new))
                new, ref = new.clone(), ref.clone()
            policy = MIXED_CYCLE[i % len(MIXED_CYCLE)]
            lam = policy.refresh_lambda
            old = ref.credit_of(g.id)
            scale = entry_denominators(new)[1]
            out = serve_both(new, ref, g, policy, both)
            if out.was_hit:
                if lam == 1:
                    seen["lambda=1 reset"] += model[g.id] > 1
                    model[g.id] = 1
                elif lam and old != g.cost:
                    model[g.id] *= lam.denominator
            reset = set()
            for rnd in out.rent_rounds:
                for fid in rnd.zeroed if rnd.delta else ():
                    if model[fid] > 1:
                        reset.add(fid)
                    model[fid] = 1
                for fid in rnd.evicted:
                    del model[fid]
            seen["zeroing reset"] += len(reset & model.keys())  # those still resident
            if not out.was_hit:
                model[g.id] = 1
            dens, grown = entry_denominators(new)
            assert dens == model
            if grown != scale:
                seen["kept through rescale"] += any(den > 1 for den in dens.values())
        assert list(frozen[0].residents().items()) == frozen[1]
        assert entry_denominators(frozen[0]) == frozen[2]
    assert all(seen.values()), seen


def hot_set_shape(seed):
    """3,000 Zipf requests over 64 files of total size 260: at k = 256 about
    97% of them hit, the shape of perfbench's ``hot_set`` trace."""
    rng = random.Random(seed)
    while True:
        sizes = [rng.randint(1, 8) for _ in range(64)]
        if sum(sizes) == 260:
            break
    files = [FileSpec(f"f{i}", size, Fr(rng.randint(1, 20), rng.randint(1, 4)))
             for i, size in enumerate(sizes)]
    return rng.choices(files, weights=[1 / (i + 1) ** 0.9 for i in range(64)], k=3000)


@pytest.mark.parametrize("lam", [Fr(1, 2), Fr(2, 3)])
def test_hot_set_shape_matches_reference(lam):
    """Long runs of hits at a fractional lambda between rare misses: the
    same ``run_trace`` outcomes and the same final residents and credits
    as the reference engine."""
    seq = hot_set_shape(SEED + 8)
    policy = LandlordPolicy(lam)
    report = run_trace(seq, 256, policy)
    assert 0.95 < 1 - report.fault_count / len(seq) < 0.99
    ref = reference.CacheState(256)
    assert report.outcomes == tuple(reference_request(ref, g, policy) for g in seq)
    new = new_cache(256)
    for g in seq:
        request(new, g, policy)
    assert_same_state(new, ref)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instances())
def test_request_matches_reference_after_every_request(instance):
    """``request`` as ``run_trace`` calls it: a future view only for the
    pessimal selector, and no clones; same outcomes, same states."""
    seq, k, policy, _ = instance
    new, ref = new_cache(k), reference.CacheState(k)
    both = (None, None)
    if policy.selector is EvictionSelector.PESSIMAL_NEXT_REQUEST:
        both = views(seq)
    for g in seq:
        assert request(new, g, policy, both[0]) == reference_request(ref, g, policy, both[1])
        assert_same_state(new, ref)


def reference_run_trace(seq, k, policy, validate=True):
    """``run_trace`` with the reference engine (``cachelab run`` has
    validated the trace while loading it)."""
    ref = reference.CacheState(k)
    future = reference.FutureIndex(seq)
    outcomes = [reference_request(ref, g, policy, future) for g in seq]
    total = sum((out.retrieval_cost_paid for out in outcomes), Fr(0))
    return RunReport(k, policy, tuple(outcomes), total)


@pytest.mark.parametrize("flags", [
    [], ["--lambda", "0", "--selector", "fifo"],
    ["--lambda", "0", "--selector", "fifo", "--greediness", "all-zero"],
    ["--lambda", "1/3", "--selector", "pessimal"],
    ["--lambda", "2/7", "--selector", "fifo"],
])
def test_cli_run_bytes_match_reference(flags, tmp_path, capsys, monkeypatch):
    rng = random.Random(SEED + 5)
    pool = [FileSpec(f"f{i}", rng.randint(1, 4), Fr(rng.randint(0, 9), rng.randint(1, 3)))
            for i in range(12)]
    path = tmp_path / "t.trace"
    save_trace([rng.choice(pool) for _ in range(400)], str(path))
    argv = ["run", "--trace", str(path), "--cache-size", "9", *flags]
    outputs = []
    for engine in (run_trace, reference_run_trace):
        monkeypatch.setattr(cli, "run_trace", engine)
        for fmt in ("csv", "json"):
            assert cli.main(argv + ["--format", fmt]) == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[:2] == outputs[2:]


@pytest.mark.parametrize("lam", ["0", "1/2", "1"])
@pytest.mark.parametrize("selector", ["lru", "fifo", "pessimal"])
@pytest.mark.parametrize("greediness", ["all-zero", "until-room"])
def test_cli_audit_bytes_match_reference(lam, selector, greediness, tmp_path, capsys,
                                         monkeypatch):
    """``cachelab audit`` reaches the engine only through ``new_cache``,
    ``request``, ``FutureView`` and the state's queries; on the reference
    engine, with its own future index, it must print the same bytes.  The
    trace holds cost-0 files, so zero-delta rounds occur, and runs at h < k
    and h = k."""
    rng = random.Random(SEED + 6)
    pool = [FileSpec(f"f{i}", rng.randint(1, 3), Fr(rng.choice([0, 1, 2, 5]), rng.randint(1, 3)))
            for i in range(6)]
    seq = [rng.choice(pool) for _ in range(18)]
    path = tmp_path / "t.trace"
    save_trace(seq, str(path))
    flags = ["--lambda", lam, "--selector", selector, "--greediness", greediness]
    policy = LandlordPolicy(Fr(lam), EvictionSelector(selector), EvictionGreediness(greediness))
    assert any(not rnd.delta for out in run_trace(seq, 5, policy).outcomes
               for rnd in out.rent_rounds)
    outputs = []
    for engine in ((new_cache, request, FutureView),
                   (reference.CacheState, reference_request, reference.FutureIndex)):
        monkeypatch.setattr(analysis, "new_cache", engine[0])
        monkeypatch.setattr(analysis, "request", engine[1])
        monkeypatch.setattr(analysis, "FutureView", engine[2])
        for h in ("3", "5"):
            for fmt in ("csv", "json"):
                code = cli.main(["audit", "--trace", str(path), "--cache-size", "5",
                                 "--handicap", h, "--format", fmt, *flags])
                outputs.append((code, capsys.readouterr().out))
    assert outputs[:4] == outputs[4:]


def same_outcome(new, ref, g, policy, both=(None, None)):
    """Serve ``g`` on both engines: the same credit for ``g`` before (on a
    hit, the one the refresh starts from), the same outcome, and the same
    credit for ``g`` afterwards."""
    return (new.credit_of(g.id) == ref.credit_of(g.id)
            and request(new, g, policy, both[0]) == reference_request(ref, g, policy, both[1])
            and new.credit_of(g.id) == ref.credit_of(g.id))


def test_criterion_1_exhaustive_corpus():
    """Every POOL4 sequence of length <= 7 (criterion 1 goes to 8), every
    persona that depends only on the past, every k <= KMAX; states are shared
    along prefixes and compared in full at the longest sequences."""
    served = 0

    def walk(states, depth):
        nonlocal served
        for g in POOL4:
            nstates = []
            for policy, k, new, ref in states:
                if g.size > k:
                    continue
                new, ref = new.clone(), ref.clone()
                assert same_outcome(new, ref, g, policy)
                if depth == 7:
                    assert_same_state(new, ref)
                served += 1
                nstates.append((policy, k, new, ref))
            if depth < 7:
                walk(nstates, depth + 1)

    walk([(policy, k, new_cache(k), reference.CacheState(k))
          for policy in INCREMENTAL_PERSONAS for k in range(1, KMAX + 1)], 1)
    assert served == 818_181


def random_corpus(seed, count):
    """The seeded random instances of criteria 1 and 2."""
    rng = random.Random(seed)
    cost_choices = [Fr(0), Fr(1), Fr(2), Fr(5), Fr(7, 2), Fr(1, 3)]
    for _ in range(count):
        pool = [FileSpec(f"f{i}", rng.randint(1, 3), rng.choice(cost_choices))
                for i in range(rng.randint(2, 5))]
        yield [rng.choice(pool) for _ in range(rng.randint(4, 12))]


def lockstep_outcomes(seq, k, policy):
    """Serve ``seq`` on both engines comparing outcomes; compare the final states."""
    new, ref = new_cache(k), reference.CacheState(k)
    both = views(seq)
    for g in seq:
        assert same_outcome(new, ref, g, policy, both)
    assert_same_state(new, ref)


def test_criterion_1_random_corpus():
    personas = [LandlordPolicy(lam, selector, greediness) for lam in LAMBDAS
                for selector in EvictionSelector for greediness in EvictionGreediness]
    for seq in random_corpus(SEED, 1000):
        for k in range(max(g.size for g in seq), KMAX + 1):
            for policy in personas:
                lockstep_outcomes(seq, k, policy)


def test_criterion_2_random_corpus():
    for index, seq in enumerate(random_corpus(SEED + 2, 1000)):
        maxsize = max(g.size for g in seq)
        pairs = [(h, k) for h in range(maxsize, KMAX + 1) for k in range(h, KMAX + 1)]
        lockstep_outcomes(seq, pairs[index % len(pairs)][1],
                        ALL_PERSONAS[index % len(ALL_PERSONAS)])


def test_criterion_3_paging_corpus():
    """Every tenth trace of criterion 3's corpus, every k and persona; the
    reference engine needs about two minutes for all of it."""
    rng = random.Random(SEED + 3)
    personas = (LandlordPolicy.lru(), LandlordPolicy.fifo(), LandlordPolicy.fwf())
    for index in range(1000):
        n_items = rng.randint(1, 50)
        length = rng.randint(1, 500)
        items = [str(rng.randrange(n_items)) for _ in range(length)]
        if index % 10:
            continue
        seq = paging_sequence(items)
        for k in range(1, 21):
            for policy in personas:
                new, ref = new_cache(k), reference.CacheState(k)
                for g in seq:
                    assert same_outcome(new, ref, g, policy)
                assert_same_state(new, ref)
