"""The four benchmark workloads: input generators, ops and their checks.

Every workload generates its inputs from the run's seed; cachelab only
receives the generated ``FileSpec`` lists or trace files.  An op is one
closed-loop call sequence into cachelab.  Ops are grouped into rounds; a
round holds one op of each variant, so every round does the same amount of
work and deterministic counts are reported for the first round.

Each workload provides:

* ``setup(seed, golden)`` -> context, the input generation and file writing;
* ``warm_up(ctx)``, a small call of every layer the ops use;
* ``round_ops(ctx, rnd)`` -> the variants of round ``rnd``;
* ``run_op(ctx, variant, tr)`` -> payload, the timed op; every call into
  cachelab goes through ``tr.call`` so the traced run can record spans;
* ``examine(ctx, variant, payload)`` -> ``Examined``, the untimed check.
"""

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace

from cachelab import (
    FileSpec,
    LandlordPolicy,
    PagingAlg,
    audit_landlord,
    belady_opt,
    build_sequence,
    evaluate_loose,
    lower_bound_c,
    measure_fault_rates,
    new_cache,
    opt_cost,
    paging_sequence,
    replay_witness,
    request,
    run_trace,
    save_trace,
    simulate_paging,
    verify_structure,
)
from cachelab import cli
from cachelab.offline import OptSearch
from cachelab.reports import ExperimentReport
from cachelab.trace import load_trace

from spans import NullTracer

WORKDIR = ".perfbench_work"
NULL = NullTracer()


@dataclass
class Examined:
    """What the untimed check learned about one op."""

    requests: int                 # requests served by every engine/simulator/search pass
    counts: dict                  # deterministic counters
    fingerprint: str              # digest of the op's exact result
    problems: list                # failed checks; empty when the op is correct
    engine_runs: list             # (seq, k, policy, report) to replay


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def report_digest(report):
    """Digest of a RunReport's whole outcome log, rent rounds included."""
    h = hashlib.sha256(f"{report.capacity_k} {report.total_cost}\n".encode())
    for out in report.outcomes:
        rounds = ";".join(f"{r.delta}:{','.join(sorted(r.zeroed))}" for r in out.rent_rounds)
        h.update(f"{int(out.was_hit)} {out.retrieval_cost_paid} {rounds} "
                 f"{'|'.join(out.evicted)}\n".encode())
    return h.hexdigest()[:16]


def engine_counts(report):
    hits = sum(1 for out in report.outcomes if out.was_hit)
    return {
        "hits": hits,
        "misses": len(report.outcomes) - hits,
        "rent_rounds": sum(len(out.rent_rounds) for out in report.outcomes),
        "evictions": sum(len(out.evicted) for out in report.outcomes),
    }


def add_counts(total, counts):
    for key, value in counts.items():
        if key == "frontier_peak":
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
    return total


def conformance_problems(seq, k, report):
    """Replay a RunReport through a plain capacity model.

    A hit must find its file resident and evict nothing; a miss may evict
    only residents, must then fit, and pays the file's cost.
    """
    if len(report.outcomes) != len(seq):
        return [f"k={k}: {len(report.outcomes)} outcomes for {len(seq)} requests"]
    resident = {}
    free = k
    total = Fraction(0)
    for i, (g, out) in enumerate(zip(seq, report.outcomes)):
        if out.was_hit:
            if g.id not in resident or out.evicted:
                return [f"k={k}: request {i} is a hit on a non-resident or evicts"]
            continue
        if g.id in resident or out.retrieval_cost_paid != g.cost:
            return [f"k={k}: request {i} misses a resident or pays the wrong cost"]
        for fid in out.evicted:
            if fid not in resident:
                return [f"k={k}: request {i} evicts non-resident {fid!r}"]
            free += resident.pop(fid)
        if g.size > free:
            return [f"k={k}: request {i} does not fit after its evictions"]
        resident[g.id] = g.size
        free -= g.size
        total += g.cost
    if total != report.total_cost:
        return [f"k={k}: total cost {report.total_cost} != replayed {total}"]
    return []


def golden_problems(ctx, key, digest):
    """Compare with the digest recorded from the seed code, when one exists."""
    expected = ctx.golden.get(key)
    if expected is None or expected == digest:
        return []
    return [f"{key}: digest {digest} differs from recorded {expected}"]


def engine_run(tr, runs, seq, k, policy, **kwargs):
    report = tr.call("core.run_trace", run_trace, seq, k, policy, **kwargs)
    runs.append((seq, k, policy, report))
    return report


def replay_engine(seq, k, policy, report):
    """Serve ``seq`` again one public ``core.request`` at a time.

    Returns per-request latencies split by hits and misses, the number of
    outcomes that differ from ``report``, and the largest bit length of a
    resident credit's denominator at the end.
    """
    state = new_cache(k)
    hits, misses = [], []
    mismatches = 0
    for g, expected in zip(seq, report.outcomes):
        start = perf_counter()
        out = request(state, g, policy)
        elapsed = perf_counter() - start
        (hits if out.was_hit else misses).append(elapsed)
        mismatches += out != expected
    bits = max((credit.denominator.bit_length()
                for _, credit in state.residents().values()), default=0)
    return hits, misses, mismatches, bits


# ---------------------------------------------------------------------------
# zipf_files: the engine's miss path

ZIPF_FILES = 2000
# requests per op at each cache size; a k=64 op serves three times as many
# requests as a k=512 op, so the two kinds of op take about the same time and
# the latency median does not sit on the gap between them
ZIPF_LENGTHS = {64: 3000, 512: 1000}
PRESETS = {
    "lru": LandlordPolicy.lru(),
    "fifo": LandlordPolicy.fifo(),
    "fwf": LandlordPolicy.fwf(),
    "landlord_half": LandlordPolicy(Fraction(1, 2)),
}


def zipf_catalog(rng, count):
    """Files f0..f<count-1>: size 1..8, cost p/q with p in 1..20, q in 1..4."""
    return [FileSpec(f"f{i}", rng.randint(1, 8), Fraction(rng.randint(1, 20), rng.randint(1, 4)))
            for i in range(count)]


def zipf_weights(count):
    return [1 / (i + 1) ** 0.9 for i in range(count)]


class ZipfFiles:
    name = "zipf_files"
    entry_span = None

    def setup(self, seed, golden):
        ctx = SimpleNamespace(seed=seed, golden=golden)
        rng = random.Random(seed)
        files = zipf_catalog(rng, ZIPF_FILES)
        seq = rng.choices(files, weights=zipf_weights(ZIPF_FILES), k=max(ZIPF_LENGTHS.values()))
        ctx.seqs = {k: seq[:length] for k, length in ZIPF_LENGTHS.items()}
        return ctx

    def warm_up(self, ctx):
        run_trace(ctx.seqs[64][:200], 64, PRESETS["lru"])

    def round_ops(self, ctx, rnd):
        return [f"{preset}@k{k}" for k in ZIPF_LENGTHS for preset in PRESETS]

    def run_op(self, ctx, variant, tr):
        preset, k = variant.split("@k")
        runs = []
        engine_run(tr, runs, ctx.seqs[int(k)], int(k), PRESETS[preset])
        return runs

    def examine(self, ctx, variant, runs):
        seq, k, _, report = runs[0]
        digest = report_digest(report)
        problems = conformance_problems(seq, k, report) + golden_problems(ctx, variant, digest)
        return Examined(len(seq), engine_counts(report), digest, problems, runs)


# ---------------------------------------------------------------------------
# hot_set: the engine's hit path plus the trace and reports layers, via the CLI

HOT_FILES = 64
HOT_TOTAL_SIZE = 260
HOT_K = 256
HOT_LENGTH = 5000
HOT_LAMBDAS = ("1", "1/2")
HOT_FORMATS = ("csv", "json")
HOT_TRACE = f"{WORKDIR}/hot_set.trace"
HOT_OUT = f"{WORKDIR}/hot_set.out"
RUN_COLUMNS = ("index", "id", "hit", "cost_paid", "rent_rounds", "evicted")


def hot_set_trace(seed):
    """64 files of total size 260, requested HOT_LENGTH times by the Zipf law.

    Sizes are redrawn until they sum to HOT_TOTAL_SIZE, so every seed gives
    the same cache pressure at k=256.
    """
    rng = random.Random(seed)
    while True:
        sizes = [rng.randint(1, 8) for _ in range(HOT_FILES)]
        if sum(sizes) == HOT_TOTAL_SIZE:
            break
    files = [FileSpec(f"f{i}", size, Fraction(rng.randint(1, 20), rng.randint(1, 4)))
             for i, size in enumerate(sizes)]
    return rng.choices(files, weights=zipf_weights(HOT_FILES), k=HOT_LENGTH)


def run_report_rows(text, fmt):
    """Parameters and rows of a rendered ``cachelab run`` report."""
    if fmt == "json":
        body = json.loads(text)
        return body["metadata"]["parameters"], body["rows"]
    lines = text.splitlines()
    params = json.loads(next(csv.reader(lines[:1]))[0][2:])["parameters"]
    return params, list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


class HotSet:
    name = "hot_set"
    entry_span = "cli.main"

    def setup(self, seed, golden):
        ctx = SimpleNamespace(seed=seed, golden=golden)
        save_trace(hot_set_trace(seed), HOT_TRACE)
        return ctx

    def warm_up(self, ctx):
        self.run_op(ctx, "lambda=1,csv", NULL)

    def round_ops(self, ctx, rnd):
        return [f"lambda={lam},{fmt}" for lam in HOT_LAMBDAS for fmt in HOT_FORMATS]

    def run_op(self, ctx, variant, tr):
        lam, fmt = variant[len("lambda="):].split(",")
        runs = []
        if not tr.enabled:
            code = cli.main(["run", "--trace", HOT_TRACE, "--cache-size", str(HOT_K),
                             "--lambda", lam, "--format", fmt, "--out", HOT_OUT])
            return code, runs
        # traced: the library calls cmd_run makes, one span each
        seq = tr.call("trace.load_trace", load_trace, HOT_TRACE)
        report = engine_run(tr, runs, seq, HOT_K, LandlordPolicy(Fraction(lam)))
        rows = tuple({"index": i, "id": g.id, "hit": out.was_hit,
                      "cost_paid": out.retrieval_cost_paid,
                      "rent_rounds": len(out.rent_rounds), "evicted": "|".join(out.evicted)}
                     for i, (g, out) in enumerate(zip(seq, report.outcomes)))
        params = {"trace": HOT_TRACE, "cache_size": HOT_K,
                  "total_cost": report.total_cost, "faults": report.fault_count,
                  "lambda": Fraction(lam), "selector": "lru", "greediness": "until-room"}
        text = tr.call("reports.render",
                       ExperimentReport("run", params, RUN_COLUMNS, rows).render, fmt)
        with open(HOT_OUT, "w", encoding="utf-8") as handle:
            handle.write(text)
        return 0, runs

    def examine(self, ctx, variant, payload):
        code, runs = payload
        with open(HOT_OUT, "rb") as handle:
            data = handle.read()
        digest = hashlib.sha256(data).hexdigest()[:16]
        problems = [] if code == 0 else [f"exit code {code}"]
        params, rows = run_report_rows(data.decode("utf-8"), variant.rsplit(",", 1)[1])
        hits = sum(1 for row in rows if row["hit"] in ("true", True))
        if len(rows) != HOT_LENGTH:
            problems.append(f"{len(rows)} rows for {HOT_LENGTH} requests")
        if int(params["faults"]) != len(rows) - hits:
            problems.append("fault count disagrees with the rows")
        if Fraction(params["total_cost"]) != sum(Fraction(row["cost_paid"]) for row in rows):
            problems.append("total cost disagrees with the rows")
        counts = {
            "hits": hits,
            "misses": len(rows) - hits,
            "rent_rounds": sum(int(row["rent_rounds"]) for row in rows),
            "evictions": sum(len(row["evicted"].split("|")) for row in rows if row["evicted"]),
            "report_bytes": len(data),
            "trace_lines": HOT_LENGTH,
        }
        for seq, k, _, report in runs:
            problems += conformance_problems(seq, k, report)
        problems += golden_problems(ctx, variant, digest)
        return Examined(HOT_LENGTH, counts, digest, problems, runs)


# ---------------------------------------------------------------------------
# adversarial_sweep: paging simulators, Belady and the loose sweep

ADV_EPSILON = Fraction(1, 32)
ADV_DELTA = Fraction(1, 5)
ADV_N = 240
SWEEP_ALGS = (PagingAlg.FWF, PagingAlg.LRU, PagingAlg.FIFO, PagingAlg.MARKING)
# engine presets cross-checked against the direct simulator of the same policy
TWIN_OF = {LandlordPolicy.lru(): PagingAlg.LRU, LandlordPolicy.fwf(): PagingAlg.FWF}


def adversarial_op(tr, epsilon, delta, n, marking_seed):
    s = tr.call("advgen.build_sequence", build_sequence, epsilon, delta, n)
    structure = tr.call("advgen.verify_structure", verify_structure, s)
    rates = tr.call("advgen.measure_fault_rates", measure_fault_rates, s)
    items = list(s.items)
    seq = tr.call("trace.paging_sequence", paging_sequence, items)
    belady = {k: Fraction(tr.call("paging.belady_opt", belady_opt, items, k))
              for k in range(1, n + 1)}
    c = Fraction(tr.call("analysis.lower_bound_c", lower_bound_c, epsilon, delta))
    sweeps = {}
    for alg in SWEEP_ALGS:
        seed = marking_seed if alg is PagingAlg.MARKING else None

        def cost(_seq, k, alg=alg, seed=seed):
            return Fraction(tr.call("paging.simulate_paging", simulate_paging,
                                    items, k, alg, seed=seed)[0])

        sweeps[alg] = tr.call("analysis.evaluate_loose", evaluate_loose,
                              seq, n, epsilon, c, cost, opt_costs=belady)
    runs, direct = [], {}
    for k in s.k_levels:
        if k > n:
            break
        for policy, alg in TWIN_OF.items():
            engine_run(tr, runs, seq, k, policy, validate=False)
            direct[alg, k] = tr.call("paging.simulate_paging", simulate_paging, items, k, alg)
    return {"s": s, "structure": structure, "rates": rates, "belady": belady, "c": c,
            "sweeps": sweeps, "runs": runs, "direct": direct}


def adversarial_requests(r):
    length = len(r["s"].items)
    passes = (len(r["belady"])
              + sum(len(rep.per_k) for rep in r["sweeps"].values())
              + 2 * (len(r["rates"].levels) + len(r["rates"].per_k))
              + 2 * len(r["runs"]))
    return passes * length


def adversarial_problems(r, epsilon):
    """The exact checks of one sweep op."""
    problems = []
    if not r["structure"].ok:
        problems.append(f"structure violations: {r['structure'].violations[:3]}")
    if not r["rates"].level_rates_exact:
        problems.append("level fault rates differ from their closed forms")
    for alg, rep in r["sweeps"].items():
        if any(row.alg_cost < r["belady"][k] for k, row in rep.per_k.items()):
            problems.append(f"{alg.value} beats Belady")
    total = Fraction(len(r["s"].items))
    for seq, k, policy, report in r["runs"]:
        alg = TWIN_OF[policy]
        faults, positions = r["direct"][alg, k]
        if report.fault_count != faults or report.fault_positions != positions:
            problems.append(f"engine {alg.value} at k={k}: {report.fault_count} faults, "
                            f"simulator {faults}")
        engine_bad = report.total_cost > max(r["c"] * r["belady"][k], epsilon * total)
        if engine_bad != (k in r["sweeps"][alg].bad_ks):
            problems.append(f"engine and direct bad sets differ for {alg.value} at k={k}")
    return problems


def adversarial_digest(r, algs):
    return _digest(r["s"].k_levels, r["structure"].checks, len(r["structure"].violations),
                   [(row.k, row.fwf_faults, row.lru_faults) for row in r["rates"].per_k],
                   sorted(r["belady"].items()),
                   *[(alg.value, sorted(r["sweeps"][alg].bad_ks),
                      [(k, row.alg_cost) for k, row in sorted(r["sweeps"][alg].per_k.items())])
                     for alg in algs])


class AdversarialSweep:
    name = "adversarial_sweep"
    entry_span = None

    def setup(self, seed, golden):
        return SimpleNamespace(seed=seed, golden=golden)

    def warm_up(self, ctx):
        adversarial_op(NULL, Fraction(1, 8), Fraction(1, 4), 6, ctx.seed)

    def round_ops(self, ctx, rnd):
        return ["sweep"]

    def run_op(self, ctx, variant, tr):
        return adversarial_op(tr, ADV_EPSILON, ADV_DELTA, ADV_N, ctx.seed)

    def examine(self, ctx, variant, r):
        problems = adversarial_problems(r, ADV_EPSILON)
        # the trace and every sweep but MARKING are the same for every seed
        problems += golden_problems(ctx, "deterministic",
                                    adversarial_digest(r, SWEEP_ALGS[:3]))
        length = len(r["s"].items)
        paging_passes = (len(r["belady"]) + len(r["direct"])
                         + sum(len(rep.per_k) for rep in r["sweeps"].values()))
        counts = {"verify_checks": r["structure"].checks,
                  "paging_requests": paging_passes * length}
        for *_, report in r["runs"]:
            add_counts(counts, engine_counts(report))
        return Examined(adversarial_requests(r), counts,
                        adversarial_digest(r, SWEEP_ALGS), problems, r["runs"])


# ---------------------------------------------------------------------------
# desk_exact: exact offline search and the potential audit

DESK_FILES = 12
DESK_LENGTH = 40
DESK_K = 9
DESK_H = DESK_K - 2
DESK_EPSILON = Fraction(1, 10)
DESK_C = Fraction(3, 2)
DESK_PER_ROUND = 4
DESK_POOL = 64 * DESK_PER_ROUND
DESK_POLICIES = {
    "1": LandlordPolicy.lru(),
    "0": LandlordPolicy.fifo(),
    "1/2": LandlordPolicy(Fraction(1, 2)),
}


def desk_instance(seed, index):
    """One general instance: 12 files, 40 requests.

    Sizes are four each of 1, 2 and 3 and every file is requested three
    times plus four uniform extra requests, in a seeded order; costs are p/q
    with p in 1..6 and q in 1..3.  Fixing the size multiset and the request
    counts keeps the search cost of one instance near that of the next, so
    a run's median does not hinge on a few lucky draws.
    """
    rng = random.Random(f"desk_exact:{seed}:{index}")
    sizes = [1, 2, 3] * (DESK_FILES // 3)
    rng.shuffle(sizes)
    files = [FileSpec(f"d{i}", size, Fraction(rng.randint(1, 6), rng.randint(1, 3)))
             for i, size in enumerate(sizes)]
    seq = files * 3 + [rng.choice(files) for _ in range(DESK_LENGTH - 3 * DESK_FILES)]
    rng.shuffle(seq)
    return seq


def desk_op(tr, seq, k, h):
    opt = tr.call("offline.opt_cost", opt_cost, seq, k, max_length=len(seq))
    replayed = tr.call("offline.replay_witness", replay_witness, seq, k, opt.witness_schedule)

    # per-k optima, driving the search from outside to see its frontier
    scale = math.lcm(*(g.cost.denominator for g in seq))
    largest = max(g.size for g in seq)
    optima, expanded, peak = {}, 0, 0
    for size in range(largest, k + 1):
        search = OptSearch(size)
        for g in seq:
            expanded += len(search.frontier)
            tr.call("offline.OptSearch.advance", search.advance, g, int(g.cost * scale))
            peak = max(peak, len(search.frontier))
        optima[size] = Fraction(search.min_cost(), scale)

    audits = {lam: tr.call("analysis.audit_landlord", audit_landlord, seq, h, k, policy,
                           max_length=len(seq))
              for lam, policy in DESK_POLICIES.items()}
    runs, loose = [], {}
    for lam, policy in DESK_POLICIES.items():
        def cost(_seq, size, policy=policy):
            return engine_run(tr, runs, seq, size, policy, validate=False).total_cost

        loose[lam] = tr.call("analysis.evaluate_loose", evaluate_loose, seq, k,
                             DESK_EPSILON, DESK_C, cost, opt_costs=optima)
    return {"seq": seq, "k": k, "h": h, "opt": opt, "replayed": replayed, "optima": optima,
            "expanded": expanded, "peak": peak, "audits": audits, "loose": loose, "runs": runs}


def desk_problems(r):
    problems = []
    if r["replayed"] != r["opt"].min_cost:
        problems.append(f"witness replays to {r['replayed']}, optimum {r['opt'].min_cost}")
    if r["optima"][r["k"]] != r["opt"].min_cost:
        problems.append("driven search and opt_cost disagree")
    for lam, audit in r["audits"].items():
        if not (audit.all_satisfied and audit.ratio_certified and audit.phi_nonnegative):
            problems.append(f"audit at lambda={lam} fails")
        if audit.opt_cost != r["optima"][r["h"]]:
            problems.append(f"audit at lambda={lam} used optimum {audit.opt_cost}")
    for lam, rep in r["loose"].items():
        if any(row.opt_cost != r["optima"][size] for size, row in rep.per_k.items()):
            problems.append(f"evaluate_loose at lambda={lam} changed the supplied optima")
        if any(row.alg_cost < row.opt_cost for row in rep.per_k.values()):
            problems.append(f"Landlord at lambda={lam} beats the optimum")
    return problems


def desk_requests(r):
    length = len(r["seq"])
    # opt_cost, the driven searches, one search and one engine run per
    # audit, and the engine runs of the loose sweeps
    return length * (1 + len(r["optima"]) + 2 * len(r["audits"]) + len(r["runs"]))


class DeskExact:
    name = "desk_exact"
    entry_span = None

    def setup(self, seed, golden):
        ctx = SimpleNamespace(seed=seed, golden=golden)
        ctx.instances = [desk_instance(seed, index) for index in range(DESK_POOL)]
        return ctx

    def warm_up(self, ctx):
        desk_op(NULL, ctx.instances[0][:12], 6, 4)

    def round_ops(self, ctx, rnd):
        first = rnd * DESK_PER_ROUND
        while len(ctx.instances) < first + DESK_PER_ROUND:
            ctx.instances.append(desk_instance(ctx.seed, len(ctx.instances)))
        return list(range(first, first + DESK_PER_ROUND))

    def run_op(self, ctx, variant, tr):
        return desk_op(tr, ctx.instances[variant], DESK_K, DESK_H)

    def examine(self, ctx, variant, r):
        counts = {"frontier_peak": r["peak"], "states_expanded": r["expanded"],
                  "audit_events": sum(len(a.steps) for a in r["audits"].values())}
        for *_, report in r["runs"]:
            add_counts(counts, engine_counts(report))
        digest = _digest(r["opt"].min_cost, r["opt"].witness_schedule, sorted(r["optima"].items()),
                         [(lam, a.landlord_cost, len(a.steps)) for lam, a in r["audits"].items()],
                         [(lam, sorted(rep.bad_ks)) for lam, rep in r["loose"].items()])
        return Examined(desk_requests(r), counts, digest, desk_problems(r), r["runs"])


WORKLOADS = {w.name: w for w in (ZipfFiles(), HotSet(), AdversarialSweep(), DeskExact())}
