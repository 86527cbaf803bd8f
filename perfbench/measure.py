"""The measured loop, its checks and the metrics computed from it."""

import json
import os
import resource
from statistics import median
from time import perf_counter

from reference import REFERENCE_S, ReferenceClock, timed
from run import SETUP_REPEATS
from spans import LAYERS, NullTracer, SpanSummary, Tracer
from workloads import WORKDIR, WORKLOADS, add_counts, replay_engine

HERE = os.path.dirname(os.path.abspath(__file__))
NULL = NullTracer()


def load_golden(workload, seed):
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as handle:
        table = json.load(handle).get(workload, {})
    return table.get(str(seed)) or table.get("*") or {}


def tail(latencies):
    """Latency at the highest percentile with at least ten ops beyond it.

    Returns (latency, percentile, ops beyond); with ten ops or fewer no
    percentile qualifies and the maximum is returned with zero beyond.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


class Run:
    """The measured loop of one workload and everything it observed."""

    def __init__(self, workload, ctx, tracer=None):
        self.workload = workload
        self.ctx = ctx
        self.tracer = tracer
        self.latencies = []         # untraced op latencies, wall clock, seconds
        self.reference_latencies = []   # the same at reference speed
        self.busy = []              # op plus its check, wall clock, seconds
        self.reference_busy = []    # the same at reference speed
        self.clock = None
        self.traced_latencies = []
        self.requests = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.rounds = 0
        self.wall = 0.0
        self.round_counts = []      # deterministic counts summed per round
        self.first_seen = {}        # variant -> (fingerprint, counts) of its first op
        self.hit_times = []         # replayed core.request latencies, seconds
        self.miss_times = []
        self.den_bits = 0

    def loop(self, seconds):
        """Run whole rounds until ``seconds`` have passed (at least one)."""
        start = perf_counter()
        clock = self.clock = ReferenceClock()
        while True:
            counts = {}
            if self.tracer is not None:
                self.tracer.round = self.rounds
            for variant in self.workload.round_ops(self.ctx, self.rounds):
                self.attempted += 1
                try:
                    clock.resume()
                    start_totals = clock.totals()
                    t0 = perf_counter()
                    payload = self.workload.run_op(self.ctx, variant, clock)
                    t1 = perf_counter()
                    clock.cut()
                    op_totals = clock.totals()
                    seen = self.workload.examine(self.ctx, variant, payload)
                    problems = list(seen.problems) + self._repeat_problems(variant, seen)
                    clock.cut()
                    busy_totals = clock.totals()
                    if self.tracer is not None:
                        problems += self._traced_op(variant, seen, t0, t1)
                except Exception as exc:  # an op that raises counts as failed
                    self._fail(variant, [f"{type(exc).__name__}: {exc}"])
                    continue
                if problems:
                    self._fail(variant, problems)
                    continue
                (w0, s0), (w1, s1), (w2, s2) = start_totals, op_totals, busy_totals
                self.latencies.append(w1 - w0)
                self.reference_latencies.append(s1 - s0)
                self.busy.append(w2 - w0)
                self.reference_busy.append(s2 - s0)
                self.requests += seen.requests
                add_counts(counts, seen.counts)
            self.round_counts.append(counts)
            self.rounds += 1
            self.wall = perf_counter() - start
            if self.wall >= seconds:
                return

    def _fail(self, variant, problems):
        self.failed += 1
        self.problems.extend(f"{self.workload.name} {variant}: {p}" for p in problems)

    def _repeat_problems(self, variant, seen):
        first = self.first_seen.setdefault(variant, (seen.fingerprint, seen.counts))
        if first != (seen.fingerprint, seen.counts):
            return [f"result {seen.fingerprint} {seen.counts} differs from the first run "
                    f"of this op, {first[0]} {first[1]}"]
        return []

    def _traced_op(self, variant, seen, t0, t1):
        """Run the op again with spans; check it matches the untraced op."""
        tracer = self.tracer
        if self.workload.entry_span:
            tracer.add(self.workload.entry_span, t0, t1)
        t2 = perf_counter()
        payload = self.workload.run_op(self.ctx, variant, tracer)
        t3 = perf_counter()
        traced = self.workload.examine(self.ctx, variant, payload)
        problems = list(traced.problems)
        if (traced.fingerprint, traced.counts) != (seen.fingerprint, seen.counts):
            problems.append(f"traced result {traced.fingerprint} {traced.counts} differs "
                            f"from untraced {seen.fingerprint} {seen.counts}")
        self.traced_latencies.append(t3 - t2)
        for seq, k, policy, report in traced.engine_runs:
            hits, misses, mismatches, bits = replay_engine(seq, k, policy, report)
            self.hit_times += hits
            self.miss_times += misses
            if mismatches:
                problems.append(f"core.request replay at k={k} differs from run_trace "
                                f"on {mismatches} requests")
            if self.rounds == 0:
                self.den_bits = max(self.den_bits, bits)
        return problems

    @property
    def counts(self):
        return self.round_counts[0] if self.round_counts else {}

    def end_to_end(self, setup_s):
        lat = self.reference_latencies
        busy = sum(self.reference_busy)
        value, _, _ = tail(lat)
        return {
            "setup_s": (setup_s, "s"),
            "requests_per_s": (self.requests / sum(lat), "req/s"),
            "ops_per_s": (len(lat) / busy, "op/s"),
            "op_p50_ms": (1000 * median(lat), "ms"),
            "op_tail_ms": (1000 * value, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    def per_layer(self):
        s = SpanSummary(self.tracer.spans, self.rounds)
        c = self.counts

        def rate(count, seconds):
            return count / seconds if seconds else 0.0

        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.busy_s"] = (s.busy(layer), "s")
            metrics[f"{layer}.self_s"] = (s.self_time(layer), "s")
        hits, misses = c.get("hits", 0), c.get("misses", 0)
        advance_s = s.named("offline.OptSearch.advance")
        parse_s = s.named("trace.load_trace")
        paging_s = s.busy("paging")
        traced_p50 = median(self.traced_latencies)
        untraced_p50 = median(self.latencies)
        metrics.update({
            "core.run_s": (s.named("core.run_trace"), "s"),
            "core.miss_us_p50": (1e6 * median(self.miss_times or [0.0]), "us"),
            "core.hit_us_p50": (1e6 * median(self.hit_times or [0.0]), "us"),
            "core.hits": (hits, "count"),
            "core.misses": (misses, "count"),
            "core.hit_ratio": (rate(hits, hits + misses), "ratio"),
            "core.rent_rounds": (c.get("rent_rounds", 0), "count"),
            "core.evictions": (c.get("evictions", 0), "count"),
            "core.credit_den_bits": (self.den_bits, "bits"),
            "trace.parse_s": (parse_s, "s"),
            "trace.lines_per_s": (rate(c.get("trace_lines", 0), parse_s), "lines/s"),
            "reports.render_s": (s.named("reports.render"), "s"),
            "reports.bytes": (c.get("report_bytes", 0), "B"),
            "cli.main_s": (s.named("cli.main"), "s"),
            "paging.belady_s": (s.named("paging.belady_opt"), "s"),
            "paging.simulate_s": (s.named("paging.simulate_paging"), "s"),
            "paging.requests_per_s": (rate(c.get("paging_requests", 0), paging_s), "req/s"),
            "analysis.loose_s": (s.named("analysis.evaluate_loose"), "s"),
            "analysis.loose_self_s": (s.self_of("analysis.evaluate_loose"), "s"),
            "analysis.audit_s": (s.named("analysis.audit_landlord"), "s"),
            "analysis.audit_events": (c.get("audit_events", 0), "count"),
            "advgen.build_s": (s.named("advgen.build_sequence"), "s"),
            "advgen.verify_s": (s.named("advgen.verify_structure"), "s"),
            "advgen.verify_checks": (c.get("verify_checks", 0), "count"),
            "advgen.rates_s": (s.named("advgen.measure_fault_rates"), "s"),
            "offline.search_s": (s.named("offline.opt_cost", "offline.OptSearch.advance"), "s"),
            "offline.states_expanded": (c.get("states_expanded", 0), "count"),
            "offline.frontier_peak": (c.get("frontier_peak", 0), "count"),
            "offline.states_per_s": (rate(c.get("states_expanded", 0), advance_s), "states/s"),
            "offline.replay_s": (s.named("offline.replay_witness"), "s"),
            "overhead.op_p50_ms": (1000 * (traced_p50 - untraced_p50), "ms"),
            "overhead.share": (sum(self.traced_latencies) / sum(self.latencies) - 1, "ratio"),
        })
        return metrics


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def set_up(workload, seed, golden):
    """Set the workload up SETUP_REPEATS times; return the last context and
    the median set-up time at reference speed and on the wall clock."""
    def once():
        ctx = workload.setup(seed, golden)
        workload.warm_up(ctx)
        return ctx

    runs = [timed(once) for _ in range(SETUP_REPEATS)]
    return runs[-1][0], median(t for *_, t in runs), median(w for _, w, _ in runs)


def benchmark(name, seed, seconds, traced, import_s=0.0, import_wall_s=0.0):
    """Set up and measure one workload; return (run, end-to-end, per-layer)."""
    workload = WORKLOADS[name]
    os.makedirs(WORKDIR, exist_ok=True)
    golden = load_golden(name, seed)
    ctx, setup_s, setup_wall_s = set_up(workload, seed, golden)
    run = Run(workload, ctx, Tracer() if traced else None)
    run.import_s, run.setup_s = import_s, setup_s
    run.wall_setup_s = import_wall_s + setup_wall_s
    run.loop(seconds)
    if not run.latencies:
        return run, {}, {}
    return run, run.end_to_end(import_s + setup_s), (run.per_layer() if traced else {})


def describe(run, e2e, layer, golden_recorded):
    n = len(run.latencies)
    lines = [f"workload {run.workload.name}: {run.rounds} rounds, {run.attempted} ops, "
             f"closed loop with one caller, {run.wall:.3f} s"]
    if e2e:
        wall, _, _ = tail(run.latencies)
        _, pct, beyond = tail(run.reference_latencies)
        lines.append(f"  timings at reference speed: reference loop median "
                     f"{1000 * median(run.clock.references):.4g} ms on the wall clock against "
                     f"{1000 * REFERENCE_S:.4g} ms nominal")
        notes = {"op_p50_ms": f"median of {n} ops; wall clock {1000 * median(run.latencies):.6g} ms",
                 "op_tail_ms": f"p{pct:.1f}, {beyond} ops beyond, {n} ops; "
                               f"wall clock {1000 * wall:.6g} ms",
                 "requests_per_s": f"wall clock {run.requests / sum(run.latencies):.6g} req/s",
                 "ops_per_s": f"wall clock {n / sum(run.busy):.6g} op/s",
                 "setup_s": f"medians of {SETUP_REPEATS} imports, {run.import_s:.4g} s, "
                            f"and of {SETUP_REPEATS} set-ups, {run.setup_s:.4g} s; "
                            f"wall clock {run.wall_setup_s:.4g} s"}
        for key, (value, unit) in e2e.items():
            lines.append(f"  {key} = {value:.6g} {unit}" + (f"  ({notes[key]})" if key in notes else ""))
    ratio = run.failed / run.attempted if run.attempted else 0.0
    lines.append(f"  op_fail_ratio = {ratio:.6g} ratio  ({run.failed} of {run.attempted} ops)")
    lines.append(f"  counts of round 0: {json.dumps(run.counts, sort_keys=True)}")
    lines.append("  golden digests: " + ("recorded for this seed" if golden_recorded
                                        else "none recorded for this seed; exact checks only"))
    for key, (value, unit) in layer.items():
        lines.append(f"  {key} = {value:.6g} {unit}")
    for problem in run.problems[:10]:
        lines.append(f"  FAILED {problem}")
    return "\n".join(lines)
