"""Command-line harness: run, sweep, opt, audit, gen, bounds.

Exit codes: 0 on success, 1 when an audit or structure verification reports a
violation, 2 on usage or input errors.  Reports are byte-deterministic for
fixed inputs, seed, and format version.  Every report leaves through
``_emit`` as UTF-8 bytes with LF line ends, to ``--out`` or to stdout,
whatever the locale, the stream's encoding or the platform; ``error:`` lines
stay text on stderr, in its encoding.
"""

import argparse
import functools
import sys
from contextlib import suppress
from dataclasses import fields
from fractions import Fraction
from operator import attrgetter

from . import advgen, analysis, offline
from .core import EvictionGreediness, EvictionSelector, LandlordPolicy, run_trace
from .errors import CacheLabError, InvalidParams
from .paging import PagingAlg, simulate_paging
from .reports import ExperimentReport
from .trace import is_paging_sequence, load_trace, paging_sequence, save_trace

def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational literal") from None


def _policy_from(args):
    """The policy of the flags given: ``LandlordPolicy`` supplies the rest."""
    given = {field.name: getattr(args, field.name) for field in fields(LandlordPolicy)}
    return LandlordPolicy(**{name: value for name, value in given.items() if value is not None})


def _policy_params(policy):
    """The report's record of the Landlord policy that ran; null if none did."""
    if policy is None:
        return dict.fromkeys(("lambda", "selector", "greediness"))
    return {"lambda": policy.refresh_lambda, "selector": policy.selector.value,
            "greediness": policy.greediness.value}


def _emit(report, fmt, out=None):
    """Write ``report`` rendered in ``fmt`` as UTF-8 bytes to the file ``out``,
    or to stdout's byte stream, past any text already written there."""
    data = report.render(fmt).encode("utf-8")
    if out:
        with open(out, "wb") as handle:
            handle.write(data)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)


def _add_report_flags(parser, include_out=True):
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    if include_out:
        parser.add_argument("--out", help="write the report here instead of stdout")


# sweep's flags that one --alg alone reads: flag -> (its dest, that --alg)
_SWEEP_FLAG_ALG = {"--seed": ("seed", "marking"), "--lambda": ("refresh_lambda", "landlord"),
                   "--selector": ("selector", "landlord"),
                   "--greediness": ("greediness", "landlord")}


def _add_policy_flags(parser):
    parser.add_argument("--lambda", dest="refresh_lambda", type=_fraction,
                        help="credit refresh weight in [0,1]")
    parser.add_argument("--selector", choices=sorted(e.value for e in EvictionSelector))
    parser.add_argument("--greediness", choices=sorted(e.value for e in EvictionGreediness))


def cmd_run(args):
    policy = _policy_from(args)
    seq = load_trace(args.trace)
    report = run_trace(seq, args.cache_size, policy)
    outcomes = report.outcomes
    columns = {
        "index": range(len(outcomes)),
        "id": [g.id for g in seq],
        "hit": [out.was_hit for out in outcomes],
        "cost_paid": [out.retrieval_cost_paid for out in outcomes],
        "rent_rounds": [len(out.rent_rounds) for out in outcomes],
        # most outcomes are hits, which have no rounds: skip the property there
        "evicted": ["|".join(out.evicted) if out.rent_rounds else "" for out in outcomes],
    }
    params = {"trace": args.trace, "cache_size": args.cache_size,
              "total_cost": report.total_cost, "faults": report.fault_count,
              **_policy_params(policy)}
    _emit(ExperimentReport("run", params, columns), args.format, args.out)
    return 0


def _swept_policy(args):
    """Refuse a flag the swept ``--alg`` does not read, and marking without
    ``--seed``; then return the Landlord policy the ``--alg`` runs (on a
    paging trace, the direct simulator's too), or None for marking and opt."""
    for flag, (dest, alg) in _SWEEP_FLAG_ALG.items():
        if getattr(args, dest) is not None and args.alg != alg:
            raise CacheLabError(f"--alg {args.alg} does not read {flag}")
    if args.alg == "marking" and args.seed is None:
        raise CacheLabError("--alg marking needs --seed")
    if args.alg == "landlord":
        return _policy_from(args)
    return getattr(LandlordPolicy, args.alg)() if args.alg in ("lru", "fifo", "fwf") else None


def _algorithm_handle(args, seq, policy):
    """The swept algorithm (the engine under ``policy`` on a general trace)
    and the per-k optima to judge it by (None lets ``evaluate_loose``)."""
    name = args.alg
    if name == "opt":
        # the optimum is both the algorithm and the baseline: compute it once
        largest = max((g.size for g in seq), default=1)
        opt = offline.opt_costs_by_k(seq, range(largest, args.range + 1))
        return (lambda _seq, k: opt[k]), opt
    if name != "landlord" and is_paging_sequence(seq):
        items = [g.id for g in seq]
        alg = PagingAlg(name)  # --seed is given with marking alone
        return (lambda _seq, k: Fraction(simulate_paging(items, k, alg, seed=args.seed)[0])), None
    if name == "marking":
        raise CacheLabError("--alg marking is defined for paging traces only")
    return analysis.landlord_algorithm(policy), None


def cmd_sweep(args):
    policy = _swept_policy(args)
    c = analysis.bound_c_deterministic(args.epsilon, args.delta)  # checks epsilon and delta
    seq = load_trace(args.trace)
    alg, opt = _algorithm_handle(args, seq, policy)
    report = analysis.evaluate_loose(seq, args.range, args.epsilon, Fraction(c), alg,
                                     opt_costs=opt)
    ks = range(1, args.range + 1)
    per_k = [report.per_k.get(k) for k in ks]  # None where k is inapplicable

    def cells(cell):  # a column's cell at each k, blank where k is inapplicable
        return ["" if row is None else cell(row) for row in per_k]

    columns = {
        "k": ks,
        "alg_cost": cells(attrgetter("alg_cost")),
        "opt_cost": cells(attrgetter("opt_cost")),
        # JSON has no infinity; csv writes the float inf as this string too
        "ratio": cells(lambda row: float(row.alg_cost / row.opt_cost) if row.opt_cost
                       else "inf"),
        "total_request_cost": cells(attrgetter("total_request_cost")),
        "bad": ["inapplicable" if row is None else k in report.bad_ks
                for k, row in zip(ks, per_k)],
    }
    params = {"trace": args.trace, "range": args.range, "epsilon": args.epsilon,
              "delta": args.delta, "c": c, "alg": args.alg,
              "bad_fraction": report.bad_fraction, **_policy_params(policy)}
    _emit(ExperimentReport("sweep", params, columns, seed=args.seed), args.format, args.out)
    return 0


def cmd_opt(args):
    seq = load_trace(args.trace)
    result = offline.opt_cost(seq, args.cache_size)
    schedule = result.witness_schedule
    columns = {"index": [i for i, _ in schedule],
               "evicted": ["|".join(ev) for _, ev in schedule]}
    params = {"trace": args.trace, "cache_size": args.cache_size,
              "min_cost": result.min_cost}
    _emit(ExperimentReport("opt", params, columns), args.format, args.out)
    return 0


def cmd_audit(args):
    policy = _policy_from(args)
    seq = load_trace(args.trace)
    h = args.handicap if args.handicap is not None else args.cache_size
    audit = analysis.audit_landlord(seq, h, args.cache_size, policy)
    steps = audit.steps
    columns = {
        "index": [step.request_index for step in steps],
        "kind": [step.kind for step in steps],
        "phi_before": [step.phi_before for step in steps],
        "phi_after": [step.phi_after for step in steps],
        "bound": [step.bound for step in steps],
        "satisfied": [step.satisfied for step in steps],
    }
    params = {"trace": args.trace, "cache_size": args.cache_size, "handicap": h,
              "landlord_cost": audit.landlord_cost, "opt_cost": audit.opt_cost,
              "all_satisfied": audit.all_satisfied,
              "phi_nonnegative": audit.phi_nonnegative,
              "ratio_certified": audit.ratio_certified, **_policy_params(policy)}
    _emit(ExperimentReport("audit", params, columns), args.format, args.out)
    ok = audit.all_satisfied and audit.phi_nonnegative and audit.ratio_certified
    return 0 if ok else 1


def cmd_gen(args):
    s = advgen.build_sequence(args.epsilon, args.delta, args.range)
    structure = advgen.verify_structure(s)
    save_trace(paging_sequence(s.items), args.out)
    params = {"epsilon": args.epsilon, "delta": args.delta, "range": args.range,
              "c": s.c, "length": len(s.items), "distinct": len(s.level_of_item),
              "out": args.out, "violations": len(structure.violations),
              "checks": structure.checks}
    report = ExperimentReport("gen", params, {"level": range(len(s.k_levels)),
                                              "k": s.k_levels})
    _emit(report, args.format)  # --out names the trace: the report goes to stdout
    if structure.violations:
        for violation in structure.violations:
            print(f"violation: {violation}", file=sys.stderr)
        return 1
    return 0


def cmd_bounds(args):
    bounds = {"deterministic": analysis.bound_c_deterministic(args.epsilon, args.delta)}
    alpha = args.alpha if args.alpha is not None else analysis.MARKING_ALPHA
    beta = args.beta if args.beta is not None else analysis.MARKING_BETA
    bounds["randomized"] = analysis.bound_c_randomized(alpha, beta, args.epsilon, args.delta)
    with suppress(InvalidParams):  # the formula's exact domain decides if it has a row
        bounds["lower"] = analysis.lower_bound_c(args.epsilon, args.delta)
    if args.range is not None:
        b = analysis.proof_b(args.epsilon, args.delta, args.range)
        if b > 0:
            query = analysis.BoundQuery("ratio", b)
            bounds["technical_ratio"] = analysis.bound_c_technical(
                query, args.range, args.epsilon, args.delta)
            query = analysis.BoundQuery("log", b, alpha=alpha, beta=beta)
            bounds["technical_log"] = analysis.bound_c_technical(
                query, args.range, args.epsilon, args.delta)
    params = {"epsilon": args.epsilon, "delta": args.delta,
              "alpha": alpha, "beta": beta, "range": args.range}
    # the report refuses a bound or parameter that is not finite
    columns = {"bound": list(bounds), "value": list(bounds.values())}
    _emit(ExperimentReport("bounds", params, columns), args.format, args.out)
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing does not change it,
    and every ``func`` default looks up what it calls when it runs."""
    parser = argparse.ArgumentParser(
        prog="cachelab",
        description="File-caching policy engine and competitive-analysis harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the Landlord engine over a trace")
    p_run.add_argument("--trace", required=True)
    p_run.add_argument("--cache-size", type=int, required=True)
    _add_policy_flags(p_run)
    _add_report_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="bad-set sweep over k in {1..n}")
    p_sweep.add_argument("--trace", required=True)
    p_sweep.add_argument("--range", type=int, required=True, metavar="N")
    p_sweep.add_argument("--epsilon", type=_fraction, required=True)
    p_sweep.add_argument("--delta", type=_fraction, required=True)
    p_sweep.add_argument("--alg", default="landlord",
                         choices=("landlord", "lru", "fifo", "fwf", "marking", "opt"))
    p_sweep.add_argument("--seed", type=int, help="required for --alg marking")
    _add_policy_flags(p_sweep)  # --alg landlord alone reads them
    _add_report_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_opt = sub.add_parser("opt", help="exact offline minimum cost")
    p_opt.add_argument("--trace", required=True)
    p_opt.add_argument("--cache-size", type=int, required=True)
    _add_report_flags(p_opt)
    p_opt.set_defaults(func=cmd_opt)

    p_audit = sub.add_parser("audit", help="potential-function audit of a run")
    p_audit.add_argument("--trace", required=True)
    p_audit.add_argument("--cache-size", type=int, required=True,
                         help="Landlord's cache size k")
    p_audit.add_argument("--handicap", type=int,
                         help="optimal cache size h (default: k)")
    _add_policy_flags(p_audit)
    _add_report_flags(p_audit)
    p_audit.set_defaults(func=cmd_audit)

    p_gen = sub.add_parser("gen", help="generate the adversarial trace")
    p_gen.add_argument("--epsilon", type=_fraction, required=True)
    p_gen.add_argument("--delta", type=_fraction, required=True)
    p_gen.add_argument("--range", type=int, required=True, metavar="N")
    p_gen.add_argument("--out", required=True, help="trace file to write")
    _add_report_flags(p_gen, include_out=False)
    p_gen.set_defaults(func=cmd_gen)

    p_bounds = sub.add_parser("bounds", help="closed-form threshold constants")
    p_bounds.add_argument("--epsilon", type=_fraction, required=True)
    p_bounds.add_argument("--delta", type=_fraction, required=True)
    p_bounds.add_argument("--alpha", type=float)
    p_bounds.add_argument("--beta", type=float)
    p_bounds.add_argument("--range", type=int, metavar="N")
    _add_report_flags(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, CacheLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
