"""Layered benchmark for cachelab.

Run from the repository root:

    python3 perfbench/run.py --workload zipf_files --seed 1 --seconds 20 --trace 0

The benchmark generates its inputs from ``--seed``, runs one workload's ops
in a closed loop (one caller, one op at a time, one process) for at least
``--seconds`` seconds of whole rounds, checks every op's exact result, and
prints human-readable lines followed by one JSON line.  With ``--trace 0``
the JSON holds the end-to-end metrics; with ``--trace 1`` each op also runs
a second time with spans around every call into cachelab, and the JSON
holds the per-layer metrics and the tracing overhead.  See README.md in
this directory for the workloads and what each metric should move.
"""

import argparse
import json
import os
import shutil
import sys
from statistics import median

from reference import timed

SETUP_REPEATS = 5
WORKLOAD_NAMES = ("zipf_files", "hot_set", "adversarial_sweep", "desk_exact")


def refuse(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_cachelab(root):
    """Import cachelab from ``<root>/src`` SETUP_REPEATS times, each time from
    scratch; return the median import time in seconds, at reference speed
    and on the wall clock."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cachelab", "__init__.py")):
        refuse(f"no cachelab sources under {src}")
    sys.path.insert(0, src)

    def fresh_import():
        for name in [m for m in sys.modules if m.split(".")[0] == "cachelab"]:
            del sys.modules[name]
        import cachelab.cli  # noqa: F401

    times = [timed(fresh_import)[1:] for _ in range(SETUP_REPEATS)]
    import cachelab
    if os.path.dirname(os.path.dirname(os.path.abspath(cachelab.__file__))) != src:
        refuse(f"cachelab was imported from {cachelab.__file__}, not {src}")
    return median(t for _, t in times), median(w for w, _ in times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    import_s, import_wall_s = import_cachelab(root)
    from measure import WORKDIR, benchmark, describe, load_golden
    try:
        run, e2e, layer = benchmark(args.workload, args.seed, args.seconds,
                                    bool(args.trace), import_s, import_wall_s)
    finally:
        shutil.rmtree(os.path.join(root, WORKDIR), ignore_errors=True)
    print(describe(run, e2e, layer, bool(load_golden(args.workload, args.seed))))
    chosen = layer if args.trace else e2e
    correct = run.failed == 0 and bool(run.latencies)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
