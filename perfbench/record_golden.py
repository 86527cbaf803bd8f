"""Record the digests that the benchmark checks op results against.

Run from the repository root, on the commit whose results are the
reference (the digests in golden.json come from the code before any engine
change):

    python3 perfbench/record_golden.py

For each recorded seed it runs every zipf_files and hot_set op once and
stores the digest of the RunReport or of the report bytes.  The
adversarial_sweep trace does not depend on the seed; its digest covers every
sweep except the seeded MARKING one.  Seeds without digests are still
checked exactly, just not against a recorded answer.
"""

import json
import os
import shutil
import sys

from run import import_cachelab

RECORDED_SEEDS = list(range(100))
HELD_OUT_SEED = 4242


def main():
    root = os.getcwd()
    import_cachelab(root)
    from measure import NULL
    from workloads import SWEEP_ALGS, WORKDIR, WORKLOADS, adversarial_digest

    os.makedirs(WORKDIR, exist_ok=True)
    golden = {}
    try:
        for name in ("zipf_files", "hot_set"):
            workload = WORKLOADS[name]
            table = golden[name] = {}
            for seed in RECORDED_SEEDS + [HELD_OUT_SEED]:
                ctx = workload.setup(seed, {})
                table[str(seed)] = {
                    variant: workload.examine(
                        ctx, variant, workload.run_op(ctx, variant, NULL)).fingerprint
                    for variant in workload.round_ops(ctx, 0)}
                print(name, seed, file=sys.stderr)
        workload = WORKLOADS["adversarial_sweep"]
        ctx = workload.setup(0, {})
        result = workload.run_op(ctx, "sweep", NULL)
        golden["adversarial_sweep"] = {
            "*": {"deterministic": adversarial_digest(result, SWEEP_ALGS[:3])}}
    finally:
        shutil.rmtree(os.path.join(root, WORKDIR), ignore_errors=True)
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json"),
              "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
