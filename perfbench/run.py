"""Run one fbetamax benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload fit-s6 --seed 1 --seconds 30 --trace 0

The program is imported from ./src.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it describe the environment, the inputs and the passes.  The
exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

WORKLOADS = ("fit-s6", "predict-s50", "cli-sparse")

# BLAS runs single-threaded: the workloads' dense products are small, and
# one thread keeps timings steady on a shared machine.  Set before numpy loads.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fbetamax", "__init__.py")):
        print("error: src/fbetamax not found; run from the root of an fbetamax checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [os.path.join(root, "src"), os.path.dirname(os.path.abspath(__file__))]

    import harness

    result, rec = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(rec.info, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
