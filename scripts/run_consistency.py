#!/usr/bin/env python3
"""Learning-curve experiment: surrogate vs plug-in vs per-tag baselines.

Trains every method on nested prefixes of one synthetic sample, scores all
of them on a shared held-out set, and reports how fast each closes the gap
to the best attainable F1.  Writes the same CSV as `fbetamax consistency`
plus a readable table with the estimation-error extras.
"""

from __future__ import annotations

import argparse
import sys
import time

from fbetamax.cli import CONSISTENCY_CSV_COLUMNS, _parse_sizes, check_converged, run_consistency
from fbetamax.fmeasure import BetaParam
from fbetamax.synth import SUPPORTS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sizes", default="100,316,1000,3162,10000")
    parser.add_argument("--test-size", type=int, default=15000)
    parser.add_argument("--tags", type=int, default=6)
    parser.add_argument("--dim", type=int, default=100)
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--reg", type=float, default=1e-4)
    parser.add_argument("--support", choices=SUPPORTS, default="full")
    parser.add_argument("--out", default=None, help="optional CSV path")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    rows = run_consistency(
        seed=args.seed,
        sizes=_parse_sizes(args.sizes),
        test_size=args.test_size,
        s=args.tags,
        d=args.dim,
        beta=BetaParam(args.beta),
        reg_lambda=args.reg,
        support=args.support,
    )
    elapsed = time.perf_counter() - start

    header = (
        f"{'m':>6}  {'F1 surr':>8}  {'F1 efp':>8}  {'F1 br':>8}  "
        f"{'F1 bayes':>8}  {'gap':>8}  {'mae s/e':>13}  {'bound ok':>8}"
    )
    print(header)
    for row in rows:
        gap = row.f1_bayes - row.f1_surrogate
        print(
            f"{row.m:>6}  {row.f1_surrogate:>8.4f}  {row.f1_efp:>8.4f}  "
            f"{row.f1_br:>8.4f}  {row.f1_bayes:>8.4f}  {gap:>8.4f}  "
            f"{row.mae_surrogate:>6.4f}/{row.mae_efp:.4f}  "
            f"{'yes' if row.bound_ok else 'NO':>8}"
        )
    print(f"total {elapsed:.1f}s")

    check_converged(rows)
    if args.out:
        lines = [",".join(CONSISTENCY_CSV_COLUMNS)]
        lines.extend(row.to_csv_row() for row in rows)
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
