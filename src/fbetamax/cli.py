"""Command-line pipeline: synth, train, predict, evaluate, convert, consistency, crossval.

Every command is deterministic given its flags and seed; errors exit with
status 1 and a one-line diagnostic on stderr.  A train, crossval or
consistency run in which any subproblem misses its gradient tolerance is an
error: it writes no model, chooses no reg, or writes no CSV.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import dataio, evaluation
from .baselines import train_br, train_efp
from .decoding import decode_rows
from .fmeasure import BetaParam, labelvec_rows
from .surrogate import SurrogateConfig
from .synth import build_distribution, sample_batch
from .training import Dataset, TrainConfig, train_surrogate

__all__ = ["ConsistencyRow", "check_converged", "main", "run_consistency"]

CONSISTENCY_CSV_COLUMNS = (
    "m",
    "f1_surrogate",
    "f1_efp",
    "f1_br",
    "f1_bayes",
    "psi_regret",
    "regret_bound",
    "bound_ok",
)

# ridge strength for the fixed-reg learning-curve runs
_CONSISTENCY_REG = 1e-4


@dataclass(frozen=True)
class ConsistencyRow:
    """One training-set size of the learning-curve experiment."""

    m: int
    f1_surrogate: float
    f1_efp: float
    f1_br: float
    f1_bayes: float
    psi_regret: float
    regret_bound: float
    bound_ok: bool
    # extras beyond the CSV columns, for downstream checks
    f_regret: float
    mae_surrogate: float
    mae_efp: float
    efp_agreement: float
    # names of the unconverged subproblems per algorithm, empty when all passed
    unconverged: dict[str, tuple[str, ...]]

    def to_csv_row(self) -> str:
        return ",".join(
            [
                str(self.m),
                f"{self.f1_surrogate:.12g}",
                f"{self.f1_efp:.12g}",
                f"{self.f1_br:.12g}",
                f"{self.f1_bayes:.12g}",
                f"{self.psi_regret:.12g}",
                f"{self.regret_bound:.12g}",
                str(int(self.bound_ok)),
            ]
        )


def run_consistency(
    seed: int,
    sizes: tuple[int, ...],
    test_size: int = 15000,
    s: int = 6,
    d: int = 100,
    beta: BetaParam = BetaParam(1.0),
    reg_lambda: float = _CONSISTENCY_REG,
    support: str = "full",
) -> list[ConsistencyRow]:
    """Train all three algorithms along a size ladder on one synthetic task.

    Training sets are nested prefixes of one stream; the test stream is
    disjoint.  The synthetic optimum is linear through the origin in logit
    space, so the bias is disabled here.
    """
    if not sizes or any(n < 1 for n in sizes):
        raise ValueError("sizes must be positive")
    dist = build_distribution(seed, s=s, d=d, support=support)
    test = sample_batch(dist, test_size, stream=1)
    test_X = sparse.csr_matrix(test.features)
    f1_bayes = evaluation.bayes_f(test.stat_probs, s, beta)
    train_all = sample_batch(dist, max(sizes), stream=0)
    cfg = TrainConfig(reg_lambda=reg_lambda, bias=False)
    rows = []
    for m in sizes:
        sub = Dataset(
            s=s,
            d=d,
            features=sparse.csr_matrix(train_all.features[:m]),
            labels=train_all.bits[:m],
        )
        fits = {algo: _fit(algo, sub, cfg, beta) for algo in ("surrogate", "efp", "br")}
        model, efp, br = fits.values()
        unconverged = {
            algo: tuple(rep.name for rep in fit.reports if not rep.converged)
            for algo, fit in fits.items()
        }

        probs_surr = model.stat_prob_rows(test_X)
        bits_surr, _ = decode_rows(probs_surr, s, beta)
        probs_efp = efp.stat_prob_rows(test_X)
        bits_efp, _ = decode_rows(probs_efp, s, beta)
        bits_br = br.predict_rows(test_X)

        psi_regret = evaluation.surrogate_regret_estimate(model, test_X, test.stat_probs)
        f_regret = evaluation.exact_f_regret(test.stat_probs, bits_surr, s, beta)
        bound, bound_ok = evaluation.check_regret_bound(f_regret, psi_regret, s, beta)
        rows.append(
            ConsistencyRow(
                m=m,
                f1_surrogate=evaluation.evaluate_bits(bits_surr, test.bits, beta).mean_f,
                f1_efp=evaluation.evaluate_bits(bits_efp, test.bits, beta).mean_f,
                f1_br=evaluation.evaluate_bits(bits_br, test.bits, beta).mean_f,
                f1_bayes=f1_bayes,
                psi_regret=psi_regret,
                regret_bound=bound,
                bound_ok=bound_ok,
                f_regret=f_regret,
                mae_surrogate=float(np.mean(np.abs(probs_surr - test.stat_probs))),
                mae_efp=float(np.mean(np.abs(probs_efp - test.stat_probs))),
                efp_agreement=float(np.mean(np.all(bits_surr == bits_efp, axis=1))),
                unconverged=unconverged,
            )
        )
    return rows


def check_converged(unconverged: list[str], outcome: str) -> None:
    """Raise ValueError naming every unconverged subproblem; outcome says what was not written."""
    if unconverged:
        raise ValueError(
            f"{len(unconverged)} subproblem(s) did not converge: "
            f"{', '.join(unconverged)}; {outcome}"
        )


def _fit(algo: str, data: Dataset, cfg: TrainConfig, beta: BetaParam, full_k: bool = False):
    """Train one algorithm; the surrogate models the observed counts, or every count with full_k."""
    if algo == "efp":
        return train_efp(data, cfg, beta)
    if algo == "br":
        return train_br(data, cfg)
    counts = range(1, data.s + 1) if full_k else data.observed_counts
    return train_surrogate(data, cfg, SurrogateConfig.for_counts(data.s, counts, beta))


def _write_consistency_csv(rows, path) -> None:
    lines = [",".join(CONSISTENCY_CSV_COLUMNS)]
    lines.extend(row.to_csv_row() for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"bad sizes list {text!r}") from None
    if not sizes or any(n < 1 for n in sizes):
        raise ValueError("sizes must be positive integers")
    return sizes


def _parse_grid(text: str) -> tuple[float, ...]:
    """'1e-4:1e3' expands decade by decade; otherwise a comma list of floats."""
    if ":" in text:
        lo_txt, hi_txt = text.split(":", 1)
        lo, hi = float(lo_txt), float(hi_txt)
        if lo <= 0 or hi <= 0 or hi < lo:
            raise ValueError("grid endpoints must be positive with lo <= hi")
        e0 = round(np.log10(lo))
        e1 = round(np.log10(hi))
        return tuple(10.0 ** e for e in range(int(e0), int(e1) + 1))
    try:
        grid = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"bad grid {text!r}") from None
    if not grid or any(g <= 0 for g in grid):
        raise ValueError("grid values must be positive")
    return grid


def _print_reports(reports) -> None:
    for rep in reports:
        flag = "yes" if rep.converged else "NO"
        print(
            f"subproblem {rep.name}: objective={rep.objective:.6g} "
            f"grad_norm={rep.grad_norm:.3g} iters={rep.iterations} converged={flag}"
        )


def _cmd_synth(args) -> int:
    import os

    support = "exclusive" if args.br_adversarial else "full"
    dist = build_distribution(args.seed, s=args.s, d=args.d, support=support)
    train = sample_batch(dist, args.train_size, stream=0)
    test = sample_batch(dist, args.test_size, stream=1)
    os.makedirs(args.out_dir, exist_ok=True)
    from .synth import to_dataset

    train_path = os.path.join(args.out_dir, "train.mlsparse")
    test_path = os.path.join(args.out_dir, "test.mlsparse")
    q_path = os.path.join(args.out_dir, "test.qtrue")
    dataio.save_dataset(to_dataset(dist, train), train_path)
    dataio.save_dataset(to_dataset(dist, test), test_path)
    dataio.save_stat_probs(test.stat_probs, dist.s, q_path)
    print(f"wrote {train_path} ({train.m} rows)")
    print(f"wrote {test_path} ({test.m} rows)")
    print(f"wrote {q_path}")
    return 0


def _cmd_train(args) -> int:
    data = dataio.load_dataset(args.input)
    beta = BetaParam(args.beta)
    cfg = TrainConfig(reg_lambda=args.reg, bias=not args.no_bias)
    model = _fit(args.algo, data, cfg, beta, args.full_k)
    _print_reports(model.reports)
    check_converged([rep.name for rep in model.reports if not rep.converged], "no model written")
    dataio.save_model(model, args.model_out)
    print(f"wrote {args.model_out}")
    return 0


def _cmd_predict(args) -> int:
    model = dataio.load_model(args.model)
    data = dataio.load_dataset(args.input)
    if data.d != model.d or data.s != model.s:
        raise ValueError("model and dataset disagree on dimensions")
    labelings = labelvec_rows(model.predict_rows(data.features))
    dataio.save_predictions(labelings, args.out)
    print(f"wrote {args.out} ({len(labelings)} predictions)")
    return 0


def _cmd_evaluate(args) -> int:
    data = dataio.load_dataset(args.input)
    pred = dataio.load_predictions(args.pred, data.s)
    if len(pred) != data.m:
        raise ValueError(f"{len(pred)} predictions for {data.m} instances")
    report = evaluation.evaluate(pred, data.bits, BetaParam(args.beta))
    print(report.to_kv())
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(report.CSV_COLUMNS) + "\n" + report.to_csv_row() + "\n")
    return 0


def _cmd_convert(args) -> int:
    dataio.convert_interchange(args.src, args.dst, zero_based=not args.one_based)
    print(f"wrote {args.dst}")
    return 0


def _cmd_consistency(args) -> int:
    sizes = _parse_sizes(args.sizes)
    rows = run_consistency(args.seed, sizes)
    for row in rows:
        print(
            f"m={row.m}: f1_surrogate={row.f1_surrogate:.4f} f1_efp={row.f1_efp:.4f} "
            f"f1_br={row.f1_br:.4f} f1_bayes={row.f1_bayes:.4f} "
            f"psi_regret={row.psi_regret:.5f} bound_ok={int(row.bound_ok)} "
            f"mae_surrogate={row.mae_surrogate:.4f} mae_efp={row.mae_efp:.4f}"
        )
    check_converged([
        f"m={row.m} {algo} {name}"
        for row in rows
        for algo, names in row.unconverged.items()
        for name in names
    ], "no CSV written")
    _write_consistency_csv(rows, args.out)
    last = rows[-1]
    print(f"final gap (f1_bayes - f1_surrogate) at m={last.m}: "
          f"{last.f1_bayes - last.f1_surrogate:.4f}")
    print(f"wrote {args.out}")
    return 0


def _cmd_crossval(args) -> int:
    data = dataio.load_dataset(args.input)
    beta = BetaParam(args.beta)
    grid = _parse_grid(args.grid)
    reports = []

    def fit(sub: Dataset, reg: float):
        model = _fit(args.algo, sub, TrainConfig(reg_lambda=reg), beta)
        reports.append(model.reports)
        return model

    best, rows = evaluation.cross_validate(
        data, fit, grid, folds=args.folds, beta=beta, seed=args.seed
    )
    for reg, fold, mean_f in rows:
        print(f"reg={reg:.6g} fold={fold} f={mean_f:.6f}")
    # cross_validate fits once per (reg, fold) row, in row order
    check_converged([
        f"reg={reg:.6g} fold={fold} {rep.name}"
        for (reg, fold, _), fold_reports in zip(rows, reports)
        for rep in fold_reports
        if not rep.converged
    ], "no reg chosen")
    print(f"chosen reg={best:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbetamax",
        description="Multi-label F-beta learning via surrogate decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic train/test pair")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--s", type=int, default=6)
    p.add_argument("--d", type=int, default=100)
    p.add_argument("--train-size", type=int, default=10000)
    p.add_argument("--test-size", type=int, default=15000)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--br-adversarial", action="store_true",
                   help="use the mutually exclusive tag support")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="fit a model on a dataset file")
    p.add_argument("--algo", choices=dataio.ALGORITHMS, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--reg", type=float, default=1e-4)
    p.add_argument("--full-k", action="store_true",
                   help="activate every count, not just the observed ones")
    p.add_argument("--no-bias", action="store_true")
    p.add_argument("--model-out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="decode predictions for a dataset file")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score a predictions file against a dataset")
    p.add_argument("--pred", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--out", default=None, help="also write the report as CSV")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("convert", help="convert an interchange dump into a dataset file")
    p.add_argument("src", help="interchange file: 'num_points num_features num_labels', "
                               "then one 'label,label idx:val ...' line per point")
    p.add_argument("dst", help="dataset file to write")
    p.add_argument("--one-based", action="store_true",
                   help="label and feature ids in src start at 1 instead of 0")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("consistency", help="learning-curve experiment on synthetic data")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", default="100,316,1000,3162,10000")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_consistency)

    p = sub.add_parser("crossval", help="pick the ridge strength by cross-validation")
    p.add_argument("--algo", choices=dataio.ALGORITHMS, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--grid", default="1e-4:1e3")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_crossval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
