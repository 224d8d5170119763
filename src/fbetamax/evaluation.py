"""Scoring, regret estimation, the regret transfer bound, and cross-validation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import sparse

from . import decoding
from .decoding import _check_means, _map_rows, _slices, decode_rows
from .fmeasure import BetaParam, LabelVec, _bit_matrix, _loss_coeffs_rows
from .losses import STRONG_PROPERNESS, pointwise_binary_regret
from .training import Dataset

__all__ = [
    "DEFAULT_REG_GRID",
    "EvalReport",
    "bayes_f",
    "check_regret_bound",
    "cross_validate",
    "evaluate",
    "evaluate_bits",
    "exact_f_regret",
    "mean_expected_f",
    "regret_transfer_bound",
    "surrogate_regret_estimate",
]

# eight log-spaced ridge strengths, one per decade
DEFAULT_REG_GRID = tuple(10.0 ** e for e in range(-4, 4))

# (rows, n) float arrays that one row block of surrogate_regret_estimate
# keeps alive at once: its scores, its means at the n active coordinates,
# and the four of pointwise_binary_regret
_REGRET_ARRAYS = 6
# rounding that check_regret_bound forgives an F-regret above its bound
_SLACK = 1e-9


@dataclass(frozen=True)
class EvalReport:
    """Test-set summary; evaluate leaves the regret fields None; they stay as report columns."""

    m_test: int
    mean_f: float
    mean_precision: float
    mean_recall: float
    f_regret: float | None = None
    psi_regret: float | None = None
    bound: float | None = None
    bound_satisfied: bool | None = None

    CSV_COLUMNS = (
        "m_test",
        "mean_f",
        "mean_precision",
        "mean_recall",
        "f_regret",
        "psi_regret",
        "bound",
        "bound_satisfied",
    )

    def _cells(self) -> list[str]:
        return [_cell(getattr(self, key)) for key in self.CSV_COLUMNS]

    def to_kv(self) -> str:
        """Flat key=value block, one field per line, empty for absent fields."""
        return "\n".join(f"{key}={cell}" for key, cell in zip(self.CSV_COLUMNS, self._cells()))

    def to_csv_row(self) -> str:
        return ",".join(self._cells())


def _cell(val) -> str:
    """One report value as text: None empty, bool 0/1, int as is, float to 12 digits."""
    if val is None:
        return ""
    if isinstance(val, bool):
        return str(int(val))
    if isinstance(val, int):
        return str(val)
    return f"{val:.12g}"


def evaluate_bits(pred_bits: np.ndarray, true_bits: np.ndarray, beta: BetaParam) -> EvalReport:
    """Instance-averaged F-beta, precision, and recall for bit matrices."""
    pred_bits = _bit_matrix(pred_bits)
    true_bits = _bit_matrix(true_bits)
    if pred_bits.shape != true_bits.shape:
        raise ValueError(
            f"prediction and truth shapes differ: {pred_bits.shape} vs {true_bits.shape}"
        )
    m = pred_bits.shape[0]
    if m == 0:
        raise ValueError("cannot evaluate an empty test set")
    inter = (pred_bits & true_bits).sum(axis=1)
    n_true = true_bits.sum(axis=1)
    n_pred = pred_bits.sum(axis=1)
    prec = np.where(n_pred == 0, 1.0, inter / np.where(n_pred == 0, 1, n_pred))
    rec = np.where(n_true == 0, 1.0, inter / np.where(n_true == 0, 1, n_true))
    # F-beta per instance, with the 0/0 = 1 rule
    denom = beta.beta_sq * n_true + n_pred
    both_empty = denom == 0
    f = np.where(both_empty, 1.0, (1.0 + beta.beta_sq) * inter / np.where(both_empty, 1.0, denom))
    return EvalReport(
        m_test=m,
        mean_f=float(np.mean(f)),
        mean_precision=float(np.mean(prec)),
        mean_recall=float(np.mean(rec)),
    )


def evaluate(pred: Sequence[LabelVec] | np.ndarray, truth: Sequence[LabelVec] | np.ndarray,
             beta: BetaParam) -> EvalReport:
    """Instance-averaged F-beta, precision, and recall of predicted labelings.

    Each side is a sequence of LabelVec or an (m, s) bit matrix.
    """
    if len(pred) != len(truth):
        raise ValueError("prediction and truth counts differ")
    return evaluate_bits(pred, truth, beta)


def mean_expected_f(prob_rows: np.ndarray, pred_bits: np.ndarray, beta: BetaParam) -> float:
    """Mean over points of the exact expected F-beta of each prediction.

    Monte-Carlo-free: uses the true statistic means per point instead of a
    sampled labeling.  Rows go through the decoder's row pieces, so the
    coefficient temporaries stay O(chunk * s^2) whatever m is.
    """
    prob_rows = np.asarray(prob_rows, dtype=np.float64)
    pred_bits = _bit_matrix(pred_bits)
    m, s = pred_bits.shape
    if m == 0:
        raise ValueError("cannot evaluate an empty test set")
    if prob_rows.shape != (m, s * s + 1):
        raise ValueError(f"expected means of shape ({m}, {s * s + 1}), got {prob_rows.shape}")
    per_point = np.empty(m)

    def piece(rows: slice) -> None:
        _check_means(prob_rows[rows])
        coeffs = _loss_coeffs_rows(pred_bits[rows], beta)
        coeffs *= prob_rows[rows]
        per_point[rows] = -np.sum(coeffs, axis=1)

    _map_rows(piece, m, s)
    return float(np.mean(per_point))


def bayes_f(prob_rows: np.ndarray, s: int, beta: BetaParam) -> float:
    """Mean expected F-beta of the optimal decoder given the true means."""
    bits, objectives = decode_rows(prob_rows, s, beta)
    if len(objectives) == 0:
        raise ValueError("cannot evaluate an empty test set")
    return float(np.mean(-objectives))


def exact_f_regret(prob_rows: np.ndarray, pred_bits: np.ndarray, s: int,
                   beta: BetaParam) -> float:
    """bayes_f minus the predictions' mean expected F-beta; >= 0 up to rounding."""
    return bayes_f(prob_rows, s, beta) - mean_expected_f(prob_rows, pred_bits, beta)


def surrogate_regret_estimate(model, X, prob_rows: np.ndarray) -> float:
    """Mean over points of the summed per-coordinate pointwise regrets.

    The model supplies scores at its active coordinates; the true means at
    those coordinates come from prob_rows, the (m, s^2+1) means of the
    model's s tags, each checked to lie in [0, 1] as the decoder checks
    them.  This is the plug-in estimate of the surrogate risk gap that
    feeds the regret transfer bound.  Rows are scored and summed one block
    at a time on this thread, each block within decoding.CHUNK_ENTRIES, so
    memory does not grow with m.
    """
    prob_rows = np.asarray(prob_rows, dtype=np.float64)
    flats = model.active_flats
    m = len(prob_rows)
    X = X.tocsr() if sparse.issparse(X) else np.asarray(X)
    if X.shape[0] != m:
        raise ValueError("score and mean shapes differ")
    width = model.s * model.s + 1
    if prob_rows.shape != (m, width):
        raise ValueError(f"expected means of shape ({m}, {width}), got {prob_rows.shape}")
    if m == 0:
        raise ValueError("cannot evaluate an empty test set")
    per_point = np.empty(m)
    nnz = X.nnz if sparse.issparse(X) else np.count_nonzero(X)
    per_row = _REGRET_ARRAYS * len(flats) + math.ceil(1.5 * nnz / m)
    for rows in _slices(m, max(1, decoding.CHUNK_ENTRIES // per_row)):
        _check_means(prob_rows[rows])
        scores = model.score_rows(X[rows])
        q_active = prob_rows[rows, flats]
        if scores.shape != q_active.shape:
            raise ValueError("score and mean shapes differ")
        per_point[rows] = pointwise_binary_regret(q_active, scores).sum(axis=1)
    return float(np.mean(per_point))


def regret_transfer_bound(psi_regret: float, s: int, beta: BetaParam) -> float:
    """((1+beta^2)/beta) * sqrt(2 (ln s + 1) / lambda * psi_regret).

    Any decoder output whose surrogate regret is psi_regret has F-beta
    regret at most this value, where lambda = STRONG_PROPERNESS is the
    strong properness modulus of the logistic loss.
    """
    if psi_regret < 0.0:
        psi_regret = 0.0
    scale = (1.0 + beta.beta_sq) / beta.beta
    return scale * np.sqrt(2.0 * (np.log(s) + 1.0) / STRONG_PROPERNESS * psi_regret)


def check_regret_bound(f_regret: float, psi_regret: float, s: int,
                       beta: BetaParam) -> tuple[float, bool]:
    """Evaluate the transfer bound and whether the measured F-regret obeys it within _SLACK."""
    bound = regret_transfer_bound(psi_regret, s, beta)
    return bound, bool(f_regret <= bound + _SLACK)


def _subset(data: Dataset, rows: np.ndarray) -> Dataset:
    return Dataset(s=data.s, d=data.d, features=data.features[rows], labels=data.bits[rows])


def cross_validate(
    data: Dataset,
    fit: Callable[[Dataset, float], object],
    grid: Sequence[float] = DEFAULT_REG_GRID,
    folds: int = 5,
    beta: BetaParam = BetaParam(1.0),
    seed: int = 0,
) -> tuple[float, list[tuple[float, int, float]]]:
    """Pick the ridge strength maximizing mean validation instance-F-beta.

    The rows are shuffled once with the given seed and cut into `folds`
    contiguous blocks.  fit(train_subset, reg) must return a model with a
    predict_rows method.  Returns (best_reg, rows) where rows lists
    (reg, fold, mean_f) in grid-major order; ties prefer the smaller reg.
    """
    if folds < 2:
        raise ValueError("cross-validation needs at least 2 folds")
    if data.m < folds:
        raise ValueError(f"need at least {folds} instances for {folds}-fold splits")
    grid = sorted(float(g) for g in grid)
    if not grid:
        raise ValueError("the grid must be non-empty")
    fold_rows = np.array_split(np.random.default_rng(seed).permutation(data.m), folds)
    all_rows = np.arange(data.m)
    rows_out: list[tuple[float, int, float]] = []
    best_reg, best_score = grid[0], -np.inf
    for reg in grid:
        scores = []
        for fold_id, val_rows in enumerate(fold_rows):
            train_rows = np.setdiff1d(all_rows, val_rows)
            model = fit(_subset(data, train_rows), reg)
            pred = model.predict_rows(data.features[val_rows])
            mean_f = evaluate_bits(pred, data.bits[val_rows], beta).mean_f
            scores.append(mean_f)
            rows_out.append((reg, fold_id, mean_f))
        mean_over_folds = float(np.mean(scores))
        # strict improvement keeps the smaller reg on ties
        if mean_over_folds > best_score:
            best_score = mean_over_folds
            best_reg = reg
    return best_reg, rows_out
