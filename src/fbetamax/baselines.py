"""Reference algorithms: a count-stratified plug-in baseline and binary relevance.

The count-stratified baseline (tagged "efp" throughout) estimates the same
statistic means as the surrogate route but through one binary model for the
empty labeling plus one per-tag multinomial over the observed counts; both
routes share the decoder.  Binary relevance thresholds s independent
per-tag marginals at 1/2 and ignores the F-measure structure entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.special import expit

from .fmeasure import BetaParam, StatIndex
from .training import (
    Dataset,
    SubproblemReport,
    TrainConfig,
    _as_feature_matrix,
    _predict_by_chunks,
    _row_blocks,
    fit_logistic_columns,
    multinomial_prob_rows,
    train_multinomial,
)

__all__ = [
    "BrModel",
    "EfpModel",
    "train_br",
    "train_efp",
]


@dataclass(frozen=True)
class EfpModel:
    """Count-stratified probability blocks feeding the shared decoder.

    zero_weights scores the empty-labeling probability; label_weights[j-1]
    is a softmax block over the classes (inactive, count_1, ..., count_r)
    for tag j, where the counts are the observed ones in ascending order.
    """

    s: int
    d: int
    beta: BetaParam
    counts: tuple[int, ...]
    zero_weights: np.ndarray
    label_weights: np.ndarray
    bias: bool
    reg_lambda: float
    reports: tuple[SubproblemReport, ...] = ()

    def __post_init__(self) -> None:
        zero_w = np.array(self.zero_weights, dtype=np.float64)
        label_w = np.array(self.label_weights, dtype=np.float64)
        counts = tuple(int(k) for k in self.counts)
        if sorted(set(counts)) != list(counts) or any(k < 1 or k > self.s for k in counts):
            raise ValueError("counts must be strictly increasing and lie in 1..s")
        if zero_w.shape != (self.d + 1,):
            raise ValueError("zero block needs d+1 weights")
        if label_w.shape != (self.s, len(counts) + 1, self.d + 1):
            raise ValueError(
                f"label blocks must have shape ({self.s}, {len(counts) + 1}, {self.d + 1})"
            )
        if not (np.all(np.isfinite(zero_w)) and np.all(np.isfinite(label_w))):
            raise ValueError("model weights must be finite")
        zero_w.flags.writeable = False
        label_w.flags.writeable = False
        object.__setattr__(self, "zero_weights", zero_w)
        object.__setattr__(self, "label_weights", label_w)
        object.__setattr__(self, "counts", counts)

    @cached_property
    def _pair_flats(self) -> np.ndarray:
        flats = np.array(
            [
                [StatIndex.pair(j, k).flat(self.s) for k in self.counts]
                for j in range(1, self.s + 1)
            ],
            dtype=np.intp,
        )
        flats.flags.writeable = False
        return flats

    def stat_prob_rows(self, X) -> np.ndarray:
        """(m, s^2+1) estimated means assembled from the probability blocks, chunk by chunk."""
        X = _as_feature_matrix(X, self.d)
        out = np.zeros((X.shape[0], self.s * self.s + 1))
        for rows, X_rows in _row_blocks(X, self.s):
            zero_score = X_rows @ self.zero_weights[: self.d]
            if self.bias:
                zero_score += self.zero_weights[self.d]
            out[rows, 0] = expit(zero_score)
            for j in range(1, self.s + 1):
                probs = multinomial_prob_rows(self.label_weights[j - 1], X_rows, self.bias)
                out[rows, self._pair_flats[j - 1]] = probs[:, 1:]
        return out

    def predict_rows(self, X) -> np.ndarray:
        """(m, s) decoded labelings as a bit matrix, scored and decoded chunk by chunk."""
        return _predict_by_chunks(self, X)


def train_efp(data: Dataset, cfg: TrainConfig, beta: BetaParam) -> EfpModel:
    """Fit the count-stratified baseline on the observed counts of the sample."""
    if data.m == 0:
        raise ValueError("cannot train on an empty dataset")
    counts = tuple(sorted(k for k in data.observed_counts if k >= 1))
    popcounts = data.bits.sum(axis=1)
    zero_weights, reports = fit_logistic_columns(
        data.features, (popcounts == 0)[:, None], cfg, ["zero"]
    )
    # class of an active tag: the position of its row's count among counts
    class_of_count = np.zeros(data.s + 1, dtype=np.intp)
    class_of_count[list(counts)] = np.arange(1, len(counts) + 1)
    label_weights = np.empty((data.s, len(counts) + 1, data.d + 1))
    for j in range(1, data.s + 1):
        class_of = np.where(data.bits[:, j - 1] == 1, class_of_count[popcounts], 0)
        fit = train_multinomial(
            data, class_of, len(counts) + 1, cfg, name=f"tag {j}"
        )
        label_weights[j - 1] = fit.weights
        reports.append(fit.report)
    return EfpModel(
        s=data.s,
        d=data.d,
        beta=beta,
        counts=counts,
        zero_weights=zero_weights[0],
        label_weights=label_weights,
        bias=cfg.bias,
        reg_lambda=cfg.reg_lambda,
        reports=tuple(reports),
    )


@dataclass(frozen=True)
class BrModel:
    """Binary relevance: one per-tag marginal model, thresholded at 1/2.

    A tag is predicted active when its estimated marginal is >= 1/2, i.e.
    when its raw score is >= 0.
    """

    s: int
    d: int
    weights: np.ndarray
    bias: bool
    reg_lambda: float
    reports: tuple[SubproblemReport, ...] = ()

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=np.float64)
        if weights.shape != (self.s, self.d + 1):
            raise ValueError(f"weights must have shape ({self.s}, {self.d + 1})")
        if not np.all(np.isfinite(weights)):
            raise ValueError("model weights must be finite")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)

    def score_rows(self, X) -> np.ndarray:
        X = _as_feature_matrix(X, self.d)
        return X @ self.weights[:, : self.d].T + self.weights[:, self.d]

    def marginal_rows(self, X) -> np.ndarray:
        """(m, s) estimated per-tag marginals."""
        return expit(self.score_rows(X))

    def predict_rows(self, X) -> np.ndarray:
        return (self.score_rows(X) >= 0.0).astype(np.uint8)


def train_br(data: Dataset, cfg: TrainConfig) -> BrModel:
    """Fit s independent per-tag binary logistic models."""
    if data.m == 0:
        raise ValueError("cannot train on an empty dataset")
    weights, reports = fit_logistic_columns(
        data.features, data.bits, cfg, [f"tag {j}" for j in range(1, data.s + 1)]
    )
    return BrModel(
        s=data.s,
        d=data.d,
        weights=weights,
        bias=cfg.bias,
        reg_lambda=cfg.reg_lambda,
        reports=tuple(reports),
    )
