"""Reference algorithms: a count-stratified plug-in baseline and binary relevance.

The count-stratified baseline (tagged "efp" throughout) estimates the same
statistic means as the surrogate route but through one binary model for the
empty labeling plus one per-tag multinomial over the observed counts; both
routes share the decoder.  Binary relevance thresholds s independent
per-tag marginals at 1/2 and ignores the F-measure structure entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .fmeasure import BetaParam
from .surrogate import SurrogateConfig, coordinates
from .training import (
    Dataset,
    SubproblemReport,
    TrainConfig,
    _RowScorer,
    _as_feature_matrix,
    _shifted_softmax,
    _weight_rows,
    fit_logistic_columns,
    train_multinomial,
)

__all__ = [
    "BrModel",
    "EfpModel",
    "train_br",
    "train_efp",
]


@dataclass(frozen=True, eq=False)
class EfpModel(_RowScorer):
    """Count-stratified probability blocks feeding the shared decoder.

    weights has 1 + s*(1 + |K|) rows of length d+1, bias last.  Row 0
    scores the empty-labeling probability; then comes one softmax block of
    1 + |K| rows per tag, tag 1 first, over the classes (inactive, count_1,
    ..., count_r) for the observed counts in ascending order.
    """

    s: int
    d: int
    beta: BetaParam
    counts: tuple[int, ...]
    weights: np.ndarray
    bias: bool
    reg_lambda: float
    reports: tuple[SubproblemReport, ...] = ()

    def __post_init__(self) -> None:
        counts = tuple(int(k) for k in self.counts)
        if sorted(set(counts)) != list(counts) or any(k < 1 or k > self.s for k in counts):
            raise ValueError("counts must be strictly increasing and lie in 1..s")
        rows = 1 + self.s * (1 + len(counts))
        object.__setattr__(self, "weights", _weight_rows(self.weights, rows, self.d))
        object.__setattr__(self, "counts", counts)

    def stat_prob_rows(self, X) -> np.ndarray:
        """(m, s^2+1) estimated means assembled from the probability blocks, piece by piece."""
        X = _as_feature_matrix(X, self.d)
        out = np.zeros((X.shape[0], self.s * self.s + 1))
        pair_flats = coordinates(self.s, self.counts)[1][1:]

        def write(rows: slice, scores: np.ndarray) -> None:
            n = len(scores)
            out[rows, 0] = expit(scores[:, 0])
            blocks = scores[:, 1:].reshape(n, self.s, 1 + len(self.counts))
            probs = _shifted_softmax(blocks)[0]
            out[rows, pair_flats] = probs[:, :, 1:].reshape(n, -1)

        self._map_scores(X, write)
        return out


def train_efp(data: Dataset, cfg: TrainConfig, beta: BetaParam) -> EfpModel:
    """Fit the count-stratified baseline on the observed counts of the sample."""
    if data.m == 0:
        raise ValueError("cannot train on an empty dataset")
    counts = SurrogateConfig.for_counts(data.s, data.observed_counts, beta).counts
    popcounts = data.bits.sum(axis=1)
    weights = np.zeros((1 + data.s * (1 + len(counts)), data.d + 1))
    weights[:1], reports = fit_logistic_columns(
        data.features, (popcounts == 0)[:, None], cfg, ["zero"]
    )
    # class of an active tag: the position of its row's count among counts
    class_of_count = np.zeros(data.s + 1, dtype=np.intp)
    class_of_count[list(counts)] = np.arange(1, len(counts) + 1)
    # with no positive count every tag block has one class, probability 1: nothing to fit
    blocks = weights[1:].reshape(data.s, 1 + len(counts), data.d + 1)
    for j in range(1, data.s + 1) if counts else ():
        class_of = np.where(data.bits[:, j - 1] == 1, class_of_count[popcounts], 0)
        fit = train_multinomial(
            data, class_of, len(counts) + 1, cfg, name=f"tag {j}"
        )
        blocks[j - 1] = fit.weights
        reports.append(fit.report)
    return EfpModel(
        s=data.s,
        d=data.d,
        beta=beta,
        counts=counts,
        weights=weights,
        bias=cfg.bias,
        reg_lambda=cfg.reg_lambda,
        reports=tuple(reports),
    )


@dataclass(frozen=True, eq=False)
class BrModel(_RowScorer):
    """Binary relevance: one per-tag marginal model, thresholded at 1/2.

    weights has one row per tag, of length d+1 with the bias last.  A tag
    is predicted active when its estimated marginal is >= 1/2, i.e. when
    its raw score is >= 0.
    """

    s: int
    d: int
    weights: np.ndarray
    bias: bool
    reg_lambda: float
    reports: tuple[SubproblemReport, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _weight_rows(self.weights, self.s, self.d))

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
