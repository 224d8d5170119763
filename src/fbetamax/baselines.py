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

from .fmeasure import BetaParam, _fill_counts
from .losses import sigmoid_into
from .surrogate import SurrogateConfig
from .training import (
    Dataset,
    SubproblemReport,
    TrainConfig,
    _RowScorer,
    _shifted_softmax,
    _Trained,
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
        # counts equal their normalized count set only if sorted, unique and within 1..s
        counts = SurrogateConfig(self.s, self.beta, self.counts).counts
        if counts != tuple(self.counts):
            raise ValueError("counts must be strictly increasing and lie in 1..s")
        rows = 1 + self.s * (1 + len(counts))
        object.__setattr__(self, "weights", _weight_rows(self.weights, rows, self.d))
        object.__setattr__(self, "counts", counts)

    def _means(self, scores: np.ndarray, out: np.ndarray) -> None:
        s, counts = self.s, self.counts
        probs = _shifted_softmax(scores[:, 1:].reshape(len(scores), s, 1 + len(counts)))[0]
        _fill_counts(out, s, counts, probs[:, :, 1:])
        sigmoid_into(scores[:, 0], out=out[:, 0])


def train_efp(data: Dataset, cfg: TrainConfig, beta: BetaParam) -> EfpModel:
    """Fit the count-stratified baseline on the observed counts of the sample."""
    counts = SurrogateConfig.for_counts(data.s, data.observed_counts, beta).counts
    popcounts = data.bits.sum(axis=1)
    weights = np.zeros((1 + data.s * (1 + len(counts)), data.d + 1))
    weights[:1], reports = fit_logistic_columns(
        data.features, (popcounts == 0)[:, None], cfg, ["zero"]
    )
    # with no positive count every tag block has one class, probability 1: nothing to fit
    if counts:
        # class of an active tag: the position of its row's count among counts
        class_of_count = np.zeros(data.s + 1, dtype=np.intp)
        class_of_count[list(counts)] = np.arange(1, len(counts) + 1)
        classes = np.where(data.bits == 1, class_of_count[popcounts][:, None], 0)
        blocks = weights[1:].reshape(data.s, 1 + len(counts), data.d + 1)
        blocks[:], tag_reports = train_multinomial(
            data.features, classes, len(counts) + 1, cfg, [f"tag {j}" for j in range(1, data.s + 1)]
        )
        reports += tag_reports
    return EfpModel(
        s=data.s,
        d=data.d,
        beta=beta,
        counts=counts,
        weights=_Trained(weights),
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
    weights, reports = fit_logistic_columns(
        data.features, data.bits, cfg, [f"tag {j}" for j in range(1, data.s + 1)]
    )
    return BrModel(
        s=data.s,
        d=data.d,
        weights=_Trained(weights),
        bias=cfg.bias,
        reg_lambda=cfg.reg_lambda,
        reports=tuple(reports),
    )
