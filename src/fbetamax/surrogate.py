"""The convex surrogate risk that decomposes over statistic coordinates.

Each statistic coordinate contributes one binary class-probability problem:
the coordinate's 0/1 value acts as the binary label and the corresponding
score entry as the prediction.  The surrogate of a (labeling, score vector)
pair is the sum of the per-coordinate logistic losses over the configured
active coordinates, so minimizing it trains independent binary estimators
whose sigmoid-inverted scores converge to the statistics' conditional means.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .fmeasure import BetaParam, LabelVec, StatIndex, StatVec, label_stats, label_stats_matrix
from .losses import logistic_gradient, logistic_loss

__all__ = [
    "SurrogateConfig",
    "binary_targets",
    "surrogate_gradient",
    "surrogate_loss",
]


@dataclass(frozen=True)
class SurrogateConfig:
    """Which statistic coordinates are modelled, given the count set K = counts.

    The active set is the zero slot plus, for every count k in counts, the
    pairs (j, k) for all tags j.  Training only the counts observed in a
    sample keeps the reduction at 1 + s*|K| subproblems instead of s^2 + 1.
    counts is kept sorted and duplicate-free; counts below 1 are dropped,
    since the zero slot is always active.
    """

    s: int
    beta: BetaParam
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValueError("s must be >= 1")
        counts = tuple(sorted({int(k) for k in self.counts if k >= 1}))
        if any(k > self.s for k in counts):
            raise ValueError("counts must lie in 1..s")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def full(cls, s: int, beta: BetaParam) -> "SurrogateConfig":
        return cls(s, beta, tuple(range(1, s + 1)))

    @classmethod
    def for_counts(cls, s: int, counts: Sequence[int], beta: BetaParam) -> "SurrogateConfig":
        """Active set {zero} + all tags for each count in counts (count 0 is the zero slot)."""
        return cls(s, beta, tuple(counts))

    @cached_property
    def active_indices(self) -> tuple[StatIndex, ...]:
        """The zero slot, then (j, k) for every tag j and count k, in flat order."""
        pairs = (StatIndex.pair(j, k) for j in range(1, self.s + 1) for k in self.counts)
        return (StatIndex.zero(), *pairs)

    @cached_property
    def active_flats(self) -> np.ndarray:
        flats = np.array([ix.flat(self.s) for ix in self.active_indices], dtype=np.intp)
        flats.flags.writeable = False
        return flats

    def n_subproblems(self) -> int:
        return len(self.active_indices)


def surrogate_loss(y: LabelVec, scores: StatVec, cfg: SurrogateConfig) -> float:
    """Sum over active coordinates of the logistic loss at that coordinate.

    Coordinate i contributes phi(+1, u_i) when the statistic a_i(y) is 1 and
    phi(-1, u_i) when it is 0.
    """
    if y.s != cfg.s or scores.s != cfg.s:
        raise ValueError("labeling, scores, and config must agree on the tag count")
    a = label_stats(y).entries[cfg.active_flats]
    u = scores.entries[cfg.active_flats]
    return float(np.sum(logistic_loss(2.0 * a - 1.0, u)))


def surrogate_gradient(y: LabelVec, scores: StatVec, cfg: SurrogateConfig) -> StatVec:
    """Gradient of surrogate_loss in the scores; zero at inactive coordinates.

    The active entries are sigmoid(u_i) - a_i(y).
    """
    if y.s != cfg.s or scores.s != cfg.s:
        raise ValueError("labeling, scores, and config must agree on the tag count")
    a = label_stats(y).entries[cfg.active_flats]
    u = scores.entries[cfg.active_flats]
    entries = np.zeros(cfg.s * cfg.s + 1)
    entries[cfg.active_flats] = logistic_gradient(2.0 * a - 1.0, u)
    return StatVec(cfg.s, entries)


def binary_targets(data, index: StatIndex) -> np.ndarray:
    """Per-instance 0/1 value of one statistic coordinate over a dataset.

    data is a Dataset or its (m, s) bit matrix.  These are the binary labels
    of the subproblem at `index`.
    """
    bits = np.asarray(getattr(data, "bits", data))
    return label_stats_matrix(bits)[:, index.flat(bits.shape[1])].astype(np.uint8)
