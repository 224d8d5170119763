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
from functools import lru_cache
from numbers import Integral
from typing import Sequence

import numpy as np

from .fmeasure import BetaParam, LabelVec, StatIndex, label_stats
from .losses import logistic_gradient, logistic_loss

__all__ = [
    "SurrogateConfig",
    "binary_targets",
    "coordinates",
    "surrogate_gradient",
    "surrogate_loss",
]


@lru_cache(maxsize=128)
def coordinates(s: int, counts: tuple[int, ...]) -> tuple[tuple[StatIndex, ...], np.ndarray]:
    """The active coordinates of the count set counts, as indices and as flat positions.

    counts must be the normalized count set of a SurrogateConfig (strictly
    increasing, within 1..s).  The zero slot comes first, then (j, k) for
    every tag j and count k with j outer, so entries 1..|K| are (1, k) for
    each k in counts.  The results are cached, so equal count sets share the
    very same tuple and read-only array.
    """
    pairs = (StatIndex.pair(j, k) for j in range(1, s + 1) for k in counts)
    # (j, k) sits at 1 + (j-1)*s + (k-1); the zero slot at 0
    ks = np.asarray(counts, dtype=np.intp)
    flats = np.zeros(1 + s * len(ks), dtype=np.intp)
    flats[1:] = (s * np.arange(s)[:, None] + ks).ravel()
    flats.flags.writeable = False
    return (StatIndex.zero(), *pairs), flats


@dataclass(frozen=True)
class SurrogateConfig:
    """Which statistic coordinates are modelled, given the count set K = counts.

    The active set is the zero slot plus, for every count k in counts, the
    pairs (j, k) for all tags j.  Training only the counts observed in a
    sample keeps the reduction at 1 + s*|K| subproblems instead of s^2 + 1.
    counts is kept sorted and duplicate-free; counts below 1 are dropped,
    since the zero slot is always active.  This normalized counts is the one
    encoding of K: models store it, and the coordinates come from
    coordinates(s, counts).
    """

    s: int
    beta: BetaParam
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValueError("s must be >= 1")
        counts = tuple(self.counts)
        # int() would truncate 2.5 to 2; a bool is an Integral too, but no count
        if any(isinstance(k, bool) or not isinstance(k, Integral) for k in counts):
            raise ValueError("counts must be integers")
        counts = tuple(sorted({int(k) for k in counts if k >= 1}))
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

    @property
    def active_indices(self) -> tuple[StatIndex, ...]:
        """The zero slot, then (j, k) for every tag j and count k, in flat order."""
        return coordinates(self.s, self.counts)[0]

    @property
    def active_flats(self) -> np.ndarray:
        return coordinates(self.s, self.counts)[1]

    def n_subproblems(self) -> int:
        return len(self.active_indices)


def _active_stats_and_scores(y: LabelVec, scores: np.ndarray,
                             cfg: SurrogateConfig) -> tuple[np.ndarray, np.ndarray]:
    """a(y) and the scores, each at the active coordinates of cfg."""
    u = np.asarray(scores, dtype=np.float64)
    if y.s != cfg.s or u.shape != (cfg.s * cfg.s + 1,):
        raise ValueError("labeling, scores, and config must agree on the tag count")
    return label_stats(y)[cfg.active_flats], u[cfg.active_flats]


def surrogate_loss(y: LabelVec, scores: np.ndarray, cfg: SurrogateConfig) -> float:
    """Sum over active coordinates of the logistic loss at that coordinate.

    scores has shape (s^2+1,).  Coordinate i contributes phi(+1, u_i) when
    the statistic a_i(y) is 1 and phi(-1, u_i) when it is 0.
    """
    a, u = _active_stats_and_scores(y, scores, cfg)
    return float(np.sum(logistic_loss(2.0 * a - 1.0, u)))


def surrogate_gradient(y: LabelVec, scores: np.ndarray, cfg: SurrogateConfig) -> np.ndarray:
    """Gradient of surrogate_loss in the scores; zero at inactive coordinates.

    The active entries are sigmoid(u_i) - a_i(y).
    """
    a, u = _active_stats_and_scores(y, scores, cfg)
    grad = np.zeros(cfg.s * cfg.s + 1)
    grad[cfg.active_flats] = logistic_gradient(2.0 * a - 1.0, u)
    return grad


def binary_targets(data, index: StatIndex) -> np.ndarray:
    """Per-instance 0/1 value of one statistic coordinate over a dataset.

    data is a Dataset or its (m, s) bit matrix.  These are the binary labels
    of the subproblem at `index`, built without the (m, s^2+1) statistic matrix.
    """
    bits = np.asarray(getattr(data, "bits", data))
    if bits.ndim != 2:
        raise ValueError("expected a 2-d bit matrix")
    # index.flat rejects a coordinate outside the layout
    flats = np.array([index.flat(bits.shape[1])])
    return _coordinate_targets(bits, bits.sum(axis=1), flats)[:, 0].astype(np.uint8)


def _coordinate_targets(bits: np.ndarray, counts: np.ndarray, flats: np.ndarray) -> np.ndarray:
    """(m, len(flats)) bool values of the statistic coordinates at flats.

    These are label_stats_matrix(bits)[:, flats], with counts =
    bits.sum(axis=1): a pair slot (j, k) holds bits[:, j] * [count == k]
    and the zero slot [count == 0], so no (m, s^2+1) table is built.
    """
    # flat 1 + (j-1)*s + (k-1); the zero slot's column is overwritten below
    tags, ks = np.divmod(flats - 1, bits.shape[1])
    T = bits[:, tags] == 1
    T &= counts[:, None] == ks + 1
    T[:, flats == 0] = (counts == 0)[:, None]
    return T
