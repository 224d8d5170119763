"""Synthetic label distributions whose statistic means are exactly linear-logistic.

A distribution is a random Dirichlet prior over a support of labelings, a
full-row-rank matrix mapping features to statistic logits, and its
pseudo-inverse.  Each point draws its own outcome probabilities from the
prior, computes the implied statistic means q, and places the feature
vector at the pre-image of logit(q), so the identity q(x) = sigmoid(Wx)
holds by construction and a linear-logistic estimator is well-specified.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .fmeasure import LabelVec, StatVec, all_labelings, label_stats_matrix, labelvec_rows
from .losses import logit_link
from .training import Dataset

__all__ = [
    "SamplePoint",
    "SynthDistribution",
    "SynthSample",
    "build_distribution",
    "sample_batch",
    "sample_point",
    "to_dataset",
]

_PINV_RESIDUAL_TOL = 1e-8
_BUILD_ATTEMPTS = 5

SUPPORTS = ("full", "exclusive")


@dataclass(frozen=True)
class SynthDistribution:
    """Frozen description of one synthetic task; all sampling derives from seed."""

    s: int
    d: int
    seed: int
    support: str
    concentration: np.ndarray
    support_bits: np.ndarray
    support_stats: np.ndarray
    logit_map: np.ndarray
    logit_map_pinv: np.ndarray

    def __post_init__(self) -> None:
        for name in ("concentration", "support_bits", "support_stats",
                     "logit_map", "logit_map_pinv"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def n_outcomes(self) -> int:
        return self.support_bits.shape[0]

    @cached_property
    def labelings(self) -> tuple[LabelVec, ...]:
        """One shared LabelVec per support row, indexed by outcome."""
        return tuple(LabelVec(tuple(row)) for row in self.support_bits.tolist())


def _support_bits(s: int, support: str) -> np.ndarray:
    if support == "full":
        return all_labelings(s)
    if support == "exclusive":
        # empty labeling plus the s one-hot labelings: tags never co-occur,
        # which starves independent per-tag marginals of signal
        bits = np.zeros((s + 1, s), dtype=np.uint8)
        bits[1:] = np.eye(s, dtype=np.uint8)
        return bits
    raise ValueError(f"support must be one of {SUPPORTS}, got {support!r}")


def build_distribution(
    seed: int, s: int = 6, d: int = 100, support: str = "full"
) -> SynthDistribution:
    """Draw the prior and the logit map; retries if the map is rank-deficient.

    The map W is (s^2+1) x d with uniform [0,1] entries, so it needs
    d >= s^2+1 to have full row rank; its pseudo-inverse W^T (W W^T)^{-1}
    comes from a symmetric solve and is verified to satisfy
    W @ pinv = identity within a small residual.
    """
    rows = s * s + 1
    if rows > d:
        raise ValueError(f"need d >= s^2+1 = {rows} features, got d={d}")
    bits = _support_bits(s, support)
    stats = label_stats_matrix(bits)
    rng = np.random.default_rng(seed)
    concentration = rng.uniform(0.1, 1.0, size=bits.shape[0])
    for _ in range(_BUILD_ATTEMPTS):
        logit_map = rng.uniform(0.0, 1.0, size=(rows, d))
        gram = logit_map @ logit_map.T
        try:
            factor = cho_factor(gram)
        except np.linalg.LinAlgError:
            continue
        pinv = cho_solve(factor, logit_map).T
        residual = np.max(np.abs(logit_map @ pinv - np.eye(rows)))
        if residual <= _PINV_RESIDUAL_TOL:
            return SynthDistribution(
                s=s,
                d=d,
                seed=seed,
                support=support,
                concentration=concentration,
                support_bits=bits,
                support_stats=stats,
                logit_map=logit_map,
                logit_map_pinv=pinv,
            )
    raise ValueError("could not draw a full-row-rank logit map")


@dataclass(frozen=True)
class SamplePoint:
    """One draw: features, sampled labeling, outcome probabilities, true means."""

    features: np.ndarray
    labeling: LabelVec
    outcome_probs: np.ndarray
    stat_probs: StatVec


def _point_rng(dist: SynthDistribution, index: int, stream: int) -> np.random.Generator:
    # one child stream per (stream, index): draws are order-independent
    return np.random.default_rng(
        np.random.SeedSequence(entropy=dist.seed, spawn_key=(stream, index))
    )


# points whose algebra runs as one block; bounds the block temporaries at
# about _BLOCK_ROWS * max(d, n_outcomes) floats
_BLOCK_ROWS = 1024


def _sample_rows(dist: SynthDistribution, start: int, stop: int, stream: int):
    """Points start..stop-1 of a stream as (outcome probs, means q, features, outcomes).

    Each point's own generator draws its Gamma components and then one
    uniform, which is all that Generator.choice(n, p=p) draws; the outcome
    is the count of cdf entries <= that uniform, the comparison choice
    makes.  The rest runs on the whole block, except that q and the
    features are one matrix-vector product per row: a matrix product over
    the block would round differently.
    """
    n = stop - start
    P = np.empty((n, dist.n_outcomes))
    u = np.empty(n)
    for r in range(n):
        rng = _point_rng(dist, start + r, stream)
        P[r] = rng.standard_gamma(dist.concentration)
        u[r] = rng.random()
    P /= P.sum(axis=1, keepdims=True)
    stats_T = dist.support_stats.T
    Q = np.empty((n, dist.s * dist.s + 1))
    for r in range(n):
        Q[r] = stats_T @ P[r]
    logits = logit_link(Q)
    X = np.empty((n, dist.d))
    for r in range(n):
        X[r] = dist.logit_map_pinv @ logits[r]
    cdf = np.cumsum(P, axis=1)
    cdf /= cdf[:, -1:]
    outcomes = np.count_nonzero(cdf <= u[:, None], axis=1)
    return P, Q, X, outcomes


def sample_point(dist: SynthDistribution, index: int, stream: int = 0) -> SamplePoint:
    """Draw point `index` of the given stream; deterministic in (seed, stream, index).

    Per point: outcome probabilities from the Dirichlet prior via
    per-component Gamma draws, statistic means q as their mixture, features
    as the pseudo-inverse image of logit(q), and a labeling sampled from
    the outcome probabilities.
    """
    P, Q, X, outcomes = _sample_rows(dist, index, index + 1, stream)
    return SamplePoint(
        features=X[0],
        labeling=dist.labelings[outcomes[0]],
        outcome_probs=P[0],
        stat_probs=StatVec(dist.s, Q[0]),
    )


@dataclass(frozen=True)
class SynthSample:
    """A batch of draws: features, sampled labelings and true statistic means.

    The labelings are kept as the (m, s) bit matrix bits; labels views them
    as LabelVec.
    """

    features: np.ndarray
    bits: np.ndarray
    stat_probs: np.ndarray

    @property
    def m(self) -> int:
        return len(self.bits)

    @cached_property
    def labels(self) -> tuple[LabelVec, ...]:
        """The sampled labelings as LabelVec, one per row of bits."""
        return tuple(labelvec_rows(self.bits))


def sample_batch(dist: SynthDistribution, n: int, stream: int = 0) -> SynthSample:
    """Draw points 0..n-1 of a stream as one batch, equal to sample_point on each."""
    if n < 1:
        raise ValueError("batch size must be >= 1")
    features = np.empty((n, dist.d))
    stat_probs = np.empty((n, dist.s * dist.s + 1))
    bits = np.empty((n, dist.s), dtype=np.uint8)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        _, stat_probs[lo:hi], features[lo:hi], outcomes = _sample_rows(dist, lo, hi, stream)
        bits[lo:hi] = dist.support_bits[outcomes]
    return SynthSample(features=features, bits=bits, stat_probs=stat_probs)


def to_dataset(dist: SynthDistribution, sample: SynthSample) -> Dataset:
    from scipy import sparse

    return Dataset(
        s=dist.s,
        d=dist.d,
        features=sparse.csr_matrix(sample.features),
        labels=sample.bits,
    )
