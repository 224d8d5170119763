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
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve

from .fmeasure import LabelVec, all_labelings, label_stats_matrix, labelvec_rows
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
            getattr(self, name).flags.writeable = False

    @property
    def n_outcomes(self) -> int:
        return self.support_bits.shape[0]


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
    """One draw: features, sampled labeling, outcome probabilities, true means (s^2+1,)."""

    features: np.ndarray
    labeling: LabelVec
    outcome_probs: np.ndarray
    stat_probs: np.ndarray


def _point_rng(dist: SynthDistribution, index: int, stream: int) -> np.random.Generator:
    # one child stream per (stream, index): draws are order-independent
    return np.random.default_rng(
        np.random.SeedSequence(entropy=dist.seed, spawn_key=(stream, index))
    )


# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1


def _is_word(value) -> bool:
    # SeedSequence stores such a value as exactly one uint32 entropy word
    return isinstance(value, (int, np.integer)) and 0 <= value <= _MASK32


def _seed_words(seed: int, stream: int, start: int, stop: int) -> np.ndarray:
    """(n, 4) uint64: row i is the seed PCG64 draws from SeedSequence for point start+i.

    Equal to SeedSequence(entropy=seed, spawn_key=(stream, index))
    .generate_state(4, np.uint64) for each index in start..stop-1, when seed,
    stream and every index lie in [0, 2^32): the entropy words are then
    [seed, 0, 0, 0, stream, index] (run entropy padded to the pool size of
    4, then the spawn key).  SeedSequence's uint32 mixing is replayed word
    for word, masked to 32 bits: on Python ints while it does not depend on
    the index, then on a uint64 array of the block's indices.
    """
    entropy = [seed, 0, 0, 0, stream, np.arange(start, stop, dtype=np.uint64)]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y & _MASK32
        return result ^ result >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    state = []
    hash_const = _INIT_B
    for k in range(8):
        value = pool[k % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    # uint32 words 2i (low half) and 2i+1 (high half) make uint64 word i
    return np.stack([state[2 * i] | state[2 * i + 1] << 32 for i in range(4)], axis=1)


def _pcg64_states(words: np.ndarray):
    """PCG64's (state, inc) after seeding from each row of seed words, as pcg64_set_seed does.

    A row is (initstate high, low, initseq high, low).  The generator starts
    at state 0 with inc = 2*initseq + 1, steps, adds initstate and steps
    again, all modulo 2^128.
    """
    for state_hi, state_lo, seq_hi, seq_lo in words.tolist():
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        yield ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK128, inc


def _point_rngs(dist: SynthDistribution, start: int, stop: int, stream: int):
    """A generator for each point start..stop-1, in the state _point_rng gives it.

    When the seed, the stream and every index are single entropy words, one
    PCG64 and one Generator serve the block: the PCG64's state is set for
    each point from the block's seed words, and the same Generator is
    yielded each time, valid until the next is asked for.  Any other seed
    or stream (negative, >= 2^32, not an integer) goes through _point_rng,
    which raises what SeedSequence raises.  So does a block of one point:
    the block set-up takes about 0.15 ms, _point_rng about 0.03 ms.
    """
    if not (stop - start > 1 and _is_word(dist.seed) and _is_word(stream)
            and stop <= 1 << 32):
        for index in range(start, stop):
            yield _point_rng(dist, index, stream)
        return
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for state, inc in _pcg64_states(_seed_words(int(dist.seed), int(stream), start, stop)):
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


# points whose algebra runs as one block; bounds the block temporaries at
# about _BLOCK_ROWS * max(d, n_outcomes) floats
_BLOCK_ROWS = 1024


def _sample_rows(dist: SynthDistribution, start: int, stop: int, stream: int):
    """Points start..stop-1 of a stream as (outcome probs, means q, features, outcomes).

    Each point's own stream, a PCG64 seeded by SeedSequence(entropy=seed,
    spawn_key=(stream, index)), draws its Gamma components and then one
    uniform, which is all that Generator.choice(n, p=p) draws; the outcome
    is the count of cdf entries <= that uniform, the comparison choice
    makes.  One reused generator takes each point's state in turn, computed
    for the whole block at once (see _point_rngs).  The rest runs on the
    whole block.  q and the features are stacked matrix-vector products:
    matmul runs each stacked element through the kernel of A @ v, so every
    row rounds as its own product would, where one matrix product over
    the block would not.  The Gamma components are drawn straight into
    their row of P, the same draws without a temporary per point.
    """
    n = stop - start
    P = np.empty((n, dist.n_outcomes))
    u = np.empty(n)
    for r, rng in enumerate(_point_rngs(dist, start, stop, stream)):
        rng.standard_gamma(dist.concentration, out=P[r])
        u[r] = rng.random()
    P /= P.sum(axis=1, keepdims=True)
    Q = np.matmul(dist.support_stats.T, P[:, :, None])[:, :, 0]
    X = np.matmul(dist.logit_map_pinv, logit_link(Q)[:, :, None])[:, :, 0]
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
        labeling=LabelVec(tuple(dist.support_bits[outcomes[0]].tolist())),
        outcome_probs=P[0],
        stat_probs=Q[0],
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
    return Dataset(s=dist.s, d=dist.d, features=sparse.csr_matrix(sample.features),
                   labels=sample.bits)
