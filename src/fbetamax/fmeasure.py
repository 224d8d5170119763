"""Instance-level F-beta scores and the statistic vectors that linearize them.

An s-tag labeling is summarized by s^2 + 1 binary statistics: one flag for
the empty labeling plus one flag per (tag, active-count) pair.  The negated
F-beta score of a (true, predicted) labeling pair is an inner product
between the true side's statistic vector and a coefficient vector built
from the predicted side alone.  Expected scores under a label distribution
therefore only need the coordinate-wise means of the statistics, which is
what the estimation and decoding pipeline in this package exploits.

A statistic vector is a float64 array of shape (s^2+1,) in the flat layout
of StatIndex; a batch of them is an (m, s^2+1) array, one per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "BetaParam",
    "LabelVec",
    "StatIndex",
    "all_labelings",
    "expected_fbeta",
    "fbeta",
    "iter_stat_indices",
    "label_stats",
    "label_stats_matrix",
    "labelvec_rows",
    "loss_coeffs",
    "loss_coeffs_matrix",
    "precision",
    "recall",
]


@dataclass(frozen=True)
class BetaParam:
    """Trade-off parameter of the F-beta score; beta > 0, beta = 1 is plain F1."""

    beta: float
    beta_sq: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        beta = float(self.beta)
        if not np.isfinite(beta) or beta <= 0.0:
            raise ValueError(f"beta must be a positive finite real, got {self.beta!r}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "beta_sq", beta * beta)


@dataclass(frozen=True)
class LabelVec:
    """An s-tag labeling; bit j (1-based) is 1 when tag j is active."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        bits = tuple(int(b) for b in self.bits)
        if len(bits) == 0:
            raise ValueError("a labeling needs at least one tag")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("labeling bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @property
    def s(self) -> int:
        return len(self.bits)

    @property
    def popcount(self) -> int:
        return sum(self.bits)

    def active_tags(self) -> tuple[int, ...]:
        """1-based indices of the active tags, ascending."""
        return tuple(j for j, b in enumerate(self.bits, start=1) if b)

    @classmethod
    def zeros(cls, s: int) -> "LabelVec":
        return cls((0,) * s)

    @classmethod
    def from_active(cls, tags: Iterable[int], s: int) -> "LabelVec":
        """Build a labeling from 1-based active tag indices."""
        bits = [0] * s
        for j in tags:
            if not 1 <= j <= s:
                raise ValueError(f"tag index {j} out of range 1..{s}")
            bits[j - 1] = 1
        return cls(tuple(bits))


@dataclass(frozen=True)
class StatIndex:
    """Coordinate into the statistic space: the zero slot or a (tag, count) pair.

    The zero slot is encoded as j == k == 0; a pair requires j >= 1 and
    k >= 1.  For a space over s tags the flat layout places the zero slot
    first and then the pairs row-major with the tag as the outer index.
    """

    j: int
    k: int

    def __post_init__(self) -> None:
        if (self.j == 0) != (self.k == 0):
            raise ValueError("zero slot needs j == k == 0, pairs need both >= 1")
        if self.j < 0 or self.k < 0:
            raise ValueError("tag and count indices are non-negative")

    @property
    def is_zero(self) -> bool:
        return self.j == 0

    @classmethod
    def zero(cls) -> "StatIndex":
        return cls(0, 0)

    @classmethod
    def pair(cls, j: int, k: int) -> "StatIndex":
        if j < 1 or k < 1:
            raise ValueError("pair indices are 1-based")
        return cls(j, k)

    def flat(self, s: int) -> int:
        """Position of this coordinate in the flat length-(s^2+1) layout."""
        if self.is_zero:
            return 0
        if self.j > s or self.k > s:
            raise ValueError(f"index ({self.j},{self.k}) out of range for s={s}")
        return 1 + (self.j - 1) * s + (self.k - 1)

    def __str__(self) -> str:
        return "zero" if self.is_zero else f"({self.j},{self.k})"


def iter_stat_indices(s: int) -> Iterator[StatIndex]:
    """All s^2 + 1 coordinates in flat order: zero, then (j,k) with j outer."""
    if s < 1:
        raise ValueError("s must be >= 1")
    yield StatIndex.zero()
    for j in range(1, s + 1):
        for k in range(1, s + 1):
            yield StatIndex.pair(j, k)


def _check_same_s(y: LabelVec, yhat: LabelVec) -> None:
    if y.s != yhat.s:
        raise ValueError(f"labelings disagree on tag count: {y.s} vs {yhat.s}")


def fbeta(y: LabelVec, yhat: LabelVec, beta: BetaParam) -> float:
    """F-beta score of prediction yhat against truth y, with the 0/0 = 1 rule.

    Computed as (1 + beta^2) * |y & yhat| / (beta^2 * |y| + |yhat|); both
    labelings empty gives 1 by convention.
    """
    _check_same_s(y, yhat)
    inter = sum(a & b for a, b in zip(y.bits, yhat.bits))
    denom = beta.beta_sq * y.popcount + yhat.popcount
    if denom == 0.0:
        return 1.0
    return (1.0 + beta.beta_sq) * inter / denom


def precision(y: LabelVec, yhat: LabelVec) -> float:
    """|y & yhat| / |yhat|, with an empty prediction scoring 1 by convention."""
    _check_same_s(y, yhat)
    if yhat.popcount == 0:
        return 1.0
    inter = sum(a & b for a, b in zip(y.bits, yhat.bits))
    return inter / yhat.popcount


def recall(y: LabelVec, yhat: LabelVec) -> float:
    """|y & yhat| / |y|, with an empty truth scoring 1 by convention."""
    _check_same_s(y, yhat)
    if y.popcount == 0:
        return 1.0
    inter = sum(a & b for a, b in zip(y.bits, yhat.bits))
    return inter / y.popcount


def label_stats(y: LabelVec) -> np.ndarray:
    """The 0/1 statistic vector of a labeling, of shape (s^2+1,).

    The zero slot flags an empty labeling; the (j,k) slot flags tag j being
    active in a labeling with exactly k active tags.  At most one count row
    is populated, so the vector has popcount(y) nonzeros (or one for the
    empty labeling).
    """
    s = y.s
    entries = np.zeros(s * s + 1)
    n = y.popcount
    if n == 0:
        entries[0] = 1.0
    else:
        for j, bit in enumerate(y.bits, start=1):
            if bit:
                entries[1 + (j - 1) * s + (n - 1)] = 1.0
    return entries


def loss_coeffs(yhat: LabelVec, beta: BetaParam) -> np.ndarray:
    """Coefficient vector of a prediction; <label_stats(y), loss_coeffs(yhat)> = -fbeta(y, yhat).

    The zero slot is -1 for an empty prediction and 0 otherwise; slot (j,k)
    is -(1 + beta^2) * yhat_j / (beta^2 * k + |yhat|).  Unlike the statistic
    vector, the pair block is dense in the count coordinate.
    """
    s = yhat.s
    entries = np.zeros(s * s + 1)
    n = yhat.popcount
    if n == 0:
        entries[0] = -1.0
    else:
        scale = 1.0 + beta.beta_sq
        for j, bit in enumerate(yhat.bits, start=1):
            if bit:
                for k in range(1, s + 1):
                    entries[1 + (j - 1) * s + (k - 1)] = -scale / (beta.beta_sq * k + n)
    return entries


def expected_fbeta(q: np.ndarray, yhat: LabelVec, beta: BetaParam) -> float:
    """Expected F-beta of a fixed prediction under statistic means q, of shape (s^2+1,).

    Equals -<q, loss_coeffs(yhat, beta)>; exact whenever q holds the
    conditional means of the statistics.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (yhat.s * yhat.s + 1,):
        raise ValueError(f"statistic vector of shape {q.shape} does not fit a prediction "
                         f"over {yhat.s} tags")
    return float(-(q @ loss_coeffs(yhat, beta)))


def all_labelings(s: int) -> np.ndarray:
    """All 2^s labelings as a (2^s, s) 0/1 matrix; row i holds the bits of i.

    Tag j (1-based) sits in column j - 1 and corresponds to bit j - 1 of the
    row index.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if s > 24:
        raise ValueError("refusing to enumerate more than 2^24 labelings")
    codes = np.arange(1 << s, dtype=np.int64)
    return ((codes[:, None] >> np.arange(s)[None, :]) & 1).astype(np.uint8)


def labelvec_rows(bits: np.ndarray) -> list[LabelVec]:
    """One LabelVec per row of an (m, s) bit matrix, shared by equal rows."""
    bits = np.asarray(bits)
    shared: dict[tuple[int, ...], LabelVec] = {}
    out = []
    # rows become Python tuples one block at a time, so those temporaries stay O(block)
    for lo in range(0, len(bits), 1024):
        out.extend(shared.get(row) or shared.setdefault(row, LabelVec(row))
                   for row in map(tuple, bits[lo:lo + 1024].tolist()))
    return out


def label_stats_matrix(bits: np.ndarray) -> np.ndarray:
    """Row-wise label_stats for an (m, s) bit matrix, as an (m, s^2+1) array.

    Beside the output, only an (m, s) count-match table is allocated.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError("expected a 2-d bit matrix")
    m, s = bits.shape
    counts = bits.sum(axis=1)
    out = np.empty((m, s * s + 1))
    out[:, 0] = counts == 0
    # slot (j, k) is y_j * [|y| == k]: each row's block is the outer product of
    # its bits with one count-match row, written straight into the output
    match = counts[:, None] == np.arange(1, s + 1)
    np.multiply(bits[:, :, None], match[:, None, :], out=_pair_block(out, m, s))
    return out


def loss_coeffs_matrix(bits: np.ndarray, beta: BetaParam) -> np.ndarray:
    """Row-wise loss_coeffs for an (m, s) bit matrix, as an (m, s^2+1) array."""
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError("expected a 2-d bit matrix")
    return _loss_coeffs_rows(bits, beta)


def _loss_coeffs_rows(bits: np.ndarray, beta: BetaParam) -> np.ndarray:
    """loss_coeffs_matrix for a checked 2-d bit array; each row's arithmetic is its own.

    Beside the output, only an (m, s) table of per-count scales is allocated.
    """
    m, s = bits.shape
    counts = bits.sum(axis=1).astype(np.float64)
    out = np.empty((m, s * s + 1))
    out[:, 0] = np.where(counts == 0, -1.0, 0.0)
    # scale[i, k-1] = -(1 + beta^2) / (beta^2 * k + |yhat_i|); the denominator
    # stays positive even for empty rows
    scale = beta.beta_sq * np.arange(1, s + 1, dtype=np.float64) + counts[:, None]
    np.divide(-(1.0 + beta.beta_sq), scale, out=scale)
    # slot (j, k) is yhat_j * scale[k]: 1 * scale is the scale itself, and
    # 0 * scale is -0.0, as the quotient -(1 + beta^2) * 0 / denom is
    np.multiply(bits[:, :, None], scale[:, None, :], out=_pair_block(out, m, s))
    return out


def _pair_block(out: np.ndarray, m: int, s: int) -> np.ndarray:
    """The (m, s, s) pair slots of an (m, s^2+1) table, as a view that writes through."""
    # splitting the contiguous last axis never needs a copy
    return out[:, 1:].reshape(m, s, s)
