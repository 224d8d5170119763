"""Plug-in decoding: from estimated statistic means to a labeling.

The decoder minimizes <q, loss_coeffs(yhat)> over all 2^s labelings.  For a
fixed active count l the objective is a sum of per-tag terms, so the best
size-l labeling keeps the l smallest entries of one column of a precomputed
(tags x counts) score table; comparing the s column optima and the empty
labeling solves the full problem in O(s^3).  A direct enumeration oracle is
kept alongside for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fmeasure import BetaParam, LabelVec, StatVec, all_labelings, loss_coeffs_matrix

__all__ = [
    "CHUNK_ENTRIES",
    "MAX_BRUTE_S",
    "PROB_TOL",
    "DecodeInput",
    "chunk_rows",
    "decode_brute",
    "decode_fast",
    "decode_rows",
    "row_chunks",
]

# entries of an estimated mean vector may overshoot [0, 1] by at most this
PROB_TOL = 1e-9

# enumeration guard: 2^20 candidates is the largest the oracle will scan
MAX_BRUTE_S = 20

# decode_rows and LinearModel scoring work on row chunks of about this many
# statistic entries (s^2+1 per row), 8 MB per float64 temporary.  Chunks a
# quarter this size decoded s = 50 rows about 7% faster, but scored 15000
# dense rows at s = 6, d = 100 about 35% slower, in three CSR row slices
# instead of one product.
CHUNK_ENTRIES = 1 << 20

_BRUTE_CACHE_MAX_S = 12
_BRUTE_CHUNK = 1 << 14


@dataclass(frozen=True)
class DecodeInput:
    """Estimated statistic means plus the beta they will be decoded under."""

    probs: StatVec
    beta: BetaParam

    def __post_init__(self) -> None:
        entries = self.probs.entries
        if not np.all(np.isfinite(entries)):
            raise ValueError("estimated means must be finite")
        if entries.min() < -PROB_TOL or entries.max() > 1.0 + PROB_TOL:
            raise ValueError(
                f"estimated means must lie in [0, 1] up to {PROB_TOL:g}; "
                f"saw range [{entries.min():g}, {entries.max():g}]"
            )


def _coeff_table(s: int, beta: BetaParam) -> np.ndarray:
    """(counts x sizes) table -(1+beta^2) / (beta^2 * k + l) for k, l in 1..s."""
    ks = np.arange(1, s + 1, dtype=np.float64)
    ls = np.arange(1, s + 1, dtype=np.float64)
    return -(1.0 + beta.beta_sq) / (beta.beta_sq * ks[:, None] + ls[None, :])


def chunk_rows(s: int) -> int:
    """Rows per chunk at s tags: about CHUNK_ENTRIES statistic entries each."""
    return max(1, CHUNK_ENTRIES // (s * s + 1))


def row_chunks(m: int, s: int) -> list[slice]:
    """Consecutive row slices of at most chunk_rows(s) rows covering 0..m."""
    step = chunk_rows(s)
    return [slice(lo, min(lo + step, m)) for lo in range(0, m, step)]


def decode_rows(prob_rows: np.ndarray, s: int, beta: BetaParam) -> tuple[np.ndarray, np.ndarray]:
    """Decode a batch of estimated mean vectors.

    prob_rows is (m, s^2+1); returns (bits, objectives) where bits is an
    (m, s) 0/1 matrix and objectives the attained minima of
    <q, loss_coeffs(yhat)>.  Ties resolve toward fewer active tags and,
    within a size, toward smaller tag indices.  Rows are decoded in chunks
    of chunk_rows(s), so temporaries stay O(chunk * s^2) whatever m is.
    """
    P = np.asarray(prob_rows, dtype=np.float64)
    if P.ndim != 2 or P.shape[1] != s * s + 1:
        raise ValueError(f"expected shape (m, {s * s + 1}), got {P.shape}")
    m = P.shape[0]
    coeffs = _coeff_table(s, beta)
    tags = np.arange(s)
    bits = np.empty((m, s), dtype=np.uint8)
    objectives = np.empty(m)
    for rows in row_chunks(m, s):
        chunk = P[rows]
        if not np.all(np.isfinite(chunk)):
            raise ValueError("estimated means must be finite")
        if chunk.min() < -PROB_TOL or chunk.max() > 1.0 + PROB_TOL:
            raise ValueError(f"estimated means must lie in [0, 1] up to {PROB_TOL:g}")
        n = chunk.shape[0]
        T = chunk[:, 1:].reshape(n, s, s) @ coeffs
        # column l-1 after the cumsum holds the optimum over labelings of size l
        best_by_size = np.cumsum(np.sort(T, axis=1), axis=1)
        objs = np.concatenate([-chunk[:, :1], best_by_size[:, tags, tags]], axis=1)
        # argmin takes the first minimum, i.e. the smallest size among exact ties
        choice = np.argmin(objs, axis=1)
        # only the chosen size's column is ranked; the stable sort keeps the
        # smallest tag first among tied per-tag scores
        column = T[np.arange(n), :, np.maximum(choice, 1) - 1]
        rank = np.empty((n, s), dtype=np.intp)
        np.put_along_axis(rank, np.argsort(column, axis=1, kind="stable"), tags[None, :], axis=1)
        bits[rows] = rank < choice[:, None]
        objectives[rows] = objs[np.arange(n), choice]
    return bits, objectives


def decode_fast(inp: DecodeInput) -> LabelVec:
    """Minimize <q, loss_coeffs(yhat)> over all labelings in O(s^3)."""
    s = inp.probs.s
    bits, _ = decode_rows(inp.probs.entries[None, :], s, inp.beta)
    return LabelVec(tuple(int(b) for b in bits[0]))


@lru_cache(maxsize=64)
def _enumeration_tables(s: int, beta_value: float):
    """All candidate labelings with their coefficient rows and tie keys."""
    bits = all_labelings(s)
    coeffs = loss_coeffs_matrix(bits, BetaParam(beta_value))
    return bits, coeffs, _tie_keys(bits, s)


def _tie_keys(bits: np.ndarray, s: int) -> np.ndarray:
    """Brute-force tie order: popcount first, then the smallest tag indices."""
    pop = bits.sum(axis=1).astype(np.int64)
    # lexicographic rank of the bit tuple: tag 1 is the most significant
    lex = (bits.astype(np.int64) * (1 << (s - 1 - np.arange(s, dtype=np.int64)))).sum(axis=1)
    # among equal popcounts the largest rank holds the smallest tag indices
    return pop * (1 << s) + ((1 << s) - 1 - lex)


def decode_brute(inp: DecodeInput) -> LabelVec:
    """Enumeration oracle for decode_fast; refuses s > MAX_BRUTE_S.

    Scans every labeling and evaluates <q, loss_coeffs(yhat)> straight from
    the coefficient definition.  Exact ties resolve as in decode_rows: toward
    smaller popcount, then toward smaller tag indices.
    """
    s = inp.probs.s
    if s > MAX_BRUTE_S:
        raise ValueError(f"brute-force decoding is limited to s <= {MAX_BRUTE_S}")
    q = inp.probs.entries
    if s <= _BRUTE_CACHE_MAX_S:
        bits, coeffs, tie = _enumeration_tables(s, inp.beta.beta)
        objs = coeffs @ q
        cand = np.flatnonzero(objs == objs.min())
        winner = cand[np.argmin(tie[cand])]
        return LabelVec(tuple(int(b) for b in bits[winner]))

    best_obj = np.inf
    best_tie = -1
    best_bits: np.ndarray | None = None
    tags = np.arange(s, dtype=np.int64)
    for start in range(0, 1 << s, _BRUTE_CHUNK):
        codes = np.arange(start, min(start + _BRUTE_CHUNK, 1 << s), dtype=np.int64)
        bits = ((codes[:, None] >> tags[None, :]) & 1).astype(np.uint8)
        objs = loss_coeffs_matrix(bits, inp.beta) @ q
        tie = _tie_keys(bits, s)
        cand = np.flatnonzero(objs == objs.min())
        local = cand[np.argmin(tie[cand])]
        if objs[local] < best_obj or (objs[local] == best_obj and tie[local] < best_tie):
            best_obj = float(objs[local])
            best_tie = int(tie[local])
            best_bits = bits[local].copy()
    assert best_bits is not None
    return LabelVec(tuple(int(b) for b in best_bits))
