"""Plug-in decoding: from estimated statistic means to a labeling.

The decoder minimizes <q, loss_coeffs(yhat)> over all 2^s labelings.  For a
fixed active count l the objective is a sum of per-tag terms, so the best
size-l labeling keeps the l smallest entries of one column of a precomputed
(tags x counts) score table; comparing the s column optima and the empty
labeling solves the full problem in O(s^3).  A direct enumeration oracle is
kept alongside for cross-checking.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .fmeasure import BetaParam, LabelVec, loss_coeffs_matrix

__all__ = [
    "CHUNK_ENTRIES",
    "MAX_BRUTE_S",
    "PROB_TOL",
    "TIE_RTOL",
    "chunk_rows",
    "decode_brute",
    "decode_rows",
    "row_chunks",
]

# entries of an estimated mean vector may overshoot [0, 1] by at most this
PROB_TOL = 1e-9

# objectives within this relative distance of the minimum tie.  All loss
# coefficients are non-positive, so rounding stays far below it, and exact
# ties go by the tie rule, not by how each decoder happens to round.
TIE_RTOL = 1e-12

# enumeration guard: 2^20 candidates is the largest the oracle will scan
MAX_BRUTE_S = 20

# decode_rows, model scoring and mean_expected_f work on row chunks of about
# this many statistic entries (s^2+1 per row), 8 MB per float64 temporary.
# One chunk stays whole on the calling thread: cutting fit-s6's single
# chunk (15000 rows at s = 6) into two pieces on two threads raised its
# peak memory from 151-152 to 184 MB and cut its rows/s from 85-89 to
# 80-81 thousand (3 runs each).  Larger batches run in pieces of a quarter
# chunk (_PIECES_PER_CHUNK).  On the 12000 s = 50 rows of predict-s50, two
# threads scored and decoded 15900 rows/s in the median with quarter pieces
# and 15200 with half pieces (9 runs each); they peaked at 609-610 MB
# against 622-623 MB (4 runs each), as each thread keeps its freed piece
# temporaries cached.  Four threads on two CPUs gave 12500-16300 rows/s and
# 625-627 MB (3 runs).  All on 2 vCPU with one BLAS thread.
CHUNK_ENTRIES = 1 << 20

_BRUTE_CHUNK = 1 << 14


def _coeff_table(s: int, beta: BetaParam) -> np.ndarray:
    """(counts x sizes) table -(1+beta^2) / (beta^2 * k + l) for k, l in 1..s."""
    ks = np.arange(1, s + 1, dtype=np.float64)
    ls = np.arange(1, s + 1, dtype=np.float64)
    return -(1.0 + beta.beta_sq) / (beta.beta_sq * ks[:, None] + ls[None, :])


def _near_min(objs: np.ndarray) -> np.ndarray:
    """Mask of the entries of each row of objs within TIE_RTOL of the row minimum."""
    best = objs.min(axis=-1, keepdims=True)
    return objs <= best + TIE_RTOL * np.abs(best)


def chunk_rows(s: int) -> int:
    """Rows per chunk at s tags: about CHUNK_ENTRIES statistic entries each."""
    return max(1, CHUNK_ENTRIES // (s * s + 1))


def row_chunks(m: int, s: int) -> list[slice]:
    """Consecutive row slices of at most chunk_rows(s) rows covering 0..m."""
    return _slices(m, chunk_rows(s))


def _slices(m: int, step: int) -> list[slice]:
    return [slice(lo, min(lo + step, m)) for lo in range(0, m, step)]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# a batch of more than one chunk runs in pieces of a quarter chunk, on one
# thread per CPU this process may run on (taskset limits them) but at most
# one per piece of a chunk, so the threads together hold one chunk's temporaries
_PIECES_PER_CHUNK = 4
_WORKERS = min(_PIECES_PER_CHUNK, _usable_cpus())
_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def _pool() -> ThreadPoolExecutor:
    """The module's worker pool, built on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="fbetamax-rows")
        return _POOL


def _forget_pool() -> None:
    """A forked child has none of its parent's threads, so it builds its own pool."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _map_rows(piece: Callable[[slice], None], m: int, s: int) -> None:
    """Call piece(rows) on consecutive row slices that cover 0..m.

    At most chunk_rows(s) rows run as one piece on this thread, as does
    every chunk when there is one worker.  A larger batch is cut into
    pieces of chunk_rows(s) // _PIECES_PER_CHUNK rows, taken in row order
    by this thread and _WORKERS - 1 pool threads.  A piece must write only
    its own rows, call no public function and not use the pool.  After a
    failure no new piece starts, and the exception of the first failing
    piece in row order is raised, as a serial pass would raise it.
    """
    step = chunk_rows(s)
    if m <= step or _WORKERS == 1:
        for rows in row_chunks(m, s):
            piece(rows)
        return
    todo = deque(enumerate(_slices(m, max(1, step // _PIECES_PER_CHUNK))))
    errors: dict[int, BaseException] = {}

    def work() -> None:
        while not errors:
            try:
                i, rows = todo.popleft()
            except IndexError:
                return
            try:
                piece(rows)
            except BaseException as exc:  # re-raised on the calling thread below
                errors[i] = exc

    pool = _pool()
    helpers = [pool.submit(work) for _ in range(_WORKERS - 1)]
    work()
    for helper in helpers:
        helper.result()
    if errors:
        raise errors[min(errors)]


def _check_means(chunk: np.ndarray) -> None:
    # NaN fails both comparisons, and +-inf falls outside the range
    if not (chunk.min() >= -PROB_TOL and chunk.max() <= 1.0 + PROB_TOL):
        if not np.all(np.isfinite(chunk)):
            raise ValueError("estimated means must be finite")
        raise ValueError(f"estimated means must lie in [0, 1] up to {PROB_TOL:g}")


def decode_rows(prob_rows: np.ndarray, s: int, beta: BetaParam) -> tuple[np.ndarray, np.ndarray]:
    """Decode a batch of estimated mean vectors.

    prob_rows is (m, s^2+1); returns (bits, objectives) where bits is an
    (m, s) 0/1 matrix and objectives the values of <q, loss_coeffs(yhat)>
    it attains, each within TIE_RTOL of the minimum.  Sizes whose optima
    lie within TIE_RTOL of the minimum tie; ties resolve toward fewer
    active tags and, within a size, toward smaller tag indices.  A batch
    of more than chunk_rows(s) rows is decoded in pieces on worker
    threads, which together hold one chunk's temporaries, so memory stays
    O(chunk * s^2) whatever m is.
    """
    P = np.asarray(prob_rows, dtype=np.float64)
    if P.ndim != 2 or P.shape[1] != s * s + 1:
        raise ValueError(f"expected shape (m, {s * s + 1}), got {P.shape}")
    m = P.shape[0]
    coeffs = _coeff_table(s, beta)
    tags = np.arange(s)
    bits = np.empty((m, s), dtype=np.uint8)
    objectives = np.empty(m)

    def piece(rows: slice) -> None:
        chunk = P[rows]
        _check_means(chunk)
        n = chunk.shape[0]
        # per-tag scores in (n, size, tag) order, so each size's tags are contiguous
        T = np.ascontiguousarray((chunk[:, 1:].reshape(n, s, s) @ coeffs).transpose(0, 2, 1))
        # entry l-1 of row l-1 after the cumsum holds the optimum over labelings of size l
        best_by_size = np.sort(T, axis=2)
        np.cumsum(best_by_size, axis=2, out=best_by_size)
        objs = np.concatenate([-chunk[:, :1], best_by_size[:, tags, tags]], axis=1)
        # freed before the piece ranks tags: at most three (n, s, s) arrays live
        del best_by_size
        # argmax takes the first True, i.e. the smallest size among the ties
        choice = np.argmax(_near_min(objs), axis=1)
        # only the chosen size's scores are ranked; the stable sort keeps the
        # smallest tag first among tied per-tag scores
        column = T[np.arange(n), np.maximum(choice, 1) - 1]
        rank = np.empty((n, s), dtype=np.intp)
        np.put_along_axis(rank, np.argsort(column, axis=1, kind="stable"), tags[None, :], axis=1)
        bits[rows] = rank < choice[:, None]
        objectives[rows] = objs[np.arange(n), choice]

    try:
        _map_rows(piece, m, s)
    except ValueError:
        # a piece may be part of a chunk: report the first bad chunk as a whole
        for rows in row_chunks(m, s):
            _check_means(P[rows])
        raise
    return bits, objectives


def _tie_keys(bits: np.ndarray, s: int) -> np.ndarray:
    """Brute-force tie order: popcount first, then the smallest tag indices."""
    pop = bits.sum(axis=1).astype(np.int64)
    # lexicographic rank of the bit tuple: tag 1 is the most significant
    lex = (bits.astype(np.int64) * (1 << (s - 1 - np.arange(s, dtype=np.int64)))).sum(axis=1)
    # among equal popcounts the largest rank holds the smallest tag indices
    return pop * (1 << s) + ((1 << s) - 1 - lex)


def _code_bits(codes: np.ndarray, s: int) -> np.ndarray:
    """(len(codes), s) 0/1 rows; bit j of a code is tag j+1."""
    return ((codes[:, None] >> np.arange(s, dtype=np.int64)) & 1).astype(np.uint8)


def decode_brute(q: np.ndarray, s: int, beta: BetaParam) -> LabelVec:
    """Enumeration oracle for decode_rows on one mean vector q of shape (s^2+1,).

    Scans every labeling and evaluates <q, loss_coeffs(yhat)> straight from
    the coefficient definition; refuses s > MAX_BRUTE_S.  Objectives within
    TIE_RTOL of the minimum tie, and ties resolve as in decode_rows: toward
    smaller popcount, then toward smaller tag indices.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (s * s + 1,):
        raise ValueError(f"expected shape ({s * s + 1},), got {q.shape}")
    if s > MAX_BRUTE_S:
        raise ValueError(f"brute-force decoding is limited to s <= {MAX_BRUTE_S}")
    # one objective per labeling, scored chunk by chunk; the coefficient rows
    # are the large temporaries, so only they stay O(_BRUTE_CHUNK)
    codes = np.arange(1 << s, dtype=np.int64)
    objs = np.concatenate([
        loss_coeffs_matrix(_code_bits(codes[lo:lo + _BRUTE_CHUNK], s), beta) @ q
        for lo in range(0, codes.size, _BRUTE_CHUNK)
    ])
    cand = codes[_near_min(objs)]
    tie = np.concatenate([
        _tie_keys(_code_bits(cand[lo:lo + _BRUTE_CHUNK], s), s)
        for lo in range(0, cand.size, _BRUTE_CHUNK)
    ])
    winner = _code_bits(cand[np.argmin(tie)][None], s)[0]
    return LabelVec(tuple(int(b) for b in winner))
