"""Plug-in decoding: from estimated statistic means to a labeling.

The decoder minimizes <q, loss_coeffs(yhat)> over all 2^s labelings.  For a
fixed active count l the objective is a sum of per-tag terms, so the best
size-l labeling keeps the l smallest entries of one column of a precomputed
(tags x counts) score table; comparing the s column optima and the empty
labeling solves the full problem in O(s^3).  A direct enumeration oracle is
kept alongside for cross-checking.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from collections import deque
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


def _slices(m: int, step: int) -> list[slice]:
    """Consecutive row slices of at most step rows covering 0..m."""
    return [slice(lo, min(lo + step, m)) for lo in range(0, m, step)]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# a batch of more than one chunk runs in pieces of a quarter chunk, on one
# thread per CPU this process may run on (taskset limits them) but at most
# one per piece of a chunk, so the threads together hold one chunk's
# temporaries.  training._fit_columns runs its column blocks on the same
# threads, sizing them so that they together keep its memory budget.
_PIECES_PER_CHUNK = 4
_WORKERS = min(_PIECES_PER_CHUNK, _usable_cpus())


def _run_slices(piece: Callable[[slice], None], slices: list[slice]) -> None:
    """Call piece(part) once for each slice, taken in list order.

    This thread and up to _WORKERS - 1 helper threads, started for this
    call and joined before it returns, take the slices, so at most
    min(_WORKERS, len(slices)) pieces run at once; with one worker or one
    slice every piece runs on this thread and no thread starts.  It runs
    the row pieces of _map_rows and the column blocks of
    training._fit_columns.  A piece must write only its own part and call
    no public function.
    After a failure no new piece starts, and the exception of the first
    failing slice in list order is raised, as a serial pass would raise it.
    """
    todo = deque(enumerate(slices))
    errors: dict[int, BaseException] = {}

    def work() -> None:
        while not errors:
            try:
                i, part = todo.popleft()
            except IndexError:
                return
            try:
                piece(part)
            except BaseException as exc:  # re-raised on the calling thread below
                errors[i] = exc

    helpers = [threading.Thread(target=work) for _ in range(min(_WORKERS, len(slices)) - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[min(errors)]


# (get, set) thread-count functions exported by an OpenBLAS build: the plain
# library, and the scipy-openblas copies that numpy's wheel (64-bit ints,
# "64_" suffix) and scipy's wheel each bundle
_OPENBLAS_THREADS = [(f"{lib}_get_num_threads{suffix}", f"{lib}_set_num_threads{suffix}")
                     for lib in ("scipy_openblas", "openblas") for suffix in ("64_", "")]


@functools.cache
def _openblas_copies() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS copy mapped into this process.

    Found once, on first use: numpy and scipy.linalg, whose copies these
    are, are loaded by then, since importing the package imports both.
    Without /proc/self/maps, or with another BLAS, there are none.
    """
    try:
        with open("/proc/self/maps") as maps:
            # a line's sixth field, when present, is the mapped file's path
            paths = {fields[5].strip() for fields in (line.split(maxsplit=5) for line in maps)
                     if len(fields) == 6 and "openblas" in fields[5].lower()}
    except OSError:
        return ()
    copies = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # not a loadable library, or no longer on disk
            continue
        for get_name, set_name in _OPENBLAS_THREADS:
            if hasattr(lib, get_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                copies.append((get, set_))
                break
    return tuple(copies)


_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved: list[tuple[Callable[[int], None], int]] = []


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every OpenBLAS copy on one thread, whatever the environment says.

    The workers of _run_slices already use the CPUs; OpenBLAS threads of
    their own would contend with them, and a product's bits depend on how
    OpenBLAS splits it, so a model would depend on OPENBLAS_NUM_THREADS.
    The outermost of nested or concurrent entries sets each count to 1
    and the last exit restores the saved counts.
    """
    global _blas_depth, _blas_saved
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = [(set_, get()) for get, set_ in _openblas_copies()]
            for set_, _ in _blas_saved:
                set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for set_, count in _blas_saved:
                    set_(count)


def _map_rows(piece: Callable[[slice], None], m: int, s: int) -> None:
    """Call piece(rows) on consecutive row slices that cover 0..m, through _run_slices.

    At most chunk_rows(s) rows run as one piece on this thread, as does
    every chunk when there is one worker.  A larger batch is cut into
    pieces of chunk_rows(s) // _PIECES_PER_CHUNK rows for the workers.
    """
    step = chunk_rows(s)
    if m > step and _WORKERS > 1:
        step = max(1, step // _PIECES_PER_CHUNK)
    with _one_blas_thread():
        _run_slices(piece, _slices(m, step))


def _check_means(chunk: np.ndarray) -> None:
    # NaN fails both comparisons, and +-inf falls outside the range
    if not (chunk.min() >= -PROB_TOL and chunk.max() <= 1.0 + PROB_TOL):
        if not np.all(np.isfinite(chunk)):
            raise ValueError("estimated means must be finite")
        raise ValueError(f"estimated means must lie in [0, 1] up to {PROB_TOL:g}")


def _decode_piece(chunk: np.ndarray, s: int, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check and decode one piece of means as decode_rows does; coeffs is _coeff_table(s, beta)."""
    _check_means(chunk)
    n = chunk.shape[0]
    tags = np.arange(s)
    # per-tag scores in (n, size, tag) order, so each size's tags are contiguous
    T = np.ascontiguousarray((chunk[:, 1:].reshape(n, s, s) @ coeffs).transpose(0, 2, 1))
    # the optimum over labelings of size l is the sum of the l smallest
    # entries of row l-1: only those s prefix sums are added, in the order
    # np.cumsum along each row would add them, so they match it bit for bit
    best_by_size = np.sort(T, axis=2)
    objs = np.empty((n, s + 1))
    objs[:, 0] = -chunk[:, 0]
    prefix = objs[:, 1:]
    prefix[:] = best_by_size[:, :, 0]
    for j in range(1, s):
        prefix[:, j:] += best_by_size[:, j:, j]
    # freed before the piece ranks tags: at most two (n, s, s) arrays live
    del best_by_size
    # argmax takes the first True, i.e. the smallest size among the ties
    choice = np.argmax(_near_min(objs), axis=1)
    # only the chosen size's scores are ranked; the stable sort keeps the
    # smallest tag first among tied per-tag scores
    column = T[np.arange(n), np.maximum(choice, 1) - 1]
    rank = np.empty((n, s), dtype=np.intp)
    np.put_along_axis(rank, np.argsort(column, axis=1, kind="stable"), tags[None, :], axis=1)
    return rank < choice[:, None], objs[np.arange(n), choice]


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
    if s < 1:
        raise ValueError("s must be >= 1")
    P = np.asarray(prob_rows, dtype=np.float64)
    if P.ndim != 2 or P.shape[1] != s * s + 1:
        raise ValueError(f"expected shape (m, {s * s + 1}), got {P.shape}")
    m = P.shape[0]
    coeffs = _coeff_table(s, beta)
    bits = np.empty((m, s), dtype=np.uint8)
    objectives = np.empty(m)

    def piece(rows: slice) -> None:
        bits[rows], objectives[rows] = _decode_piece(P[rows], s, coeffs)

    try:
        _map_rows(piece, m, s)
    except ValueError:
        # a piece may be part of a chunk: report the first bad chunk as a whole
        for rows in _slices(m, chunk_rows(s)):
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
