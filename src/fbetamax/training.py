"""Regularized linear estimation of the per-coordinate class probabilities.

Every active statistic coordinate gets a binary logistic model over the
shared sparse features, all fit by one fit_logistic_columns call; the
count-stratified baseline's s softmax blocks, one per tag, are all fit by
one train_multinomial call.  Both go through one solver dispatch
(_fit_columns) over one objective per loss (_logistic_objective,
_softmax_objective): values and analytic gradients of any set of columns
from one sparse product with X and one with its transpose, the bias being
its own weight row.  Solvers differ only in the direction they feed to
_descent, the shared per-column Armijo search and active set.  Small
problems on dense features (NEWTON_MAX_DIM, NEWTON_MIN_DENSITY) take
damped Newton directions, one Cholesky solve per column and iteration;
the rest take batched L-BFGS directions (Liu & Nocedal, Math. Prog. 45,
1989) in blocks of columns, which run at once on the row worker threads
(decoding._run_slices) and together fit LBFGS_BLOCK_ENTRIES.  A column's
result does not depend on its batch or on the number of threads.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property, partial
from itertools import takewhile
from numbers import Integral
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from . import decoding
from .decoding import _coeff_table, _decode_piece, _map_rows, _run_slices, _slices
from .fmeasure import BetaParam, StatIndex, label_stats_matrix
from .losses import sigmoid_into
from .surrogate import SurrogateConfig, coordinates

__all__ = [
    "Dataset",
    "LBFGS_BLOCK_ENTRIES",
    "LinearModel",
    "NEWTON_MAX_DIM",
    "NEWTON_MIN_DENSITY",
    "SubproblemReport",
    "TrainConfig",
    "fit_binary_logistic",
    "fit_logistic_columns",
    "multinomial_prob_rows",
    "train_multinomial",
    "train_surrogate",
]


@dataclass(frozen=True, eq=False)
class Dataset:
    """A multi-label sample: sparse features plus an (m, s) 0/1 label matrix.

    labels is given as an (m, s) 0/1 array or as a sequence of LabelVec and
    kept once, as the read-only uint8 matrix bits.  The features are stored
    in canonical CSR form: each row's indices strictly increasing, with
    repeated entries summed.
    """

    s: int
    d: int
    features: sparse.csr_matrix
    labels: InitVar[np.ndarray | Sequence]
    bits: np.ndarray = field(init=False)

    def __post_init__(self, labels) -> None:
        if self.s < 1 or self.d < 1:
            raise ValueError("s and d must be >= 1")
        if not isinstance(labels, np.ndarray):
            # a sequence of LabelVec
            labels = np.array([y.bits for y in labels] or np.zeros((0, self.s)))
        if labels.ndim != 2 or labels.shape[1] != self.s:
            raise ValueError(f"labels must be an (m, s) matrix over all {self.s} tags, "
                             f"got shape {labels.shape}")
        if not np.all((labels == 0) | (labels == 1)):
            raise ValueError("label values must be 0 or 1")
        bits = labels.astype(np.uint8)
        bits.flags.writeable = False
        feats = sparse.csr_matrix(self.features, dtype=np.float64)
        if feats.shape != (len(bits), self.d):
            raise ValueError(
                f"feature matrix is {feats.shape}, expected ({len(bits)}, {self.d})"
            )
        if not feats.has_canonical_format:
            # sorted, duplicate-free rows; a copy, since feats may share the caller's arrays
            feats = feats.copy()
            feats.sum_duplicates()
        if not np.all(np.isfinite(feats.data)):
            # after summing, so repeated finite entries cannot overflow to inf unchecked
            raise ValueError("feature values must be finite")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "bits", bits)

    @property
    def m(self) -> int:
        return len(self.bits)

    @cached_property
    def observed_counts(self) -> frozenset[int]:
        """Active-tag counts that occur in the sample, including 0."""
        return frozenset(np.unique(self.bits.sum(axis=1)).tolist())


@dataclass(frozen=True)
class TrainConfig:
    """Solver settings shared by every subproblem.

    reg_lambda scales an L2 penalty of reg_lambda/2 * ||w||^2 on the
    non-bias weights, on top of the mean (not summed) loss.  The bias is
    fit by default; disable it when the target scores are known to be
    linear through the origin.
    """

    reg_lambda: float = 1e-4
    max_iters: int = 500
    grad_tol: float = 1e-6
    bias: bool = True

    def __post_init__(self) -> None:
        if not np.isfinite(self.reg_lambda) or self.reg_lambda < 0.0:
            raise ValueError("reg_lambda must be a finite non-negative real")
        # a bool is an Integral too, but True is no iteration count
        if (isinstance(self.max_iters, bool) or not isinstance(self.max_iters, Integral)
                or self.max_iters < 1):
            raise ValueError("max_iters must be an int >= 1")
        # an infinite tolerance passes the gradient test at the zero start, untrained
        if not (np.isfinite(self.grad_tol) and self.grad_tol > 0.0):
            raise ValueError("grad_tol must be a finite positive real")


@dataclass(frozen=True)
class SubproblemReport:
    """Terminal state of one convex solve; converged means the gradient test passed."""

    name: str
    objective: float
    grad_norm: float
    iterations: int
    converged: bool


def _as_feature_matrix(X, d: int) -> sparse.csr_matrix:
    """X as a CSR matrix with d columns; ValueError unless every value is finite."""
    if sparse.issparse(X):
        X = X.tocsr()
    else:
        arr = np.asarray(X, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[None, :]
        X = sparse.csr_matrix(arr)
    if X.shape[1] != d:
        raise ValueError(f"features have {X.shape[1]} columns, model expects {d}")
    if not np.all(np.isfinite(X.data)):
        raise ValueError("feature values must be finite")
    return X


def _weight_rows(weights, rows: int, d: int) -> np.ndarray:
    """A read-only float64 copy of weights, checked to be a finite (rows, d+1) matrix."""
    weights = np.array(weights, dtype=np.float64)
    if weights.shape != (rows, d + 1):
        raise ValueError(f"weights must have shape {(rows, d + 1)}, got {weights.shape}")
    if not np.all(np.isfinite(weights)):
        raise ValueError("model weights must be finite")
    weights.flags.writeable = False
    return weights


class _RowScorer:
    """Scoring shared by the models: rows of weights, bias last, one row piece at a time.

    A model holds s, d and weights, a read-only (rows, d+1) matrix whose
    rows are exactly the body of its model file.  A decoding model also
    holds beta and supplies _means(scores, out), which turns a piece's raw
    scores into its (n, s^2+1) statistic means in out.  stat_prob_rows
    stores each piece's means into the returned matrix; predict_rows
    scores, links and decodes each piece into a buffer of the piece's own
    size and keeps only its bits.  Either way a batch of more than one
    chunk runs in pieces on worker threads (decoding._map_rows).
    """

    @cached_property
    def _feature_weights(self) -> np.ndarray:
        """(d, rows) contiguous copy of the non-bias weights, for X @ W."""
        return np.ascontiguousarray(self.weights[:, : self.d].T)

    @cached_property
    def _biases(self) -> np.ndarray:
        """Contiguous copy of the bias column; adding the strided column is ~10x slower."""
        return np.ascontiguousarray(self.weights[:, self.d])

    def _map_scores(self, X: sparse.csr_matrix, write) -> None:
        """Call write(rows, raw scores) once per row piece of X; each scores array is fresh.

        Pieces may run on worker threads (decoding._map_rows), so write
        must store only into its own rows.
        """
        # read the cached copies here: two threads must not fill a cached_property at once
        W, b = self._feature_weights, self._biases
        m = X.shape[0]

        def piece(rows: slice) -> None:
            # a batch of one piece is X itself, unsliced
            scores = (X if rows.stop - rows.start == m else X[rows]) @ W
            scores += b
            write(rows, scores)

        _map_rows(piece, m, self.s)

    def score_rows(self, X) -> np.ndarray:
        """(m, rows) raw scores for a feature matrix."""
        X = _as_feature_matrix(X, self.d)
        out = np.empty((X.shape[0], len(self.weights)))

        def write(rows: slice, scores: np.ndarray) -> None:
            out[rows] = scores

        self._map_scores(X, write)
        return out

    def stat_prob_rows(self, X) -> np.ndarray:
        """(m, s^2+1) estimated means; coordinates with no scorer are exactly 0."""
        X = _as_feature_matrix(X, self.d)
        out = np.empty((X.shape[0], self.s * self.s + 1))

        def write(rows: slice, scores: np.ndarray) -> None:
            self._means(scores, out[rows])

        self._map_scores(X, write)
        return out

    def predict_rows(self, X) -> np.ndarray:
        """(m, s) decoded labelings as a bit matrix, each piece scored and decoded at once."""
        X = _as_feature_matrix(X, self.d)
        s = self.s
        coeffs = _coeff_table(s, self.beta)
        bits = np.empty((X.shape[0], s), dtype=np.uint8)

        def write(rows: slice, scores: np.ndarray) -> None:
            means = np.empty((len(scores), s * s + 1))
            self._means(scores, means)
            bits[rows] = _decode_piece(means, s, coeffs)[0]

        self._map_scores(X, write)
        return bits


# Damped Newton runs when a problem has at most NEWTON_MAX_DIM weights and
# its design (X with its bias column) holds at least NEWTON_MIN_DENSITY*m*p
# entries; everything else runs batched L-BFGS.  Weights are p = d+1 per
# binary column (d without a bias) and C*p per C-class softmax block (a
# softmax step solves only (C-1)*p unknowns, but the cutoff counts C*p).
# A Newton iteration costs about m*p^2 + p^3/3 flops whatever the
# sparsity; an L-BFGS iteration costs two sparse products over the
# nonzeros but needs 10-30x as many iterations.  Sweep, seconds per binary
# column or per softmax block (C = 7), Newton / L-BFGS, reg 1e-4, one BLAS
# thread on 2 vCPU; the synth rows are s = 6 tasks with X masked to the
# density, the planted rows have 50 nonzeros per row; * = L-BFGS stopped
# at max_iters = 500:
#
#   data      m     p  density  binary         softmax
#   synth   316   100  1.0      0.004 / 0.016  0.17 / 0.48*
#   synth   316   100  0.5      0.003 / 0.006  0.16 / 0.24
#   synth  1000   101  1.0      0.007 / 0.045  0.24 / 0.89*
#   synth  1000   101  0.5      0.005 / 0.008  0.28 / 0.60
#   synth  1000   101  0.25                    0.23 / 0.27
#   synth  1000   201  1.0                     0.63 / 1.79*  (C*p = 1407)
#   synth  1000   201  0.5                     0.74 / 0.54   (C*p = 1407)
#   synth  1000   401  1.0      0.042 / 0.050
#   synth  1000   401  0.75     0.040 / 0.043
#   synth  1000   401  0.5      0.039 / 0.026
#   planted 4000  101  0.40     0.012 / 0.003
#   planted 4000  401  0.12     0.083 / 0.007
#   planted 4000 1000  0.05     0.59  / 0.016
#
# Dense softmax blocks stall under L-BFGS, so they keep Newton up to the
# cutoff; above it they stall as they did under L-BFGS-B.
NEWTON_MAX_DIM = 1000
NEWTON_MIN_DENSITY = 0.5

# The L-BFGS blocks that run at once, one per worker thread, together hold
# about this many history and row entries: 2*_MEMORY*C*p history plus m*C
# row temporaries per column of C weight rows (C = 1 for a binary column),
# so the block width, not the number of columns or threads, bounds memory.
LBFGS_BLOCK_ENTRIES = 1 << 20

# sufficient-decrease constant of the backtracking line search
_ARMIJO = 1e-4
# objective values this close (relative) count as equal near an optimum
_ROUNDING = 4.0 * np.finfo(np.float64).eps
# a column whose backtracked step falls below this stops moving
_MIN_STEP = 2.0**-40
# limited-memory pairs kept per column, L-BFGS-B's default
_MEMORY = 10


def _use_newton(X: sparse.csr_matrix, unknowns: int, cfg: TrainConfig) -> bool:
    """Damped Newton for small problems on dense enough features, L-BFGS otherwise."""
    m, d = X.shape
    p = d + int(cfg.bias)
    nnz = X.nnz + m * int(cfg.bias)
    return unknowns <= NEWTON_MAX_DIM and nnz >= NEWTON_MIN_DENSITY * m * p


def _dense_design(X: sparse.csr_matrix, bias: bool) -> np.ndarray:
    """X as a dense array, with a trailing column of ones when the bias is fit."""
    dense = X.toarray()
    return np.hstack([dense, np.ones((len(dense), 1))]) if bias else dense


def _column_sums(A: np.ndarray) -> np.ndarray:
    """Per-column sums, each reduced in the same order whatever columns share A."""
    return np.ascontiguousarray(A.T).sum(axis=1)


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Per-row dot products, each reduced in the same order whatever rows share A."""
    return np.einsum("ij,ij->i", A, B)


def _solve_psd(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve H x = rhs for a positive semi-definite H; least squares if singular."""
    try:
        factor = cho_factor(H, lower=True, check_finite=False)
    except LinAlgError:
        return np.linalg.lstsq(H, rhs, rcond=None)[0]
    return cho_solve(factor, rhs, check_finite=False)


def _descent(evaluate, direction, dim: int, n: int, cfg: TrainConfig):
    """Line-search descent over n independent parameter columns, each started at zero.

    evaluate(W, cols) returns the objectives (k,) and gradients (dim, k) of
    columns cols at parameters W (dim, k); direction(active, W, G) returns
    the (dim, k) search directions of the active columns of W and G.  Each
    column backtracks with its own Armijo step and leaves the active set
    once its gradient test passes, its step stalls, or its values turn
    non-finite.  Returns the parameters, objectives, gradients and
    iteration counts.
    """
    W = np.zeros((dim, n))
    f, G = evaluate(W, np.arange(n))
    iters = np.zeros(n, dtype=np.int64)
    # NaN compares false, so a non-finite gradient never enters the loop
    active = np.flatnonzero(np.max(np.abs(G), axis=0) > cfg.grad_tol)
    for _ in range(cfg.max_iters):
        if active.size == 0:
            break
        D = direction(active, W, G)
        slope = _column_sums(G[:, active] * D)
        step = np.ones(active.size)
        moved = np.zeros(active.size, dtype=bool)
        todo = np.arange(active.size)
        while todo.size:
            cols = active[todo]
            trial = W[:, cols] + step[todo] * D[:, todo]
            f_t, G_t = evaluate(trial, cols)
            bound = f[cols] + _ARMIJO * step[todo] * slope[todo] + _ROUNDING * np.abs(f[cols])
            ok = f_t <= bound
            hit = cols[ok]
            W[:, hit] = trial[:, ok]
            f[hit] = f_t[ok]
            G[:, hit] = G_t[:, ok]
            moved[todo[ok]] = True
            todo = todo[~ok]
            step[todo] *= 0.5
            todo = todo[step[todo] >= _MIN_STEP]
        iters[active] += 1
        active = active[moved & (np.max(np.abs(G[:, active]), axis=0) > cfg.grad_tol)]
    return W, f, G, iters


def _logistic_objective(X: sparse.csr_matrix, T: np.ndarray, cfg: TrainConfig):
    """_descent's evaluate: ridge-penalized mean logistic loss of T's columns; bias last in W."""
    m, d = X.shape
    Xt = X.T.tocsr()
    lam = cfg.reg_lambda

    def evaluate(W, cols):
        Z = X @ W[:d]
        if cfg.bias:
            Z += W[d]
        targets = T[:, cols]
        # max(0, -margin) of the +-1 labels, exactly, as max(0, z) - t*z for 0/1 targets t
        loss = np.maximum(Z, 0.0)
        loss -= targets * Z
        loss += np.log1p(np.exp(-np.abs(Z)))
        R = sigmoid_into(Z)
        R -= targets
        R /= m
        f = _column_sums(loss) / m + 0.5 * lam * _column_sums(W[:d] * W[:d])
        G = np.empty_like(W)
        G[:d] = Xt @ R
        G[:d] += lam * W[:d]
        if cfg.bias:
            G[d] = _column_sums(R)
        return f, G

    return evaluate


def _shifted_softmax(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax of Z along its last axis; Z is shifted in place by its maxima there.

    Returns the probabilities and the log of each shifted row's sum of
    exponentials, so log-softmax is Z - that log after the call.
    """
    Z -= Z.max(axis=-1, keepdims=True)
    P = np.exp(Z)
    sums = P.sum(axis=-1, keepdims=True)
    P /= sums
    return P, np.log(sums[..., 0])


def _softmax_objective(X: sparse.csr_matrix, classes: np.ndarray, C: int, cfg: TrainConfig):
    """_descent's evaluate: ridge-penalized mean cross-entropy of each column of class indices."""
    m, d = X.shape
    p = d + int(cfg.bias)
    Xt = X.T.tocsr()
    rows = np.arange(m)[:, None]
    lam = cfg.reg_lambda

    def evaluate(W, cols):
        k = len(cols)
        V = W.reshape(C, p, k)
        Vd = V[:, :d]
        # (m, column, class) scores: each column's C weight vectors side by side
        Z = (X @ Vd.transpose(1, 2, 0).reshape(d, k * C)).reshape(m, k, C)
        if cfg.bias:
            Z += V[:, d].T
        P, log_sums = _shifted_softmax(Z)
        # each row's class in every column; each column's ridge sums one C*d row
        at = (rows, np.arange(k), classes[:, cols])
        f = (_column_sums(log_sums - Z[at]) / m
             + 0.5 * lam * _column_sums((Vd * Vd).reshape(C * d, k)))
        P[at] -= 1.0
        P /= m
        G = np.empty((C, p, k))
        G[:, :d] = (Xt @ P.reshape(m, k * C)).reshape(d, k, C).transpose(2, 0, 1) + lam * Vd
        if cfg.bias:
            G[:, d] = P.sum(axis=0).T
        return f, G.reshape(C * p, k)

    return evaluate


def _newton_logistic(X: sparse.csr_matrix, reg: np.ndarray, cfg: TrainConfig):
    """Newton directions of _logistic_objective, one Cholesky solve per active column.

    Each column's curvature comes from its current weights through one
    matrix-vector product with the dense design, so its direction does not
    depend on which columns share the batch.
    """
    dense = _dense_design(X, cfg.bias)
    m, p = dense.shape
    diag = np.diag_indices(p)

    def solve(w, g):
        P = sigmoid_into(dense @ w)
        root = dense * np.sqrt(P * (1.0 - P) / m)[:, None]
        H = root.T @ root
        H[diag] += reg
        return _solve_psd(H, -g)

    return lambda active, W, G: np.stack([solve(W[:, c], G[:, c]) for c in active], axis=1)


def _sum_zero_basis(C: int) -> np.ndarray:
    """C x (C-1) orthonormal Helmert columns, each orthogonal to the all-ones vector."""
    k = np.arange(1, C)
    basis = np.triu(np.ones((C, C - 1)))
    basis[k, k - 1] = -k
    return basis / np.sqrt(k * (k + 1))


def _newton_softmax(X: sparse.csr_matrix, reg: np.ndarray, cfg: TrainConfig, C: int):
    """Newton directions of _softmax_objective, one Cholesky solve per active column.

    Shifting every class by one weight vector leaves the softmax unchanged,
    so the loss Hessian vanishes on those directions.  Iterates and
    gradients have zero class sums, so each step is solved for (C-1) x p
    coordinates E in the sum-zero subspace, W = basis @ E, where the
    Hessian has no null directions.
    """
    dense = _dense_design(X, cfg.bias)
    m, p = dense.shape
    k = C - 1
    basis = _sum_zero_basis(C)
    # products of basis columns a, b per class, for the reduced weights below
    basis_pairs = (basis[:, :, None] * basis[:, None, :]).reshape(C, k * k)
    diag = np.diag_indices(k * p)

    def solve(w, g):
        P = _shifted_softmax(dense @ w.reshape(C, p).T)[0]
        # per row, basis^T (diag P_i - P_i P_i^T) basis / m
        PB = P @ basis
        weights = (P @ basis_pairs).reshape(m, k, k) - PB[:, :, None] * PB[:, None, :]
        weights /= m
        H = np.empty((k, p, k, p))
        for a in range(k):
            for b in range(a, k):
                block = dense.T @ (dense * weights[:, a, b][:, None])
                H[a, :, b, :] = block
                H[b, :, a, :] = block.T
        H = H.reshape(k * p, k * p)
        H[diag] += np.tile(reg, k)
        E = _solve_psd(H, -(basis.T @ g.reshape(C, p)).ravel())
        return (basis @ E.reshape(k, p)).ravel()

    return lambda active, W, G: np.stack([solve(W[:, c], G[:, c]) for c in active], axis=1)


class _LimitedMemory:
    """Batched L-BFGS directions (two-loop recursion) for one block of columns.

    Row r of the ring buffers S and Y (k, _MEMORY, dim) holds the last
    steps and gradient changes of the column in position r of the active
    set.  Every active column advances once per call, so the pair of
    iteration t sits in slot t % _MEMORY for all of them; a pair that fails
    the curvature test gets rho = 0, which makes it a no-op.  When columns
    leave the active set the rows of the others move up in place.  Each
    column's arithmetic is its own, so its iterates do not depend on which
    columns share the block.
    """

    def __init__(self, S: np.ndarray, Y: np.ndarray):
        self.S, self.Y = S, Y
        self.rho = np.zeros(S.shape[:2])
        self.gamma = np.ones(len(S))
        self.cols = None
        self.t = 0

    def _compact(self, keep: np.ndarray) -> None:
        for new, old in enumerate(np.flatnonzero(keep)):
            if new != old:
                self.S[new] = self.S[old]
                self.Y[new] = self.Y[old]
                self.rho[new] = self.rho[old]
                self.gamma[new] = self.gamma[old]

    def __call__(self, active, W, G):
        Wa = np.ascontiguousarray(W[:, active].T)
        Ga = np.ascontiguousarray(G[:, active].T)
        k = active.size
        S, Y, rho = self.S[:k], self.Y[:k], self.rho[:k]
        if self.cols is not None:
            # the active set only shrinks, so an unchanged size means unchanged columns
            if k < self.cols.size:
                keep = np.isin(self.cols, active)
                self._compact(keep)
                self.W, self.G = self.W[keep], self.G[keep]
            slot = (self.t - 1) % _MEMORY
            np.subtract(Wa, self.W, out=S[:, slot])
            np.subtract(Ga, self.G, out=Y[:, slot])
            sy = _row_dots(S[:, slot], Y[:, slot])
            yy = _row_dots(Y[:, slot], Y[:, slot])
            # NaN compares false, so a non-finite pair is dropped too
            good = sy > _ROUNDING * yy
            S[~good, slot] = 0.0
            Y[~good, slot] = 0.0
            rho[:, slot] = np.divide(1.0, sy, out=np.zeros(k), where=good)
            self.gamma[:k][good] = sy[good] / yy[good]
        self.cols, self.W, self.G = active, Wa, Ga
        slots = [(self.t - 1 - j) % _MEMORY for j in range(min(self.t, _MEMORY))]
        self.t += 1
        Q = -Ga
        tmp = np.empty_like(Q)
        alpha = np.empty((len(slots), k))
        for j, slot in enumerate(slots):
            alpha[j] = rho[:, slot] * _row_dots(S[:, slot], Q)
            Q -= np.multiply(alpha[j][:, None], Y[:, slot], out=tmp)
        Q *= self.gamma[:k, None]
        for j, slot in reversed(list(enumerate(slots))):
            beta = rho[:, slot] * _row_dots(Y[:, slot], Q)
            Q += np.multiply((alpha[j] - beta)[:, None], S[:, slot], out=tmp)
        return Q.T


def _lbfgs(evaluate, dim: int, n: int, rows: int, cfg: TrainConfig):
    """Batched L-BFGS over n parameter columns of length dim, each with rows row temporaries.

    Each block runs _descent with its own _LimitedMemory directions, and
    the blocks run on the row workers (decoding._run_slices).  With w
    workers a block is at most ceil(n / w) columns wide, and w blocks
    together fit LBFGS_BLOCK_ENTRIES.  The ring buffers are allocated
    once, one slot per block that can run at a time; a block takes a free
    slot and gives it back when it ends.  Returns the same arrays as
    _descent.
    """
    workers = decoding._WORKERS
    per_column = 2 * _MEMORY * dim + rows
    width = max(1, min(-(-n // workers), LBFGS_BLOCK_ENTRIES // (workers * per_column)))
    blocks = _slices(n, width)
    S = np.empty((min(workers, len(blocks)), width, _MEMORY, dim))
    Y = np.empty_like(S)
    # list.pop and list.append are atomic, and no more blocks run at once than there are slots
    free = list(range(len(S)))
    W = np.empty((dim, n))
    f = np.empty(n)
    G = np.empty((dim, n))
    iters = np.empty(n, dtype=np.int64)

    def run(block: slice) -> None:
        columns = np.arange(block.start, block.stop)

        def evaluate_block(V, cols):
            return evaluate(V, columns[cols])

        slot = free.pop()
        try:
            W[:, block], f[block], G[:, block], iters[block] = _descent(
                evaluate_block, _LimitedMemory(S[slot], Y[slot]), dim, columns.size, cfg
            )
        finally:
            free.append(slot)

    _run_slices(run, blocks)
    return W, f, G, iters


def _fit_columns(X: sparse.csr_matrix, evaluate, newton, C: int, n: int, names: Sequence[str],
                 cfg: TrainConfig) -> tuple[np.ndarray, list[SubproblemReport]]:
    """The one solver dispatch: n parameter columns of C weight rows each, over the rows of X.

    Small problems on dense features share one damped-Newton run with
    newton(X, reg, cfg)'s directions (see NEWTON_MAX_DIM); the others run
    batched L-BFGS.  Returns (n, C, d+1) weights, bias last, and one report per column.
    """
    m, d = X.shape
    if m == 0:
        raise ValueError("cannot train on an empty dataset")
    names = [str(name) for name in names]
    if len(names) != n:
        raise ValueError("one name per target column is required")
    # per-weight L2 multipliers of a class row: reg_lambda on the d features, none on the bias
    reg = np.where(np.arange(d + int(cfg.bias)) < d, cfg.reg_lambda, 0.0)
    dim = C * reg.size
    if _use_newton(X, dim, cfg):
        W, f, G, iters = _descent(evaluate, newton(X, reg, cfg), dim, n, cfg)
    else:
        W, f, G, iters = _lbfgs(evaluate, dim, n, m * C, cfg)
    weights = np.zeros((n, C, d + 1))
    weights[:, :, : reg.size] = W.T.reshape(n, C, reg.size)
    norms = np.max(np.abs(G), axis=0).tolist()
    reports = [SubproblemReport(name, float(f[c]), g, int(iters[c]), g <= cfg.grad_tol)
               for c, (name, g) in enumerate(zip(names, norms))]
    return weights, reports


def fit_logistic_columns(
    X, T: np.ndarray, cfg: TrainConfig, names: Sequence[str]
) -> tuple[np.ndarray, list[SubproblemReport]]:
    """Fit one binary logistic model per column of the (m, n) 0/1 matrix T.

    Each column minimizes mean logistic loss + reg_lambda/2 * ||w||^2 over
    w (and the bias) on the shared rows of X.  Returns (n, d+1) weights with
    the bias last (zero when disabled) and one report per column, named by
    names.
    """
    X = sparse.csr_matrix(X, dtype=np.float64)
    T = np.asarray(T, dtype=np.float64)
    if T.ndim != 2 or T.shape[0] != X.shape[0]:
        raise ValueError("one binary target per row is required")
    if not np.all((T == 0.0) | (T == 1.0)):
        raise ValueError("binary targets must be 0 or 1")
    weights, reports = _fit_columns(X, _logistic_objective(X, T, cfg), _newton_logistic, 1,
                                    T.shape[1], names, cfg)
    return weights[:, 0], reports


def fit_binary_logistic(
    X: sparse.csr_matrix, targets: np.ndarray, cfg: TrainConfig, name: str = "binary"
) -> tuple[np.ndarray, SubproblemReport]:
    """Minimize mean logistic loss + reg_lambda/2 * ||w||^2 over w (and bias).

    targets are 0/1 per row.  Returns a length-(d+1) weight vector whose
    last entry is the bias (zero when the bias is disabled) and the solver
    report.  This is the one-column case of fit_logistic_columns.
    """
    a = np.asarray(targets, dtype=np.float64)
    if a.shape != (X.shape[0],):
        raise ValueError("one binary target per row is required")
    weights, reports = fit_logistic_columns(X, a[:, None], cfg, [name])
    return weights[0], reports[0]


@dataclass(frozen=True, eq=False)
class LinearModel(_RowScorer):
    """One linear scorer per active statistic coordinate.

    weights has one row per active coordinate, in the order of
    active_indices, each of length d+1 with the bias last.  Inactive
    coordinates get no score and probability exactly 0.
    active_indices must be SurrogateConfig(s, beta, counts).active_indices
    for some count set; counts, read back from it, is the one encoding of K,
    and active_flats comes from surrogate.coordinates(s, counts).
    """

    s: int
    d: int
    beta: BetaParam
    active_indices: tuple[StatIndex, ...]
    weights: np.ndarray
    bias: bool
    reg_lambda: float
    reports: tuple[SubproblemReport, ...] = ()
    counts: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        active = tuple(self.active_indices)
        # entries 1..|K| of a count set's coordinates are (1, k) for each k in K
        scfg = SurrogateConfig(
            self.s, self.beta, [ix.k for ix in takewhile(lambda ix: ix.j == 1, active[1:])]
        )
        # the cache hands equal count sets the same StatIndex objects, so this is cheap
        if active != scfg.active_indices:
            raise ValueError("active_indices must be SurrogateConfig(s, beta, counts)"
                             ".active_indices for one count set")
        object.__setattr__(self, "weights", _weight_rows(self.weights, len(active), self.d))
        object.__setattr__(self, "active_indices", scfg.active_indices)
        object.__setattr__(self, "counts", scfg.counts)

    @property
    def active_flats(self) -> np.ndarray:
        return coordinates(self.s, self.counts)[1]

    def _means(self, scores: np.ndarray, out: np.ndarray) -> None:
        s, counts = self.s, self.counts
        # a full count set's coordinates are the whole layout in order
        if len(counts) == s:
            sigmoid_into(scores, out=out)
            return
        n = len(scores)
        sigmoid_into(scores, out=scores)
        out.fill(0.0)
        out[:, 0] = scores[:, 0]
        # columns k-1, k in K, of the (n, tag, count) view of out[:, 1:]
        ks = np.asarray(counts, dtype=np.intp) - 1
        out[:, 1:].reshape(n, s, s)[:, :, ks] = scores[:, 1:].reshape(n, s, len(ks))


def train_surrogate(data: Dataset, cfg: TrainConfig, scfg: SurrogateConfig) -> LinearModel:
    """Fit one binary logistic model per active coordinate of scfg."""
    if data.s != scfg.s:
        raise ValueError("dataset and surrogate config disagree on the tag count")
    targets = label_stats_matrix(data.bits)[:, scfg.active_flats]
    weights, reports = fit_logistic_columns(
        data.features, targets, cfg, [str(ix) for ix in scfg.active_indices]
    )
    return LinearModel(
        s=data.s,
        d=data.d,
        beta=scfg.beta,
        active_indices=scfg.active_indices,
        weights=weights,
        bias=cfg.bias,
        reg_lambda=cfg.reg_lambda,
        reports=tuple(reports),
    )


def train_multinomial(
    X, classes: np.ndarray, n_classes: int, cfg: TrainConfig, names: Sequence[str]
) -> tuple[np.ndarray, list[SubproblemReport]]:
    """Fit one softmax block of C = n_classes rows per column of the (m, n) class matrix.

    Each minimizes mean cross-entropy + reg_lambda/2 * ||W||^2 (biases free).
    Returns (n, C, d+1) weights and named reports, as fit_logistic_columns does.
    """
    X = sparse.csr_matrix(X, dtype=np.float64)
    if n_classes < 2:
        raise ValueError("a multinomial block needs at least two classes")
    classes = np.asarray(classes)
    if classes.ndim != 2 or classes.shape[0] != X.shape[0]:
        raise ValueError("one class per row is required")
    # a cast would truncate class 0.5 to 0; bool is no integer dtype
    if not np.issubdtype(classes.dtype, np.integer):
        raise ValueError("class indices must be integers")
    if not np.all((classes >= 0) & (classes < n_classes)):
        raise ValueError(f"class indices must lie in 0..{n_classes - 1}")
    return _fit_columns(X, _softmax_objective(X, classes.astype(np.intp), n_classes, cfg),
                        partial(_newton_softmax, C=n_classes), n_classes, classes.shape[1],
                        names, cfg)


def multinomial_prob_rows(weights: np.ndarray, X, bias: bool = True) -> np.ndarray:
    """(m, C) softmax probabilities of a fitted multinomial block."""
    weights = np.asarray(weights, dtype=np.float64)
    d = weights.shape[1] - 1
    X = _as_feature_matrix(X, d)
    Z = X @ weights[:, :d].T
    if bias:
        Z += weights[:, d]
    return _shifted_softmax(Z)[0]
