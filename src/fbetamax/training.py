"""Regularized linear estimation of the per-coordinate class probabilities.

Every active statistic coordinate gets its own binary logistic model over
the shared sparse features, and all of them are fit by one call that takes
the whole target matrix; the count-stratified baseline adds softmax blocks.
While the Newton system is small (NEWTON_MAX_DIM) the solver is damped
Newton with one Cholesky factorization per subproblem and iteration, which
reaches the gradient tolerance in a dozen steps; larger systems run
full-batch L-BFGS-B.  Both use analytic gradients, so results are
deterministic for a fixed dataset and configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.optimize import minimize
from scipy.special import expit, logsumexp

from .decoding import decode_rows, row_chunks
from .fmeasure import BetaParam, LabelVec, StatIndex, StatVec, label_stats_matrix
from .surrogate import SurrogateConfig

__all__ = [
    "Dataset",
    "LinearModel",
    "MultinomialFit",
    "NEWTON_MAX_DIM",
    "SubproblemReport",
    "TrainConfig",
    "fit_binary_logistic",
    "fit_logistic_columns",
    "multinomial_prob_rows",
    "train_multinomial",
    "train_surrogate",
]


@dataclass(frozen=True)
class Dataset:
    """A multi-label sample: sparse features plus one labeling per row.

    The features are stored in canonical CSR form: each row's indices
    strictly increasing, with repeated entries summed.
    """

    s: int
    d: int
    features: sparse.csr_matrix
    labels: tuple[LabelVec, ...]

    def __post_init__(self) -> None:
        if self.s < 1 or self.d < 1:
            raise ValueError("s and d must be >= 1")
        feats = sparse.csr_matrix(self.features, dtype=np.float64)
        if feats.shape != (len(self.labels), self.d):
            raise ValueError(
                f"feature matrix is {feats.shape}, expected ({len(self.labels)}, {self.d})"
            )
        if any(y.s != self.s for y in self.labels):
            raise ValueError("every labeling must cover all s tags")
        if not feats.has_canonical_format:
            # sorted, duplicate-free rows; a copy, since feats may share the caller's arrays
            feats = feats.copy()
            feats.sum_duplicates()
        if not np.all(np.isfinite(feats.data)):
            # after summing, so repeated finite entries cannot overflow to inf unchecked
            raise ValueError("feature values must be finite")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def m(self) -> int:
        return len(self.labels)

    @cached_property
    def bits(self) -> np.ndarray:
        """(m, s) 0/1 label matrix, one row per labeling."""
        bits = np.array([y.bits for y in self.labels], dtype=np.uint8).reshape(self.m, self.s)
        bits.flags.writeable = False
        return bits

    @cached_property
    def observed_counts(self) -> frozenset[int]:
        """Active-tag counts that occur in the sample, including 0."""
        return frozenset(y.popcount for y in self.labels)


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
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.grad_tol > 0.0:
            raise ValueError("grad_tol must be positive")


@dataclass(frozen=True)
class SubproblemReport:
    """Terminal state of one convex solve; converged means the gradient test passed."""

    name: str
    objective: float
    grad_norm: float
    iterations: int
    converged: bool


def _as_feature_matrix(X, d: int) -> sparse.csr_matrix:
    if sparse.issparse(X):
        X = X.tocsr()
    else:
        arr = np.asarray(X, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[None, :]
        X = sparse.csr_matrix(arr)
    if X.shape[1] != d:
        raise ValueError(f"features have {X.shape[1]} columns, model expects {d}")
    return X


def _row_blocks(X: sparse.csr_matrix, s: int):
    """Yield (rows, X[rows]) per decoding row chunk; a single chunk is X itself, unsliced."""
    chunks = row_chunks(X.shape[0], s)
    if len(chunks) == 1:
        yield chunks[0], X
        return
    for rows in chunks:
        yield rows, X[rows]


def _predict_by_chunks(model, X) -> np.ndarray:
    """(m, s) decoded bits of model.stat_prob_rows, one decoding row chunk at a time."""
    X = _as_feature_matrix(X, model.d)
    bits = np.empty((X.shape[0], model.s), dtype=np.uint8)
    for rows, X_rows in _row_blocks(X, model.s):
        bits[rows], _ = decode_rows(model.stat_prob_rows(X_rows), model.s, model.beta)
    return bits


# Largest problem solved by damped Newton, in weights: p = d+1 per binary
# column (d without a bias), C*p per C-class softmax block.  A softmax step
# solves only (C-1)*p unknowns, but the cutoff counts C*p, the units of the
# sweep below.  Larger problems run L-BFGS-B.  A Newton iteration costs
# about m*p^2 + p^3/3 flops.  On a d-sweep over dense features Newton
# stayed faster up to p ~ 550 for binary columns and C*p ~ 1700 for softmax
# blocks, where L-BFGS-B also stopped at max_iters up to C*p ~ 1050.  On
# sparse, well-conditioned features L-BFGS-B is faster at every size, so
# below the cutoff those trade speed for an exactly converged fit.
NEWTON_MAX_DIM = 1000

# sufficient-decrease constant of the backtracking line search
_ARMIJO = 1e-4
# objective values this close (relative) count as equal near an optimum
_ROUNDING = 4.0 * np.finfo(np.float64).eps
# a column whose backtracked step falls below this stops moving
_MIN_STEP = 2.0**-40


def _ridge(d: int, cfg: TrainConfig) -> np.ndarray:
    """Per-weight L2 multipliers: reg_lambda on the d features, none on the bias."""
    reg = np.full(d + int(cfg.bias), cfg.reg_lambda)
    reg[d:] = 0.0
    return reg


def _design(X: sparse.csr_matrix, bias: bool) -> sparse.csr_matrix:
    """X with a trailing column of ones when the bias is fit."""
    if not bias:
        return X
    ones = sparse.csr_matrix(np.ones((X.shape[0], 1)))
    return sparse.hstack([X, ones], format="csr")


def _column_sums(A: np.ndarray) -> np.ndarray:
    """Per-column sums, each reduced in the same order whatever columns share A."""
    return np.ascontiguousarray(A.T).sum(axis=1)


def _report(name: str, objective, grad: np.ndarray, iterations, cfg: TrainConfig) -> SubproblemReport:
    grad_norm = float(np.max(np.abs(grad)))
    return SubproblemReport(
        name=name,
        objective=float(objective),
        grad_norm=grad_norm,
        iterations=int(iterations),
        converged=grad_norm <= cfg.grad_tol,
    )


def _solve_psd(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve H x = rhs for a positive semi-definite H; least squares if singular."""
    try:
        factor = cho_factor(H, lower=True, check_finite=False)
    except LinAlgError:
        return np.linalg.lstsq(H, rhs, rcond=None)[0]
    return cho_solve(factor, rhs, check_finite=False)


def _damped_newton(evaluate, direction, dim: int, n: int, cfg: TrainConfig):
    """Damped Newton over n independent parameter columns, each started at zero.

    evaluate(W, cols) returns the objectives (k,), gradients (dim, k) and
    curvature data (..., k) of columns cols at parameters W (dim, k);
    direction(curv, g) returns one column's Newton step.  Each column
    backtracks with its own Armijo step and leaves the active set once its
    gradient test passes, its step stalls, or its values turn non-finite.
    Returns the parameters, objectives, gradients and iteration counts.
    """
    W = np.zeros((dim, n))
    f, G, curv = evaluate(W, np.arange(n))
    iters = np.zeros(n, dtype=np.int64)
    # NaN compares false, so a non-finite gradient never enters the loop
    active = np.flatnonzero(np.max(np.abs(G), axis=0) > cfg.grad_tol)
    for _ in range(cfg.max_iters):
        if active.size == 0:
            break
        D = np.stack([direction(curv[..., c], G[:, c]) for c in active], axis=1)
        slope = _column_sums(G[:, active] * D)
        step = np.ones(active.size)
        moved = np.zeros(active.size, dtype=bool)
        todo = np.arange(active.size)
        while todo.size:
            cols = active[todo]
            trial = W[:, cols] + step[todo] * D[:, todo]
            f_t, G_t, curv_t = evaluate(trial, cols)
            bound = f[cols] + _ARMIJO * step[todo] * slope[todo] + _ROUNDING * np.abs(f[cols])
            ok = f_t <= bound
            hit = cols[ok]
            W[:, hit] = trial[:, ok]
            f[hit] = f_t[ok]
            G[:, hit] = G_t[:, ok]
            curv[..., hit] = curv_t[..., ok]
            moved[todo[ok]] = True
            todo = todo[~ok]
            step[todo] *= 0.5
            todo = todo[step[todo] >= _MIN_STEP]
        iters[active] += 1
        active = active[moved & (np.max(np.abs(G[:, active]), axis=0) > cfg.grad_tol)]
    return W, f, G, iters


def _newton_logistic(Xb: sparse.csr_matrix, T: np.ndarray, reg: np.ndarray, cfg: TrainConfig):
    """Damped Newton for every column of T; Xb already carries the bias column.

    Objectives and gradients go through sparse products with Xb, so each
    column's arithmetic is the same whichever columns share the batch.
    """
    m, p = Xb.shape
    XbT = Xb.T.tocsr()
    dense = Xb.toarray()
    signs = 2.0 * T - 1.0
    diag = np.diag_indices(p)

    def evaluate(W, cols):
        Z = Xb @ W
        margin = signs[:, cols] * Z
        loss = np.maximum(0.0, -margin) + np.log1p(np.exp(-np.abs(margin)))
        P = expit(Z)
        f = _column_sums(loss) / m + 0.5 * _column_sums(reg[:, None] * W * W)
        G = XbT @ ((P - T[:, cols]) / m) + reg[:, None] * W
        return f, G, P * (1.0 - P)

    def direction(q, g):
        root = dense * np.sqrt(q / m)[:, None]
        H = root.T @ root
        H[diag] += reg
        return _solve_psd(H, -g)

    return _damped_newton(evaluate, direction, p, T.shape[1], cfg)


def _sum_zero_basis(C: int) -> np.ndarray:
    """C x (C-1) orthonormal Helmert columns, each orthogonal to the all-ones vector."""
    k = np.arange(1, C)
    basis = np.triu(np.ones((C, C - 1)))
    basis[k, k - 1] = -k
    return basis / np.sqrt(k * (k + 1))


def _newton_multinomial(
    Xb: sparse.csr_matrix, labels: np.ndarray, C: int, reg: np.ndarray, cfg: TrainConfig
):
    """Damped Newton on one softmax block; parameters are the C x p weights, flattened.

    Shifting every class by one weight vector leaves the softmax unchanged,
    so the loss Hessian vanishes on those directions.  Iterates and
    gradients have zero class sums, so each step is solved for (C-1) x p
    coordinates E in the sum-zero subspace, W = basis @ E, where the
    Hessian has no null directions.
    """
    m, p = Xb.shape
    XbT = Xb.T.tocsr()
    dense = Xb.toarray()
    rows = np.arange(m)
    k = C - 1
    basis = _sum_zero_basis(C)
    # products of basis columns a, b per class, for the reduced weights below
    basis_pairs = (basis[:, :, None] * basis[:, None, :]).reshape(C, k * k)
    diag = np.diag_indices(k * p)

    def evaluate(W, cols):
        V = W[:, 0].reshape(C, p)
        Z = Xb @ V.T
        lse = logsumexp(Z, axis=1)
        f = np.mean(lse - Z[rows, labels]) + 0.5 * float(np.sum(reg * V * V))
        P = np.exp(Z - lse[:, None])
        R = P.copy()
        R[rows, labels] -= 1.0
        G = (XbT @ (R / m)).T + reg * V
        return np.array([f]), G.reshape(C * p, 1), P[:, :, None]

    def direction(P, g):
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

    return _damped_newton(evaluate, direction, C * p, 1, cfg)


def _lbfgs_logistic(
    X: sparse.csr_matrix, Xt: sparse.csr_matrix, a: np.ndarray, cfg: TrainConfig, name: str
) -> tuple[np.ndarray, SubproblemReport]:
    """One binary column by L-BFGS-B, for problems above NEWTON_MAX_DIM."""
    m, d = X.shape
    t = 2.0 * a - 1.0

    def objective(wb: np.ndarray):
        w = wb[:d]
        b = wb[d] if cfg.bias else 0.0
        z = X @ w + b
        zt = t * z
        loss = float(np.mean(np.maximum(0.0, -zt) + np.log1p(np.exp(-np.abs(zt)))))
        obj = loss + 0.5 * cfg.reg_lambda * float(w @ w)
        r = (expit(z) - a) / m
        gw = Xt @ r + cfg.reg_lambda * w
        if cfg.bias:
            return obj, np.concatenate([gw, [r.sum()]])
        return obj, gw

    dim = d + 1 if cfg.bias else d
    res = minimize(
        objective,
        np.zeros(dim),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": cfg.max_iters, "gtol": cfg.grad_tol, "ftol": 1e-12},
    )
    weights = np.zeros(d + 1)
    weights[:dim] = res.x
    return weights, _report(name, res.fun, res.jac, res.nit, cfg)


def _lbfgs_multinomial(
    X: sparse.csr_matrix, labels: np.ndarray, n_classes: int, cfg: TrainConfig, name: str
) -> tuple[np.ndarray, SubproblemReport]:
    """One softmax block by L-BFGS-B, for blocks above NEWTON_MAX_DIM."""
    m, d = X.shape
    Xt = X.T.tocsr()
    rows = np.arange(m)

    def objective(flat: np.ndarray):
        W = flat.reshape(n_classes, d + 1)
        Z = X @ W[:, :d].T
        if cfg.bias:
            Z = Z + W[:, d]
        lse = logsumexp(Z, axis=1)
        loss = float(np.mean(lse - Z[rows, labels]))
        obj = loss + 0.5 * cfg.reg_lambda * float(np.sum(W[:, :d] * W[:, :d]))
        P = np.exp(Z - lse[:, None])
        P[rows, labels] -= 1.0
        P /= m
        G = np.empty_like(W)
        G[:, :d] = (Xt @ P).T + cfg.reg_lambda * W[:, :d]
        G[:, d] = P.sum(axis=0) if cfg.bias else 0.0
        return obj, G.ravel()

    res = minimize(
        objective,
        np.zeros(n_classes * (d + 1)),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": cfg.max_iters, "gtol": cfg.grad_tol, "ftol": 1e-12},
    )
    W = res.x.reshape(n_classes, d + 1).copy()
    if not cfg.bias:
        W[:, d] = 0.0
    return W, _report(name, res.fun, res.jac, res.nit, cfg)


def fit_logistic_columns(
    X, T: np.ndarray, cfg: TrainConfig, names: Sequence[str]
) -> tuple[np.ndarray, list[SubproblemReport]]:
    """Fit one binary logistic model per column of the (m, n) 0/1 matrix T.

    Each column minimizes mean logistic loss + reg_lambda/2 * ||w||^2 over
    w (and the bias) on the shared rows of X.  Returns (n, d+1) weights with
    the bias last (zero when disabled) and one report per column, named by
    names.  Up to NEWTON_MAX_DIM weights per column all columns share one
    damped-Newton run; above it each column runs L-BFGS-B.  Either way a
    column's result does not depend on which other columns are fit with it.
    """
    X = sparse.csr_matrix(X, dtype=np.float64)
    m, d = X.shape
    if m == 0:
        raise ValueError("cannot train on an empty dataset")
    T = np.asarray(T, dtype=np.float64)
    if T.ndim != 2 or T.shape[0] != m:
        raise ValueError("one binary target per row is required")
    names = [str(name) for name in names]
    if len(names) != T.shape[1]:
        raise ValueError("one name per target column is required")
    reg = _ridge(d, cfg)
    weights = np.zeros((T.shape[1], d + 1))
    if reg.size > NEWTON_MAX_DIM:
        Xt = X.T.tocsr()
        reports = []
        for c, name in enumerate(names):
            weights[c], report = _lbfgs_logistic(X, Xt, T[:, c], cfg, name)
            reports.append(report)
        return weights, reports
    W, f, G, iters = _newton_logistic(_design(X, cfg.bias), T, reg, cfg)
    weights[:, : reg.size] = W.T
    reports = [_report(name, f[c], G[:, c], iters[c], cfg) for c, name in enumerate(names)]
    return weights, reports


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


@dataclass(frozen=True)
class LinearModel:
    """One linear scorer per active statistic coordinate.

    weights has one row per active coordinate, each of length d+1 with the
    bias last.  Scores at inactive coordinates are -inf so the inverse link
    sends them to probability exactly 0.
    """

    s: int
    d: int
    beta: BetaParam
    active_indices: tuple[StatIndex, ...]
    weights: np.ndarray
    bias: bool
    reg_lambda: float
    reports: tuple[SubproblemReport, ...] = ()

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=np.float64)
        expected = (len(self.active_indices), self.d + 1)
        if weights.shape != expected:
            raise ValueError(f"weights must have shape {expected}, got {weights.shape}")
        if not np.all(np.isfinite(weights)):
            raise ValueError("model weights must be finite")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "active_indices", tuple(self.active_indices))

    @cached_property
    def active_flats(self) -> np.ndarray:
        flats = np.array([ix.flat(self.s) for ix in self.active_indices], dtype=np.intp)
        flats.flags.writeable = False
        return flats

    @cached_property
    def _feature_weights(self) -> np.ndarray:
        """(d, n_active) contiguous copy of the non-bias weights, for X @ W."""
        return np.ascontiguousarray(self.weights[:, : self.d].T)

    def _score_chunks(self, X: sparse.csr_matrix):
        """Yield (rows, raw scores) per row chunk of X; each scores array is fresh."""
        for rows, X_rows in _row_blocks(X, self.s):
            scores = X_rows @ self._feature_weights
            scores += self.weights[:, self.d]
            yield rows, scores

    def score_rows(self, X) -> np.ndarray:
        """(m, n_active) raw scores for a feature matrix."""
        X = _as_feature_matrix(X, self.d)
        out = np.empty((X.shape[0], len(self.active_indices)))
        for rows, scores in self._score_chunks(X):
            out[rows] = scores
        return out

    def stat_prob_rows(self, X) -> np.ndarray:
        """(m, s^2+1) estimated means; inactive coordinates are exactly 0."""
        X = _as_feature_matrix(X, self.d)
        out = np.zeros((X.shape[0], self.s * self.s + 1))
        for rows, scores in self._score_chunks(X):
            out[rows, self.active_flats] = expit(scores, out=scores)
        return out

    def predict_rows(self, X) -> np.ndarray:
        """(m, s) decoded labelings as a bit matrix, scored and decoded chunk by chunk."""
        return _predict_by_chunks(self, X)

    def predict_scores(self, x) -> StatVec:
        """Scores for a single feature row; -inf marks inactive coordinates."""
        scores = self.score_rows(x)[0]
        entries = np.full(self.s * self.s + 1, -np.inf)
        entries[self.active_flats] = scores
        return StatVec(self.s, entries)

    def predict_stat_probs(self, x) -> StatVec:
        """Estimated statistic means for a single feature row."""
        entries = np.zeros(self.s * self.s + 1)
        entries[self.active_flats] = expit(self.score_rows(x)[0])
        return StatVec(self.s, entries)

    def predict(self, x) -> LabelVec:
        bits = self.predict_rows(x)
        return LabelVec(tuple(int(b) for b in bits[0]))


def train_surrogate(data: Dataset, cfg: TrainConfig, scfg: SurrogateConfig) -> LinearModel:
    """Fit one binary logistic model per active coordinate of scfg."""
    if data.m == 0:
        raise ValueError("cannot train on an empty dataset")
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


@dataclass(frozen=True)
class MultinomialFit:
    """Weights of a C-class softmax block: shape (C, d+1), bias last."""

    weights: np.ndarray
    report: SubproblemReport


def train_multinomial(
    data: Dataset, class_of: Sequence[int], n_classes: int, cfg: TrainConfig, name: str = "multinomial"
) -> MultinomialFit:
    """Fit a softmax block: mean cross-entropy + reg_lambda/2 * ||W||^2 (biases free)."""
    if data.m == 0:
        raise ValueError("cannot train on an empty dataset")
    if n_classes < 2:
        raise ValueError("a multinomial block needs at least two classes")
    labels = np.asarray(class_of, dtype=np.intp)
    if labels.shape != (data.m,):
        raise ValueError("one class per row is required")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"class indices must lie in 0..{n_classes - 1}")
    X = data.features
    reg = _ridge(data.d, cfg)
    if n_classes * reg.size > NEWTON_MAX_DIM:
        weights, report = _lbfgs_multinomial(X, labels, n_classes, cfg, name)
        return MultinomialFit(weights=weights, report=report)
    W, f, G, iters = _newton_multinomial(_design(X, cfg.bias), labels, n_classes, reg, cfg)
    weights = np.zeros((n_classes, data.d + 1))
    weights[:, : reg.size] = W.reshape(n_classes, reg.size)
    return MultinomialFit(weights=weights, report=_report(name, f[0], G, iters[0], cfg))


def multinomial_prob_rows(weights: np.ndarray, X, bias: bool = True) -> np.ndarray:
    """(m, C) softmax probabilities of a fitted multinomial block."""
    weights = np.asarray(weights, dtype=np.float64)
    d = weights.shape[1] - 1
    X = _as_feature_matrix(X, d)
    Z = X @ weights[:, :d].T
    if bias:
        Z = Z + weights[:, d]
    Z -= logsumexp(Z, axis=1)[:, None]
    return np.exp(Z)
