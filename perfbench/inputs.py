"""Seeded input generators for the predict-s50 and cli-sparse workloads.

Every draw comes from one ``numpy.random.default_rng(seed)``, so the same
seed gives the same inputs.  The truth behind both workloads is a planted
family of independent tags whose logits are linear in sparse features:

    z_j(x) = c_j + x . (u + w_j)

The shared direction u moves every tag of a row together, which spreads
the number of active tags per row; w_j gives each tag its own signal.
Because the tags are independent given x, the exact statistic means
q(j, k) = p_j * P(|y without j| = k - 1) follow from the Poisson-binomial
count distribution, so Bayes-optimal F-beta values are exact, not sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import expit, logit


@dataclass(frozen=True)
class PlantedTags:
    """Independent tags with logits c_j + x . (u + w_j)."""

    intercepts: np.ndarray  # (s,) c_j
    shared: np.ndarray  # (d,) u
    own: np.ndarray  # (s, d) w_j

    @property
    def s(self) -> int:
        return self.own.shape[0]

    @property
    def d(self) -> int:
        return self.own.shape[1]

    def marginals(self, X: sparse.csr_matrix) -> np.ndarray:
        """(m, s) per-tag probabilities P(y_j = 1 | x)."""
        return expit(np.asarray(X @ (self.own + self.shared).T) + self.intercepts)


def draw_planted(rng: np.random.Generator, s: int, d: int, nnz: int,
                 intercept_mean: float, shared_scale: float,
                 own_scale: float) -> PlantedTags:
    """Draw a planted family; the scales are the std of x.u and x.w_j."""
    return PlantedTags(
        intercepts=rng.normal(intercept_mean, 1.0, size=s),
        shared=rng.normal(0.0, shared_scale / np.sqrt(nnz), size=d),
        own=rng.normal(0.0, own_scale / np.sqrt(nnz), size=(s, d)),
    )


def sparse_features(rng: np.random.Generator, m: int, d: int, nnz: int) -> sparse.csr_matrix:
    """m rows with nnz standard-normal entries at uniform columns (repeats merge)."""
    rows = np.repeat(np.arange(m), nnz)
    cols = rng.integers(0, d, size=m * nnz)
    vals = rng.standard_normal(m * nnz)
    X = sparse.csr_matrix((vals, (rows, cols)), shape=(m, d))
    X.sum_duplicates()
    X.sort_indices()
    return X


def sample_labels(rng: np.random.Generator, marginals: np.ndarray) -> np.ndarray:
    """(m, s) uint8 bits, each tag drawn independently from its marginal."""
    return (rng.random(marginals.shape) < marginals).astype(np.uint8)


def independent_stat_means(p: np.ndarray, chunk: int = 1024) -> np.ndarray:
    """Exact (m, s^2+1) statistic means of independent tags with marginals p.

    Slot 0 is P(y = 0); slot 1 + (j-1)s + (k-1) is P(y_j = 1, |y| = k).
    The leave-one-out count distribution of tag j is the full one divided
    by the factor (1 - p_j + p_j t); the division runs upward when
    p_j <= 1/2 and downward otherwise, which keeps it stable.  Rows are
    processed in chunks to bound the (chunk, s, s) temporaries.
    """
    p = np.asarray(p, dtype=np.float64)
    m, s = p.shape
    q = np.empty((m, s * s + 1))
    for lo in range(0, m, chunk):
        q[lo:lo + chunk] = _stat_means_chunk(p[lo:lo + chunk])
    return q


def _stat_means_chunk(p: np.ndarray) -> np.ndarray:
    m, s = p.shape
    full = np.zeros((m, s + 1))
    full[:, 0] = 1.0
    for j in range(s):
        pj = p[:, j:j + 1]
        full[:, 1:] = full[:, 1:] * (1.0 - pj) + full[:, :-1] * pj
        full[:, :1] *= 1.0 - pj
    low = p <= 0.5
    loo = np.empty((m, s, s))
    # upward: a_0 = f_0/(1-p), a_n = (f_n - p a_{n-1})/(1-p)
    prev = np.zeros((m, s))
    for n in range(s):
        prev = (full[:, n:n + 1] - p * prev) / np.where(low, 1.0 - p, 1.0)
        loo[:, :, n] = prev
    # downward, kept only where p > 1/2: a_{s-1} = f_s/p, a_{n-1} = (f_n - (1-p) a_n)/p
    nxt = np.zeros((m, s))
    for n in range(s, 0, -1):
        nxt = (full[:, n:n + 1] - (1.0 - p) * nxt) / np.where(low, 1.0, p)
        loo[:, :, n - 1] = np.where(low, loo[:, :, n - 1], nxt)
    np.clip(loo, 0.0, 1.0, out=loo)
    q = np.empty((m, s * s + 1))
    q[:, 0] = full[:, 0]
    q[:, 1:] = (p[:, :, None] * loo).reshape(m, s * s)
    return q


def plug_in_weights(planted: PlantedTags) -> np.ndarray:
    """(s^2+1, d+1) first-order linear scorer for the planted statistic means.

    Around x = 0 the tags have marginals pbar_j = sigmoid(c_j).  A common
    shift t of every logit tilts the count distribution as exp(t n), so
    log q(j, k) moves by (1 - pbar_j) for tag j's own logit and by
    (k - 1 - mean count of the other tags) for the shared one.  The scorer
    keeps those first-order terms; it is deliberately imperfect, so its
    decoded labelings fall short of the Bayes decoder by a positive gap.
    """
    s, d = planted.s, planted.d
    pbar = expit(planted.intercepts)
    qbar = independent_stat_means(pbar[None, :])[0]
    own, shared = planted.own, planted.shared
    others = pbar.sum() - pbar  # mean count of the other tags
    W = np.empty((s * s + 1, d + 1))
    W[0, :d] = -(pbar @ own) - pbar.sum() * shared
    ks = np.arange(1, s + 1)
    pair = ((1.0 - pbar)[:, None, None] * own[:, None, :]
            + ((1.0 - pbar)[:, None] + (ks[None, :] - 1 - others[:, None]))[:, :, None]
            * shared[None, None, :])
    W[1:, :d] = pair.reshape(s * s, d)
    W[:, d] = logit(np.clip(qbar, 1e-12, 1.0 - 1e-12))
    return W


@dataclass(frozen=True)
class SparseTask:
    """Features, sampled labels and exact statistic means for one split."""

    X: sparse.csr_matrix
    bits: np.ndarray
    true_means: np.ndarray | None


def draw_split(rng: np.random.Generator, planted: PlantedTags, m: int, nnz: int,
               with_means: bool) -> SparseTask:
    X = sparse_features(rng, m, planted.d, nnz)
    p = planted.marginals(X)
    bits = sample_labels(rng, p)
    return SparseTask(X=X, bits=bits, true_means=independent_stat_means(p) if with_means else None)
