"""The logistic loss, its logit link, and its pointwise regret.

The logistic loss is a margin loss phi(y, u) with y in {+1, -1} whose
expected value under P(y=+1) = q is minimized at u = logit(q).  It is the
binary loss of every subproblem, and its strong properness modulus
STRONG_PROPERNESS sets the regret transfer bound.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PROB_CLIP",
    "STRONG_PROPERNESS",
    "logistic_gradient",
    "logistic_loss",
    "logit_link",
    "pointwise_binary_regret",
    "sigmoid",
    "sigmoid_into",
]

# probabilities are clipped into [PROB_CLIP, 1 - PROB_CLIP] before the link
PROB_CLIP = 1e-12

# the modulus lambda in pointwise regret >= (lambda / 2) * (sigmoid(u) - q)^2
STRONG_PROPERNESS = 4.0


def _check_margin_inputs(y, u) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if not np.all(np.isfinite(u)):
        raise ValueError("scores must be finite")
    if not np.all((y == 1.0) | (y == -1.0)):
        raise ValueError("binary labels must be +1 or -1")
    return y, u


def logistic_loss(y, u):
    """ln(1 + exp(-y*u)) for y in {+1,-1}, overflow-safe for any magnitude of u.

    Evaluated as max(0, -z) + log1p(exp(-|z|)) with z = y*u.  Accepts scalars
    or broadcastable arrays and returns a matching scalar or array.
    """
    y, u = _check_margin_inputs(y, u)
    z = y * u
    val = np.maximum(0.0, -z) + np.log1p(np.exp(-np.abs(z)))
    return val.item() if val.ndim == 0 else val


def logistic_gradient(y, u):
    """d/du of logistic_loss: -y * sigmoid(-y*u)."""
    y, u = _check_margin_inputs(y, u)
    val = -y * sigmoid_into(-y * u)
    return val.item() if val.ndim == 0 else val


def sigmoid_into(u, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-u)) elementwise, written into out (a new float64 array if None).

    The one logistic link of the package: model means, solver residuals
    and Newton curvatures all go through it.  out may be u itself.  exp(-u)
    overflows to inf below u = -709.78 without a warning, which gives
    exactly 0; NaN stays NaN.  It is scipy's expit formula on numpy's exp,
    which is much faster where numpy has an AVX-512 kernel; there it may
    differ from the C library's exp by one ULP, and so from expit by up
    to 4 ULP.
    """
    u = np.asarray(u, dtype=np.float64)
    if out is None:
        out = np.empty_like(u)
    np.negative(u, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def sigmoid(u):
    """Inverse of the logit link: 1 / (1 + exp(-u)), a float for scalar input.

    Through sigmoid_into, so a large negative u gives exactly 0 and a
    large positive one exactly 1, with no overflow warning.
    """
    val = sigmoid_into(u)
    return val.item() if val.ndim == 0 else val


def logit_link(p):
    """ln(p / (1-p)) after clipping p into [PROB_CLIP, 1 - PROB_CLIP]."""
    p = np.clip(np.asarray(p, dtype=np.float64), PROB_CLIP, 1.0 - PROB_CLIP)
    val = np.log(p) - np.log1p(-p)
    return val.item() if val.ndim == 0 else val


def pointwise_binary_regret(q, u):
    """Excess expected loss of score u at class-1 probability q.

    q * (phi(+1,u) - phi(+1,logit(q))) + (1-q) * (phi(-1,u) - phi(-1,logit(q))),
    the KL divergence from Bernoulli(q) to Bernoulli(sigmoid(u)).
    Non-negative up to clipping effects of order PROB_CLIP at the boundary.
    Each phi adds logistic_loss's terms in its order, so the values match
    it bit for bit, with four arrays of the broadcast shape alive at once.
    """
    q = np.asarray(q, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    best = logit_link(q)  # NaN where q is NaN
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(best))):
        raise ValueError("scores must be finite")
    shape = np.broadcast_shapes(q.shape, u.shape)
    tail, pos_best, neg_best = (np.empty(shape) for _ in range(3))
    # phi(+-1, v) = max(0, -+v) + log1p(exp(-|v|)), the tail shared by both
    np.log1p(np.exp(np.negative(np.abs(best, out=tail), out=tail), out=tail), out=tail)
    np.maximum(0.0, np.negative(best, out=pos_best), out=pos_best)
    pos_best += tail
    np.maximum(0.0, best, out=neg_best)
    neg_best += tail
    del best
    np.log1p(np.exp(np.negative(np.abs(u, out=tail), out=tail), out=tail), out=tail)
    # q * (phi(+1, u) - phi(+1, best)), then (1-q) * (phi(-1, u) - phi(-1, best))
    val = np.empty(shape)
    np.maximum(0.0, np.negative(u, out=val), out=val)
    val += tail
    val -= pos_best
    val *= q
    other = np.maximum(0.0, u, out=pos_best)
    other += tail
    other -= neg_best
    other *= np.subtract(1.0, q, out=tail)
    val += other
    return val.item() if val.ndim == 0 else val
