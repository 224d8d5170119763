"""Shared fixtures: the expensive synthetic learning-curve runs happen once."""

from __future__ import annotations

import math
import sys
import time

import numpy as np
import pytest

from fbetamax import decoding
from fbetamax.cli import run_consistency

ACCEPT_SEED = 0
LADDER_SIZES = (100, 316, 1000, 3162, 10000)


def count_mass(q: np.ndarray) -> float:
    """entry(zero) + sum_k (1/k) sum_j entry(j,k) of an (s^2+1,) vector; 1 for valid means."""
    s = math.isqrt(q.size - 1)
    per_count = q[1:].reshape(s, s).sum(axis=0)
    return float(q[0] + np.sum(per_count / np.arange(1, s + 1, dtype=np.float64)))


def random_valid_means(s: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform entries scaled onto the count-mass constraint, rejecting overshoots.

    The scaling makes count_mass(q) = 1; a rescaled entry can exceed 1 only
    for small s, in which case redraw.
    """
    while True:
        u = rng.uniform(size=s * s + 1)
        q = u / count_mass(u)
        if q.max() <= 1.0:
            return q


@pytest.fixture(params=[1, 2, 4])
def row_workers(request, monkeypatch):
    """Run row pieces on 1, 2 or 4 threads, each count with its own pool.

    The thread switch interval is shortened, so the pieces of one batch
    interleave as much as they can.
    """
    monkeypatch.setattr(decoding, "_WORKERS", request.param)
    monkeypatch.setattr(decoding, "_POOL", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)
        if decoding._POOL is not None:
            decoding._POOL.shutdown()


@pytest.fixture(scope="session")
def ladder():
    """Full learning-curve run at the acceptance sizes, with wall time."""
    start = time.time()
    rows = run_consistency(seed=ACCEPT_SEED, sizes=LADDER_SIZES)
    return rows, time.time() - start


@pytest.fixture(scope="session")
def adversarial_run():
    """Largest-size run on the mutually exclusive support."""
    rows = run_consistency(seed=ACCEPT_SEED, sizes=(10000,), support="exclusive")
    return rows[0]
