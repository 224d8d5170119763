"""Logistic loss, link pair, and pointwise regret against frozen references."""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import fbetamax
from fbetamax.losses import (
    PROB_CLIP,
    STRONG_PROPERNESS,
    logistic_gradient,
    logistic_loss,
    logit_link,
    pointwise_binary_regret,
    sigmoid,
    sigmoid_into,
)

# mpmath, 30 digits
TWO_LN2 = 1.3862943611198906
LOSS_AT_PLUS50 = 1.9287498479942364e-22
KL_08_05 = 0.19274475702175743


class TestLogisticLoss:
    def test_zero_score_is_ln2(self):
        assert logistic_loss(1, 0.0) == pytest.approx(TWO_LN2 / 2.0, abs=1e-15)
        assert logistic_loss(-1, 0.0) == pytest.approx(TWO_LN2 / 2.0, abs=1e-15)

    def test_large_margin_underflows_gracefully(self):
        assert logistic_loss(1, 50.0) == pytest.approx(LOSS_AT_PLUS50, rel=1e-12)
        assert logistic_loss(1, 50.0) <= 1e-20

    def test_no_overflow_at_extreme_scores(self):
        # naive log(1+exp(1000)) would overflow; the stable form is exact
        assert logistic_loss(-1, 1000.0) == 1000.0
        assert logistic_loss(1, -745.0) == 745.0

    def test_label_validation(self):
        with pytest.raises(ValueError):
            logistic_loss(0, 1.0)
        with pytest.raises(ValueError):
            logistic_loss(1, np.inf)

    def test_array_broadcast(self):
        u = np.array([-1.0, 0.0, 1.0])
        vals = logistic_loss(1.0, u)
        assert vals.shape == (3,)
        assert vals[1] == pytest.approx(np.log(2.0), abs=1e-15)

    @given(st.floats(min_value=-30.0, max_value=30.0))
    @settings(max_examples=100, deadline=None)
    def test_gradient_matches_finite_differences(self, u):
        h = 1e-6
        for y in (1, -1):
            fd = (logistic_loss(y, u + h) - logistic_loss(y, u - h)) / (2.0 * h)
            assert logistic_gradient(y, u) == pytest.approx(fd, abs=1e-7)


class TestLinkPair:
    def test_round_trip(self):
        for p in (0.001, 0.25, 0.5, 0.75, 0.999):
            assert sigmoid(logit_link(p)) == pytest.approx(p, abs=1e-12)

    def test_clipping_absorbs_boundary(self):
        assert np.isfinite(logit_link(0.0))
        assert np.isfinite(logit_link(1.0))
        assert logit_link(0.0) == pytest.approx(np.log(PROB_CLIP) - np.log1p(-PROB_CLIP))

    def test_sigmoid_midpoint(self):
        assert sigmoid(0.0) == 0.5

    @given(st.floats(min_value=-200.0, max_value=200.0))
    @settings(max_examples=100, deadline=None)
    def test_sigmoid_in_unit_interval(self, u):
        assert 0.0 <= sigmoid(u) <= 1.0

    def test_link_is_the_loss_minimizer(self):
        # d/du [q phi(+1,u) + (1-q) phi(-1,u)] = sigmoid(u) - q = 0 at u = logit(q)
        for q in (0.1, 0.37, 0.5, 0.92):
            u = logit_link(q)
            grad = q * logistic_gradient(1, u) + (1 - q) * logistic_gradient(-1, u)
            assert grad == pytest.approx(0.0, abs=1e-12)


def ulps_apart(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Units in the last place between equal-shaped arrays of non-negative floats."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestSigmoidInto:
    """The package's one logistic link, with scipy's expit as the oracle.

    Where numpy runs its AVX-512 exp, that exp and the C library's may
    differ by one ULP.  Near u = -36.7, where 1 + exp(-u) crosses 2^53,
    the rounding of the sum and the reciprocal turns that into as many
    as 4 ULP of the link.  CI reruns this class with numpy's SIMD kernels
    switched off, so its other exp kernels are checked too.
    """

    @pytest.mark.parametrize("scale", [1.0, 10.0, 100.0, 700.0])
    def test_within_4_ulp_of_expit_on_random_scores(self, scale):
        u = np.random.default_rng(int(scale)).normal(scale=scale, size=200_000)
        assert ulps_apart(sigmoid_into(u), expit(u)).max() <= 4

    def test_within_4_ulp_of_expit_on_a_grid(self):
        # the whole range between the two saturation points, in steps of 1e-3
        u = np.arange(-750_000, 750_001) / 1000.0
        assert ulps_apart(sigmoid_into(u), expit(u)).max() <= 4

    def test_exact_values(self):
        got = sigmoid_into(np.array([-800.0, 0.0, 800.0]))
        assert got.tolist() == [0.0, 0.5, 1.0]

    def test_non_finite_and_0d_inputs_match_expit_without_warnings(self):
        u = np.array([np.nan, np.inf, -np.inf, -1e308, 1e308, -745.5, 0.0, -0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(sigmoid_into(u), expit(u))
            for x in u:
                got = sigmoid_into(x)
                assert got.shape == ()
                np.testing.assert_array_equal(got, expit(x))
                np.testing.assert_array_equal(sigmoid(x), expit(x))

    def test_out_in_place_and_aliased(self):
        u = np.random.default_rng(3).normal(scale=30.0, size=(50, 7))
        fresh = sigmoid_into(u)
        assert ulps_apart(fresh, expit(u)).max() <= 4
        out = np.full_like(u, np.nan)
        assert sigmoid_into(u, out=out) is out
        np.testing.assert_array_equal(out, fresh)
        alias = u.copy()
        assert sigmoid_into(alias, out=alias) is alias
        np.testing.assert_array_equal(alias, fresh)
        # a strided column of a wider table, as a model writes its first column
        table = np.zeros((50, 3))
        sigmoid_into(u[:, 2], out=table[:, 1])
        np.testing.assert_array_equal(table[:, 1], fresh[:, 2])
        assert not table[:, [0, 2]].any()

    def test_package_import_leaves_scipy_special_out(self):
        src = str(Path(fbetamax.__file__).resolve().parents[1])
        script = "import sys, fbetamax; print('scipy.special' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestPointwiseRegret:
    def test_frozen_kl_value(self):
        assert pointwise_binary_regret(0.8, 0.0) == pytest.approx(KL_08_05, abs=1e-13)

    def test_zero_at_optimum(self):
        for q in (0.2, 0.5, 0.9):
            assert pointwise_binary_regret(q, logit_link(q)) == pytest.approx(0.0, abs=1e-13)

    def test_equals_kl_divergence(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            q = rng.uniform(0.01, 0.99)
            u = rng.uniform(-8.0, 8.0)
            p = sigmoid(u)
            kl = q * np.log(q / p) + (1 - q) * np.log((1 - q) / (1 - p))
            assert pointwise_binary_regret(q, u) == pytest.approx(kl, abs=1e-11)

    def test_nonnegative_on_grid(self):
        # integer-built grid so 0 and the endpoints land exactly
        qs = np.arange(1, 100) / 100.0
        us = np.arange(-100, 101) / 10.0
        vals = pointwise_binary_regret(qs[:, None], us[None, :])
        assert vals.min() >= -1e-12

    def test_strong_properness_on_grid(self):
        # logistic modulus is 4: regret >= 2 (sigmoid(u) - q)^2, no violations
        qs = np.arange(1, 100) / 100.0
        us = np.arange(-100, 101) / 10.0
        regret = pointwise_binary_regret(qs[:, None], us[None, :])
        gap = regret - 2.0 * (sigmoid(us[None, :]) - qs[:, None]) ** 2
        assert STRONG_PROPERNESS == 4.0
        assert np.all(gap >= 0.0)
