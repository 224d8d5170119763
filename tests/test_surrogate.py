"""Decomposable surrogate: values, gradients, convexity, minimizer recovery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from fbetamax.fmeasure import BetaParam, LabelVec, StatIndex, StatVec
from fbetamax.losses import sigmoid
from fbetamax.surrogate import (
    SurrogateConfig,
    binary_targets,
    surrogate_gradient,
    surrogate_loss,
)

# mpmath, 30 digits
TWO_LN2 = 1.3862943611198906
FIVE_LN2 = 3.4657359027997265

B1 = BetaParam(1.0)


class TestSurrogateConfig:
    def test_full_enumerates_everything(self):
        cfg = SurrogateConfig.full(3, B1)
        assert cfg.n_subproblems() == 10
        assert cfg.active_flats.tolist() == list(range(10))
        assert cfg.counts == (1, 2, 3)

    def test_for_counts_subset(self):
        cfg = SurrogateConfig.for_counts(3, [0, 2], B1)
        assert cfg.n_subproblems() == 1 + 3
        assert cfg.counts == (2,)
        assert cfg.active_indices[0].is_zero
        assert {(ix.j, ix.k) for ix in cfg.active_indices[1:]} == {(1, 2), (2, 2), (3, 2)}

    def test_rejects_out_of_range_count(self):
        with pytest.raises(ValueError):
            SurrogateConfig.for_counts(2, [3], B1)


class TestSurrogateLoss:
    def test_single_tag_all_zero_scores(self):
        # two active coordinates, every phi at 0 is ln 2
        cfg = SurrogateConfig.full(1, B1)
        val = surrogate_loss(LabelVec((0,)), StatVec.zeros(1), cfg)
        assert val == pytest.approx(TWO_LN2, abs=1e-14)

    def test_two_tags_all_zero_scores(self):
        cfg = SurrogateConfig.full(2, B1)
        val = surrogate_loss(LabelVec((1, 0)), StatVec.zeros(2), cfg)
        assert val == pytest.approx(FIVE_LN2, abs=1e-14)

    def test_restricting_counts_drops_terms(self):
        full = SurrogateConfig.full(2, B1)
        only1 = SurrogateConfig.for_counts(2, [1], B1)
        y = LabelVec((1, 0))
        u = StatVec.zeros(2)
        assert surrogate_loss(y, u, only1) < surrogate_loss(y, u, full)
        assert surrogate_loss(y, u, only1) == pytest.approx(3 * TWO_LN2 / 2, abs=1e-14)

    def test_dimension_mismatch(self):
        cfg = SurrogateConfig.full(2, B1)
        with pytest.raises(ValueError):
            surrogate_loss(LabelVec((1, 0, 0)), StatVec.zeros(2), cfg)

    def test_decomposes_over_coordinates(self):
        # the total is the sum of the per-coordinate binary losses
        rng = np.random.default_rng(3)
        s = 3
        cfg = SurrogateConfig.full(s, B1)
        y = LabelVec((0, 1, 1))
        u = StatVec(s, rng.normal(size=s * s + 1))
        from fbetamax.fmeasure import label_stats
        from fbetamax.losses import logistic_loss

        a = label_stats(y).entries
        total = sum(
            logistic_loss(1.0 if a[ix.flat(s)] else -1.0, u.entries[ix.flat(s)])
            for ix in cfg.active_indices
        )
        assert surrogate_loss(y, u, cfg) == pytest.approx(total, abs=1e-12)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_convex_in_scores(self, data):
        s = data.draw(st.integers(1, 4))
        bits = tuple(data.draw(st.integers(0, 1)) for _ in range(s))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        t = data.draw(st.floats(0.0, 1.0))
        cfg = SurrogateConfig.full(s, B1)
        y = LabelVec(bits)
        u1 = rng.normal(size=s * s + 1, scale=3.0)
        u2 = rng.normal(size=s * s + 1, scale=3.0)
        mid = surrogate_loss(y, StatVec(s, t * u1 + (1 - t) * u2), cfg)
        ends = t * surrogate_loss(y, StatVec(s, u1), cfg) + (1 - t) * surrogate_loss(
            y, StatVec(s, u2), cfg
        )
        assert mid <= ends + 1e-10


class TestSurrogateGradient:
    def test_logistic_gradient_form(self):
        # active entries are sigmoid(u_i) - a_i(y)
        s = 2
        cfg = SurrogateConfig.full(s, B1)
        y = LabelVec((1, 0))
        u = StatVec(s, np.array([0.5, -1.0, 2.0, 0.0, 1.5]))
        g = surrogate_gradient(y, u, cfg)
        from fbetamax.fmeasure import label_stats

        a = label_stats(y).entries
        np.testing.assert_allclose(g.entries, sigmoid(u.entries) - a, atol=1e-12)

    def test_inactive_coordinates_stay_zero(self):
        cfg = SurrogateConfig.for_counts(2, [1], B1)
        y = LabelVec((1, 0))
        u = StatVec(2, np.array([0.3, 0.1, -0.2, 0.4, 0.9]))
        g = surrogate_gradient(y, u, cfg)
        assert g[StatIndex.pair(1, 2)] == 0.0
        assert g[StatIndex.pair(2, 2)] == 0.0
        assert g[StatIndex.pair(1, 1)] != 0.0

    def test_matches_finite_differences(self):
        # central differences, h = 1e-5, max relative error <= 1e-5
        rng = np.random.default_rng(17)
        s = 4
        cfg = SurrogateConfig.full(s, B1)
        y = LabelVec((1, 0, 1, 0))
        u = rng.uniform(-3.0, 3.0, size=s * s + 1)
        g = surrogate_gradient(y, StatVec(s, u), cfg).entries
        h = 1e-5
        worst = 0.0
        for i in range(s * s + 1):
            up, dn = u.copy(), u.copy()
            up[i] += h
            dn[i] -= h
            fd = (
                surrogate_loss(y, StatVec(s, up), cfg)
                - surrogate_loss(y, StatVec(s, dn), cfg)
            ) / (2.0 * h)
            worst = max(worst, abs(fd - g[i]) / max(1e-8, abs(g[i])))
        assert worst <= 1e-5

    def test_expected_minimizer_recovers_means(self):
        # numerically minimizing the expected surrogate inverts to the true q
        rng = np.random.default_rng(5)
        s = 2
        cfg = SurrogateConfig.full(s, B1)
        n = 1 << s
        from fbetamax.fmeasure import all_labelings, label_stats_matrix

        p = 0.5 * rng.dirichlet(np.ones(n)) + 0.5 / n
        stats = label_stats_matrix(all_labelings(s))
        q = stats.T @ p
        ys = [LabelVec(tuple(int(b) for b in row)) for row in all_labelings(s)]

        def risk(u):
            vec = StatVec(s, u)
            val = sum(pi * surrogate_loss(y, vec, cfg) for pi, y in zip(p, ys))
            grad = sum(
                pi * surrogate_gradient(y, vec, cfg).entries for pi, y in zip(p, ys)
            )
            return val, grad

        res = minimize(risk, np.zeros(s * s + 1), jac=True, method="L-BFGS-B",
                       options={"gtol": 1e-10, "maxiter": 500})
        np.testing.assert_allclose(sigmoid(res.x), q, atol=1e-4)


class TestBinaryTargets:
    def test_zero_slot_flags_empty(self):
        labels = np.array([[0, 0], [1, 0], [0, 0]])
        np.testing.assert_array_equal(
            binary_targets(labels, StatIndex.zero()), [1, 0, 1]
        )

    def test_pair_slot_needs_count_and_tag(self):
        labels = np.array([
            [1, 1, 0],  # count 2, tag 1 active
            [1, 0, 0],  # count 1
            [0, 1, 1],  # count 2, tag 1 inactive
        ])
        np.testing.assert_array_equal(
            binary_targets(labels, StatIndex.pair(1, 2)), [1, 0, 0]
        )
        np.testing.assert_array_equal(
            binary_targets(labels, StatIndex.pair(1, 1)), [0, 1, 0]
        )

    def test_targets_match_label_stats(self):
        from fbetamax.fmeasure import iter_stat_indices, label_stats

        rng = np.random.default_rng(23)
        bits = rng.integers(0, 2, size=(25, 4))
        for ix in iter_stat_indices(4):
            t = binary_targets(bits, ix)
            want = [label_stats(LabelVec(tuple(row))).entries[ix.flat(4)] for row in bits]
            np.testing.assert_array_equal(t, want)
