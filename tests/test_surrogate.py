"""Decomposable surrogate: values, gradients, convexity, minimizer recovery."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from fbetamax.baselines import EfpModel
from fbetamax.dataio import load_model, save_model
from fbetamax.fmeasure import BetaParam, LabelVec, StatIndex, label_stats_matrix
from fbetamax.losses import sigmoid
from fbetamax.surrogate import (
    SurrogateConfig,
    _coordinate_targets,
    binary_targets,
    coordinates,
    surrogate_gradient,
    surrogate_loss,
)
from fbetamax.training import LinearModel, multinomial_prob_rows

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

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, np.float64(1.0)])
    def test_rejects_non_integer_counts(self, bad):
        with pytest.raises(ValueError, match="counts must be integers"):
            SurrogateConfig(3, B1, (1, bad))

    def test_accepts_numpy_integer_counts(self):
        assert SurrogateConfig(3, B1, (np.int64(2), np.uint8(1))).counts == (1, 2)


def _count_sets(s: int):
    """Every subset of 1..s, in increasing order."""
    return [K for r in range(s + 1) for K in combinations(range(1, s + 1), r)]


class TestCountLayout:
    """StatIndex.flat is the reference for the one cached coordinate layout."""

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_layout_matches_statindex_flat(self, s):
        for K in _count_sets(s):
            cfg = SurrogateConfig(s, B1, K)
            assert [(ix.j, ix.k) for ix in cfg.active_indices] == [(0, 0)] + [
                (j, k) for j in range(1, s + 1) for k in K
            ]
            assert cfg.active_flats.tolist() == [ix.flat(s) for ix in cfg.active_indices]
            assert not cfg.active_flats.flags.writeable
            # equal count sets share the very same layout objects
            again = SurrogateConfig(s, BetaParam(2.0), [0, *reversed(K)])
            assert again.active_indices is cfg.active_indices
            assert again.active_flats is cfg.active_flats

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_models_keep_their_count_set_through_a_file(self, s, tmp_path):
        rng = np.random.default_rng(s)
        d, path = 2, tmp_path / "m.mlmodel"
        for K in _count_sets(s):
            cfg = SurrogateConfig(s, B1, K)
            # equal StatIndex objects that are not the cached ones
            active = [StatIndex(ix.j, ix.k) for ix in cfg.active_indices]
            model = LinearModel(s=s, d=d, beta=B1, active_indices=active,
                                weights=rng.normal(size=(len(active), d + 1)),
                                bias=True, reg_lambda=0.0)
            assert model.counts == K
            assert model.active_flats.tolist() == [ix.flat(s) for ix in active]
            save_model(model, path)
            back = load_model(path, expected_algo="surrogate")
            assert back.counts == K
            np.testing.assert_array_equal(back.active_flats, model.active_flats)
            np.testing.assert_array_equal(back.weights, model.weights)

            C = len(K) + 1
            efp = EfpModel(s=s, d=d, beta=B1, counts=K,
                           weights=rng.normal(size=(1 + s * C, d + 1)),
                           bias=True, reg_lambda=0.0)
            pairs = [[StatIndex.pair(j, k).flat(s) for k in K] for j in range(1, s + 1)]
            assert coordinates(s, efp.counts)[1][1:].reshape(s, len(K)).tolist() == pairs
            # tag j's block of C weight rows lands on the pairs (j, k), k in K
            X = rng.normal(size=(3, d))
            probs = efp.stat_prob_rows(X)
            for j in range(1, s + 1):
                block = multinomial_prob_rows(efp.weights[1 + (j - 1) * C:1 + j * C], X)
                np.testing.assert_array_equal(probs[:, pairs[j - 1]], block[:, 1:])
            save_model(efp, path)
            back = load_model(path, expected_algo="efp")
            assert back.counts == K
            assert coordinates(s, back.counts)[1][1:].reshape(s, len(K)).tolist() == pairs
            np.testing.assert_array_equal(back.weights, efp.weights)
            np.testing.assert_array_equal(back.stat_prob_rows(X), probs)

    def test_construction_rejects_coordinates_of_no_count_set(self):
        zero, p = StatIndex.zero(), StatIndex.pair
        bad = [
            # rows that a file keeping only counts=1 would reload with 0 and 1 swapped
            (p(1, 1), zero, p(2, 1)),
            (zero, p(2, 1), p(1, 1)),
            (zero, p(1, 2), p(1, 1), p(2, 2), p(2, 1)),
            (),
            (zero, p(1, 1)),
            (zero, p(1, 1), p(2, 1), p(2, 2)),
            (zero, p(1, 1), p(1, 1), p(2, 1), p(2, 1)),
            (zero, p(1, 1), p(2, 1), p(3, 1)),
        ]
        for active in bad:
            with pytest.raises(ValueError, match="count set"):
                LinearModel(s=2, d=3, beta=B1, active_indices=active,
                            weights=np.zeros((len(active), 4)), bias=True, reg_lambda=0.0)
        with pytest.raises(ValueError, match="1..s"):
            LinearModel(s=2, d=3, beta=B1, active_indices=(zero, p(1, 3), p(2, 3)),
                        weights=np.zeros((3, 4)), bias=True, reg_lambda=0.0)


class TestSurrogateLoss:
    def test_single_tag_all_zero_scores(self):
        # two active coordinates, every phi at 0 is ln 2
        cfg = SurrogateConfig.full(1, B1)
        val = surrogate_loss(LabelVec((0,)), np.zeros(2), cfg)
        assert val == pytest.approx(TWO_LN2, abs=1e-14)

    def test_two_tags_all_zero_scores(self):
        cfg = SurrogateConfig.full(2, B1)
        val = surrogate_loss(LabelVec((1, 0)), np.zeros(5), cfg)
        assert val == pytest.approx(FIVE_LN2, abs=1e-14)

    def test_restricting_counts_drops_terms(self):
        full = SurrogateConfig.full(2, B1)
        only1 = SurrogateConfig.for_counts(2, [1], B1)
        y = LabelVec((1, 0))
        u = np.zeros(5)
        assert surrogate_loss(y, u, only1) < surrogate_loss(y, u, full)
        assert surrogate_loss(y, u, only1) == pytest.approx(3 * TWO_LN2 / 2, abs=1e-14)

    def test_dimension_mismatch(self):
        cfg = SurrogateConfig.full(2, B1)
        with pytest.raises(ValueError):
            surrogate_loss(LabelVec((1, 0, 0)), np.zeros(5), cfg)

    def test_decomposes_over_coordinates(self):
        # the total is the sum of the per-coordinate binary losses
        rng = np.random.default_rng(3)
        s = 3
        cfg = SurrogateConfig.full(s, B1)
        y = LabelVec((0, 1, 1))
        u = rng.normal(size=s * s + 1)
        from fbetamax.fmeasure import label_stats
        from fbetamax.losses import logistic_loss

        a = label_stats(y)
        total = sum(
            logistic_loss(1.0 if a[ix.flat(s)] else -1.0, u[ix.flat(s)])
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
        mid = surrogate_loss(y, t * u1 + (1 - t) * u2, cfg)
        ends = t * surrogate_loss(y, u1, cfg) + (1 - t) * surrogate_loss(y, u2, cfg)
        assert mid <= ends + 1e-10


class TestSurrogateGradient:
    def test_logistic_gradient_form(self):
        # active entries are sigmoid(u_i) - a_i(y)
        s = 2
        cfg = SurrogateConfig.full(s, B1)
        y = LabelVec((1, 0))
        u = np.array([0.5, -1.0, 2.0, 0.0, 1.5])
        g = surrogate_gradient(y, u, cfg)
        from fbetamax.fmeasure import label_stats

        a = label_stats(y)
        np.testing.assert_allclose(g, sigmoid(u) - a, atol=1e-12)

    def test_inactive_coordinates_stay_zero(self):
        cfg = SurrogateConfig.for_counts(2, [1], B1)
        y = LabelVec((1, 0))
        u = np.array([0.3, 0.1, -0.2, 0.4, 0.9])
        g = surrogate_gradient(y, u, cfg)
        assert g[StatIndex.pair(1, 2).flat(2)] == 0.0
        assert g[StatIndex.pair(2, 2).flat(2)] == 0.0
        assert g[StatIndex.pair(1, 1).flat(2)] != 0.0

    def test_matches_finite_differences(self):
        # central differences, h = 1e-5, max relative error <= 1e-5
        rng = np.random.default_rng(17)
        s = 4
        cfg = SurrogateConfig.full(s, B1)
        y = LabelVec((1, 0, 1, 0))
        u = rng.uniform(-3.0, 3.0, size=s * s + 1)
        g = surrogate_gradient(y, u, cfg)
        h = 1e-5
        worst = 0.0
        for i in range(s * s + 1):
            up, dn = u.copy(), u.copy()
            up[i] += h
            dn[i] -= h
            fd = (surrogate_loss(y, up, cfg) - surrogate_loss(y, dn, cfg)) / (2.0 * h)
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
            val = sum(pi * surrogate_loss(y, u, cfg) for pi, y in zip(p, ys))
            grad = sum(pi * surrogate_gradient(y, u, cfg) for pi, y in zip(p, ys))
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
            want = [label_stats(LabelVec(tuple(row)))[ix.flat(4)] for row in bits]
            np.testing.assert_array_equal(t, want)

    @pytest.mark.parametrize("counts", [None, (1, 3), (2,)])
    def test_block_targets_are_the_statistic_columns(self, counts):
        # the targets train_surrogate builds for each column block
        rng = np.random.default_rng(41)
        bits = (rng.random((300, 5)) < 0.4).astype(np.uint8)
        bits[:7] = 0  # empty rows set the zero slot
        scfg = (SurrogateConfig.full(5, B1) if counts is None
                else SurrogateConfig.for_counts(5, counts, B1))
        flats = scfg.active_flats
        stats = label_stats_matrix(bits)
        for block in (slice(0, len(flats)), slice(0, 1), slice(1, 4), slice(len(flats) - 2, None)):
            T = _coordinate_targets(bits, bits.sum(axis=1), flats[block])
            assert T.dtype == bool
            np.testing.assert_array_equal(T, stats[:, flats[block]] == 1.0)

    def test_one_column_needs_no_statistic_matrix(self):
        import tracemalloc

        m, s = 2000, 40
        bits = np.random.default_rng(24).integers(0, 2, size=(m, s))
        tracemalloc.start()
        try:
            t = binary_targets(bits, StatIndex.pair(3, 20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(t, (bits[:, 2] == 1) & (bits.sum(axis=1) == 20))
        # the parent built an (m, s^2+1) float64 matrix: 52 MB here
        assert peak < m * s * 8
