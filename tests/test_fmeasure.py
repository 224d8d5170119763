"""Scores, statistic vectors, and the inner-product identity behind them."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbetamax.fmeasure import (
    BetaParam,
    LabelVec,
    StatIndex,
    StatVec,
    all_labelings,
    expected_fbeta,
    fbeta,
    iter_stat_indices,
    label_stats,
    label_stats_matrix,
    labelvec_rows,
    loss_coeffs,
    loss_coeffs_matrix,
    precision,
    recall,
)

BETAS = [BetaParam(0.5), BetaParam(1.0), BetaParam(2.0)]


def labelvec_of(code: int, s: int) -> LabelVec:
    return LabelVec(tuple((code >> j) & 1 for j in range(s)))


@st.composite
def labeling_pairs(draw):
    s = draw(st.integers(min_value=1, max_value=8))
    y = draw(st.lists(st.integers(0, 1), min_size=s, max_size=s))
    yhat = draw(st.lists(st.integers(0, 1), min_size=s, max_size=s))
    return LabelVec(tuple(y)), LabelVec(tuple(yhat))


class TestLabelVec:
    def test_validation(self):
        with pytest.raises(ValueError):
            LabelVec(())
        with pytest.raises(ValueError):
            LabelVec((0, 2))

    def test_popcount_and_tags(self):
        y = LabelVec((1, 0, 1))
        assert y.s == 3
        assert y.popcount == 2
        assert y.active_tags() == (1, 3)

    def test_from_active_round_trip(self):
        y = LabelVec.from_active((2, 4), 5)
        assert y.bits == (0, 1, 0, 1, 0)
        with pytest.raises(ValueError):
            LabelVec.from_active((6,), 5)

    def test_rows_from_bit_matrix_share_equal_rows(self):
        ys = labelvec_rows(np.array([[1, 0], [0, 0], [1, 0]], dtype=np.uint8))
        assert ys == [LabelVec((1, 0)), LabelVec((0, 0)), LabelVec((1, 0))]
        assert ys[0] is ys[2]
        assert labelvec_rows(np.zeros((0, 3), dtype=np.uint8)) == []
        # rows are converted block by block; sharing spans block boundaries
        bits = np.random.default_rng(4).integers(0, 2, size=(2500, 3))
        ys = labelvec_rows(bits)
        assert ys == [LabelVec(tuple(row)) for row in bits.tolist()]
        assert len({id(y) for y in ys}) == len({tuple(row) for row in bits.tolist()})


class TestStatIndex:
    def test_zero_and_pair(self):
        assert StatIndex.zero().is_zero
        assert StatIndex.pair(2, 3) == StatIndex(2, 3)
        with pytest.raises(ValueError):
            StatIndex(1, 0)
        with pytest.raises(ValueError):
            StatIndex.pair(0, 1)

    def test_flat_layout_is_dense_and_ordered(self):
        s = 4
        flats = [ix.flat(s) for ix in iter_stat_indices(s)]
        assert flats == list(range(s * s + 1))
        assert StatIndex.pair(2, 1).flat(s) == 1 + s
        with pytest.raises(ValueError):
            StatIndex.pair(5, 1).flat(s)


class TestStatVec:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            StatVec(2, np.zeros(4))

    def test_lookup_matches_flat_layout(self):
        s = 3
        v = StatVec(s, np.arange(s * s + 1, dtype=float))
        assert v.zero == 0.0
        assert v.pair(2, 3) == StatIndex.pair(2, 3).flat(s)
        assert v.pairs_matrix()[1, 2] == v.pair(2, 3)

    def test_entries_are_read_only(self):
        v = StatVec.zeros(2)
        with pytest.raises(ValueError):
            v.entries[0] = 1.0

    def test_count_mass_of_a_distribution(self):
        # uniform distribution over {0,1}^3
        s = 3
        stats = label_stats_matrix(all_labelings(s))
        q = StatVec(s, stats.mean(axis=0))
        assert q.count_mass() == pytest.approx(1.0, abs=1e-12)


class TestFbeta:
    def test_both_empty_is_one(self):
        z = LabelVec.zeros(3)
        for beta in BETAS:
            assert fbeta(z, z, beta) == 1.0

    def test_disjoint_is_zero(self):
        y = LabelVec((1, 0, 0))
        yhat = LabelVec((0, 1, 1))
        for beta in BETAS:
            assert fbeta(y, yhat, beta) == 0.0

    def test_perfect_match_is_one(self):
        y = LabelVec((1, 0, 1, 1))
        for beta in BETAS:
            assert fbeta(y, y, beta) == pytest.approx(1.0, abs=1e-15)

    def test_known_value(self):
        # |inter|=1, |y|=1, |yhat|=2, beta=1: 2*1/(1+2)
        y = LabelVec((1, 0))
        yhat = LabelVec((1, 1))
        assert fbeta(y, yhat, BetaParam(1.0)) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fbeta(LabelVec((1,)), LabelVec((1, 0)), BetaParam(1.0))

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            BetaParam(0.0)
        with pytest.raises(ValueError):
            BetaParam(-1.0)

    @given(labeling_pairs())
    @settings(max_examples=120, deadline=None)
    def test_range_and_duality(self, pair):
        y, yhat = pair
        for beta in BETAS:
            val = fbeta(y, yhat, beta)
            assert 0.0 <= val <= 1.0 + 1e-15
        # precision of (y, yhat) is recall with the roles swapped
        assert precision(y, yhat) == pytest.approx(recall(yhat, y), abs=1e-15)

    def test_precision_recall_conventions(self):
        z = LabelVec.zeros(2)
        y = LabelVec((1, 0))
        assert precision(y, z) == 1.0
        assert recall(z, y) == 1.0


class TestStatisticVectors:
    def test_label_stats_empty(self):
        v = label_stats(LabelVec.zeros(3))
        assert v.zero == 1.0
        assert np.sum(v.entries) == 1.0

    def test_label_stats_single_count_row(self):
        y = LabelVec((1, 1, 0))
        v = label_stats(y)
        assert v.zero == 0.0
        assert v.pair(1, 2) == 1.0
        assert v.pair(2, 2) == 1.0
        assert np.sum(v.entries) == 2.0
        # only the count-2 row is populated
        assert np.all(v.pairs_matrix()[:, [0, 2]] == 0.0)

    def test_loss_coeffs_empty_prediction(self):
        v = loss_coeffs(LabelVec.zeros(2), BetaParam(1.0))
        assert v.zero == -1.0
        assert np.sum(np.abs(v.entries[1:])) == 0.0

    def test_loss_coeffs_dense_in_count(self):
        # yhat=(1,0), beta=1: pair (1,k) entries are -2/(k+1), tag 2 untouched
        v = loss_coeffs(LabelVec((1, 0)), BetaParam(1.0))
        assert v.zero == 0.0
        assert v.pair(1, 1) == pytest.approx(-1.0, abs=1e-15)
        assert v.pair(1, 2) == pytest.approx(-2.0 / 3.0, abs=1e-15)
        assert v.pair(2, 1) == 0.0

    @given(labeling_pairs())
    @settings(max_examples=150, deadline=None)
    def test_inner_product_is_negated_fbeta(self, pair):
        y, yhat = pair
        for beta in BETAS:
            inner = float(label_stats(y).entries @ loss_coeffs(yhat, beta).entries)
            assert inner == pytest.approx(-fbeta(y, yhat, beta), abs=1e-12)

    def test_matrix_helpers_match_scalar_paths(self):
        s = 4
        bits = all_labelings(s)
        A = label_stats_matrix(bits)
        for beta in BETAS:
            B = loss_coeffs_matrix(bits, beta)
            for code in (0, 1, 5, 15, 9):
                y = labelvec_of(code, s)
                np.testing.assert_allclose(A[code], label_stats(y).entries, atol=0)
                np.testing.assert_allclose(B[code], loss_coeffs(y, beta).entries, atol=0)

    def test_coeff_norm_bound(self):
        # ||loss_coeffs(yhat)|| <= (1+beta^2)/(2 beta) sqrt(ln s + 1) for yhat != 0
        for s in (2, 4, 6, 9):
            bits = all_labelings(s)[1:]
            for beta in BETAS:
                norms = np.linalg.norm(loss_coeffs_matrix(bits, beta), axis=1)
                cap = (1.0 + beta.beta_sq) / (2.0 * beta.beta) * np.sqrt(np.log(s) + 1.0)
                assert np.all(norms <= cap + 1e-12)


class TestExpectedFbeta:
    def test_uniform_example(self):
        # uniform p over {0,1}^2, prediction (1,1): mean F1 is 7/12
        s = 2
        stats = label_stats_matrix(all_labelings(s))
        q = StatVec(s, stats.mean(axis=0))
        val = expected_fbeta(q, LabelVec((1, 1)), BetaParam(1.0))
        assert val == pytest.approx(7.0 / 12.0, abs=1e-15)

    def test_point_mass_recovers_fbeta(self):
        y = LabelVec((0, 1, 1))
        q = label_stats(y)
        for beta in BETAS:
            for code in range(8):
                yhat = labelvec_of(code, 3)
                assert expected_fbeta(q, yhat, beta) == pytest.approx(
                    fbeta(y, yhat, beta), abs=1e-12
                )

    def test_matches_brute_average(self):
        rng = np.random.default_rng(20240817)
        for s in (1, 2, 3, 4):
            bits = all_labelings(s)
            A = label_stats_matrix(bits)
            for _ in range(10):
                p = rng.dirichlet(np.ones(1 << s))
                q = StatVec(s, A.T @ p)
                for beta in BETAS:
                    for code in range(1 << s):
                        yhat = labelvec_of(code, s)
                        brute = sum(
                            p[i] * fbeta(labelvec_of(i, s), yhat, beta)
                            for i in range(1 << s)
                        )
                        assert expected_fbeta(q, yhat, beta) == pytest.approx(
                            brute, abs=1e-12
                        )

    def test_dimension_mismatch(self):
        q = StatVec.zeros(2)
        with pytest.raises(ValueError):
            expected_fbeta(q, LabelVec((1, 0, 0)), BetaParam(1.0))
