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
    _bit_matrix,
    _code_bits,
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
from conftest import count_mass

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

    @pytest.mark.parametrize("m, s", [(0, 3), (1, 1), (7, 4), (2500, 6)])
    def test_bit_matrix_inverts_labelvec_rows(self, m, s):
        bits = np.random.default_rng(10 * m + s).integers(0, 2, size=(m, s)).astype(np.uint8)
        back = _bit_matrix(labelvec_rows(bits), s)
        assert back.dtype == np.uint8 and back.shape == (m, s)
        np.testing.assert_array_equal(back, bits)
        # an array comes back as a uint8 copy
        copy = _bit_matrix(bits.astype(np.float64))
        assert copy.dtype == np.uint8 and not np.shares_memory(copy, bits)
        np.testing.assert_array_equal(copy, bits)

    def test_bit_matrix_rejects_what_is_not_one_bit_matrix(self):
        with pytest.raises(ValueError, match="^expected a 2-d bit matrix$"):
            _bit_matrix(np.array([1, 0, 1]))
        with pytest.raises(ValueError, match="^label values must be 0 or 1$"):
            _bit_matrix(np.array([[1, 0.5]]))
        with pytest.raises(ValueError, match="^labelings have different tag counts: 1, 2, 3$"):
            _bit_matrix([LabelVec((1, 0)), LabelVec((1,)), LabelVec((0, 1, 1))])

    @pytest.mark.parametrize("s", range(1, 13))
    def test_all_labelings_enumerates_the_codes(self, s):
        bits = all_labelings(s)
        assert bits.dtype == np.uint8
        np.testing.assert_array_equal(bits, [labelvec_of(code, s).bits for code in range(1 << s)])
        np.testing.assert_array_equal(bits, _code_bits(np.arange(1 << s), s))


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
        assert v.shape == (10,)
        assert v[0] == 1.0
        assert np.sum(v) == 1.0

    def test_label_stats_single_count_row(self):
        y = LabelVec((1, 1, 0))
        v = label_stats(y)
        pairs = v[1:].reshape(3, 3)
        assert v[0] == 0.0
        assert pairs[0, 1] == 1.0
        assert pairs[1, 1] == 1.0
        assert np.sum(v) == 2.0
        # only the count-2 row is populated
        assert np.all(pairs[:, [0, 2]] == 0.0)

    def test_loss_coeffs_empty_prediction(self):
        v = loss_coeffs(LabelVec.zeros(2), BetaParam(1.0))
        assert v.shape == (5,)
        assert v[0] == -1.0
        assert np.sum(np.abs(v[1:])) == 0.0

    def test_loss_coeffs_dense_in_count(self):
        # yhat=(1,0), beta=1: pair (1,k) entries are -2/(k+1), tag 2 untouched
        v = loss_coeffs(LabelVec((1, 0)), BetaParam(1.0))
        pairs = v[1:].reshape(2, 2)
        assert v[0] == 0.0
        assert pairs[0, 0] == pytest.approx(-1.0, abs=1e-15)
        assert pairs[0, 1] == pytest.approx(-2.0 / 3.0, abs=1e-15)
        assert pairs[1, 0] == 0.0

    def test_count_mass_of_a_distribution(self):
        # uniform distribution over {0,1}^3
        s = 3
        stats = label_stats_matrix(all_labelings(s))
        assert count_mass(stats.mean(axis=0)) == pytest.approx(1.0, abs=1e-12)

    @given(labeling_pairs())
    @settings(max_examples=150, deadline=None)
    def test_inner_product_is_negated_fbeta(self, pair):
        y, yhat = pair
        for beta in BETAS:
            inner = float(label_stats(y) @ loss_coeffs(yhat, beta))
            assert inner == pytest.approx(-fbeta(y, yhat, beta), abs=1e-12)

    def test_matrix_helpers_match_scalar_paths(self):
        s = 4
        bits = all_labelings(s)
        A = label_stats_matrix(bits)
        for beta in BETAS:
            B = loss_coeffs_matrix(bits, beta)
            for code in (0, 1, 5, 15, 9):
                y = labelvec_of(code, s)
                np.testing.assert_allclose(A[code], label_stats(y), atol=0)
                np.testing.assert_allclose(B[code], loss_coeffs(y, beta), atol=0)

    def test_coeff_norm_bound(self):
        # ||loss_coeffs(yhat)|| <= (1+beta^2)/(2 beta) sqrt(ln s + 1) for yhat != 0
        for s in (2, 4, 6, 9):
            bits = all_labelings(s)[1:]
            for beta in BETAS:
                norms = np.linalg.norm(loss_coeffs_matrix(bits, beta), axis=1)
                cap = (1.0 + beta.beta_sq) / (2.0 * beta.beta) * np.sqrt(np.log(s) + 1.0)
                assert np.all(norms <= cap + 1e-12)


def _stacked(rows: np.ndarray, per_row) -> np.ndarray:
    return np.array([per_row(LabelVec(tuple(row))) for row in rows.tolist()])


def _grid_bits(s: int, density: float, dtype, seed: int) -> np.ndarray:
    """30 random rows at the given tag density, then an empty and an all-ones row."""
    rows = np.random.default_rng(seed).random((30, s)) < density
    return np.vstack([rows, np.zeros((1, s), bool), np.ones((1, s), bool)]).astype(dtype)


class TestMatrixTables:
    """The batched tables against the per-labeling definitions, byte for byte."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool])
    @pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("s", [1, 2, 3, 6, 13, 50])
    def test_coefficient_tables_match_stacked_rows_byte_for_byte(self, s, density, dtype):
        bits = _grid_bits(s, density, dtype, seed=s)
        stats = label_stats_matrix(bits)
        assert stats.dtype == np.float64
        assert stats.tobytes() == _stacked(bits, label_stats).tobytes()
        for beta in BETAS:
            coeffs = loss_coeffs_matrix(bits, beta)
            want = _stacked(bits, lambda y: loss_coeffs(y, beta))
            # an inactive tag's pair slots hold -0.0, the sign of
            # -(1 + beta^2) * 0 / (beta^2 k + |yhat|); loss_coeffs leaves them +0.0
            want[:, 1:] = -np.abs(want[:, 1:])
            assert coeffs.dtype == np.float64
            assert coeffs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("s", [1, 4])
    def test_no_rows_give_empty_tables(self, s):
        bits = np.zeros((0, s), np.uint8)
        assert label_stats_matrix(bits).shape == (0, s * s + 1)
        assert loss_coeffs_matrix(bits, BetaParam(1.0)).shape == (0, s * s + 1)

    @pytest.mark.parametrize("table", [label_stats_matrix,
                                       lambda bits: loss_coeffs_matrix(bits, BetaParam(1.0))],
                             ids=["label_stats", "loss_coeffs"])
    def test_peak_memory_is_the_output_and_an_m_by_s_table(self, table):
        import tracemalloc

        bits = (np.random.default_rng(25).random((4000, 50)) < 0.3).astype(np.uint8)
        tracemalloc.start()
        try:
            out = table(bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an (m, s, s) temporary beside the 80 MB output would put this near 2
        assert peak < 1.25 * out.nbytes


class TestExpectedFbeta:
    def test_uniform_example(self):
        # uniform p over {0,1}^2, prediction (1,1): mean F1 is 7/12
        s = 2
        stats = label_stats_matrix(all_labelings(s))
        q = stats.mean(axis=0)
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
                q = A.T @ p
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
        q = np.zeros(5)
        with pytest.raises(ValueError):
            expected_fbeta(q, LabelVec((1, 0, 0)), BetaParam(1.0))
