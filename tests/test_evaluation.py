"""Scoring reports, regret quantities, the transfer bound, cross-validation."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from fbetamax.evaluation import (
    DEFAULT_REG_GRID,
    EvalReport,
    bayes_f,
    check_regret_bound,
    cross_validate,
    evaluate,
    evaluate_bits,
    exact_f_regret,
    mean_expected_f,
    regret_transfer_bound,
    surrogate_regret_estimate,
)
from fbetamax.decoding import chunk_rows
from fbetamax.fmeasure import (
    BetaParam,
    LabelVec,
    expected_fbeta,
    label_stats,
    loss_coeffs_matrix,
)
from fbetamax.losses import logit_link
from fbetamax.training import Dataset
from conftest import random_valid_means

B1 = BetaParam(1.0)

# 2 * sqrt(2 * (ln 6 + 1) / 4 * 0.1), mpmath at 30 digits
BOUND_S6_B1_PSI01 = 0.7472294787049096


class TestEvaluate:
    def test_worked_example(self):
        rep = evaluate([LabelVec((1, 1, 0))], [LabelVec((1, 0, 0))], B1)
        assert rep.mean_f == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert rep.mean_precision == pytest.approx(0.5, abs=1e-15)
        assert rep.mean_recall == pytest.approx(1.0, abs=1e-15)

    def test_empty_conventions(self):
        both = evaluate([LabelVec((0, 0))], [LabelVec((0, 0))], B1)
        assert (both.mean_f, both.mean_precision, both.mean_recall) == (1.0, 1.0, 1.0)
        miss = evaluate([LabelVec((0, 0))], [LabelVec((1, 0))], B1)
        assert miss.mean_f == 0.0
        assert miss.mean_precision == 1.0  # empty prediction is vacuously precise
        assert miss.mean_recall == 0.0

    def test_bits_and_labelvec_paths_agree(self):
        rng = np.random.default_rng(0)
        pred = [LabelVec(tuple(rng.integers(0, 2, 4))) for _ in range(30)]
        truth = [LabelVec(tuple(rng.integers(0, 2, 4))) for _ in range(30)]
        a = evaluate(pred, truth, B1)
        b = evaluate_bits(
            np.array([y.bits for y in pred]), np.array([y.bits for y in truth]), B1
        )
        assert a == b

    def test_averages_over_instances(self):
        rep = evaluate(
            [LabelVec((1,)), LabelVec((0,))],
            [LabelVec((1,)), LabelVec((1,))],
            B1,
        )
        assert rep.mean_f == pytest.approx(0.5, abs=1e-15)
        assert rep.m_test == 2

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="counts differ"):
            evaluate([LabelVec((1,))], [], B1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate([], [], B1)


class TestEvalReport:
    def test_kv_and_csv_with_absent_fields(self):
        rep = EvalReport(m_test=3, mean_f=0.5, mean_precision=0.25, mean_recall=1.0)
        assert "f_regret=" in rep.to_kv().splitlines()
        assert rep.to_csv_row() == "3,0.5,0.25,1,,,,"

    def test_kv_and_csv_with_all_fields(self):
        rep = EvalReport(
            m_test=2, mean_f=0.75, mean_precision=0.5, mean_recall=1.0,
            f_regret=0.01, psi_regret=0.25, bound=0.5, bound_satisfied=True,
        )
        kv = dict(line.split("=") for line in rep.to_kv().splitlines())
        assert kv["bound_satisfied"] == "1"
        assert kv["psi_regret"] == "0.25"
        assert rep.to_csv_row().endswith(",0.01,0.25,0.5,1")


class TestExpectedFQuantities:
    def test_mean_expected_f_matches_scalar_identity(self):
        rng = np.random.default_rng(1)
        s = 3
        rows = np.stack([random_valid_means(s, rng) for _ in range(20)])
        pred = [LabelVec(tuple(rng.integers(0, 2, s))) for _ in range(20)]
        bits = np.array([y.bits for y in pred])
        want = np.mean([expected_fbeta(rows[i], pred[i], B1) for i in range(20)])
        assert mean_expected_f(rows, bits, B1) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("s", [6, 50])
    def test_mean_expected_f_pieces_match_one_product(self, s, row_workers):
        rng = np.random.default_rng(1700 + s)
        c = chunk_rows(s)
        base = np.stack([random_valid_means(s, rng) for _ in range(37)])
        rows = base[np.arange(2 * c + 1) % 37]
        bits = rng.integers(0, 2, size=(2 * c + 1, s))
        for m in (c - 1, c, c + 1, 2 * c + 1):
            # the whole-matrix formula that the row pieces replace
            want = float(np.mean(-np.sum(rows[:m] * loss_coeffs_matrix(bits[:m], B1), axis=1)))
            assert mean_expected_f(rows[:m], bits[:m], B1) == want

    def test_mean_expected_f_rejects_mismatched_shapes(self):
        rows = np.full((3, 5), 0.2)
        with pytest.raises(ValueError, match=r"\(2, 5\)"):
            mean_expected_f(rows, np.zeros((2, 2), dtype=np.uint8), B1)

    def test_bayes_f_is_one_on_point_masses(self):
        ys = [LabelVec((1, 0, 1)), LabelVec((0, 0, 0)), LabelVec((1, 1, 1))]
        rows = np.stack([label_stats(y) for y in ys])
        assert bayes_f(rows, 3, B1) == pytest.approx(1.0, abs=1e-12)

    def test_exact_f_regret_nonnegative_and_zero_at_decoder(self):
        rng = np.random.default_rng(2)
        s = 4
        rows = np.stack([random_valid_means(s, rng) for _ in range(50)])
        arbitrary = (rng.random((50, s)) < 0.5).astype(np.int64)
        assert exact_f_regret(rows, arbitrary, s, B1) >= -1e-12
        from fbetamax.decoding import decode_rows

        best_bits, _ = decode_rows(rows, s, B1)
        assert exact_f_regret(rows, best_bits, s, B1) == pytest.approx(0.0, abs=1e-12)


class _FixedScorer:
    """Duck-typed stand-in for a model: fixed scores over given coordinates."""

    def __init__(self, scores: np.ndarray, flats: np.ndarray):
        self._scores = scores
        self.active_flats = flats

    def score_rows(self, X) -> np.ndarray:
        return self._scores


class TestSurrogateRegret:
    def test_zero_at_the_link_of_the_true_means(self):
        rng = np.random.default_rng(3)
        s = 3
        rows = np.stack([random_valid_means(s, rng) for _ in range(10)])
        flats = np.arange(s * s + 1)
        model = _FixedScorer(logit_link(rows), flats)
        assert surrogate_regret_estimate(model, None, rows) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_positive_away_from_the_optimum(self):
        rng = np.random.default_rng(4)
        s = 2
        rows = np.stack([random_valid_means(s, rng) for _ in range(10)])
        flats = np.arange(s * s + 1)
        model = _FixedScorer(np.zeros((10, s * s + 1)), flats)
        assert surrogate_regret_estimate(model, None, rows) > 0.01

    def test_shape_mismatch_rejected(self):
        # scorer claims 3 active coordinates but emits only 2 columns
        model = _FixedScorer(np.zeros((3, 2)), np.arange(3))
        with pytest.raises(ValueError, match="shapes"):
            surrogate_regret_estimate(model, None, np.zeros((3, 5)))


class TestTransferBound:
    def test_frozen_reference_value(self):
        got = regret_transfer_bound(0.1, s=6, beta=B1)
        assert got == pytest.approx(BOUND_S6_B1_PSI01, abs=1e-15)

    def test_zero_regret_gives_zero_bound(self):
        assert regret_transfer_bound(0.0, s=4, beta=B1) == 0.0
        assert regret_transfer_bound(-1e-12, s=4, beta=B1) == 0.0

    def test_scales_with_beta_prefactor(self):
        b2 = BetaParam(2.0)
        want = ((1 + 4.0) / 2.0) / 2.0  # prefactor ratio vs beta = 1
        ratio = regret_transfer_bound(0.3, 5, b2) / regret_transfer_bound(0.3, 5, B1)
        assert ratio == pytest.approx(want, abs=1e-12)

    def test_check_accepts_boundary_within_slack(self):
        bound, ok = check_regret_bound(BOUND_S6_B1_PSI01 + 5e-10, 0.1, 6, B1)
        assert ok
        bound, ok = check_regret_bound(bound + 1e-6, 0.1, 6, B1)
        assert not ok


class _ThresholdModel:
    """Predicts a tag active when its mean feature exceeds the reg value."""

    def __init__(self, reg: float, s: int):
        self.reg = reg
        self.s = s

    def predict_rows(self, X) -> np.ndarray:
        dense = X.toarray() if sparse.issparse(X) else np.asarray(X)
        col = dense[:, :1] > self.reg
        return np.repeat(col.astype(np.uint8), self.s, axis=1)


class TestCrossValidate:
    def _data(self, rng, m=40, s=2, d=3) -> Dataset:
        X = rng.random((m, d))
        labels = tuple(
            LabelVec(tuple(np.full(s, int(X[i, 0] > 0.5)))) for i in range(m)
        )
        return Dataset(s=s, d=d, features=sparse.csr_matrix(X), labels=labels)

    def test_picks_the_matching_threshold(self):
        rng = np.random.default_rng(5)
        data = self._data(rng)
        best, rows = cross_validate(
            data, lambda train, reg: _ThresholdModel(reg, data.s),
            grid=(0.1, 0.5, 0.9), folds=4, seed=0,
        )
        assert best == 0.5
        assert len(rows) == 3 * 4
        assert [r[0] for r in rows] == sorted(r[0] for r in rows)

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(6)
        data = self._data(rng)
        fit = lambda train, reg: _ThresholdModel(reg, data.s)
        a = cross_validate(data, fit, grid=(0.3, 0.5), folds=3, seed=7)
        b = cross_validate(data, fit, grid=(0.3, 0.5), folds=3, seed=7)
        assert a == b

    def test_tie_prefers_smaller_reg(self):
        rng = np.random.default_rng(7)
        data = self._data(rng)
        # constant model: every reg scores identically
        class _Const:
            def __init__(self, s): self.s = s
            def predict_rows(self, X): return np.zeros((X.shape[0], self.s), np.uint8)
        best, _ = cross_validate(
            data, lambda train, reg: _Const(data.s), grid=(10.0, 0.01, 1.0), folds=2,
        )
        assert best == 0.01

    def test_default_grid_is_log_spaced(self):
        assert DEFAULT_REG_GRID == tuple(10.0 ** e for e in range(-4, 4))

    def test_rejects_bad_folds(self):
        rng = np.random.default_rng(8)
        data = self._data(rng, m=10)
        with pytest.raises(ValueError, match="folds"):
            cross_validate(data, lambda t, r: None, folds=1)
        with pytest.raises(ValueError, match="instances"):
            cross_validate(data, lambda t, r: None, folds=11)

    def test_rejects_empty_grid(self):
        rng = np.random.default_rng(9)
        data = self._data(rng)
        with pytest.raises(ValueError, match="grid"):
            cross_validate(data, lambda t, r: None, grid=())
