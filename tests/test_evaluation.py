"""Scoring reports, regret quantities, the transfer bound, cross-validation."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from fbetamax import decoding, evaluation, training
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
from fbetamax.decoding import CHUNK_ENTRIES, chunk_rows
from fbetamax.fmeasure import (
    BetaParam,
    LabelVec,
    expected_fbeta,
    label_stats,
    loss_coeffs_matrix,
)
from fbetamax.losses import logit_link, pointwise_binary_regret
from fbetamax.surrogate import SurrogateConfig
from fbetamax.training import Dataset, TrainConfig, train_surrogate
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

    def test_rejects_labelings_of_different_tag_counts(self):
        ragged = [LabelVec((1, 0)), LabelVec((1, 0, 1))]
        ok = [LabelVec((1, 0)), LabelVec((0, 1))]
        for pred, truth in ((ragged, ok), (ok, ragged)):
            with pytest.raises(ValueError, match="^labelings have different tag counts: 2, 3$"):
                evaluate(pred, truth, B1)

    @pytest.mark.parametrize("bad", [[[2, 0]], [[1, 3]], [[2, -1]], [[0.5, 1.0]]])
    def test_rejects_non_bit_entries(self, bad):
        bad = np.array(bad)
        ok = np.zeros(bad.shape, dtype=np.uint8)
        for call in (lambda: evaluate_bits(bad, ok, B1), lambda: evaluate_bits(ok, bad, B1),
                     lambda: evaluate(ok, bad, B1),
                     lambda: mean_expected_f(np.full((1, 5), 0.1), bad, B1)):
            with pytest.raises(ValueError, match="label values must be 0 or 1"):
                call()


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
    def test_mean_expected_f_of_no_predictions_is_refused(self):
        with pytest.raises(ValueError, match="^cannot evaluate an empty test set$"):
            mean_expected_f(np.full((1, 5), 0.1), [], B1)

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

    def test_empty_batch_rejected(self):
        rows, bits = np.zeros((0, 10)), np.zeros((0, 3), dtype=np.uint8)
        for call in (lambda: bayes_f(rows, 3, B1), lambda: mean_expected_f(rows, bits, B1),
                     lambda: exact_f_regret(rows, bits, 3, B1)):
            with pytest.raises(ValueError, match="empty"):
                call()

    @pytest.mark.parametrize("bad, needle", [
        (np.nan, "finite"), (np.inf, "finite"), (1.5, r"\[0, 1\]"), (-0.5, r"\[0, 1\]"),
    ])
    def test_mean_expected_f_rejects_bad_means_in_the_last_chunk(self, bad, needle, row_workers):
        s = 6
        m = 2 * chunk_rows(s) + 1
        rng = np.random.default_rng(1800)
        base = np.stack([random_valid_means(s, rng) for _ in range(37)])
        rows = base[np.arange(m) % 37]
        rows[-1, 5] = bad
        with pytest.raises(ValueError, match=needle):
            mean_expected_f(rows, np.zeros((m, s), dtype=np.uint8), B1)

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
    """Duck-typed stand-in for a model of s tags: fixed scores over given coordinates.

    Its "features" are row numbers: score_rows(ids) returns the fixed scores of rows ids.
    """

    def __init__(self, scores: np.ndarray, flats: np.ndarray, s: int):
        self._scores = scores
        self.active_flats = flats
        self.s = s

    def score_rows(self, X) -> np.ndarray:
        return self._scores[X]


def _trained_surrogate(rng, s: int, d: int):
    """A full-K surrogate model fit briefly on random dense rows."""
    data = Dataset(s=s, d=d, features=sparse.csr_matrix(rng.normal(size=(200, d))),
                   labels=(rng.random((200, s)) < 0.4).astype(np.uint8))
    return train_surrogate(data, TrainConfig(max_iters=5), SurrogateConfig.full(s, B1))


class TestSurrogateRegret:
    def test_zero_at_the_link_of_the_true_means(self):
        rng = np.random.default_rng(3)
        s = 3
        rows = np.stack([random_valid_means(s, rng) for _ in range(10)])
        flats = np.arange(s * s + 1)
        model = _FixedScorer(logit_link(rows), flats, s)
        assert surrogate_regret_estimate(model, np.arange(10), rows) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_positive_away_from_the_optimum(self):
        rng = np.random.default_rng(4)
        s = 2
        rows = np.stack([random_valid_means(s, rng) for _ in range(10)])
        flats = np.arange(s * s + 1)
        model = _FixedScorer(np.zeros((10, s * s + 1)), flats, s)
        assert surrogate_regret_estimate(model, np.arange(10), rows) > 0.01

    @pytest.mark.parametrize("m", [1, 49, 50, 51, 151])
    def test_row_blocks_match_the_whole_batch(self, m, monkeypatch):
        # blocks of 50 rows: one row, a block less one, one block, one more, three blocks;
        # a row of X holds four nonzeros, six entries
        rng = np.random.default_rng(5)
        model = _trained_surrogate(rng, s=3, d=4)
        n = len(model.active_flats)
        monkeypatch.setattr(decoding, "CHUNK_ENTRIES", (evaluation._REGRET_ARRAYS * n + 6) * 50)
        X = sparse.csr_matrix(rng.normal(size=(m, 4)))
        rows = np.stack([random_valid_means(3, rng) for _ in range(m)])
        whole = pointwise_binary_regret(rows[:, model.active_flats], model.score_rows(X))
        assert surrogate_regret_estimate(model, X, rows) == float(np.mean(whole.sum(axis=1)))

    @pytest.mark.parametrize("m, d", [(15000, 100), (5000, 500)])
    def test_peak_memory_is_one_row_block(self, m, d):
        import tracemalloc

        rng = np.random.default_rng(6)
        model = _trained_surrogate(rng, s=6, d=d)
        X = sparse.csr_matrix(rng.normal(size=(m, d)))
        rows = rng.random((m, 37))
        tracemalloc.start()
        try:
            surrogate_regret_estimate(model, X, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 0.83 and 0.96 in row blocks sized for six (rows, 37) arrays plus the block's
        # rows of X; 1.37 and 3.7 when the width counts the arrays alone, and the
        # whole batch puts the first near 3.2
        assert peak < 1.5 * CHUNK_ENTRIES * 8

    def test_dense_and_list_features_match_csr(self):
        rng = np.random.default_rng(7)
        model = _trained_surrogate(rng, s=3, d=4)
        X = rng.normal(size=(20, 4))
        rows = np.stack([random_valid_means(3, rng) for _ in range(20)])
        want = surrogate_regret_estimate(model, sparse.csr_matrix(X), rows)
        assert surrogate_regret_estimate(model, X, rows) == want
        assert surrogate_regret_estimate(model, X.tolist(), rows) == want
        assert surrogate_regret_estimate(model, sparse.coo_matrix(X), rows) == want

    def test_empty_batch_rejected(self):
        # once NaN, after numpy's "Mean of empty slice" warning
        model = _trained_surrogate(np.random.default_rng(9), s=3, d=4)
        with pytest.raises(ValueError, match="empty"):
            surrogate_regret_estimate(model, sparse.csr_matrix((0, 4)), np.zeros((0, 10)))

    def test_row_count_mismatch_rejected(self):
        model = _FixedScorer(np.zeros((4, 3)), np.arange(3), 2)
        with pytest.raises(ValueError, match="shapes"):
            surrogate_regret_estimate(model, np.arange(4), np.zeros((3, 5)))

    def test_shape_mismatch_rejected(self):
        # scorer claims 3 active coordinates but emits only 2 columns
        model = _FixedScorer(np.zeros((3, 2)), np.arange(3), 2)
        with pytest.raises(ValueError, match="shapes"):
            surrogate_regret_estimate(model, np.arange(3), np.zeros((3, 5)))

    @staticmethod
    def _valid_inputs():
        """A model of s = 3 tags, 6 rows of features and their (6, 10) valid means."""
        rng = np.random.default_rng(8)
        model = _trained_surrogate(rng, s=3, d=4)
        X = sparse.csr_matrix(rng.normal(size=(6, 4)))
        rows = np.stack([random_valid_means(3, rng) for _ in range(6)])
        return model, X, rows

    @pytest.mark.parametrize("width", [13, 9], ids=["extra columns", "missing column"])
    def test_means_of_another_width_rejected(self, width):
        # three extra columns once returned the value of the first ten; too few raised IndexError
        model, X, rows = self._valid_inputs()
        wide = np.hstack([rows, np.full((6, 3), 0.5)])
        with pytest.raises(ValueError, match=r"expected means of shape \(6, 10\)"):
            surrogate_regret_estimate(model, X, wide[:, :width])

    @pytest.mark.parametrize("bad, match",
                             [(1.5, r"lie in \[0, 1\]"), (np.nan, "means must be finite")],
                             ids=["above one", "nan"])
    def test_means_outside_the_unit_interval_rejected(self, bad, match):
        # 1.5 once returned a value, and NaN was reported as a non-finite score
        model, X, rows = self._valid_inputs()
        rows[2, 4] = bad
        with pytest.raises(ValueError, match=match):
            surrogate_regret_estimate(model, X, rows)


class TestOneBudget:
    @pytest.mark.parametrize("row_workers", [1], indirect=True)
    def test_chunk_entries_sizes_column_and_regret_blocks(self, row_workers, monkeypatch):
        # 10 Newton columns of 3*60 row entries and a 5 x 5 factor, and regret rows of
        # 6*10 array entries and four nonzeros (six entries): a budget of 1000 takes
        # columns 4 at a time and rows 15 at a time
        rng = np.random.default_rng(10)
        m, s, d = 60, 3, 4
        data = Dataset(s=s, d=d, features=sparse.csr_matrix(rng.normal(size=(m, d))),
                       labels=(rng.random((m, s)) < 0.4).astype(np.uint8))
        means = np.stack([random_valid_means(s, rng) for _ in range(m)])
        widths, heights = [], []
        descent, slices = training._descent, evaluation._slices

        def counting_descent(evaluate, direction, dim, n, cfg):
            widths.append(n)
            return descent(evaluate, direction, dim, n, cfg)

        def counting_slices(rows, step):
            out = slices(rows, step)
            heights.extend(part.stop - part.start for part in out)
            return out

        monkeypatch.setattr(training, "_descent", counting_descent)
        monkeypatch.setattr(evaluation, "_slices", counting_slices)

        def blocks():
            widths.clear()
            heights.clear()
            model = train_surrogate(data, TrainConfig(max_iters=5), SurrogateConfig.full(s, B1))
            surrogate_regret_estimate(model, data.features, means)
            return list(widths), list(heights)

        assert blocks() == ([10], [60])
        monkeypatch.setattr(decoding, "CHUNK_ENTRIES", 1000)
        assert blocks() == ([4, 4, 2], [15, 15, 15, 15])


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
