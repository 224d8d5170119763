"""Solver correctness against an independent Newton oracle, plus model behavior."""

from __future__ import annotations

import sys
import threading
from functools import partial

import numpy as np
import pytest
from scipy import sparse
from scipy.special import expit, logsumexp

from fbetamax import decoding, training
from fbetamax.baselines import BrModel, train_efp
from fbetamax.decoding import chunk_rows, decode_rows
from fbetamax.fmeasure import BetaParam, LabelVec, StatIndex
from fbetamax.losses import sigmoid_into
from fbetamax.surrogate import SurrogateConfig, binary_targets
from fbetamax.training import (
    NEWTON_MAX_DIM,
    Dataset,
    LinearModel,
    TrainConfig,
    fit_binary_logistic,
    fit_logistic_columns,
    multinomial_prob_rows,
    train_multinomial,
    train_surrogate,
)

B1 = BetaParam(1.0)


def _random_dataset(rng, m=80, s=3, d=6, density=0.5) -> Dataset:
    X = sparse.random(m, d, density=density, random_state=np.random.RandomState(int(rng.integers(2**31))), format="csr")
    labels = tuple(LabelVec(tuple(rng.integers(0, 2, size=s))) for _ in range(m))
    return Dataset(s=s, d=d, features=X, labels=labels)


def _objective_dense(X, a, wb, lam, bias):
    w, b = wb[:-1], (wb[-1] if bias else 0.0)
    z = X @ w + b
    t = 2.0 * a - 1.0
    zt = t * z
    loss = np.mean(np.maximum(0.0, -zt) + np.log1p(np.exp(-np.abs(zt))))
    return loss + 0.5 * lam * float(w @ w)


def _gradient_dense(X, a, wb, lam, bias):
    w, b = wb[:-1], (wb[-1] if bias else 0.0)
    r = (expit(X @ w + b) - a) / len(a)
    gw = X.T @ r + lam * w
    gb = r.sum() if bias else 0.0
    return np.concatenate([gw, [gb]])


def newton_logistic(X, a, lam, bias, tol=1e-12, iters=200):
    """Damped Newton on the same regularized objective, dense linear algebra."""
    m, d = X.shape
    Xb = np.hstack([X, np.ones((m, 1)) if bias else np.zeros((m, 1))])
    reg = lam * np.eye(d + 1)
    reg[d, d] = 0.0
    wb = np.zeros(d + 1)
    for _ in range(iters):
        g = _gradient_dense(X, a, wb, lam, bias)
        if np.max(np.abs(g)) <= tol:
            break
        p = expit(Xb @ wb)
        H = (Xb.T * (p * (1.0 - p))) @ Xb / m + reg
        if not bias:
            H[d, d] = 1.0  # keep the frozen bias row solvable
        step = np.linalg.solve(H, -g)
        t, f0 = 1.0, _objective_dense(X, a, wb, lam, bias)
        while _objective_dense(X, a, wb + t * step, lam, bias) > f0 - 1e-4 * t * abs(g @ step):
            t *= 0.5
            if t < 1e-12:
                break
        wb = wb + t * step
        if not bias:
            wb[d] = 0.0
    return wb


def newton_multinomial(X, y, C, lam, tol=1e-12, iters=100, bias=True):
    """Damped Newton on a softmax block, biases free when fit, dense linear algebra.

    The Hessian is singular along equal shifts of all classes; the step is
    the minimum-norm least-squares solution in all C x p coordinates.
    Returns (C, d+1) weights with the bias last, or (C, d) when bias=False.
    """
    m, d = X.shape
    Xb = np.hstack([X, np.ones((m, 1))]) if bias else X
    p = Xb.shape[1]
    Y = np.eye(C)[y]
    pen = np.tile(np.r_[np.full(d, lam), np.zeros(p - d)], C)

    def objective(flat):
        Z = Xb @ flat.reshape(C, p).T
        return np.mean(logsumexp(Z, axis=1) - Z[np.arange(m), y]) + 0.5 * flat @ (pen * flat)

    flat = np.zeros(C * p)
    for _ in range(iters):
        Z = Xb @ flat.reshape(C, p).T
        P = np.exp(Z - logsumexp(Z, axis=1)[:, None])
        g = ((P - Y).T @ Xb / m).ravel() + pen * flat
        if np.max(np.abs(g)) <= tol:
            break
        # sum over rows of kron(diag P_r - P_r P_r^T, x_r x_r^T)
        A = P[:, :, None] * np.eye(C) - P[:, :, None] * P[:, None, :]
        H = np.tensordot(Xb, A[..., None] * Xb[:, None, None, :], axes=(0, 0))
        H = H.transpose(1, 0, 2, 3).reshape(C * p, C * p)
        H = H / m + np.diag(pen)
        step = np.linalg.lstsq(H, -g, rcond=None)[0]
        t, f0 = 1.0, objective(flat)
        while objective(flat + t * step) > f0 - 1e-4 * t * abs(g @ step):
            t *= 0.5
            if t < 1e-12:
                break
        flat = flat + t * step
    return flat.reshape(C, p)


class TestBinarySolver:
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("lam", [0.5, 0.05])
    def test_matches_newton_oracle(self, bias, lam):
        rng = np.random.default_rng(42)
        m, d = 120, 5
        X = rng.normal(size=(m, d))
        w_true = rng.normal(size=d)
        a = (rng.random(m) < expit(X @ w_true)).astype(float)
        cfg = TrainConfig(reg_lambda=lam, max_iters=500, grad_tol=1e-6, bias=bias)
        wb, report = fit_binary_logistic(sparse.csr_matrix(X), a, cfg)
        ref = newton_logistic(X, a, lam, bias)
        np.testing.assert_allclose(wb, ref, atol=1e-4)
        assert report.converged

    def test_report_matches_independent_recomputation(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(60, 4))
        a = rng.integers(0, 2, size=60).astype(float)
        cfg = TrainConfig(reg_lambda=0.1, grad_tol=1e-8)
        wb, report = fit_binary_logistic(sparse.csr_matrix(X), a, cfg)
        assert report.objective == pytest.approx(
            _objective_dense(X, a, wb, 0.1, True), abs=1e-10
        )
        g = _gradient_dense(X, a, wb, 0.1, True)
        assert np.max(np.abs(g)) <= 1e-8 + 1e-12
        assert report.grad_norm == pytest.approx(np.max(np.abs(g)), abs=1e-12)

    def test_constant_positive_targets_saturate(self):
        # no signal needed: the bias alone drives the probability to ~1
        rng = np.random.default_rng(2)
        X = sparse.csr_matrix(rng.normal(size=(50, 3)) * 0.01)
        a = np.ones(50)
        cfg = TrainConfig(reg_lambda=1e-3, grad_tol=1e-8, max_iters=2000)
        wb, _ = fit_binary_logistic(X, a, cfg)
        assert expit(X @ wb[:3] + wb[3]).min() > 0.999

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(5)
        data = _random_dataset(rng)
        cfg = TrainConfig(reg_lambda=0.01)
        scfg = SurrogateConfig.full(data.s, B1)
        m1 = train_surrogate(data, cfg, scfg)
        m2 = train_surrogate(data, cfg, scfg)
        assert np.array_equal(m1.weights, m2.weights)

    def test_empty_dataset_rejected(self):
        cfg = TrainConfig()
        with pytest.raises(ValueError, match="empty"):
            fit_binary_logistic(sparse.csr_matrix((0, 3)), np.zeros(0), cfg)

    def test_above_newton_cutoff_matches_newton_oracle(self):
        # d + 1 weights exceed the cutoff, so this fit takes the L-BFGS-B path
        rng = np.random.default_rng(17)
        m, d, lam = 1200, NEWTON_MAX_DIM, 0.05
        assert d + 1 > NEWTON_MAX_DIM
        X = rng.normal(size=(m, d)) / np.sqrt(d)
        w_true = rng.normal(size=d) * 2.0
        a = (rng.random(m) < expit(X @ w_true + 0.3)).astype(float)
        cfg = TrainConfig(reg_lambda=lam, max_iters=500, grad_tol=1e-6, bias=True)
        wb, report = fit_binary_logistic(sparse.csr_matrix(X), a, cfg)
        ref = newton_logistic(X, a, lam, True)
        np.testing.assert_allclose(wb, ref, atol=1e-4)
        assert report.converged

    @pytest.mark.parametrize("d", [4, NEWTON_MAX_DIM + 1])
    def test_non_finite_features_never_report_converged(self, d):
        # the entry points reject such input; the solvers themselves must not claim success
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, d))
        X[2, 1] = np.nan
        X = sparse.csr_matrix(X)
        hits = rng.integers(0, 2, size=(30, 1)) == 1
        cfg = TrainConfig()
        _, (report,) = training._fit_columns(
            X, partial(training._logistic_objective, targets=lambda block: hits[:, block], cfg=cfg),
            training._newton_logistic, 1, 1, ["binary"], cfg)
        assert not report.converged
        assert not np.isfinite(report.grad_norm)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("form", ["dense", "csr"])
    def test_non_finite_features_rejected_before_any_solve(self, bad, form, monkeypatch):
        X = np.ones((4, 3))
        X[1, 2] = bad
        if form == "csr":
            X = sparse.csr_matrix(X)
        T = np.array([[0.0], [1.0], [0.0], [1.0]])
        monkeypatch.setattr(training, "_descent", None)
        with pytest.raises(ValueError, match="feature values must be finite"):
            fit_logistic_columns(X, T, TrainConfig(), ["c"])

    def test_columns_match_one_column_fits_exactly(self):
        # batching columns changes no bit of any column's result
        rng = np.random.default_rng(19)
        X = sparse.csr_matrix(rng.normal(size=(70, 5)))
        T = rng.integers(0, 2, size=(70, 4)).astype(float)
        T[:, 3] = 0.0  # a saturating column converges later than the others
        cfg = TrainConfig(reg_lambda=0.01)
        W, reports = fit_logistic_columns(X, T, cfg, ["a", "b", "c", "d"])
        assert [r.name for r in reports] == ["a", "b", "c", "d"]
        for c in range(4):
            wb, report = fit_binary_logistic(X, T[:, c], cfg, name=reports[c].name)
            np.testing.assert_array_equal(W[c], wb)
            assert report == reports[c]
            assert report.converged

    def test_columns_need_one_name_each(self):
        X = sparse.csr_matrix(np.ones((3, 2)))
        with pytest.raises(ValueError, match="name"):
            fit_logistic_columns(X, np.zeros((3, 2)), TrainConfig(), ["only"])

    @pytest.mark.parametrize("bad", [2.0, -1.0, 0.5, np.nan, np.inf])
    def test_targets_must_be_zero_or_one(self, bad):
        X = sparse.csr_matrix(np.eye(4, 2))
        T = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        T[2, 1] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            fit_logistic_columns(X, T, TrainConfig(), ["a", "b"])
        with pytest.raises(ValueError, match="0 or 1"):
            fit_binary_logistic(X, T[:, 1], TrainConfig())
        # bool and integer 0/1 targets are accepted as they are
        W, _ = fit_logistic_columns(X, T[:, :1] == 1.0, TrainConfig(), ["a"])
        np.testing.assert_array_equal(W, fit_logistic_columns(X, T[:, :1], TrainConfig(), ["a"])[0])

    def test_bias_disabled_pins_last_weight(self):
        rng = np.random.default_rng(8)
        X = sparse.csr_matrix(rng.normal(size=(40, 3)))
        a = rng.integers(0, 2, size=40).astype(float)
        wb, _ = fit_binary_logistic(X, a, TrainConfig(bias=False))
        assert wb[3] == 0.0

    def test_columns_match_one_column_fits_exactly_above_cutoff(self, monkeypatch):
        # sparse and above the cutoff: batched L-BFGS, here at most two columns per block
        import fbetamax.training as training_mod

        rng = np.random.default_rng(23)
        m, d = 150, NEWTON_MAX_DIM + 2  # odd p = d + 1: rows of a block sit at mixed alignments
        X = sparse.random(m, d, density=0.02, format="csr", random_state=np.random.RandomState(23))
        w_true = rng.normal(size=(d, 5)) * 3.0
        T = (rng.random((m, 5)) < expit(X @ w_true)).astype(float)
        T[:, 2] = 0.0  # a saturating column converges later than the others
        p = d + 1
        monkeypatch.setattr(training_mod, "LBFGS_BLOCK_ENTRIES", 2 * _lbfgs_column(m, p))
        cfg = TrainConfig(reg_lambda=0.01)
        names = ["a", "b", "c", "d", "e"]
        W, reports = fit_logistic_columns(X, T, cfg, names)
        assert [r.name for r in reports] == names
        for c in range(5):
            wb, report = fit_binary_logistic(X, T[:, c], cfg, name=names[c])
            np.testing.assert_array_equal(W[c], wb)
            assert report == reports[c]
            assert report.converged

    def test_one_iteration_above_cutoff_reports_unconverged(self):
        rng = np.random.default_rng(24)
        m, d = 100, NEWTON_MAX_DIM + 1
        X = sparse.random(m, d, density=0.05, format="csr", random_state=np.random.RandomState(24))
        T = rng.integers(0, 2, size=(m, 3)).astype(float)
        _, reports = fit_logistic_columns(X, T, TrainConfig(max_iters=1), ["a", "b", "c"])
        assert all(not r.converged and r.iterations == 1 for r in reports)
        _, (report,) = train_multinomial(X, T[:, 1:2].astype(int), 2, TrainConfig(max_iters=1),
                                         ["a"])
        assert not report.converged and report.iterations == 1

    def test_import_leaves_scipy_optimize_unloaded(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import fbetamax

        src = str(Path(fbetamax.__file__).resolve().parents[1])
        code = "import sys, fbetamax; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "False"


def _lbfgs_column(m: int, p: int) -> int:
    """Budget entries of one binary L-BFGS column: its history and three (m,) row arrays."""
    return 2 * 10 * p + 3 * m


def _lbfgs_problem(n: int):
    """An L-BFGS problem (sparse, above the cutoff) with n target columns, and its m and p."""
    rng = np.random.default_rng(31)
    m, d = 150, NEWTON_MAX_DIM + 2
    X = sparse.random(m, d, density=0.02, format="csr", random_state=np.random.RandomState(31))
    T = (rng.random((m, 9)) < expit(X @ (rng.normal(size=(d, 9)) * 3.0))).astype(float)
    T[:, 2] = 0.0  # a saturating column converges later than the others
    return X, T[:, :n], m, d + 1


class TestLbfgsBlocks:
    """Column blocks run on the row workers and share one memory budget."""

    @pytest.fixture(scope="class")
    def one_column_fits(self):
        X, T, _, _ = _lbfgs_problem(9)
        cfg = TrainConfig(reg_lambda=0.01)
        return [fit_binary_logistic(X, T[:, c], cfg, name=str(c)) for c in range(9)]

    @pytest.mark.parametrize("n", [1, 8, 9])
    def test_blocks_on_workers_match_one_column_fits(self, n, one_column_fits, row_workers,
                                                     monkeypatch):
        # widths 4, 2 and 1 at 1, 2 and 4 workers: n = 1 is one block, 8 a multiple of
        # the width and 9 one column more
        X, T, m, p = _lbfgs_problem(n)
        monkeypatch.setattr(training, "LBFGS_BLOCK_ENTRIES", 4 * _lbfgs_column(m, p))
        names = [str(c) for c in range(n)]
        W, reports = fit_logistic_columns(X, T, TrainConfig(reg_lambda=0.01), names)
        for c in range(n):
            wb, report = one_column_fits[c]
            np.testing.assert_array_equal(W[c], wb)
            assert reports[c] == report and report.converged

    @pytest.mark.parametrize("row_workers", [2], indirect=True)
    @pytest.mark.parametrize("n, want", [(4, [(0, 3), (3, 4)]), (7, [(0, 3), (3, 6), (6, 7)])])
    def test_two_workers_halve_the_width_within_the_budget(self, n, want, row_workers, monkeypatch):
        X, T, m, p = _lbfgs_problem(n)
        # one worker would take blocks of 6 columns, so n = 4 would be one block
        budget = 6 * _lbfgs_column(m, p)
        monkeypatch.setattr(training, "LBFGS_BLOCK_ENTRIES", budget)
        blocks, histories = [], []
        run_slices = training._run_slices

        def recording_run(piece, slices):
            blocks.extend((part.start, part.stop) for part in slices)
            run_slices(piece, slices)

        class RecordingMemory(training._LimitedMemory):
            def __init__(self, k, dim):
                super().__init__(k, dim)
                histories.append((k, self.S.shape, self.Y.shape))

        monkeypatch.setattr(training, "_run_slices", recording_run)
        monkeypatch.setattr(training, "_LimitedMemory", RecordingMemory)
        names = [str(c) for c in range(n)]
        _, reports = fit_logistic_columns(X, T, TrainConfig(reg_lambda=0.01), names)
        assert all(r.converged for r in reports)
        assert blocks == want
        width = max(stop - start for start, stop in blocks)
        # two blocks at once hold their row arrays and histories, each its own
        assert 2 * width * _lbfgs_column(m, p) <= budget
        widths = [stop - start for start, stop in blocks]
        assert sorted(histories) == sorted((k, (k, 10, p), (k, 10, p)) for k in widths)

    def test_the_first_failing_block_is_raised(self, row_workers, monkeypatch):
        # blocks [0:4] [4:8] [8:9], [0:2] .. [8:9] or one column each: columns 4
        # and 8 fail in two blocks after the first
        X, T, m, p = _lbfgs_problem(9)
        monkeypatch.setattr(training, "LBFGS_BLOCK_ENTRIES", 4 * _lbfgs_column(m, p))
        cfg = TrainConfig(reg_lambda=0.01)
        names = [str(c) for c in range(9)]
        want, want_reports = fit_logistic_columns(X, T, cfg, names)
        objective = training._logistic_objective

        def failing_objective(A, d, targets, cfg):
            block_objective = objective(A, d, targets, cfg)

            def checked_block(block):
                evaluate = block_objective(block)

                def checked(W, cols):
                    # cols count from the block's first column
                    bad = [c for c in (4, 8) if c - block.start in cols]
                    if bad:
                        raise RuntimeError(f"column {bad[0]}")
                    return evaluate(W, cols)

                return checked

            return checked_block

        monkeypatch.setattr(training, "_logistic_objective", failing_objective)
        with pytest.raises(RuntimeError, match="column 4"):
            fit_logistic_columns(X, T, cfg, names)
        # the pool and the next call are unharmed
        monkeypatch.setattr(training, "_logistic_objective", objective)
        W, reports = fit_logistic_columns(X, T, cfg, names)
        np.testing.assert_array_equal(W, want)
        assert reports == want_reports


def _dense_dataset(rng, m: int, s: int, d: int) -> Dataset:
    """Dense features, on the damped-Newton path at small d."""
    bits = (rng.random((m, s)) < 0.4).astype(np.uint8)
    return Dataset(s=s, d=d, features=sparse.csr_matrix(rng.normal(size=(m, d))), labels=bits)


def _wide_dataset(rng, m: int, s: int) -> Dataset:
    """Sparse features above the Newton cutoff: the batched L-BFGS path."""
    d = NEWTON_MAX_DIM + 2
    X = sparse.random(m, d, density=0.02, format="csr",
                      random_state=np.random.RandomState(int(rng.integers(2**31))))
    return Dataset(s=s, d=d, features=X, labels=(rng.random((m, s)) < 0.4).astype(np.uint8))


class TestColumnBlocks:
    """Both solvers run over column blocks; a column's result does not depend on its block."""

    @staticmethod
    def _fit_counting_blocks(monkeypatch, fit, budget):
        """fit() under an LBFGS_BLOCK_ENTRIES budget; returns its result and the block sizes."""
        sizes = []
        descent = training._descent

        def counting(evaluate, direction, dim, n, cfg):
            sizes.append(n)
            return descent(evaluate, direction, dim, n, cfg)

        with monkeypatch.context() as patch:
            patch.setattr(training, "_descent", counting)
            if budget is not None:
                patch.setattr(training, "LBFGS_BLOCK_ENTRIES", budget)
            return fit(), sizes

    def test_newton_logistic_blocks_match_one_block(self, row_workers, monkeypatch):
        data = _dense_dataset(np.random.default_rng(42), m=120, s=4, d=5)
        scfg = SurrogateConfig.full(4, B1)
        cfg = TrainConfig(reg_lambda=0.01)

        def fit():
            return train_surrogate(data, cfg, scfg)

        one, sizes = self._fit_counting_blocks(monkeypatch, fit, None)
        assert sizes == [17]
        # three (m,) row arrays and a p x p factor per binary column: four columns'
        # worth, shared by the workers, gives blocks of 4, 2 or 1 columns at 1, 2 or
        # 4 workers; the threads finish them in any order
        p = data.d + 1
        many, sizes = self._fit_counting_blocks(monkeypatch, fit, 4 * (3 * data.m + p * p))
        want = {1: [1] + [4] * 4, 2: [1] + [2] * 8, 4: [1] * 17}[row_workers]
        assert sorted(sizes) == want
        assert many.weights.tobytes() == one.weights.tobytes()
        assert many.reports == one.reports
        assert all(r.converged for r in one.reports)

    def test_newton_softmax_blocks_match_one_block(self, monkeypatch):
        data = _dense_dataset(np.random.default_rng(43), m=150, s=4, d=4)
        C = 1 + len(data.observed_counts - {0})
        cfg = TrainConfig(reg_lambda=0.01)

        def fit():
            return train_efp(data, cfg, B1)

        one, sizes = self._fit_counting_blocks(monkeypatch, fit, None)
        # the zero slot's logistic column, then the s softmax blocks
        assert sizes == [1, 4]
        # three (m, C) row arrays per softmax column: one tag per block
        many, sizes = self._fit_counting_blocks(monkeypatch, fit, 3 * data.m * C)
        assert sizes == [1, 1, 1, 1, 1]
        assert many.weights.tobytes() == one.weights.tobytes()
        assert many.reports == one.reports
        assert all(r.converged for r in one.reports)

    @pytest.mark.parametrize("row_workers", [2], indirect=True)
    def test_newton_softmax_blocks_on_two_workers_match_one_block(self, row_workers,
                                                                  monkeypatch):
        data = _dense_dataset(np.random.default_rng(45), m=150, s=4, d=4)
        C = 1 + len(data.observed_counts - {0})
        cfg = TrainConfig(reg_lambda=0.01)

        def fit():
            return train_efp(data, cfg, B1)

        one, sizes = self._fit_counting_blocks(monkeypatch, fit, None)
        assert sizes == [1, 4]
        # four tags' row arrays and (C-1)p x (C-1)p factors shared by two workers:
        # two blocks of two tags side by side
        side = (C - 1) * (data.d + 1)
        many, sizes = self._fit_counting_blocks(monkeypatch, fit,
                                                4 * (3 * data.m * C + side * side))
        assert sorted(sizes) == [1, 2, 2]
        assert many.weights.tobytes() == one.weights.tobytes()
        assert many.reports == one.reports
        assert all(r.converged for r in one.reports)

    def test_newton_blocks_cut_by_the_factor_alone_match_one_block(self, row_workers,
                                                                  monkeypatch):
        # eight softmax columns whose row arrays fit one block at 1, 2 and 4 workers,
        # while their 63 x 63 factors cut them into blocks of 4, 2 and 1 columns
        rng = np.random.default_rng(49)
        m, d, C, n = 60, 20, 4, 8
        X = rng.normal(size=(m, d))
        classes = rng.integers(0, C, size=(m, n))
        cfg = TrainConfig(reg_lambda=0.05)
        rows = 3 * m * C
        threads = []
        descent = training._descent

        def recording(evaluate, direction, dim, k, cfg):
            threads.append(threading.get_ident())
            return descent(evaluate, direction, dim, k, cfg)

        def fit():
            return train_multinomial(X, classes, C, cfg, [str(j) for j in range(n)])

        one, sizes = self._fit_counting_blocks(monkeypatch, fit, None)
        assert sizes == [n]
        monkeypatch.setattr(training, "_descent", recording)
        many, sizes = self._fit_counting_blocks(monkeypatch, fit, 4 * n * rows)
        assert sizes == [4 // row_workers] * (2 * row_workers)
        # in order on the calling thread
        assert set(threads) == {threading.get_ident()}
        assert many[0].tobytes() == one[0].tobytes()
        assert many[1] == one[1]
        assert all(r.converged for r in one[1])

    def test_lbfgs_blocks_match_one_block(self, monkeypatch):
        data = _wide_dataset(np.random.default_rng(44), m=150, s=3)
        scfg = SurrogateConfig.full(3, B1)
        cfg = TrainConfig(reg_lambda=0.01)
        p = data.d + 1

        def fit():
            return train_surrogate(data, cfg, scfg)

        one, sizes = self._fit_counting_blocks(monkeypatch, fit, 1 << 30)
        # a problem that fits the budget is one block, whatever the worker count
        assert sizes == [10]
        many, sizes = self._fit_counting_blocks(monkeypatch, fit, _lbfgs_column(data.m, p))
        assert sizes == [1] * 10
        assert many.weights.tobytes() == one.weights.tobytes()
        assert many.reports == one.reports
        assert all(r.converged for r in one.reports)


class TestBoundedMemory:
    """train_surrogate holds no (m, s^2+1) table: its peak stays below a fraction of one."""

    @staticmethod
    def _peak_in_tables(data: Dataset) -> float:
        import tracemalloc

        # at max_iters 1 every column has been evaluated, stepped and searched once
        cfg, scfg = TrainConfig(max_iters=1), SurrogateConfig.full(data.s, B1)
        tracemalloc.start()
        try:
            train_surrogate(data, cfg, scfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (data.m * (data.s * data.s + 1) * 8)

    @pytest.mark.parametrize("row_workers", [1, 4], indirect=True)
    def test_softmax_factors_stay_in_the_budget(self, row_workers):
        import tracemalloc

        # eight 606 x 606 factors would take 2.8 budgets; blocks of two or one at
        # 1 or 4 workers peak near 6.6 or 3.6 MB against the 8.4 MB budget
        rng = np.random.default_rng(48)
        m, d, C, n = 100, 100, 7, 8
        X = rng.normal(size=(m, d))
        classes = rng.integers(0, C, size=(m, n))
        side = (C - 1) * (d + 1)
        tracemalloc.start()
        try:
            _, reports = train_multinomial(X, classes, C, TrainConfig(reg_lambda=0.1),
                                           [str(j) for j in range(n)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.converged for r in reports)
        # the budget, plus one column's curvature temporaries, under one factor's size
        assert peak < (training.LBFGS_BLOCK_ENTRIES + side * side) * 8

    def test_newton_path_at_s30(self):
        # 901 columns on dense features: about 0.39 in column blocks, 6.1 with the
        # whole statistic table, its target slice and one evaluation of every column
        data = _dense_dataset(np.random.default_rng(45), m=4000, s=30, d=20)
        assert self._peak_in_tables(data) < 0.5

    def test_lbfgs_path_at_s30(self):
        # about 0.65 in column blocks (the (901, 1003) weights alone are 0.25),
        # 2.1 with the whole statistic table and its target slice
        data = _wide_dataset(np.random.default_rng(46), m=4000, s=30)
        assert self._peak_in_tables(data) < 1.0

    @pytest.mark.parametrize("row_workers", [1, 4], indirect=True)
    def test_models_keep_one_copy_of_their_weights(self, row_workers, monkeypatch):
        # one-column blocks keep the solver's arrays small beside the (401, 1003)
        # weights: the peak is about 1.2 weight matrices here, and 2.2 when the
        # model copies the weights that the solve built
        rng = np.random.default_rng(49)
        m, s, d = 150, 20, NEWTON_MAX_DIM + 2
        X = sparse.random(m, d, density=0.02, format="csr", random_state=np.random.RandomState(49))
        data = Dataset(s=s, d=d, features=X, labels=(rng.random((m, s)) < 0.4).astype(np.uint8))
        monkeypatch.setattr(training, "LBFGS_BLOCK_ENTRIES", _lbfgs_column(m, d + 1))
        import tracemalloc

        tracemalloc.start()
        try:
            model = train_surrogate(data, TrainConfig(max_iters=1), SurrogateConfig.full(s, B1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * model.weights.nbytes
        assert not model.weights.flags.writeable

    def test_weights_from_a_caller_are_copied(self):
        weights = np.zeros((3, 5))
        model = BrModel(s=3, d=4, weights=weights, bias=True, reg_lambda=0.0)
        weights[0, 0] = 1.0
        assert model.weights[0, 0] == 0.0


@pytest.mark.parametrize("rows", [1, 127, 128, 129, 300])
def test_feature_weights_are_the_contiguous_transpose(rows):
    weights = np.random.default_rng(47).normal(size=(rows, 6))
    model = BrModel(s=rows, d=5, weights=weights, bias=True, reg_lambda=0.0)
    W = model._feature_weights
    assert W.flags.c_contiguous
    assert W.tobytes() == np.ascontiguousarray(weights[:, :5].T).tobytes()


class TestCachedNewton:
    """Newton columns keep their Cholesky factor for several steps."""

    @staticmethod
    def _count_factorizations(monkeypatch, fit):
        calls = []
        factor = training.cho_factor

        def counting(*args, **kwargs):
            calls.append(1)
            return factor(*args, **kwargs)

        monkeypatch.setattr(training, "cho_factor", counting)
        reports = fit()
        return len(calls), sum(r.iterations for r in reports)

    def test_logistic_columns_factor_less_often_than_they_step(self, monkeypatch):
        data = _dense_dataset(np.random.default_rng(50), m=200, s=3, d=8)
        scfg = SurrogateConfig.full(3, B1)
        calls, steps = self._count_factorizations(
            monkeypatch, lambda: train_surrogate(data, TrainConfig(reg_lambda=1e-3), scfg).reports)
        assert 0 < calls < steps

    def test_softmax_blocks_factor_less_often_than_they_step(self, monkeypatch):
        rng = np.random.default_rng(51)
        X, classes = rng.normal(size=(200, 6)), rng.integers(0, 4, size=(200, 3))
        calls, steps = self._count_factorizations(
            monkeypatch,
            lambda: train_multinomial(X, classes, 4, TrainConfig(reg_lambda=1e-3), list("abc"))[1])
        assert 0 < calls < steps

    def test_singular_hessian_falls_back_to_least_squares(self, monkeypatch):
        # without a ridge, a feature that is zero on every row leaves the Hessian
        # singular; the column still converges, with that weight untouched
        rng = np.random.default_rng(52)
        X = np.hstack([rng.normal(size=(120, 3)), np.zeros((120, 1))])
        a = (rng.random(120) < expit(X[:, 0] - X[:, 1])).astype(float)
        cfg = TrainConfig(reg_lambda=0.0, grad_tol=1e-9)
        singular = []
        factor = training._CachedNewton._factor

        def recording(self, c, w):
            factor(self, c, w)
            singular.append(bool(self.singular[c]))

        monkeypatch.setattr(training._CachedNewton, "_factor", recording)
        wb, report = fit_binary_logistic(sparse.csr_matrix(X), a, cfg)
        assert singular and all(singular)
        assert report.converged and wb[3] == 0.0
        ref = newton_logistic(X[:, :3], a, 0.0, True)
        np.testing.assert_allclose(np.delete(wb, 3), ref, atol=1e-7)


class TestBiasColumn:
    """The bias is the design's last column: a column of ones, free of the ridge.

    At reg_lambda = 0 a bias-on fit on X is the same solve as a bias-off fit
    on [X | 1], byte for byte, whether or not it has converged.
    """

    @staticmethod
    def _features(d: int):
        rng = np.random.default_rng(51)
        X = rng.normal(size=(60, d))
        return rng, X, np.hstack([X, np.ones((60, 1))])

    @pytest.mark.parametrize("d", [5, NEWTON_MAX_DIM], ids=["newton", "lbfgs"])
    def test_logistic_columns(self, d):
        rng, X, design = self._features(d)
        T = rng.random((60, 3)) < 0.4
        names = ["a", "b", "c"]
        on, on_reports = fit_logistic_columns(X, T, TrainConfig(reg_lambda=0.0, max_iters=5), names)
        off, off_reports = fit_logistic_columns(
            design, T, TrainConfig(reg_lambda=0.0, max_iters=5, bias=False), names)
        assert on.tobytes() == off[:, :d + 1].tobytes()
        assert on_reports == off_reports

    @pytest.mark.parametrize("d", [5, NEWTON_MAX_DIM], ids=["newton", "lbfgs"])
    def test_softmax_blocks(self, d):
        rng, X, design = self._features(d)
        classes = rng.integers(0, 3, size=(60, 2))
        names = ["a", "b"]
        on, on_reports = train_multinomial(X, classes, 3, TrainConfig(reg_lambda=0.0, max_iters=5),
                                           names)
        off, off_reports = train_multinomial(
            design, classes, 3, TrainConfig(reg_lambda=0.0, max_iters=5, bias=False), names)
        assert on.tobytes() == off[:, :, :d + 1].tobytes()
        assert on_reports == off_reports


class TestOneBlasThread:
    """Training and scoring compute on one BLAS thread, whatever the environment says."""

    @staticmethod
    def _copies():
        copies = decoding._openblas_copies()
        if not copies:
            # a broken lookup must not pass as "no OpenBLAS here"
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
            assert "openblas" not in blas
            pytest.skip("no OpenBLAS copy is loaded")
        return copies

    @staticmethod
    def _counts(copies) -> list[int]:
        return [get() for get, _ in copies]

    @pytest.fixture
    def two_threads(self):
        """Every OpenBLAS copy set to two threads; their counts before are restored after."""
        copies = self._copies()
        saved = self._counts(copies)
        for _, set_ in copies:
            set_(2)
        try:
            yield copies, self._counts(copies)
        finally:
            for (_, set_), count in zip(copies, saved):
                set_(count)

    def test_counts_are_one_inside_and_restored_after_training(self, two_threads, monkeypatch):
        copies, before = two_threads
        data = _dense_dataset(np.random.default_rng(51), m=60, s=3, d=5)
        seen = []

        def spy(module, name):
            real = getattr(module, name)

            def counting(*args, **kwargs):
                seen.append(self._counts(copies))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        # the solver's blocks, and the row pieces of scoring (decoding._map_rows)
        spy(training, "_descent")
        spy(decoding, "_run_slices")
        model = train_surrogate(data, TrainConfig(), SurrogateConfig.full(data.s, B1))
        train_efp(data, TrainConfig(), B1)
        model.predict_rows(data.features)
        assert len(seen) > 2 and all(counts == [1] * len(copies) for counts in seen)
        assert self._counts(copies) == before

        def failing(*args, **kwargs):
            seen.append(self._counts(copies))
            raise RuntimeError("solver failed")

        seen.clear()
        monkeypatch.setattr(training, "_descent", failing)
        with pytest.raises(RuntimeError, match="solver failed"):
            train_surrogate(data, TrainConfig(), SurrogateConfig.full(data.s, B1))
        assert seen == [[1] * len(copies)]
        assert self._counts(copies) == before

    def test_nested_and_concurrent_entries_restore_once(self, two_threads):
        copies, before = two_threads
        with decoding._one_blas_thread():
            with decoding._one_blas_thread():
                pass
            assert self._counts(copies) == [1] * len(copies)
        assert self._counts(copies) == before

        # more threads than CPUs, switching often: a lost update to the depth
        # would restore the counts while another thread is still inside
        wrong = []

        def enter_and_leave():
            for _ in range(200):
                with decoding._one_blas_thread():
                    if self._counts(copies) != [1] * len(copies):
                        wrong.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=enter_and_leave) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert self._counts(copies) == before

    def test_nothing_is_set_without_an_openblas_copy(self, two_threads, monkeypatch):
        copies, before = two_threads

        def no_maps(*args, **kwargs):
            raise FileNotFoundError("no /proc here")

        monkeypatch.setattr(decoding, "open", no_maps, raising=False)
        assert decoding._openblas_copies.__wrapped__() == ()
        monkeypatch.setattr(decoding, "_openblas_copies", lambda: ())
        with decoding._one_blas_thread():
            assert self._counts(copies) == before
        assert self._counts(copies) == before

    def test_models_do_not_depend_on_openblas_num_threads(self):
        # at m = 316, d = 100 the Newton Gram products and Cholesky factors
        # round differently when OpenBLAS splits them over two threads
        import os
        import subprocess
        import textwrap
        from pathlib import Path

        src = str(Path(training.__file__).resolve().parents[1])
        code = textwrap.dedent("""
            import hashlib
            import numpy as np
            from scipy import sparse
            from fbetamax import (BetaParam, Dataset, SurrogateConfig, TrainConfig, train_efp,
                                  train_surrogate)
            rng = np.random.default_rng(52)
            X = rng.normal(size=(316, 100))
            bits = (rng.random((316, 6)) < 1 / (1 + np.exp(-X[:, :6]))).astype(np.uint8)
            data = Dataset(s=6, d=100, features=sparse.csr_matrix(X), labels=bits)
            beta = BetaParam(1.0)
            for model in (train_surrogate(data, TrainConfig(), SurrogateConfig.full(6, beta)),
                          train_efp(data, TrainConfig(), beta)):
                print(hashlib.sha256(model.weights.tobytes()).hexdigest())
        """)
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  timeout=300, env=env)
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout.split())
        assert len(digests[0]) == 2
        assert digests[0] == digests[1]


class TestTrainConfig:
    def test_rejects_negative_reg(self):
        with pytest.raises(ValueError):
            TrainConfig(reg_lambda=-1.0)

    def test_rejects_nan_reg(self):
        with pytest.raises(ValueError):
            TrainConfig(reg_lambda=float("nan"))

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            TrainConfig(grad_tol=0.0)

    def test_rejects_zero_iters(self):
        with pytest.raises(ValueError):
            TrainConfig(max_iters=0)

    @pytest.mark.parametrize("tol", [np.inf, np.nan])
    def test_rejects_non_finite_tol(self, tol):
        # an infinite tolerance would report untrained zero weights as converged
        with pytest.raises(ValueError, match="grad_tol"):
            TrainConfig(grad_tol=tol)

    @pytest.mark.parametrize("iters", [2.5, 3.0, True, "3"])
    def test_rejects_non_int_iters(self, iters):
        with pytest.raises(ValueError, match="max_iters"):
            TrainConfig(max_iters=iters)

    def test_accepts_numpy_int_iters(self):
        assert TrainConfig(max_iters=np.int64(3)).max_iters == 3


class TestTrainSurrogate:
    def test_shapes_and_reports(self):
        rng = np.random.default_rng(1)
        data = _random_dataset(rng, m=100, s=2, d=4)
        scfg = SurrogateConfig.full(2, B1)
        model = train_surrogate(data, TrainConfig(reg_lambda=0.01), scfg)
        assert model.weights.shape == (5, 5)
        assert len(model.reports) == 5
        assert all(r.converged for r in model.reports)
        assert [r.name for r in model.reports] == [str(ix) for ix in scfg.active_indices]

    def test_subproblems_are_independent(self):
        # shared coordinates get identical weights whether or not others train
        rng = np.random.default_rng(12)
        data = _random_dataset(rng, m=90, s=3, d=5)
        cfg = TrainConfig(reg_lambda=0.05)
        full = train_surrogate(data, cfg, SurrogateConfig.full(3, B1))
        part = train_surrogate(data, cfg, SurrogateConfig.for_counts(3, [1], B1))
        for row, ix in enumerate(part.active_indices):
            full_row = full.active_indices.index(ix)
            np.testing.assert_array_equal(part.weights[row], full.weights[full_row])

    def test_mismatched_s_rejected(self):
        rng = np.random.default_rng(3)
        data = _random_dataset(rng, s=3)
        with pytest.raises(ValueError, match="tag count"):
            train_surrogate(data, TrainConfig(), SurrogateConfig.full(2, B1))


class TestLinearModelPrediction:
    def _tiny_model(self, counts=None) -> LinearModel:
        scfg = (
            SurrogateConfig.full(2, B1)
            if counts is None
            else SurrogateConfig.for_counts(2, counts, B1)
        )
        n = scfg.n_subproblems()
        return LinearModel(
            s=2, d=3, beta=B1,
            active_indices=scfg.active_indices,
            weights=np.zeros((n, 4)),
            bias=False, reg_lambda=0.0,
        )

    def test_zero_weights_give_half_probabilities(self):
        model = self._tiny_model()
        probs = model.stat_prob_rows(np.array([1.0, -2.0, 0.5]))[0]
        np.testing.assert_allclose(probs, 0.5)

    def test_inactive_coordinates_unscored_with_zero_probs(self):
        model = self._tiny_model(counts=[1])
        x = np.array([0.3, 0.0, -1.0])
        scores = model.score_rows(x)[0]
        probs = model.stat_prob_rows(x)[0]
        for ix in (StatIndex.pair(1, 2), StatIndex.pair(2, 2)):
            assert ix.flat(2) not in model.active_flats
            assert probs[ix.flat(2)] == 0.0
        assert model.active_indices[0] == StatIndex.zero()
        assert np.isfinite(scores[0])

    def test_predict_agrees_with_predict_rows(self):
        rng = np.random.default_rng(21)
        data = _random_dataset(rng, m=60, s=3, d=5)
        model = train_surrogate(data, TrainConfig(reg_lambda=0.01), SurrogateConfig.full(3, B1))
        X = data.features[:7]
        bits = model.predict_rows(X)
        for i in range(7):
            # one row through predict_rows decodes as it does in the batch
            np.testing.assert_array_equal(model.predict_rows(X[i]), bits[i:i + 1])

    @pytest.mark.parametrize("s", [1, 6, 50])
    def test_chunk_boundaries_match_one_product(self, s):
        c = chunk_rows(s)
        d = 4
        rng = np.random.default_rng(900 + s)
        # a partial K leaves inactive coordinates, which must stay exactly 0
        scfg = SurrogateConfig.for_counts(s, sorted({0, 1, s}), B1)
        W = rng.normal(size=(scfg.n_subproblems(), d + 1))
        model = LinearModel(s=s, d=d, beta=B1, active_indices=scfg.active_indices,
                            weights=W, bias=True, reg_lambda=0.0)
        X_all = sparse.random(2 * c + 1, d, density=0.5, format="csr",
                              random_state=np.random.RandomState(s))
        for m in (0, 1, c - 1, c, c + 1, 2 * c + 1):
            X = X_all[:m]
            expected = np.zeros((m, s * s + 1))
            expected[:, scfg.active_flats] = sigmoid_into(X @ W[:, :d].T + W[:, d])
            probs = model.stat_prob_rows(X)
            np.testing.assert_array_equal(probs, expected)
            np.testing.assert_array_equal(model.score_rows(X), X @ W[:, :d].T + W[:, d])
            bits = model.predict_rows(X)
            assert bits.shape == (m, s)
            np.testing.assert_array_equal(bits, decode_rows(probs, s, B1)[0])

    @pytest.mark.parametrize("s", [6, 50])
    @pytest.mark.parametrize("full", [True, False], ids=["full_K", "partial_K"])
    def test_row_pieces_match_one_product(self, s, full, row_workers):
        c = chunk_rows(s)
        d = 4
        rng = np.random.default_rng(1500 + s)
        scfg = SurrogateConfig.for_counts(s, range(1, s + 1) if full else [1, 3, s], B1)
        W = rng.normal(size=(scfg.n_subproblems(), d + 1))
        model = LinearModel(s=s, d=d, beta=B1, active_indices=scfg.active_indices,
                            weights=W, bias=True, reg_lambda=0.0)
        X_all = sparse.random(2 * c + 1, d, density=0.5, format="csr",
                              random_state=np.random.RandomState(s))
        # every row's product and link are its own, so one product covers all sizes
        scores = X_all @ W[:, :d].T + W[:, d]
        expected = np.zeros((X_all.shape[0], s * s + 1))
        expected[:, scfg.active_flats] = sigmoid_into(scores)
        for m in (c - 1, c, c + 1, 2 * c + 1):
            X = X_all[:m]
            np.testing.assert_array_equal(model.stat_prob_rows(X), expected[:m])
            np.testing.assert_array_equal(model.score_rows(X), scores[:m])
            np.testing.assert_array_equal(model.predict_rows(X),
                                          decode_rows(expected[:m], s, B1)[0])

    def test_predict_rows_runs_the_pieces_of_stat_prob_rows(self, row_workers, monkeypatch):
        s, d = 6, 4
        c = chunk_rows(s)
        scfg = SurrogateConfig.for_counts(s, [1, 3, s], B1)
        W = np.random.default_rng(1700).normal(size=(scfg.n_subproblems(), d + 1))
        model = LinearModel(s=s, d=d, beta=B1, active_indices=scfg.active_indices,
                            weights=W, bias=True, reg_lambda=0.0)
        X = sparse.random(2 * c + 1, d, density=0.5, format="csr",
                          random_state=np.random.RandomState(17))
        pieces = []
        map_rows = training._map_rows

        def recording_map(piece, m, s):
            def recorded(rows):
                pieces.append((rows.start, rows.stop))
                piece(rows)

            map_rows(recorded, m, s)

        monkeypatch.setattr(training, "_map_rows", recording_map)
        model.stat_prob_rows(X)
        want = sorted(pieces)
        pieces.clear()
        model.predict_rows(X)
        assert sorted(pieces) == want
        # more than one worker cuts the batch into quarter chunks, not whole chunks
        step = c // decoding._PIECES_PER_CHUNK if decoding._WORKERS > 1 else c
        assert max(stop - start for start, stop in want) == step

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("form", ["dense", "sparse"])
    @pytest.mark.parametrize("method", ["score_rows", "stat_prob_rows", "predict_rows"])
    def test_non_finite_features_rejected(self, bad, form, method):
        model = self._tiny_model(counts=[1])
        X = np.array([[0.5, 0.0, 1.0], [bad, 0.0, 0.0]])
        if form == "sparse":
            X = sparse.csr_matrix(X)
        with pytest.raises(ValueError, match="feature values must be finite"):
            getattr(model, method)(X)

    def test_feature_width_mismatch(self):
        model = self._tiny_model()
        with pytest.raises(ValueError, match="columns"):
            model.score_rows(np.zeros((2, 7)))


class TestMultinomial:
    def test_two_class_block_matches_binary(self):
        # softmax over 2 classes equals a single logistic on the weight
        # difference; splitting the penalty evenly doubles the multiplier
        rng = np.random.default_rng(6)
        m, d, lam = 150, 4, 0.1
        X = rng.normal(size=(m, d))
        a = rng.integers(0, 2, size=m).astype(float)
        (weights,), _ = train_multinomial(
            X, a.astype(int)[:, None], 2, TrainConfig(reg_lambda=2 * lam, grad_tol=1e-10), ["tag"]
        )
        wb, _ = fit_binary_logistic(
            sparse.csr_matrix(X), a, TrainConfig(reg_lambda=lam, grad_tol=1e-10)
        )
        diff = weights[1] - weights[0]
        np.testing.assert_allclose(diff, wb, atol=1e-5)
        p_soft = multinomial_prob_rows(weights, sparse.csr_matrix(X))[:, 1]
        np.testing.assert_allclose(p_soft, expit(X @ wb[:d] + wb[d]), atol=1e-5)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(14)
        W = rng.normal(size=(4, 6))
        X = rng.normal(size=(30, 5))
        P = multinomial_prob_rows(W, X)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert (P > 0).all()

    def test_optimum_satisfies_gradient_test(self):
        rng = np.random.default_rng(30)
        m, d, C = 100, 3, 3
        X = rng.normal(size=(m, d))
        y = rng.integers(0, C, size=m)
        lam = 0.05
        (W,), (report,) = train_multinomial(
            X, y[:, None], C, TrainConfig(reg_lambda=lam, grad_tol=1e-6), ["tag"]
        )
        Z = X @ W[:, :d].T + W[:, d]
        P = np.exp(Z - logsumexp(Z, axis=1)[:, None])
        P[np.arange(m), y] -= 1.0
        P /= m
        Gw = (X.T @ P).T + lam * W[:, :d]
        Gb = P.sum(axis=0)
        assert max(np.abs(Gw).max(), np.abs(Gb).max()) <= 1e-6 + 1e-12
        assert report.converged

    def test_three_class_bias_matches_newton_oracle(self):
        # biases are free, so the sum of the biases is a flat direction
        rng = np.random.default_rng(31)
        m, d, C, lam = 150, 4, 3, 0.05
        X = rng.normal(size=(m, d))
        y = rng.integers(0, C, size=m)
        (W,), (report,) = train_multinomial(
            X, y[:, None], C, TrainConfig(reg_lambda=lam, grad_tol=1e-8), ["tag"]
        )
        assert report.converged
        Z = X @ W[:, :d].T + W[:, d]
        P = np.exp(Z - logsumexp(Z, axis=1)[:, None])
        R = P.copy()
        R[np.arange(m), y] -= 1.0
        R /= m
        G = np.hstack([(X.T @ R).T + lam * W[:, :d], R.sum(axis=0)[:, None]])
        assert np.abs(G).max() <= 1e-8 + 1e-12
        ref = newton_multinomial(X, y, C, lam)
        Zr = np.hstack([X, np.ones((m, 1))]) @ ref.T
        P_ref = np.exp(Zr - logsumexp(Zr, axis=1)[:, None])
        np.testing.assert_allclose(P, P_ref, atol=1e-7)

    @staticmethod
    def _check_against_oracle(X, y, C, cfg):
        # the oracle solves in all C x p coordinates with min-norm steps; the
        # solver works in the sum-zero subspace but reports on the full gradient
        m, d = X.shape
        (W,), (report,) = train_multinomial(X, y[:, None], C, cfg, ["tag"])
        assert report.converged, report
        assert np.abs(W.sum(axis=0)).max() <= 1e-12
        Z = X @ W[:, :d].T + W[:, d]
        P = np.exp(Z - logsumexp(Z, axis=1)[:, None])
        R = P.copy()
        R[np.arange(m), y] -= 1.0
        R /= m
        G = (X.T @ R).T + cfg.reg_lambda * W[:, :d]
        if cfg.bias:
            G = np.hstack([G, R.sum(axis=0)[:, None]])
        assert report.grad_norm == pytest.approx(np.abs(G).max(), rel=1e-6, abs=1e-14)
        ref = newton_multinomial(X, y, C, cfg.reg_lambda, bias=cfg.bias)
        Zr = (np.hstack([X, np.ones((m, 1))]) if cfg.bias else X) @ ref.T
        P_ref = np.exp(Zr - logsumexp(Zr, axis=1)[:, None])
        np.testing.assert_allclose(P, P_ref, atol=1e-7)

    def test_fit_s6_shaped_block_matches_newton_oracle(self):
        # tag 1 of the benchmark's fit task: C = 7 classes (inactive plus the
        # six observed counts), p = 100 features, no bias, m = 316, reg 1e-4
        from fbetamax.synth import build_distribution, sample_batch

        dist = build_distribution(0, s=6, d=100)
        batch = sample_batch(dist, 316, stream=0)
        bits = np.array([y.bits for y in batch.labels])
        y = np.where(bits[:, 0] == 1, bits.sum(axis=1), 0)
        assert sorted(set(y)) == list(range(7))
        self._check_against_oracle(
            batch.features, y, 7, TrainConfig(reg_lambda=1e-4, grad_tol=1e-10, bias=False)
        )

    def test_small_bias_block_matches_newton_oracle(self):
        rng = np.random.default_rng(32)
        m, d, C = 200, 5, 4
        X = rng.normal(size=(m, d))
        y = rng.integers(0, C, size=m)
        self._check_against_oracle(X, y, C, TrainConfig(reg_lambda=0.05))

    @pytest.mark.parametrize("d", [5, 340])
    def test_blocks_in_one_call_match_one_block_calls(self, d, row_workers):
        # d = 5 takes Newton; at d = 340, C*p = 1023 weights run L-BFGS column blocks
        rng = np.random.default_rng(34)
        m, C, n = 120, 3, 3
        assert (C * (d + 1) > NEWTON_MAX_DIM) == (d == 340)
        X = rng.normal(size=(m, d)) / np.sqrt(d)
        # planted softmax scales 0, 2 and 8, so the columns leave the active set apart
        Z = (X @ rng.normal(size=(d, n * C))).reshape(m, n, C) * np.array([0.0, 2.0, 8.0])[:, None]
        classes = (Z + rng.gumbel(size=Z.shape)).argmax(axis=2)
        X = sparse.csr_matrix(X)
        cfg = TrainConfig(reg_lambda=0.01)
        names = [f"tag {j}" for j in range(1, n + 1)]
        weights, reports = train_multinomial(X, classes, C, cfg, names)
        assert weights.shape == (n, C, d + 1)
        for c in range(n):
            (w,), (report,) = train_multinomial(X, classes[:, c:c + 1], C, cfg, [names[c]])
            np.testing.assert_array_equal(weights[c], w)
            assert reports[c] == report and report.converged

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("form", ["dense", "csr"])
    def test_non_finite_features_rejected_before_any_solve(self, bad, form, monkeypatch):
        X = np.ones((4, 3))
        X[1, 2] = bad
        if form == "csr":
            X = sparse.csr_matrix(X)
        monkeypatch.setattr(training, "_descent", None)
        with pytest.raises(ValueError, match="feature values must be finite"):
            train_multinomial(X, np.array([[0], [1], [2], [1]]), 3, TrainConfig(), ["tag"])

    def test_rejects_bad_class_indices(self):
        rng = np.random.default_rng(4)
        data = _random_dataset(rng, m=10, s=2, d=3)
        with pytest.raises(ValueError, match="class indices"):
            train_multinomial(data.features, np.array([[0, 1, 2, 0, 1, 2, 0, 1, 2, 5]]).T, 3,
                              TrainConfig(), ["tag"])

    @pytest.mark.parametrize("classes", [
        [0, 1, 0, 0.5], [0, 1, 0, 1.0], [False, True, False, True],
    ])
    def test_rejects_non_integer_classes(self, classes):
        # a cast would train class 0.5 as class 0 and report it converged
        with pytest.raises(ValueError, match="class indices must be integers"):
            train_multinomial(np.eye(4), np.array(classes)[:, None], 2, TrainConfig(), ["tag"])

    def test_above_cutoff_block_matches_newton_oracle(self):
        # C*p weights exceed the cutoff, so this block runs batched L-BFGS
        rng = np.random.default_rng(33)
        m, d, C, lam = 300, 340, 3, 0.05
        assert C * (d + 1) > NEWTON_MAX_DIM
        X = rng.normal(size=(m, d)) / np.sqrt(d)
        Z = X @ rng.normal(size=(d, C)) * 2.0
        y = (np.cumsum(np.exp(Z) / np.exp(Z).sum(axis=1, keepdims=True), axis=1)
             < rng.random((m, 1))).sum(axis=1)
        (W,), (report,) = train_multinomial(X, y[:, None], C, TrainConfig(reg_lambda=lam), ["tag"])
        assert report.converged, report
        Z = X @ W[:, :d].T + W[:, d]
        P = np.exp(Z - logsumexp(Z, axis=1)[:, None])
        ref = newton_multinomial(X, y, C, lam)
        Zr = np.hstack([X, np.ones((m, 1))]) @ ref.T
        P_ref = np.exp(Zr - logsumexp(Zr, axis=1)[:, None])
        np.testing.assert_allclose(P, P_ref, atol=1e-4)


class TestDataset:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="feature matrix"):
            Dataset(
                s=2, d=3, features=sparse.csr_matrix(np.zeros((2, 3))),
                labels=(LabelVec((0, 1)),),
            )

    def test_label_width_mismatch(self):
        with pytest.raises(ValueError, match="tags"):
            Dataset(
                s=2, d=3, features=sparse.csr_matrix(np.zeros((1, 3))),
                labels=(LabelVec((0, 1, 1)),),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        X = np.ones((2, 3))
        X[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            Dataset(
                s=2, d=3, features=sparse.csr_matrix(X),
                labels=(LabelVec((0, 1)), LabelVec((1, 1))),
            )

    def test_observed_counts(self):
        data = Dataset(
            s=3, d=2, features=sparse.csr_matrix(np.zeros((3, 2))),
            labels=(LabelVec((0, 0, 0)), LabelVec((1, 1, 0)), LabelVec((1, 1, 1))),
        )
        assert data.observed_counts == frozenset({0, 2, 3})

    @pytest.mark.parametrize("labels", [
        np.array([[0, 2], [1, 0]]),
        np.array([[0, 1, 0], [1, 0, 0]]),
        np.array([0, 1]),
        np.array([[0.0, np.nan], [1.0, 0.0]]),
    ], ids=["value-2", "wrong-width", "one-dim", "nan"])
    def test_bad_label_arrays_rejected(self, labels):
        with pytest.raises(ValueError, match="label"):
            Dataset(s=2, d=3, features=sparse.csr_matrix(np.zeros((2, 3))), labels=labels)

    def test_empty_labels_give_an_empty_matrix(self):
        data = Dataset(s=3, d=2, features=sparse.csr_matrix((0, 2)), labels=())
        assert data.bits.shape == (0, 3) and data.bits.dtype == np.uint8
        assert data.m == 0 and data.observed_counts == frozenset()

    def test_labelvec_and_array_forms_agree(self):
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, size=(20, 4))
        X = sparse.csr_matrix(rng.normal(size=(20, 3)))
        from_array = Dataset(s=4, d=3, features=X, labels=bits)
        from_vecs = Dataset(s=4, d=3, features=X,
                            labels=tuple(LabelVec(tuple(row)) for row in bits.tolist()))
        for data in (from_array, from_vecs):
            assert data.bits.dtype == np.uint8
            np.testing.assert_array_equal(data.bits, bits)
            assert data.m == 20
            assert data.observed_counts == from_array.observed_counts
        assert from_array.observed_counts == frozenset(bits.sum(axis=1).tolist())
        assert not hasattr(from_array, "labels")

    def test_bits_are_read_only_and_not_shared(self):
        labels = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        data = Dataset(s=2, d=3, features=sparse.csr_matrix(np.zeros((2, 3))), labels=labels)
        with pytest.raises(ValueError):
            data.bits[0, 0] = 1
        labels[0, 0] = 1
        assert data.bits.tolist() == [[0, 1], [1, 1]]
