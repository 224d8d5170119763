"""Solver correctness against an independent Newton oracle, plus model behavior."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse
from scipy.special import expit, logsumexp

from fbetamax import decoding, training
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
        # Dataset rejects such input; the solvers themselves must not claim success
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, d))
        X[2, 1] = np.nan
        a = rng.integers(0, 2, size=30).astype(float)
        _, report = fit_binary_logistic(sparse.csr_matrix(X), a, TrainConfig())
        assert not report.converged
        assert not np.isfinite(report.grad_norm)

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
        monkeypatch.setattr(training_mod, "LBFGS_BLOCK_ENTRIES", 2 * (2 * 10 * p + m))
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
        monkeypatch.setattr(training, "LBFGS_BLOCK_ENTRIES", 4 * (2 * 10 * p + m))
        names = [str(c) for c in range(n)]
        W, reports = fit_logistic_columns(X, T, TrainConfig(reg_lambda=0.01), names)
        for c in range(n):
            wb, report = one_column_fits[c]
            np.testing.assert_array_equal(W[c], wb)
            assert reports[c] == report and report.converged

    @pytest.mark.parametrize("row_workers", [2], indirect=True)
    @pytest.mark.parametrize("n, want", [(4, [(0, 2), (2, 4)]), (7, [(0, 3), (3, 6), (6, 7)])])
    def test_two_workers_halve_the_width_within_the_budget(self, n, want, row_workers, monkeypatch):
        X, T, m, p = _lbfgs_problem(n)
        # one worker would take blocks of 6 columns
        budget = 6 * (2 * 10 * p + m)
        monkeypatch.setattr(training, "LBFGS_BLOCK_ENTRIES", budget)
        blocks, buffers = [], {}
        run_slices = training._run_slices

        def recording_run(piece, slices):
            blocks.extend((part.start, part.stop) for part in slices)
            run_slices(piece, slices)

        class RecordingMemory(training._LimitedMemory):
            def __init__(self, S, Y):
                # each slot is a view into the call's one S and one Y buffer
                buffers.update({id(S.base): S.base, id(Y.base): Y.base})
                super().__init__(S, Y)

        monkeypatch.setattr(training, "_run_slices", recording_run)
        monkeypatch.setattr(training, "_LimitedMemory", RecordingMemory)
        names = [str(c) for c in range(n)]
        _, reports = fit_logistic_columns(X, T, TrainConfig(reg_lambda=0.01), names)
        assert all(r.converged for r in reports)
        assert blocks == want
        width = max(stop - start for start, stop in blocks)
        assert width <= -(-n // 2)
        # two blocks at once hold their row temporaries and the slots their histories
        assert 2 * width * (2 * 10 * p + m) <= budget
        assert len(buffers) == 2
        assert sum(buf.size for buf in buffers.values()) <= budget
        assert all(buf.shape == (2, width, 10, p) for buf in buffers.values())

    def test_the_first_failing_block_is_raised(self, row_workers, monkeypatch):
        # blocks [0:4] [4:8] [8:9], [0:2] .. [8:9] or one column each: columns 4
        # and 8 fail in two blocks after the first
        X, T, m, p = _lbfgs_problem(9)
        monkeypatch.setattr(training, "LBFGS_BLOCK_ENTRIES", 4 * (2 * 10 * p + m))
        cfg = TrainConfig(reg_lambda=0.01)
        names = [str(c) for c in range(9)]
        want, want_reports = fit_logistic_columns(X, T, cfg, names)
        objective = training._logistic_objective

        def failing_objective(X, T, cfg):
            evaluate = objective(X, T, cfg)

            def checked(W, cols):
                bad = [c for c in (4, 8) if c in cols]
                if bad:
                    raise RuntimeError(f"column {bad[0]}")
                return evaluate(W, cols)

            return checked

        monkeypatch.setattr(training, "_logistic_objective", failing_objective)
        with pytest.raises(RuntimeError, match="column 4"):
            fit_logistic_columns(X, T, cfg, names)
        # the pool and the next call's buffers are unharmed
        monkeypatch.setattr(training, "_logistic_objective", objective)
        W, reports = fit_logistic_columns(X, T, cfg, names)
        np.testing.assert_array_equal(W, want)
        assert reports == want_reports


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
