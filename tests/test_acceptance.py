"""Release gate: every promised behavior checked at its stated tolerance.

One test per criterion, each printing a single [acceptance] summary line;
`pytest -v` therefore shows one pass/fail line per criterion.  The two
expensive learning-curve runs come from session fixtures and are shared
with the rest of the suite.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from fbetamax.decoding import decode_brute, decode_rows
from fbetamax.evaluation import (
    DEFAULT_REG_GRID,
    cross_validate,
    evaluate_bits,
)
from fbetamax.fmeasure import (
    BetaParam,
    LabelVec,
    all_labelings,
    expected_fbeta,
    fbeta,
    label_stats_matrix,
    loss_coeffs_matrix,
)
from fbetamax.losses import pointwise_binary_regret, sigmoid
from fbetamax.surrogate import SurrogateConfig, surrogate_gradient, surrogate_loss
from fbetamax.training import TrainConfig, train_surrogate
from conftest import ACCEPT_SEED, LADDER_SIZES, random_valid_means

BETAS = (0.5, 1.0, 2.0)


def _gate(label: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def _labelvec_rows(bits: np.ndarray) -> list[LabelVec]:
    return [LabelVec(tuple(int(b) for b in row)) for row in bits]


def test_criterion_1_rank_identity():
    # exhaustive <a_y, b_yhat> = -F_beta over s <= 5, three betas, 1e-12
    start = time.perf_counter()
    worst = 0.0
    for s in range(1, 6):
        bits = all_labelings(s)
        ys = _labelvec_rows(bits)
        stats = label_stats_matrix(bits)
        for b in BETAS:
            beta = BetaParam(b)
            inner = stats @ loss_coeffs_matrix(bits, beta).T
            direct = np.array(
                [[fbeta(y, yhat, beta) for yhat in ys] for y in ys]
            )
            worst = max(worst, float(np.max(np.abs(inner + direct))))
    elapsed = time.perf_counter() - start
    _gate(
        "criterion 1, rank identity",
        worst <= 1e-12 and elapsed < 5.0,
        f"max |<a,b> + F| = {worst:.3g}, {elapsed:.2f}s",
    )


def test_criterion_2_decode_oracle_equivalence():
    # 1000 random valid means per s in 1..12, three betas: the cubic decoder
    # attains the enumerated optimum within 1e-9
    start = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = 0.0
    for s in range(1, 13):
        Q = np.stack([random_valid_means(s, rng) for _ in range(1000)])
        enum_bits = all_labelings(s)
        for b in BETAS:
            beta = BetaParam(b)
            _, fast_obj = decode_rows(Q, s, beta)
            brute_obj = (Q @ loss_coeffs_matrix(enum_bits, beta).T).min(axis=1)
            worst = max(worst, float(np.max(np.abs(fast_obj - brute_obj))))
            for i in range(0, 1000, 100):
                got = decode_brute(Q[i], s, beta)
                assert -expected_fbeta(Q[i], got, beta) == pytest.approx(
                    brute_obj[i], abs=1e-12
                )
    elapsed = time.perf_counter() - start
    _gate(
        "criterion 2, decode-oracle equivalence",
        worst <= 1e-9 and elapsed < 60.0,
        f"max objective gap = {worst:.3g}, {elapsed:.1f}s",
    )


def test_criterion_3_learning_curve_convergence(ladder):
    # s=6, d=100, sizes 100..10000, test 15000: final gap <= 0.02 with at
    # most one inversion along the curve, inside 10 minutes
    rows, elapsed = ladder
    assert tuple(r.m for r in rows) == LADDER_SIZES
    gaps = [r.f1_bayes - r.f1_surrogate for r in rows]
    inversions = sum(1 for a, b in zip(gaps, gaps[1:]) if b > a + 1e-12)
    ok = gaps[-1] <= 0.02 and inversions <= 1 and elapsed < 600.0
    _gate(
        "criterion 3, learning-curve convergence",
        ok,
        f"final gap = {gaps[-1]:.4f}, inversions = {inversions}, {elapsed:.0f}s",
    )


def test_criterion_4_regret_transfer_bound(ladder):
    rows, _ = ladder
    violations = [
        (r.m, r.f_regret, r.regret_bound) for r in rows if not r.bound_ok
    ]
    worst_margin = min(r.regret_bound - r.f_regret for r in rows)
    _gate(
        "criterion 4, regret transfer bound",
        not violations,
        f"violations = {violations or 'none'}, smallest margin = {worst_margin:.4f}",
    )


def test_criterion_5_expected_f_identity():
    # 200 random label distributions per s <= 4: the linear form in the
    # statistic means reproduces the enumerated expectation to 1e-12
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = 0.0
    for s in range(1, 5):
        bits = all_labelings(s)
        ys = _labelvec_rows(bits)
        stats = label_stats_matrix(bits)
        P = rng.dirichlet(np.ones(1 << s), size=200)
        Qm = P @ stats
        for b in BETAS:
            beta = BetaParam(b)
            direct = np.array(
                [[fbeta(y, yhat, beta) for yhat in ys] for y in ys]
            )
            via_means = -(Qm @ loss_coeffs_matrix(bits, beta).T)
            enumerated = P @ direct
            worst = max(worst, float(np.max(np.abs(via_means - enumerated))))
    _gate(
        "criterion 5, expected-F identity",
        worst <= 1e-12,
        f"max |linear form - enumeration| = {worst:.3g}",
    )


def test_criterion_6_strong_properness_and_gradient():
    # grid inequality regret >= 2 (sigmoid(u) - q)^2 with zero violations,
    # and the decomposable-loss gradient matches finite differences
    qs = np.arange(1, 100) / 100.0
    us = np.arange(-100, 101) / 10.0
    regret = pointwise_binary_regret(qs[:, None], us[None, :])
    violations = int(np.sum(regret < 2.0 * (sigmoid(us[None, :]) - qs[:, None]) ** 2))

    rng = np.random.default_rng(ACCEPT_SEED)
    s = 4
    cfg = SurrogateConfig.full(s, BetaParam(1.0))
    y = LabelVec((1, 0, 1, 0))
    u = rng.uniform(-3.0, 3.0, size=s * s + 1)
    grad = surrogate_gradient(y, u, cfg)
    h = 1e-5
    worst_rel = 0.0
    for i in range(s * s + 1):
        up, dn = u.copy(), u.copy()
        up[i] += h
        dn[i] -= h
        fd = (surrogate_loss(y, up, cfg) - surrogate_loss(y, dn, cfg)) / (2.0 * h)
        worst_rel = max(worst_rel, abs(fd - grad[i]) / max(1e-8, abs(grad[i])))
    _gate(
        "criterion 6, strong properness and gradient",
        violations == 0 and worst_rel <= 1e-5,
        f"grid violations = {violations}, max FD relative error = {worst_rel:.3g}",
    )


def test_criterion_7_estimator_agreement(ladder):
    rows, _ = ladder
    last = rows[-1]
    f_gap = abs(last.f1_surrogate - last.f1_efp)
    ok = f_gap <= 0.02 and last.mae_surrogate <= 0.05 and last.mae_efp <= 0.05
    _gate(
        "criterion 7, estimator agreement at m=10000",
        ok,
        f"|F1 difference| = {f_gap:.4f}, mean abs errors = "
        f"{last.mae_surrogate:.4f} / {last.mae_efp:.4f}",
    )


def test_criterion_8_margin_over_binary_relevance(adversarial_run):
    row = adversarial_run
    margin = row.f1_surrogate - row.f1_br
    _gate(
        "criterion 8, margin over binary relevance",
        margin >= 0.05,
        f"surrogate F1 {row.f1_surrogate:.4f} vs BR F1 {row.f1_br:.4f}, "
        f"margin = {margin:.4f}",
    )


def test_every_learning_curve_solve_converged(ladder, adversarial_run):
    # all five ladder sizes and the adversarial run: every subproblem of
    # every algorithm passed its gradient test
    rows = [*ladder[0], adversarial_run]
    assert all(set(r.unconverged) == {"surrogate", "efp", "br"} for r in rows)
    failed = [
        f"m={r.m} {algo} {name}"
        for r in rows
        for algo, names in r.unconverged.items()
        for name in names
    ]
    _gate(
        "learning-curve solver convergence",
        not failed,
        f"unconverged = {failed or 'none'} over {len(rows)} runs",
    )


def test_criterion_9_reference_dataset_f1():
    # optional end-to-end check on a supplied converted benchmark split
    root = os.environ.get("FBETAMAX_SCENE_DIR")
    if not root:
        pytest.skip("set FBETAMAX_SCENE_DIR to a dir with train/test .mlsparse files")
    from fbetamax.dataio import load_dataset

    train = load_dataset(os.path.join(root, "train.mlsparse"))
    test = load_dataset(os.path.join(root, "test.mlsparse"))
    beta = BetaParam(1.0)

    def fit(sub, reg):
        scfg = SurrogateConfig.for_counts(sub.s, sorted(sub.observed_counts), beta)
        return train_surrogate(sub, TrainConfig(reg_lambda=reg), scfg)

    best, _ = cross_validate(
        train, fit, DEFAULT_REG_GRID, folds=5, beta=beta, seed=ACCEPT_SEED
    )
    model = fit(train, best)
    rep = evaluate_bits(model.predict_rows(test.features), test.bits, beta)
    _gate(
        "criterion 9, reference dataset F1",
        abs(rep.mean_f - 0.7445) <= 0.05,
        f"mean F1 = {rep.mean_f:.4f} (target 0.7445 +/- 0.05), reg = {best:g}",
    )
