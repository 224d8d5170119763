"""Decoder: worked cases, oracle equivalence, tie rules, scaling."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbetamax import decoding
from fbetamax.decoding import MAX_BRUTE_S, chunk_rows, decode_brute, decode_rows
from fbetamax.fmeasure import (
    BetaParam,
    LabelVec,
    all_labelings,
    expected_fbeta,
    label_stats,
    label_stats_matrix,
    loss_coeffs_matrix,
)
from fbetamax.surrogate import SurrogateConfig
from fbetamax.training import LinearModel
from conftest import random_valid_means

B1 = BetaParam(1.0)
BETAS = (BetaParam(0.5), BetaParam(1.0), BetaParam(2.0))
# distinct rows tiled over a batch; no chunk_rows(s) tested is a multiple of
# it, so consecutive chunks start on different rows
CYCLE = 37


def boundary_sizes(s: int) -> list[int]:
    """Batch sizes at and around the decoder's row-chunk boundaries."""
    c = chunk_rows(s)
    return [0, 1, c - 1, c, c + 1, 2 * c + 1]


def tie_heavy_means(s: int, rng: np.random.Generator) -> np.ndarray:
    """Entries in {0, 1/2, 1}; in half the rows several tags share one per-count column."""
    halves = np.array([0.0, 0.5, 1.0])
    if rng.random() < 0.5:
        return rng.choice(halves, size=s * s + 1)
    columns = rng.choice(halves, size=(int(rng.integers(1, s + 1)), s))
    per_tag = columns[rng.integers(0, columns.shape[0], size=s)]
    return np.concatenate([rng.choice(halves, size=1), per_tag.ravel()])


def _brute_objective(q: np.ndarray, yhat: LabelVec, beta: BetaParam) -> float:
    return -expected_fbeta(q, yhat, beta)


def decode_one(q: np.ndarray, s: int, beta: BetaParam) -> LabelVec:
    """decode_rows on the single row q, as a labeling comparable with decode_brute."""
    bits, _ = decode_rows(q[None, :], s, beta)
    return LabelVec(tuple(bits[0].tolist()))


class TestWorkedCases:
    def test_single_tag_prefers_the_likely_tag(self):
        # q0 = 0.2, q11 = 0.8: predicting the tag scores 0.8 vs 0.2 for empty
        q = np.array([0.2, 0.8])
        got = decode_one(q, 1, B1)
        assert got == LabelVec((1,))
        assert expected_fbeta(q, got, B1) == pytest.approx(0.8, abs=1e-15)

    def test_single_tag_prefers_empty_when_likelier(self):
        q = np.array([0.8, 0.2])
        assert decode_one(q, 1, B1) == LabelVec((0,))

    def test_point_mass_is_recovered(self):
        for beta in BETAS:
            for bits in [(0, 1, 1, 0), (1, 1, 1, 1), (0, 0, 0, 0), (1, 0, 0, 0)]:
                y = LabelVec(bits)
                q = label_stats(y)
                got = decode_one(q, y.s, beta)
                assert got == y, (beta.beta, bits)

    def test_empty_wins_exact_tie(self):
        # -q0 = -0.5 ties the best single-tag value; both decoders keep empty
        q = np.array([0.5, 0.5, 0.0, 0.0, 0.0])
        assert decode_one(q, 2, B1) == LabelVec((0, 0))
        assert decode_brute(q, 2, B1) == LabelVec((0, 0))

    def test_same_size_tie_keeps_smaller_tags(self):
        # tags 2 and 3 score alike; both decoders keep tag 1 and the smaller of the pair
        q = np.array([0.0, 0.5, 0.5, 0.5, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        assert decode_one(q, 3, BetaParam(0.5)) == LabelVec((1, 1, 0))
        assert decode_brute(q, 3, BetaParam(0.5)) == LabelVec((1, 1, 0))

    def test_tie_across_sizes_keeps_fewer_tags(self):
        # sizes 2 and 3 both reach -67/30 in exact arithmetic, but their
        # rounded sums differ; both decoders must still keep the smaller size
        q = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        assert decode_one(q, 3, B1) == LabelVec((1, 1, 0))
        assert decode_brute(q, 3, B1) == LabelVec((1, 1, 0))
        assert decode_rows(q[None, :], 3, B1)[1][0] == pytest.approx(-67 / 30, rel=1e-15)

    @pytest.mark.parametrize("s", [20, 50])
    def test_alike_tags_fill_from_the_smallest_index(self, s):
        # each tag takes one of three per-count columns, with mass on the
        # smallest counts; the decoded labeling must hold a prefix of every
        # group of alike tags, and some groups are only partly chosen
        rng = np.random.default_rng(s)
        n = 300
        group = rng.integers(0, 3, size=(n, s))
        columns = np.zeros((n, 3, s))
        columns[:, :, :5] = rng.uniform(size=(n, 3, 5)) * (np.arange(5) < rng.integers(2, 6, size=(n, 1, 1)))
        per_tag = np.take_along_axis(columns, group[:, :, None], axis=1)
        q = np.concatenate([rng.uniform(0.0, 0.2, size=(n, 1)), per_tag.reshape(n, s * s)], axis=1)
        partial = 0
        for beta in BETAS:
            bits, _ = decode_rows(q, s, beta)
            for g in range(3):
                members = np.where(group == g, bits, 2)
                for row in members:
                    row = row[row < 2]
                    assert np.all(row[:-1] >= row[1:])
                    partial += 0 < row.sum() < row.size
        assert partial > 0

    def test_batch_matches_single(self):
        rng = np.random.default_rng(11)
        s = 5
        rows = np.stack([random_valid_means(s, rng) for _ in range(40)])
        bits, objs = decode_rows(rows, s, B1)
        for i in range(rows.shape[0]):
            one = decode_one(rows[i], s, B1)
            assert tuple(int(b) for b in bits[i]) == one.bits
            assert objs[i] == pytest.approx(_brute_objective(rows[i], one, B1), abs=1e-12)


class TestOracleEquivalence:
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 6, 8])
    @pytest.mark.parametrize("beta", BETAS, ids=lambda b: f"beta{b.beta:g}")
    def test_fast_matches_enumeration(self, s, beta):
        rng = np.random.default_rng(1000 + s)
        for _ in range(40):
            q = random_valid_means(s, rng)
            fast = decode_one(q, s, beta)
            brute = decode_brute(q, s, beta)
            fo = _brute_objective(q, fast, beta)
            bo = _brute_objective(q, brute, beta)
            assert abs(fo - bo) <= 1e-9
            assert fast == brute

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_fast_never_worse_than_any_labeling(self, data):
        s = data.draw(st.integers(1, 5))
        seed = data.draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        q = random_valid_means(s, rng)
        bits, objs = decode_rows(q[None, :], s, B1)
        all_objs = loss_coeffs_matrix(all_labelings(s), B1) @ q
        assert objs[0] <= all_objs.min() + 1e-12

    def test_decoding_exact_means_is_bayes_optimal(self):
        # with the true conditional q, no labeling beats the decoder's output
        rng = np.random.default_rng(7)
        for s in (2, 3, 4):
            bits = all_labelings(s)
            stats = label_stats_matrix(bits)
            for beta in BETAS:
                for _ in range(20):
                    p = rng.dirichlet(np.ones(1 << s))
                    q = stats.T @ p
                    got = decode_one(q, s, beta)
                    best = max(
                        expected_fbeta(q, LabelVec(tuple(int(b) for b in row)), beta)
                        for row in bits
                    )
                    assert expected_fbeta(q, got, beta) >= best - 1e-12

    def test_half_integer_sweep_matches_enumeration(self):
        # {0, 1/2, 1} entries make exact ties, across sizes and within them, common
        rng = np.random.default_rng(0)
        for s in range(1, 9):
            for beta in BETAS:
                Q = rng.choice([0.0, 0.5, 1.0], size=(450, s * s + 1))
                bits, _ = decode_rows(Q, s, beta)
                brute = np.array([decode_brute(q, s, beta).bits for q in Q])
                np.testing.assert_array_equal(bits, brute, err_msg=f"s={s} beta={beta.beta}")


class TestChunkBoundaries:
    @pytest.mark.parametrize("s", [1, 6, 50])
    def test_rows_match_one_row_decodes(self, s):
        rng = np.random.default_rng(500 + s)
        base = np.stack([random_valid_means(s, rng) for _ in range(CYCLE)])
        one_bits = np.array([decode_one(q, s, B1).bits for q in base])
        one_objs = np.array([decode_rows(q[None, :], s, B1)[1][0] for q in base])
        for m in boundary_sizes(s):
            cycle = np.arange(m) % CYCLE
            bits, objs = decode_rows(base[cycle], s, B1)
            assert bits.dtype == np.uint8 and bits.shape == (m, s) and objs.shape == (m,)
            np.testing.assert_array_equal(bits, one_bits[cycle])
            np.testing.assert_array_equal(objs, one_objs[cycle])

    @pytest.mark.parametrize("s", [1, 6])
    @pytest.mark.parametrize("beta", BETAS, ids=lambda b: f"beta{b.beta:g}")
    def test_tie_heavy_rows_match_enumeration(self, s, beta):
        rng = np.random.default_rng(700 + s)
        base = np.stack([tie_heavy_means(s, rng) for _ in range(CYCLE)])
        brute = np.array([decode_brute(q, s, beta).bits for q in base])
        for m in boundary_sizes(s):
            cycle = np.arange(m) % CYCLE
            bits, _ = decode_rows(base[cycle], s, beta)
            np.testing.assert_array_equal(bits, brute[cycle])


def cumsum_decode(P: np.ndarray, s: int, beta: BetaParam) -> tuple[np.ndarray, np.ndarray]:
    """decode_rows with every prefix sum of the sorted per-size scores, from np.cumsum."""
    n = P.shape[0]
    tags = np.arange(s)
    T = np.ascontiguousarray(
        (P[:, 1:].reshape(n, s, s) @ decoding._coeff_table(s, beta)).transpose(0, 2, 1))
    prefix = np.cumsum(np.sort(T, axis=2), axis=2)
    objs = np.concatenate([-P[:, :1], prefix[:, tags, tags]], axis=1)
    best = objs.min(axis=1, keepdims=True)
    choice = np.argmax(objs <= best + decoding.TIE_RTOL * np.abs(best), axis=1)
    order = np.argsort(T[np.arange(n), np.maximum(choice, 1) - 1], axis=1, kind="stable")
    bits = np.zeros((n, s), dtype=np.uint8)
    np.put_along_axis(bits, order, (tags[None, :] < choice[:, None]).astype(np.uint8), axis=1)
    return bits, objs[np.arange(n), choice]


class TestPrefixSums:
    @pytest.mark.parametrize("s", [1, 2, 6, 50])
    @pytest.mark.parametrize("beta", BETAS, ids=lambda b: f"beta{b.beta:g}")
    @pytest.mark.parametrize("row_workers", [1, 2], indirect=True)
    def test_bits_and_objectives_match_a_full_cumsum(self, s, beta, row_workers):
        rng = np.random.default_rng(1700 + s)
        base = np.stack([random_valid_means(s, rng) for _ in range(CYCLE)]
                        + [tie_heavy_means(s, rng) for _ in range(CYCLE)])
        # past one chunk at s = 6 and 50, so two workers decode it in pieces
        P = base[np.arange(min(chunk_rows(s) + 1, 30000)) % len(base)]
        bits, objs = decode_rows(P, s, beta)
        ref_bits, ref_objs = cumsum_decode(P, s, beta)
        np.testing.assert_array_equal(bits, ref_bits)
        assert objs.tobytes() == ref_objs.tobytes()


def run_script(body: str) -> str:
    """Run a Python script in a fresh interpreter, on this fbetamax; return its standard output."""
    src = str(Path(decoding.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(body)], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestRowPieces:
    @pytest.mark.parametrize("s", [6, 50])
    def test_tie_heavy_rows_match_one_row_decodes(self, s, row_workers):
        rng = np.random.default_rng(1300 + s)
        base = np.stack([tie_heavy_means(s, rng) for _ in range(CYCLE)])
        one = [decode_rows(q[None, :], s, B1) for q in base]
        one_bits = np.concatenate([bits for bits, _ in one])
        one_objs = np.concatenate([objs for _, objs in one])
        for m in boundary_sizes(s):
            cycle = np.arange(m) % CYCLE
            bits, objs = decode_rows(base[cycle], s, B1)
            np.testing.assert_array_equal(bits, one_bits[cycle])
            np.testing.assert_array_equal(objs, one_objs[cycle])

    @pytest.mark.parametrize("first, second, needle", [
        (np.nan, 1.5, "finite"), (1.5, np.nan, r"\[0, 1\]"),
    ])
    def test_the_earlier_bad_piece_is_reported(self, first, second, needle, row_workers):
        # rows in different chunks, so in different pieces at every worker count
        s = 50
        c = chunk_rows(s)
        rng = np.random.default_rng(1400)
        base = np.stack([random_valid_means(s, rng) for _ in range(CYCLE)])
        P = base[np.arange(2 * c + 1) % CYCLE]
        P[0, 5], P[c + c // 2, 7] = first, second
        with pytest.raises(ValueError, match=needle):
            decode_rows(P, s, B1)

    def test_the_first_failing_piece_wins_a_race(self, row_workers):
        # the later piece fails first; a serial pass would still raise the earlier one
        s = 50
        c = chunk_rows(s)
        started = []

        def piece(rows: slice) -> None:
            started.append(rows.start)
            if rows.start == 0:
                time.sleep(0.05)
                raise ValueError("earlier")
            if rows.start <= c + c // 2 < rows.stop:
                raise ValueError("later")

        with pytest.raises(ValueError, match="earlier"):
            decoding._map_rows(piece, 4 * c + 1, s)
        # pieces are taken in row order, and new ones stop after a failure
        assert started == sorted(started) and max(started) < 3 * c

    def test_a_chunk_is_checked_whole_whatever_its_pieces(self, row_workers):
        # as in a serial pass, a NaN anywhere in the first bad chunk wins over a range error
        s = 50
        c = chunk_rows(s)
        rng = np.random.default_rng(1401)
        base = np.stack([random_valid_means(s, rng) for _ in range(CYCLE)])
        P = base[np.arange(2 * c + 1) % CYCLE]
        P[0, 3], P[c - 1, 9] = 1.5, np.nan
        with pytest.raises(ValueError, match="finite"):
            decode_rows(P, s, B1)

    @pytest.mark.parametrize("row_workers", [2, 4], indirect=True)
    def test_one_chunk_starts_no_thread(self, row_workers, monkeypatch):
        started = []

        class CountingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(decoding.threading, "Thread", CountingThread)
        s, d = 50, 3
        scfg = SurrogateConfig.full(s, B1)
        model = LinearModel(s=s, d=d, beta=B1, active_indices=scfg.active_indices,
                            weights=np.zeros((s * s + 1, d + 1)), bias=True, reg_lambda=0.0)
        probs = model.stat_prob_rows(np.ones((chunk_rows(s), d)))
        decode_rows(probs, s, B1)
        assert started == []
        # a two-chunk batch runs in quarter-chunk pieces on one helper thread
        # per extra worker, and each has ended when the call returns
        decode_rows(np.vstack([probs, probs]), s, B1)
        assert len(started) == row_workers - 1
        assert not any(thread.is_alive() for thread in started)

    def test_no_helper_thread_outlives_the_call(self, row_workers):
        before = threading.active_count()
        counts = []

        def piece(rows: slice) -> None:
            counts.append(threading.active_count())
            time.sleep(0.001)

        decoding._run_slices(piece, decoding._slices(20, 1))
        assert len(counts) == 20 and max(counts) <= before + row_workers - 1
        assert threading.active_count() == before

        def failing(rows: slice) -> None:
            time.sleep(0.001)
            if rows.start == 3:
                raise ValueError("piece 3")

        with pytest.raises(ValueError, match="piece 3"):
            decoding._run_slices(failing, decoding._slices(20, 1))
        assert threading.active_count() == before

    def test_forked_child_decodes_a_multi_chunk_batch(self):
        # helper threads start per call, so a child forked after a threaded
        # decode needs none of its parent's threads
        out = run_script("""
            import os, signal, warnings
            import numpy as np
            from fbetamax import decoding
            from fbetamax.fmeasure import BetaParam
            warnings.simplefilter("ignore")
            decoding._WORKERS = 2
            P = np.full((3 * decoding.chunk_rows(6), 37), 0.01)
            want = decoding.decode_rows(P, 6, BetaParam(1.0))[0]
            pid = os.fork()
            if pid == 0:
                signal.alarm(60)
                bits = decoding.decode_rows(P, 6, BetaParam(1.0))[0]
                os._exit(0 if np.array_equal(bits, want) else 1)
            print(os.waitpid(pid, 0)[1])
        """)
        assert out.split() == ["0"]


class TestValidation:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="0, 1"):
            decode_rows(np.array([[-0.01, 1.01]]), 1, B1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            decode_rows(np.array([[np.nan, 0.5]]), 1, B1)

    @pytest.mark.parametrize("bad, needle", [
        (np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"),
        (1.5, r"\[0, 1\]"), (-0.5, r"\[0, 1\]"),
    ])
    @pytest.mark.parametrize("col", [0, 1, 50 * 50])
    def test_rows_reject_a_bad_entry_in_the_last_chunk(self, bad, needle, col):
        s = 50
        m = 2 * chunk_rows(s) + 1
        rng = np.random.default_rng(900)
        base = np.stack([random_valid_means(s, rng) for _ in range(CYCLE)])
        P = base[np.arange(m) % CYCLE]
        P[-1, col] = bad
        with pytest.raises(ValueError, match=needle):
            decode_rows(P, s, B1)

    def test_tolerates_tiny_overshoot(self):
        q = np.array([-1e-10, 1.0 + 1e-10])
        assert decode_one(q, 1, B1) == LabelVec((1,))

    def test_rows_shape_check(self):
        with pytest.raises(ValueError, match="shape"):
            decode_rows(np.zeros((3, 4)), 2, B1)

    def test_rows_reject_no_tags(self):
        with pytest.raises(ValueError, match="s must be >= 1"):
            decode_rows(np.zeros((3, 1)), 0, B1)

    def test_brute_shape_check(self):
        with pytest.raises(ValueError, match="shape"):
            decode_brute(np.zeros(4), 2, B1)

    def test_brute_refuses_huge_s(self):
        s = MAX_BRUTE_S + 1
        q = np.zeros(s * s + 1)
        q[0] = 1.0
        with pytest.raises(ValueError, match="brute"):
            decode_brute(q, s, B1)


class TestScaling:
    def test_large_s_stays_fast(self):
        # cubic decode at s = 101 should be essentially instant
        s = 101
        rng = np.random.default_rng(0)
        mix = rng.dirichlet(np.ones(8))
        bits = (rng.random((8, s)) < 0.1).astype(np.uint8)
        q = label_stats_matrix(bits).T @ mix
        start = time.perf_counter()
        out_bits, objs = decode_rows(q[None, :], s, B1)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.05
        assert out_bits.shape == (1, s)
        assert np.isfinite(objs).all()

    def test_chunked_enumeration_agrees(self):
        # s = 13 fits one enumeration chunk, s = 15 spans two
        for s in (13, 15):
            rng = np.random.default_rng(3)
            q = random_valid_means(s, rng)
            assert decode_brute(q, s, B1) == decode_one(q, s, B1)
            # all-zero means tie every labeling at 0, and the empty one wins
            empty = np.zeros(s * s + 1)
            assert decode_brute(empty, s, B1) == decode_one(empty, s, B1) == LabelVec((0,) * s)
