"""Decoder: worked cases, oracle equivalence, tie rules, scaling."""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbetamax.decoding import (
    MAX_BRUTE_S,
    DecodeInput,
    chunk_rows,
    decode_brute,
    decode_fast,
    decode_rows,
)
from fbetamax.fmeasure import (
    BetaParam,
    LabelVec,
    StatVec,
    all_labelings,
    expected_fbeta,
    label_stats,
    label_stats_matrix,
    loss_coeffs_matrix,
)
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


def _brute_objective(q: StatVec, yhat: LabelVec, beta: BetaParam) -> float:
    return -expected_fbeta(q, yhat, beta)


class TestWorkedCases:
    def test_single_tag_prefers_the_likely_tag(self):
        # q0 = 0.2, q11 = 0.8: predicting the tag scores 0.8 vs 0.2 for empty
        q = StatVec(1, np.array([0.2, 0.8]))
        got = decode_fast(DecodeInput(q, B1))
        assert got == LabelVec((1,))
        assert expected_fbeta(q, got, B1) == pytest.approx(0.8, abs=1e-15)

    def test_single_tag_prefers_empty_when_likelier(self):
        q = StatVec(1, np.array([0.8, 0.2]))
        assert decode_fast(DecodeInput(q, B1)) == LabelVec((0,))

    def test_point_mass_is_recovered(self):
        for beta in BETAS:
            for bits in [(0, 1, 1, 0), (1, 1, 1, 1), (0, 0, 0, 0), (1, 0, 0, 0)]:
                y = LabelVec(bits)
                q = label_stats(y)
                got = decode_fast(DecodeInput(q, beta))
                assert got == y, (beta.beta, bits)

    def test_empty_wins_exact_tie(self):
        # -q0 = -0.5 ties the best single-tag value; both decoders keep empty
        q = StatVec(2, np.array([0.5, 0.5, 0.0, 0.0, 0.0]))
        inp = DecodeInput(q, B1)
        assert decode_fast(inp) == LabelVec((0, 0))
        assert decode_brute(inp) == LabelVec((0, 0))

    def test_same_size_tie_keeps_smaller_tags(self):
        # tags 2 and 3 score alike; both decoders keep tag 1 and the smaller of the pair
        q = StatVec(3, np.array([0.0, 0.5, 0.5, 0.5, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0]))
        inp = DecodeInput(q, BetaParam(0.5))
        assert decode_fast(inp) == LabelVec((1, 1, 0))
        assert decode_brute(inp) == LabelVec((1, 1, 0))

    def test_tie_across_sizes_keeps_fewer_tags(self):
        # sizes 2 and 3 both reach -67/30 in exact arithmetic, but their
        # rounded sums differ; both decoders must still keep the smaller size
        q = StatVec(3, np.array([0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0]))
        inp = DecodeInput(q, B1)
        assert decode_fast(inp) == LabelVec((1, 1, 0))
        assert decode_brute(inp) == LabelVec((1, 1, 0))
        assert decode_rows(q.entries[None, :], 3, B1)[1][0] == pytest.approx(-67 / 30, rel=1e-15)

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
            one = decode_fast(DecodeInput(StatVec(s, rows[i]), B1))
            assert tuple(int(b) for b in bits[i]) == one.bits
            assert objs[i] == pytest.approx(
                _brute_objective(StatVec(s, rows[i]), one, B1), abs=1e-12
            )


class TestOracleEquivalence:
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 6, 8])
    @pytest.mark.parametrize("beta", BETAS, ids=lambda b: f"beta{b.beta:g}")
    def test_fast_matches_enumeration(self, s, beta):
        rng = np.random.default_rng(1000 + s)
        for _ in range(40):
            q = StatVec(s, random_valid_means(s, rng))
            inp = DecodeInput(q, beta)
            fast = decode_fast(inp)
            brute = decode_brute(inp)
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
                    q = StatVec(s, stats.T @ p)
                    got = decode_fast(DecodeInput(q, beta))
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
                brute = np.array([decode_brute(DecodeInput(StatVec(s, q), beta)).bits for q in Q])
                np.testing.assert_array_equal(bits, brute, err_msg=f"s={s} beta={beta.beta}")


class TestChunkBoundaries:
    @pytest.mark.parametrize("s", [1, 6, 50])
    def test_rows_match_one_row_decodes(self, s):
        rng = np.random.default_rng(500 + s)
        base = np.stack([random_valid_means(s, rng) for _ in range(CYCLE)])
        one_bits = np.array([decode_fast(DecodeInput(StatVec(s, q), B1)).bits for q in base])
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
        brute = np.array([decode_brute(DecodeInput(StatVec(s, q), beta)).bits for q in base])
        for m in boundary_sizes(s):
            cycle = np.arange(m) % CYCLE
            bits, _ = decode_rows(base[cycle], s, beta)
            np.testing.assert_array_equal(bits, brute[cycle])


class TestValidation:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="0, 1"):
            DecodeInput(StatVec(1, np.array([-0.01, 1.01])), B1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            DecodeInput(StatVec(1, np.array([np.nan, 0.5])), B1)

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
        q = StatVec(1, np.array([-1e-10, 1.0 + 1e-10]))
        assert decode_fast(DecodeInput(q, B1)) == LabelVec((1,))

    def test_rows_shape_check(self):
        with pytest.raises(ValueError, match="shape"):
            decode_rows(np.zeros((3, 4)), 2, B1)

    def test_brute_refuses_huge_s(self):
        s = MAX_BRUTE_S + 1
        q = np.zeros(s * s + 1)
        q[0] = 1.0
        with pytest.raises(ValueError, match="brute"):
            decode_brute(DecodeInput(StatVec(s, q), B1))


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
        # s above the cache cutoff exercises the streaming oracle path
        s = 13
        rng = np.random.default_rng(3)
        q = StatVec(s, random_valid_means(s, rng))
        inp = DecodeInput(q, B1)
        assert decode_brute(inp) == decode_fast(inp)
        # all-zero means tie every labeling at 0, and the empty one wins
        empty = DecodeInput(StatVec(s, np.zeros(s * s + 1)), B1)
        assert decode_brute(empty) == decode_fast(empty) == LabelVec((0,) * s)
