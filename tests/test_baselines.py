"""Count-stratified baseline and binary relevance."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse
from scipy.special import expit

from fbetamax import training
from fbetamax.baselines import BrModel, EfpModel, train_br, train_efp
from fbetamax.dataio import load_model, save_model
from fbetamax.decoding import chunk_rows, decode_rows
from fbetamax.fmeasure import BetaParam, LabelVec, StatIndex
from fbetamax.surrogate import coordinates
from fbetamax.training import Dataset, TrainConfig, multinomial_prob_rows

B1 = BetaParam(1.0)


def _dataset(rng, m=120, s=3, d=5) -> Dataset:
    X = sparse.csr_matrix(rng.normal(size=(m, d)))
    labels = tuple(LabelVec(tuple(rng.integers(0, 2, size=s))) for _ in range(m))
    return Dataset(s=s, d=d, features=X, labels=labels)


class TestEfpModel:
    def test_counts_follow_the_sample(self):
        rng = np.random.default_rng(0)
        X = sparse.csr_matrix(rng.normal(size=(6, 4)))
        labels = (
            LabelVec((0, 0, 0)), LabelVec((1, 0, 0)), LabelVec((0, 1, 0)),
            LabelVec((1, 0, 1)), LabelVec((0, 0, 0)), LabelVec((0, 1, 1)),
        )
        data = Dataset(s=3, d=4, features=X, labels=labels)
        model = train_efp(data, TrainConfig(reg_lambda=0.1), B1)
        assert model.counts == (1, 2)
        # the empty-labeling row, then one 3-class block per tag
        assert model.weights.shape == (1 + 3 * 3, 5)
        assert len(model.reports) == 1 + 3

    def test_all_empty_sample_trains_one_class_blocks(self, tmp_path):
        # K is empty: no softmax block has two classes, so none is solved
        rng = np.random.default_rng(7)
        X = sparse.csr_matrix(rng.normal(size=(3, 2)))
        data = Dataset(s=2, d=2, features=X, labels=(LabelVec((0, 0)),) * 3)
        model = train_efp(data, TrainConfig(reg_lambda=0.1), B1)
        assert model.counts == ()
        assert model.weights.shape == (1 + 2 * 1, 3)
        assert not model.weights[1:].any()
        assert [r.name for r in model.reports] == ["zero"]
        path = tmp_path / "efp.mlmodel"
        save_model(model, path)
        assert len(path.read_text().splitlines()) == 9 + 1 + 2
        back = load_model(path, expected_algo="efp")
        np.testing.assert_array_equal(back.predict_rows(X), np.zeros((3, 2), dtype=np.uint8))

    def test_per_tag_block_probabilities_sum_to_one(self):
        rng = np.random.default_rng(1)
        data = _dataset(rng)
        model = train_efp(data, TrainConfig(reg_lambda=0.05), B1)
        probs = model.stat_prob_rows(data.features[:20])
        # for each tag, inactive mass is one minus the pair-cell mass
        flats = coordinates(data.s, model.counts)[1][1:].reshape(data.s, len(model.counts))
        for j in range(data.s):
            tag_mass = probs[:, flats[j]].sum(axis=1)
            assert np.all(tag_mass <= 1.0 + 1e-9)
            assert np.all(tag_mass >= -1e-12)

    def test_unobserved_count_cells_are_zero(self):
        rng = np.random.default_rng(2)
        X = sparse.csr_matrix(rng.normal(size=(30, 4)))
        # only empty and singleton labelings: count 2+ never observed
        labels = []
        for i in range(30):
            if i % 3 == 0:
                labels.append(LabelVec((0, 0)))
            else:
                labels.append(LabelVec((1, 0)) if i % 2 else LabelVec((0, 1)))
        data = Dataset(s=2, d=4, features=X, labels=tuple(labels))
        model = train_efp(data, TrainConfig(reg_lambda=0.05), B1)
        assert model.counts == (1,)
        probs = model.stat_prob_rows(X[:5])
        for j in (1, 2):
            col = StatIndex.pair(j, 2).flat(2)
            assert np.all(probs[:, col] == 0.0)

    def test_shares_the_decoder_bit_for_bit(self):
        rng = np.random.default_rng(3)
        data = _dataset(rng, m=150)
        model = train_efp(data, TrainConfig(reg_lambda=0.05), B1)
        probs = model.stat_prob_rows(data.features)
        want, _ = decode_rows(probs, data.s, B1)
        np.testing.assert_array_equal(model.predict_rows(data.features), want)

    def test_predict_single_matches_batch(self):
        rng = np.random.default_rng(4)
        data = _dataset(rng, m=80)
        model = train_efp(data, TrainConfig(reg_lambda=0.1), B1)
        bits = model.predict_rows(data.features[:5])
        for i in range(5):
            np.testing.assert_array_equal(model.predict_rows(data.features[i]), bits[i:i + 1])

    @pytest.mark.parametrize("s", [1, 6])
    def test_chunk_boundaries_match_one_shot_assembly(self, s, monkeypatch):
        c = chunk_rows(s)
        d = 4
        rng = np.random.default_rng(950 + s)
        counts = tuple(sorted({1, s}))
        C = len(counts) + 1
        model = EfpModel(
            s=s, d=d, beta=B1, counts=counts,
            weights=rng.normal(size=(1 + s * C, d + 1)),
            bias=True, reg_lambda=0.0,
        )
        X_all = sparse.random(2 * c + 1, d, density=0.5, format="csr",
                              random_state=np.random.RandomState(s))
        # one-shot assembly over all rows; every row's arithmetic is its own
        W = model.weights
        expected = np.zeros((X_all.shape[0], s * s + 1))
        expected[:, 0] = expit(X_all @ W[0, :d] + W[0, d])
        for j in range(1, s + 1):
            probs = multinomial_prob_rows(W[1 + (j - 1) * C:1 + j * C], X_all)
            for col, k in enumerate(counts, start=1):
                expected[:, StatIndex.pair(j, k).flat(s)] = probs[:, col]
        # record the rows each scoring piece sees at once: at most one chunk
        block_rows = []
        map_rows = training._map_rows

        def recording_map(piece, m, s):
            def recorded(rows):
                block_rows.append(rows.stop - rows.start)
                piece(rows)

            map_rows(recorded, m, s)

        monkeypatch.setattr(training, "_map_rows", recording_map)
        for m in (0, 1, c - 1, c, c + 1, 2 * c + 1):
            X = X_all[:m]
            got = model.stat_prob_rows(X)
            np.testing.assert_array_equal(got, expected[:m])
            bits = model.predict_rows(X)
            assert bits.shape == (m, s)
            np.testing.assert_array_equal(bits, decode_rows(got, s, B1)[0])
        assert max(block_rows) == c

    @pytest.mark.parametrize("s", [6, 50])
    def test_row_pieces_match_one_shot_assembly(self, s, row_workers):
        c = chunk_rows(s)
        d = 4
        rng = np.random.default_rng(1600 + s)
        counts = (1, 2, s)
        C = len(counts) + 1
        model = EfpModel(
            s=s, d=d, beta=B1, counts=counts,
            weights=rng.normal(size=(1 + s * C, d + 1)),
            bias=True, reg_lambda=0.0,
        )
        X_all = sparse.random(2 * c + 1, d, density=0.5, format="csr",
                              random_state=np.random.RandomState(s))
        W = model.weights
        expected = np.zeros((X_all.shape[0], s * s + 1))
        expected[:, 0] = expit(X_all @ W[0, :d] + W[0, d])
        for j in range(1, s + 1):
            probs = multinomial_prob_rows(W[1 + (j - 1) * C:1 + j * C], X_all)
            expected[:, [StatIndex.pair(j, k).flat(s) for k in counts]] = probs[:, 1:]
        for m in (c - 1, c, c + 1, 2 * c + 1):
            np.testing.assert_array_equal(model.stat_prob_rows(X_all[:m]), expected[:m])
            np.testing.assert_array_equal(model.predict_rows(X_all[:m]),
                                          decode_rows(expected[:m], s, B1)[0])

    @pytest.mark.parametrize("counts", [(), (1,), (1, 3), (1, 2, 3, 4)])
    def test_pair_view_store_matches_fancy_index_assembly(self, counts):
        # the pair probabilities go through the (n, s, s) view of out[:, 1:];
        # the reference stores them at the flat pair positions of coordinates
        s, d = 4, 5
        c = chunk_rows(s)
        rng = np.random.default_rng(2300 + len(counts))
        model = EfpModel(
            s=s, d=d, beta=B1, counts=counts,
            weights=rng.normal(size=(1 + s * (1 + len(counts)), d + 1)),
            bias=True, reg_lambda=0.0,
        )
        X = sparse.random(c + 3, d, density=0.6, format="csr",
                          random_state=np.random.RandomState(23))
        scores = model.score_rows(X)
        m = X.shape[0]
        expected = np.zeros((m, s * s + 1))
        expected[:, 0] = expit(scores[:, 0])
        probs = training._shifted_softmax(scores[:, 1:].reshape(m, s, 1 + len(counts)))[0]
        expected[:, coordinates(s, counts)[1][1:]] = probs[:, :, 1:].reshape(m, -1)
        for n in (1, c, m):
            np.testing.assert_array_equal(model.stat_prob_rows(X[:n]), expected[:n])

    def test_validation_rejects_bad_count_order(self):
        with pytest.raises(ValueError, match="counts"):
            EfpModel(
                s=2, d=1, beta=B1, counts=(2, 1),
                weights=np.zeros((1 + 2 * 3, 2)),
                bias=True, reg_lambda=0.0,
            )

    @pytest.mark.parametrize("counts", [(1.5,), (True,), (1, 2.0)])
    def test_validation_rejects_non_integer_counts(self, counts):
        with pytest.raises(ValueError, match="counts must be integers"):
            EfpModel(
                s=2, d=1, beta=B1, counts=counts,
                weights=np.zeros((1 + 2 * (1 + len(counts)), 2)),
                bias=True, reg_lambda=0.0,
            )

    def test_validation_rejects_bad_block_shape(self):
        # rows for 3-class blocks, but counts=(1,) makes 2-class blocks: 1 + 2*2 rows
        with pytest.raises(ValueError, match=r"weights must have shape \(5, 2\)"):
            EfpModel(
                s=2, d=1, beta=B1, counts=(1,),
                weights=np.zeros((1 + 2 * 3, 2)),
                bias=True, reg_lambda=0.0,
            )


    def test_every_block_converges_on_the_ladder_task(self):
        # s=6, d=100, m=316, reg 1e-4, no bias: the benchmark's fit task, on
        # which L-BFGS-B used to stop at max_iters on 6 of the 7 blocks
        from fbetamax.synth import build_distribution, sample_batch, to_dataset

        dist = build_distribution(0, s=6, d=100)
        data = to_dataset(dist, sample_batch(dist, 316, stream=0))
        model = train_efp(data, TrainConfig(reg_lambda=1e-4, bias=False), B1)
        assert len(model.reports) == 1 + data.s
        for report in model.reports:
            assert report.converged, report
            assert report.grad_norm <= 1e-6


class TestBrModel:
    def test_threshold_is_score_sign(self):
        # score exactly 0 counts as active (probability one half)
        model = BrModel(
            s=2, d=2,
            weights=np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 0.5]]),
            bias=True, reg_lambda=0.0,
        )
        x = np.array([1.0, 2.0])
        scores = model.score_rows(x)[0]
        assert scores[0] == 0.0
        np.testing.assert_array_equal(model.predict_rows(x), [[1, 1 if scores[1] >= 0 else 0]])

    def test_training_recovers_strong_marginals(self):
        # well-separated tags should be predicted nearly perfectly in-sample
        rng = np.random.default_rng(6)
        m, s, d = 300, 2, 4
        X = rng.normal(size=(m, d))
        W = rng.normal(size=(s, d)) * 3.0
        bits = (X @ W.T > 0).astype(np.uint8)
        data = Dataset(
            s=s, d=d, features=sparse.csr_matrix(X),
            labels=tuple(LabelVec(tuple(row)) for row in bits),
        )
        model = train_br(data, TrainConfig(reg_lambda=1e-3))
        agree = (model.predict_rows(data.features) == bits).mean()
        assert agree > 0.97

    def test_ignores_structure_on_exclusive_tags(self):
        # every marginal below one half collapses binary relevance to empty
        rng = np.random.default_rng(7)
        m, s, d = 400, 4, 3
        X = sparse.csr_matrix(rng.normal(size=(m, d)) * 0.01)
        picks = rng.integers(0, s + 1, size=m)  # 0 means no tag
        labels = []
        for p in picks:
            bits = [0] * s
            if p >= 1:
                bits[p - 1] = 1
            labels.append(LabelVec(tuple(bits)))
        data = Dataset(s=s, d=d, features=X, labels=tuple(labels))
        model = train_br(data, TrainConfig(reg_lambda=1e-3))
        preds = model.predict_rows(X)
        assert preds.sum() == 0

    def test_report_names_cover_tags(self):
        rng = np.random.default_rng(8)
        data = _dataset(rng, m=50, s=3)
        model = train_br(data, TrainConfig())
        assert [r.name for r in model.reports] == ["tag 1", "tag 2", "tag 3"]

    def test_empty_dataset_rejected(self):
        data_empty = Dataset(
            s=1, d=1, features=sparse.csr_matrix((0, 1)), labels=()
        )
        with pytest.raises(ValueError, match="empty"):
            train_br(data_empty, TrainConfig())
        with pytest.raises(ValueError, match="empty"):
            train_efp(data_empty, TrainConfig(), B1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("form", ["dense", "sparse"])
def test_models_reject_non_finite_features(bad, form):
    rng = np.random.default_rng(3)
    efp = EfpModel(s=2, d=3, beta=B1, counts=(1, 2), weights=rng.normal(size=(1 + 2 * 3, 4)),
                   bias=True, reg_lambda=0.0)
    br = BrModel(s=2, d=3, weights=rng.normal(size=(2, 4)), bias=True, reg_lambda=0.0)
    X = np.array([[0.5, 0.0, 1.0], [0.0, bad, 0.0]])
    if form == "sparse":
        X = sparse.csr_matrix(X)
    for call in (efp.stat_prob_rows, efp.predict_rows, br.score_rows, br.predict_rows):
        with pytest.raises(ValueError, match="feature values must be finite"):
            call(X)
