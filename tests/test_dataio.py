"""Text formats: parsing, line-numbered errors, exact round trips."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from fbetamax.baselines import train_br, train_efp
from fbetamax.dataio import (
    DataFormatError,
    convert_interchange,
    load_dataset,
    load_model,
    load_predictions,
    load_stat_probs,
    save_dataset,
    save_model,
    save_predictions,
    save_stat_probs,
)
from fbetamax.fmeasure import BetaParam, LabelVec
from fbetamax.surrogate import SurrogateConfig
from fbetamax.training import Dataset, TrainConfig, train_surrogate

B1 = BetaParam(1.0)


def _write(path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


class TestLoadDataset:
    def test_parses_a_small_file(self, tmp_path):
        p = tmp_path / "toy.txt"
        _write(
            p,
            "#ml-sparse v1 s=3 d=4\n"
            "1,3\t2:0.5 4:-1.25\n"
            "\t1:2\n"
            "2\t\n",
        )
        data = load_dataset(p)
        assert (data.s, data.d, data.m) == (3, 4, 3)
        assert data.labels == (
            LabelVec((1, 0, 1)), LabelVec((0, 0, 0)), LabelVec((0, 1, 0))
        )
        dense = data.features.toarray()
        np.testing.assert_array_equal(
            dense,
            [[0.0, 0.5, 0.0, -1.25], [2.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
        )

    @pytest.mark.parametrize(
        "content,lineno,needle",
        [
            ("#ml-sparse v2 s=2 d=2\n", 1, "header"),
            ("#ml-sparse v1 s=2\n", 1, "header"),
            ("#ml-sparse v1 s=x d=2\n", 1, "integers"),
            ("#ml-sparse v1 s=0 d=2\n", 1, ">= 1"),
            ("#ml-sparse v1 s=2 d=2\n1,2 1:0.5\n", 2, "expected"),
            ("#ml-sparse v1 s=2 d=2\nx\t1:0.5\n", 2, "bad label"),
            ("#ml-sparse v1 s=2 d=2\n3\t1:0.5\n", 2, "out of range"),
            ("#ml-sparse v1 s=2 d=2\n1\t1=0.5\n", 2, "bad feature"),
            ("#ml-sparse v1 s=2 d=2\n1\t1:zz\n", 2, "bad feature"),
            ("#ml-sparse v1 s=2 d=2\n1\t5:0.5\n", 2, "out of range"),
            ("#ml-sparse v1 s=2 d=2\n1\t1:0.5 1:0.5\n", 2, "duplicate"),
            ("#ml-sparse v1 s=2 d=2\n1\t2:0.5 1:0.5\n", 2, "strictly increasing"),
            ("#ml-sparse v1 s=2 d=2\n\t1:1\n2\t2:1 1:1\n", 3, "strictly increasing"),
        ],
    )
    def test_errors_carry_line_numbers(self, tmp_path, content, lineno, needle):
        p = tmp_path / "bad.txt"
        _write(p, content)
        with pytest.raises(DataFormatError) as err:
            load_dataset(p)
        assert f"line {lineno}" in str(err.value)
        assert needle in str(err.value)

    def test_duplicate_label_tokens_are_tolerated(self, tmp_path):
        p = tmp_path / "dup.txt"
        _write(p, "#ml-sparse v1 s=2 d=2\n1,1,2\t\n")
        assert load_dataset(p).labels == (LabelVec((1, 1)),)

    def test_header_only_file_is_empty_dataset_error(self, tmp_path):
        # zero rows cannot form a Dataset downstream, but loading is exact
        p = tmp_path / "empty.txt"
        _write(p, "#ml-sparse v1 s=2 d=2\n")
        data = load_dataset(p)
        assert data.m == 0


class TestDatasetRoundTrip:
    def test_fixed_example(self, tmp_path):
        X = sparse.csr_matrix(
            np.array([[0.1, 0.0, -3.5], [0.0, 0.0, 0.0], [1e-300, 2.0, 0.0]])
        )
        data = Dataset(
            s=2, d=3, features=X,
            labels=(LabelVec((1, 0)), LabelVec((0, 0)), LabelVec((1, 1))),
        )
        p = tmp_path / "round.txt"
        save_dataset(data, p)
        back = load_dataset(p)
        assert back.labels == data.labels
        np.testing.assert_array_equal(back.features.toarray(), X.toarray())

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_floats_survive_bit_exactly(self, data, tmp_path_factory):
        vals = data.draw(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0.0),
                min_size=1, max_size=6,
            )
        )
        d = len(vals)
        ds = Dataset(
            s=1, d=d,
            features=sparse.csr_matrix(np.array([vals])),
            labels=(LabelVec((1,)),),
        )
        p = tmp_path_factory.mktemp("rt") / "f.txt"
        save_dataset(ds, p)
        back = load_dataset(p)
        got = back.features.toarray()[0]
        assert got.tolist() == vals  # bitwise identical doubles


class TestStatProbSidecar:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = rng.random((5, 10))
        p = tmp_path / "q.txt"
        save_stat_probs(rows, 3, p)
        back = load_stat_probs(p)
        np.testing.assert_array_equal(back, rows)

    def test_width_is_checked_on_save_and_load(self, tmp_path):
        with pytest.raises(ValueError, match="shape"):
            save_stat_probs(np.zeros((2, 7)), 3, tmp_path / "x.txt")
        p = tmp_path / "y.txt"
        _write(p, "#ml-q v1 s=2\n0.5 0.5\n")
        with pytest.raises(DataFormatError, match="expected 5 values"):
            load_stat_probs(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, tmp_path, bad):
        p = tmp_path / "q.txt"
        _write(p, f"#ml-q v1 s=1\n0.5 0.5\n{bad} 0.5\n")
        with pytest.raises(DataFormatError, match="line 3: values must be finite"):
            load_stat_probs(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "z.txt"
        _write(p, "#ml-probs v1 s=2\n")
        with pytest.raises(DataFormatError, match="header"):
            load_stat_probs(p)


class TestPredictions:
    def test_round_trip_with_empty_labelings(self, tmp_path):
        labelings = [LabelVec((1, 0, 1)), LabelVec((0, 0, 0)), LabelVec((0, 1, 0))]
        p = tmp_path / "pred.txt"
        save_predictions(labelings, p)
        assert load_predictions(p, 3) == labelings

    def test_empty_list_round_trips(self, tmp_path):
        p = tmp_path / "none.txt"
        save_predictions([], p)
        assert load_predictions(p, 3) == []

    def test_bad_token(self, tmp_path):
        p = tmp_path / "bad.txt"
        _write(p, "1,x\n")
        with pytest.raises(DataFormatError, match="line 1"):
            load_predictions(p, 3)


class TestModelRoundTrip:
    def _data(self, rng, m=60, s=2, d=4) -> Dataset:
        X = sparse.csr_matrix(rng.normal(size=(m, d)))
        labels = tuple(LabelVec(tuple(rng.integers(0, 2, s))) for _ in range(m))
        return Dataset(s=s, d=d, features=X, labels=labels)

    def test_surrogate_model(self, tmp_path):
        rng = np.random.default_rng(1)
        data = self._data(rng)
        model = train_surrogate(
            data, TrainConfig(reg_lambda=0.05), SurrogateConfig.full(2, B1)
        )
        p = tmp_path / "m.txt"
        save_model(model, p)
        back = load_model(p, expected_algo="surrogate")
        assert np.array_equal(back.weights, model.weights)
        assert back.active_indices == model.active_indices
        assert (back.bias, back.reg_lambda) == (model.bias, model.reg_lambda)
        X = rng.normal(size=(20, 4))
        np.testing.assert_array_equal(back.predict_rows(X), model.predict_rows(X))

    def test_surrogate_model_partial_counts(self, tmp_path):
        rng = np.random.default_rng(5)
        data = self._data(rng, s=3, d=5)
        model = train_surrogate(
            data, TrainConfig(reg_lambda=0.05),
            SurrogateConfig.for_counts(3, [1, 3], B1),
        )
        p = tmp_path / "m.txt"
        save_model(model, p)
        back = load_model(p)
        assert back.active_indices == model.active_indices

    def test_efp_model(self, tmp_path):
        rng = np.random.default_rng(2)
        data = self._data(rng)
        model = train_efp(data, TrainConfig(reg_lambda=0.05), BetaParam(2.0))
        p = tmp_path / "m.txt"
        save_model(model, p)
        back = load_model(p, expected_algo="efp")
        assert back.counts == model.counts
        assert back.beta.beta == 2.0
        assert np.array_equal(back.zero_weights, model.zero_weights)
        assert np.array_equal(back.label_weights, model.label_weights)
        X = rng.normal(size=(20, 4))
        np.testing.assert_array_equal(back.predict_rows(X), model.predict_rows(X))

    def test_br_model(self, tmp_path):
        rng = np.random.default_rng(3)
        data = self._data(rng)
        model = train_br(data, TrainConfig(reg_lambda=0.05))
        p = tmp_path / "m.txt"
        save_model(model, p)
        back = load_model(p, expected_algo="br")
        assert np.array_equal(back.weights, model.weights)
        X = rng.normal(size=(20, 4))
        np.testing.assert_array_equal(back.predict_rows(X), model.predict_rows(X))

    def test_algo_mismatch(self, tmp_path):
        rng = np.random.default_rng(4)
        model = train_br(self._data(rng), TrainConfig())
        p = tmp_path / "m.txt"
        save_model(model, p)
        with pytest.raises(DataFormatError, match="mismatch"):
            load_model(p, expected_algo="surrogate")

    def test_truncated_body(self, tmp_path):
        rng = np.random.default_rng(6)
        model = train_br(self._data(rng), TrainConfig())
        p = tmp_path / "m.txt"
        save_model(model, p)
        lines = p.read_text().splitlines()
        _write(p, "\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataFormatError, match="truncated"):
            load_model(p)

    def test_unknown_algo_tag(self, tmp_path):
        p = tmp_path / "m.txt"
        _write(
            p,
            "#ml-model v1\nalgo=forest\ns=2\nd=2\nbeta=1\nbias=1\nreg=0\n"
            "counts=\nvectors=0\n",
        )
        with pytest.raises(DataFormatError, match="unknown algorithm"):
            load_model(p)

    def test_missing_header_field(self, tmp_path):
        p = tmp_path / "m.txt"
        _write(p, "#ml-model v1\nalgo=br\ns=2\nd=2\n")
        with pytest.raises(DataFormatError, match="line 5"):
            load_model(p)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "m.txt"
        _write(p, "#ml-model v2\n")
        with pytest.raises(DataFormatError, match="line 1"):
            load_model(p)


class TestConvertInterchange:
    def test_zero_based_conversion(self, tmp_path):
        src = tmp_path / "src.txt"
        dst = tmp_path / "dst.txt"
        _write(
            src,
            "3 4 2\n"
            "0,1 0:0.5 3:1.5\n"
            "1 2:2\n"
            "0:7\n",
        )
        convert_interchange(src, dst)
        data = load_dataset(dst)
        assert (data.s, data.d, data.m) == (2, 4, 3)
        assert data.labels == (LabelVec((1, 1)), LabelVec((0, 1)), LabelVec((0, 0)))
        dense = data.features.toarray()
        np.testing.assert_array_equal(
            dense,
            [[0.5, 0.0, 0.0, 1.5], [0.0, 0.0, 2.0, 0.0], [7.0, 0.0, 0.0, 0.0]],
        )

    def test_one_based_passthrough(self, tmp_path):
        src = tmp_path / "src.txt"
        dst = tmp_path / "dst.txt"
        _write(src, "1 2 2\n1,2 2:0.25 1:0.5\n")
        convert_interchange(src, dst, zero_based=False)
        data = load_dataset(dst)
        assert data.labels == (LabelVec((1, 1)),)
        # features come out sorted by index
        np.testing.assert_array_equal(data.features.toarray(), [[0.5, 0.25]])

    def test_bad_header(self, tmp_path):
        src = tmp_path / "src.txt"
        _write(src, "3 4\n")
        with pytest.raises(DataFormatError, match="num_points"):
            convert_interchange(src, tmp_path / "dst.txt")

    @pytest.mark.parametrize(
        "body, lineno, needle",
        [
            ("0 1:0.5\n", 3, "declares 2 points, file holds 1"),
            ("0 1:0.5\n1 0:1\n0 0:2\n", 4, "declares 2 points, file holds 3"),
            ("0 1:0.5\n1 0:1 1\n", 3, "bad feature pair '1'"),
            ("0 1:0.5\n1 x:1\n", 3, "bad feature pair 'x:1'"),
            ("0 1:abc\n1 0:1\n", 2, "bad feature pair '1:abc'"),
            ("0 1:0.5\n1 0:inf\n", 3, "not finite"),
            ("0 1:nan\n1 0:1\n", 2, "not finite"),
            ("0 1:0.5 1:0.25\n1 0:1\n", 2, "duplicate feature index 1"),
            ("0,x 1:0.5\n1 0:1\n", 2, "bad label index"),
        ],
    )
    def test_malformed_rows_carry_line_numbers(self, tmp_path, body, lineno, needle):
        src = tmp_path / "src.txt"
        _write(src, "2 3 2\n" + body)
        dst = tmp_path / "dst.txt"
        with pytest.raises(DataFormatError) as err:
            convert_interchange(src, dst)
        assert f"line {lineno}:" in str(err.value)
        assert needle in str(err.value)
        assert not dst.exists()

    def test_blank_line_is_an_empty_point(self, tmp_path):
        src = tmp_path / "src.txt"
        _write(src, "2 3 2\n0 1:0.5\n\n")
        convert_interchange(src, tmp_path / "dst.txt")
        data = load_dataset(tmp_path / "dst.txt")
        # the blank second line is a point with no labels and no features
        assert data.m == 2 and data.labels[1] == LabelVec((0, 0))

    def test_out_of_range_label(self, tmp_path):
        src = tmp_path / "src.txt"
        _write(src, "1 2 2\n5 1:0.5\n")
        with pytest.raises(DataFormatError, match="label index out of range"):
            convert_interchange(src, tmp_path / "dst.txt")
