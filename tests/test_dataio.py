"""Text formats: parsing, line-numbered errors, exact round trips."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import HealthCheck
from hypothesis import strategies as st
from scipy import sparse

from fbetamax.baselines import BrModel, train_br, train_efp
from fbetamax.dataio import (
    ALGORITHMS,
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
from fbetamax.dataio import _BLOCK_ROWS as B
from fbetamax.synth import build_distribution, sample_batch, to_dataset
from fbetamax.training import Dataset, LinearModel, TrainConfig, train_surrogate

B1 = BetaParam(1.0)

# doubles whose 17-digit text is easy to get wrong
SPECIAL_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1e308, -1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5,
)
FLOATS = st.one_of(
    st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
BLOCK_SIZES = (0, 1, B - 1, B, B + 1, 2 * B + 1)


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
        assert data.bits.tolist() == [[1, 0, 1], [0, 0, 0], [0, 1, 0]]
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

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "Infinity", "1e400"])
    def test_non_finite_value_names_its_line_and_token(self, tmp_path, bad):
        # the same wording as convert's, not the Dataset constructor's plain ValueError
        p = tmp_path / "nonfinite.mlsparse"
        _write(p, f"#ml-sparse v1 s=2 d=3\n1\t1:0.5\n2\t1:1 2:{bad} 3:9\n")
        with pytest.raises(DataFormatError,
                           match=f"^line 3: feature value '{bad}' is not finite$"):
            load_dataset(p)

    def test_duplicate_label_tokens_are_tolerated(self, tmp_path):
        p = tmp_path / "dup.txt"
        _write(p, "#ml-sparse v1 s=2 d=2\n1,1,2\t\n")
        assert load_dataset(p).bits.tolist() == [[1, 1]]

    @pytest.mark.parametrize("s", [10**15, 10**30])
    def test_tag_width_too_large_to_allocate_is_a_header_error(self, tmp_path, s):
        # 10^15 tags per row are ~1 PB per block, far beyond any address
        # space; 10^30 exceeds numpy's largest array size
        p = tmp_path / "wide.txt"
        _write(p, f"#ml-sparse v1 s={s} d=1\n1\t\n")
        with pytest.raises(DataFormatError, match=f"^line 1: .* s={s} tags do not fit in memory$"):
            load_dataset(p)

    def test_feature_count_beyond_any_array_axis_is_a_header_error(self, tmp_path):
        # once scipy's OverflowError, which the CLI printed as a traceback
        p = tmp_path / "wide.txt"
        _write(p, "#ml-sparse v1 s=2 d=100000000000000000000\n1\t1:1\n")
        with pytest.raises(DataFormatError,
                           match="^line 1: d=100000000000000000000 exceeds the largest array"):
            load_dataset(p)

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
        assert back.bits.tolist() == data.bits.tolist()
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_means_rejected_before_writing(self, bad, tmp_path):
        # once written as text that load_stat_probs then rejected
        rows = np.full((2, 5), 0.25)
        rows[1, 3] = bad
        p = tmp_path / "q.mlq"
        with pytest.raises(ValueError, match="finite"):
            save_stat_probs(rows, 2, p)
        assert not p.exists()

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

    def test_width_beyond_any_array_axis_is_a_header_error(self, tmp_path):
        # s^2 + 1 = 10^22 + 1 means per line
        p = tmp_path / "q.txt"
        _write(p, "#ml-q v1 s=100000000000\n")
        with pytest.raises(DataFormatError,
                           match=r"^line 1: s\*s\+1=10000000000000000000001 exceeds the largest"):
            load_stat_probs(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "z.txt"
        _write(p, "#ml-probs v1 s=2\n")
        with pytest.raises(DataFormatError, match="header"):
            load_stat_probs(p)


class TestPredictions:
    def test_round_trip_with_empty_labelings(self, tmp_path):
        bits = np.array([[1, 0, 1], [0, 0, 0], [0, 1, 0]], dtype=np.uint8)
        p = tmp_path / "pred.txt"
        save_predictions(bits, p)
        assert load_predictions(p, 3) == [LabelVec((1, 0, 1)), LabelVec((0, 0, 0)),
                                          LabelVec((0, 1, 0))]

    def test_empty_list_round_trips(self, tmp_path):
        p = tmp_path / "none.txt"
        save_predictions(np.zeros((0, 3), dtype=np.uint8), p)
        assert load_predictions(p, 3) == []

    def test_labelvec_sequence_writes_the_same_bytes(self, tmp_path):
        bits = np.random.default_rng(7).integers(0, 2, size=(9, 4)).astype(np.uint8)
        a, b = tmp_path / "a.mlpred", tmp_path / "b.mlpred"
        save_predictions(bits, a)
        save_predictions([LabelVec(tuple(row)) for row in bits.tolist()], b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("bad", [2, 0.5, np.nan])
    def test_non_bit_values_rejected_before_writing(self, tmp_path, bad):
        # each was once written as an active tag
        bits = np.zeros((2, 3))
        bits[1, 2] = bad
        p = tmp_path / "pred.txt"
        with pytest.raises(ValueError, match="0 or 1"):
            save_predictions(bits, p)
        assert not p.exists()

    def test_labelings_of_different_tag_counts_rejected_before_writing(self, tmp_path):
        p = tmp_path / "pred.txt"
        with pytest.raises(ValueError, match="^labelings have different tag counts: 2, 3$"):
            save_predictions([LabelVec((1, 0)), LabelVec((0, 1, 1))], p)
        assert not p.exists()

    def test_empty_labelvec_sequence_writes_an_empty_file(self, tmp_path):
        p = tmp_path / "pred.txt"
        save_predictions([], p)
        assert p.read_bytes() == b""

    def test_one_dimensional_bits_rejected_before_writing(self, tmp_path):
        p = tmp_path / "pred.txt"
        with pytest.raises(ValueError, match="2-d"):
            save_predictions(np.array([1, 0, 1], dtype=np.uint8), p)
        assert not p.exists()

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
        assert np.array_equal(back.weights, model.weights)
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

    def test_loading_keeps_one_copy_of_the_weights(self, tmp_path):
        # the peak is about one weight matrix; 2.13 when the model copied the matrix the
        # parse had filled
        weights = np.random.default_rng(8).normal(size=(400, 2001))
        p = tmp_path / "m.txt"
        save_model(BrModel(s=400, d=2000, weights=weights, bias=True, reg_lambda=0.0), p)
        import tracemalloc

        tracemalloc.start()
        try:
            back = load_model(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * weights.nbytes
        assert np.array_equal(back.weights, weights)
        assert not back.weights.flags.writeable

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

    @pytest.mark.parametrize(
        "algo, counts, vectors, lineno",
        [
            ("surrogate", "2,1", 5, 8),
            ("surrogate", "1,1", 5, 8),
            ("surrogate", "0,1", 3, 8),
            ("surrogate", "1,3", 5, 8),
            ("efp", "1,1", 5, 8),
            ("efp", "3", 5, 8),
            ("br", "1", 2, 8),
            ("surrogate", "1", 5, 9),
            ("surrogate", "", 2, 9),
            ("efp", "1", 3, 9),
            ("efp", "", 1, 9),
            ("br", "", 3, 9),
        ],
    )
    def test_counts_and_vectors_must_fit_the_algorithm(self, tmp_path, algo, counts,
                                                        vectors, lineno):
        # s=2: surrogate has 1 + 2|K| vectors, efp 1 + 2(1 + |K|), br 2 and no counts
        p = tmp_path / "m.txt"
        _write(
            p,
            f"#ml-model v1\nalgo={algo}\ns=2\nd=2\nbeta=1\nbias=1\nreg=0\n"
            f"counts={counts}\nvectors={vectors}\n" + "0 0 0\n" * vectors,
        )
        with pytest.raises(DataFormatError, match=f"line {lineno}"):
            load_model(p)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("s", "0", "line 3: s must be >= 1"),
            ("s", "-1", "line 3: s must be >= 1"),
            ("d", "0", "line 4: d must be >= 1"),
            ("beta", "0", "line 5: beta must be a finite positive real"),
            ("beta", "-1", "line 5: beta must be a finite positive real"),
            ("beta", "inf", "line 5: beta must be a finite positive real"),
            ("beta", "nan", "line 5: beta must be a finite positive real"),
            ("bias", "2", "line 6: bias must be 0 or 1"),
            ("bias", "-1", "line 6: bias must be 0 or 1"),
            ("reg", "-1", "line 7: reg must be a finite non-negative real"),
            ("reg", "nan", "line 7: reg must be a finite non-negative real"),
            ("reg", "inf", "line 7: reg must be a finite non-negative real"),
        ],
    )
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_header_values_must_lie_in_range(self, tmp_path, algo, key, value, message):
        fields = {"s": "1", "d": "1", "beta": "1", "bias": "1", "reg": "0"}
        fields[key] = value
        counts, vectors = {"surrogate": ("1", 2), "efp": ("1", 3), "br": ("", 1)}[algo]
        p = tmp_path / "m.txt"
        _write(
            p,
            f"#ml-model v1\nalgo={algo}\n"
            + "".join(f"{k}={v}\n" for k, v in fields.items())
            + f"counts={counts}\nvectors={vectors}\n" + "0 0\n" * vectors,
        )
        with pytest.raises(DataFormatError, match=f"^{message}$"):
            load_model(p)
        # the same file with the value in range loads
        _write(p, p.read_text().replace(f"{key}={value}\n", f"{key}=1\n"))
        assert load_model(p).weights.shape == (vectors, 2)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0 0 0\n0 0\n", "^weight vectors must have 3 entries$"),
            ("0 0 0\n0 0 0 0\n", "^weight vectors must have 3 entries$"),
            ("0 0 0\n0 x 0\n", "^bad float in model body$"),
            ("0 0 0\n0 0 0\n0 0 0\n", "^truncated model file: header promises 2 vectors, "
                                          "found 3$"),
            ("0 0 0\n", "^truncated model file: header promises 2 vectors, found 1$"),
            # a wrong row count is reported before a bad row
            ("0 x\n", "^truncated model file: header promises 2 vectors, found 1$"),
            ("0 0\n0 0 0\n0 0 0\n", "^truncated model file"),
        ],
    )
    def test_streamed_body_rejects_bad_rows(self, tmp_path, body, message):
        head = "#ml-model v1\nalgo=br\ns=2\nd=2\nbeta=1\nbias=1\nreg=0\ncounts=\nvectors=2\n"
        p = tmp_path / "m.txt"
        _write(p, head + body)
        with pytest.raises(DataFormatError, match=message):
            load_model(p)

    @pytest.mark.parametrize(
        "token",
        ["1_0", "\u0661", "1.5\r", "nan", "infinity", "1e400", "0x10", "1e", "--1", "",
         "nan(123)", "\t1", "1\x0b", "-0", "5e-324", "2.4e-324", "1.7976931348623157e308"],
    )
    def test_body_parse_agrees_with_float(self, tmp_path, token):
        line = f"0.5 {token} -1"
        p = tmp_path / "m.txt"
        _write(p, "#ml-model v1\nalgo=br\ns=1\nd=2\nbeta=1\nbias=1\nreg=0\ncounts=\n"
                  f"vectors=1\n{line}\n")
        try:
            want = np.array([[float(tok) for tok in line.split(" ")]])
        except ValueError:
            with pytest.raises(DataFormatError, match="^bad float in model body$"):
                load_model(p)
            return
        if not np.all(np.isfinite(want)):
            with pytest.raises(DataFormatError, match="^line 10: model weights must be finite$"):
                load_model(p)
            return
        assert load_model(p).weights.tobytes() == want.tobytes()

    def test_non_finite_weight_names_its_line(self, tmp_path):
        # line 10 is blank and skipped; the bad weight sits on line 12, after a good row
        p = tmp_path / "m.txt"
        _write(p, "#ml-model v1\nalgo=br\ns=2\nd=2\nbeta=1\nbias=1\nreg=0\ncounts=\n"
                  "vectors=2\n\n0 1 2\n3 -inf 5\n")
        with pytest.raises(DataFormatError, match="^line 12: model weights must be finite$"):
            load_model(p)

    def test_body_too_large_to_allocate_is_a_format_error(self, tmp_path):
        # a corrupt d must not escape as MemoryError; 8 PB exceeds any address space
        p = tmp_path / "m.txt"
        _write(p, "#ml-model v1\nalgo=br\ns=1\nd=1000000000000000\nbeta=1\nbias=1\nreg=0\n"
                  "counts=\nvectors=1\n0 0 0\n")
        with pytest.raises(DataFormatError, match="^lines 4 and 9: .* do not fit in memory$"):
            load_model(p)

    @pytest.mark.parametrize("header, message", [
        # a surrogate with no counts has one vector whatever s is
        ("algo=surrogate\ns=100000000000000000000\nd=1\nbeta=1\nbias=1\nreg=0\ncounts=\n"
         "vectors=1\n0 0\n", "^line 3: s=100000000000000000000 exceeds the largest array"),
        ("algo=br\ns=100000000000000000000\nd=1\nbeta=1\nbias=1\nreg=0\ncounts=\n"
         "vectors=100000000000000000000\n", "^line 3: s=100000000000000000000 exceeds"),
        ("algo=br\ns=1\nd=100000000000000000000\nbeta=1\nbias=1\nreg=0\ncounts=\n"
         "vectors=1\n", "^line 4: d=100000000000000000000 exceeds the largest array"),
        # each fits an axis, but 2^40 x (2^40 + 1) doubles exceed numpy's largest array
        ("algo=br\ns=1099511627776\nd=1099511627776\nbeta=1\nbias=1\nreg=0\ncounts=\n"
         "vectors=1099511627776\n", "^lines 4 and 9: .* do not fit in memory$"),
    ], ids=["surrogate-s", "br-s", "d", "vectors"])
    def test_header_sizes_beyond_numpy_are_format_errors(self, tmp_path, header, message):
        # each was once numpy's plain ValueError
        p = tmp_path / "m.txt"
        _write(p, "#ml-model v1\n" + header)
        with pytest.raises(DataFormatError, match=message):
            load_model(p)

    def test_streamed_body_skips_blank_lines(self, tmp_path):
        head = "#ml-model v1\nalgo=br\ns=2\nd=2\nbeta=1\nbias=0\nreg=0\ncounts=\nvectors=2\n"
        p = tmp_path / "m.txt"
        _write(p, head + "\n0.5 -1 2\n\n\n3 0.25 -0\n\n")
        back = load_model(p, expected_algo="br")
        assert _same_doubles(back.weights, [[0.5, -1.0, 2.0], [3.0, 0.25, -0.0]])
        assert back.bias is False
        # no final newline
        _write(p, head + "0.5 -1 2\n3 0.25 -0")
        assert _same_doubles(load_model(p).weights, back.weights)

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_saved_body_is_the_weight_matrix(self, tmp_path, algo):
        rng = np.random.default_rng(9)
        model = _trained(algo, self._data(rng, s=3), TrainConfig(reg_lambda=0.05))
        p = tmp_path / "m.mlmodel"
        save_model(model, p)
        body = [[float(v) for v in line.split(" ")] for line in p.read_text().splitlines()[9:]]
        assert _same_doubles(body, model.weights)
        assert _same_doubles(load_model(p, expected_algo=algo).weights, model.weights)

    @pytest.mark.parametrize("algo, s", [("surrogate", 33), ("br", B + 5)])
    def test_body_written_in_blocks_matches_one_string(self, tmp_path, algo, s):
        # 1 + 33^2 = 1090 surrogate rows and B + 5 BR rows: more than one write block
        rng = np.random.default_rng(12)
        W = rng.normal(size=(1 + s * s if algo == "surrogate" else s, 3))
        W[0, :2] = SPECIAL_FLOATS[:2]
        W[-1, :2] = SPECIAL_FLOATS[2:4]
        if algo == "surrogate":
            model = LinearModel(s=s, d=2, beta=B1, active_indices=SurrogateConfig.full(s, B1)
                                .active_indices, weights=W, bias=True, reg_lambda=0.01)
        else:
            model = BrModel(s=s, d=2, weights=W, bias=True, reg_lambda=0.01)
        assert len(model.weights) > B
        p = tmp_path / "m.mlmodel"
        save_model(model, p)
        data = p.read_bytes()
        header = b"".join(data.splitlines(keepends=True)[:9])
        body = "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in W.tolist())
        assert data == header + body.encode("utf-8")
        assert _same_doubles(load_model(p, expected_algo=algo).weights, W)

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_models_compare_by_identity(self, tmp_path, algo):
        rng = np.random.default_rng(10)
        data = self._data(rng, s=3)
        assert data == data and {data: 0}[data] == 0
        model = _trained(algo, data, TrainConfig(reg_lambda=0.05))
        p = tmp_path / "m.mlmodel"
        save_model(model, p)
        a, b = load_model(p), load_model(p)
        assert _same_doubles(a.weights, b.weights)
        assert (a == b) is False and (a != b) is True
        assert a == a
        assert {a: 1, b: 2}[a] == 1

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
        assert data.bits.tolist() == [[1, 1], [0, 1], [0, 0]]
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
        assert data.bits.tolist() == [[1, 1]]
        # features come out sorted by index
        np.testing.assert_array_equal(data.features.toarray(), [[0.5, 0.25]])

    def test_bad_header(self, tmp_path):
        src = tmp_path / "src.txt"
        _write(src, "3 4\n")
        with pytest.raises(DataFormatError, match="num_points"):
            convert_interchange(src, tmp_path / "dst.txt")

    @pytest.mark.parametrize("head, message", [
        ("1 100000000000000000000 2", "^line 1: d=100000000000000000000 exceeds the largest"),
        ("1 2 1000000000000000", "^line 1: 1024 rows of s=1000000000000000 tags do not fit"),
    ], ids=["d", "s"])
    def test_header_the_loader_would_refuse_is_refused(self, tmp_path, head, message):
        # each was once converted into a file that load_dataset rejects
        src, dst = tmp_path / "src.txt", tmp_path / "dst.txt"
        _write(src, f"{head}\n0 0:1\n")
        with pytest.raises(DataFormatError, match=message):
            convert_interchange(src, dst)
        assert not dst.exists()

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

    def test_failed_conversion_keeps_old_output_and_leaves_no_temporary(self, tmp_path):
        src = tmp_path / "src.txt"
        dst = tmp_path / "dst.txt"
        _write(dst, "old bytes\n")
        # the bad pair sits past the first write block
        _write(src, f"{B + 2} 3 2\n" + "0 1:0.5\n" * (B + 1) + "1 x:1\n")
        with pytest.raises(DataFormatError, match=f"^line {B + 3}: bad feature pair 'x:1'$"):
            convert_interchange(src, dst)
        assert dst.read_text() == "old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dst.txt", "src.txt"]
        # a good conversion replaces the old output
        _write(src, "1 3 2\n0 1:0.5\n")
        convert_interchange(src, dst)
        assert dst.read_text() == "#ml-sparse v1 s=2 d=3\n1\t2:0.5\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dst.txt", "src.txt"]

    @pytest.mark.parametrize("m", BLOCK_SIZES)
    def test_output_bytes_across_write_blocks(self, tmp_path, m):
        src = tmp_path / "src.txt"
        dst = tmp_path / "dst.txt"
        rows = [f"{i % 2},1 {i % 3}:{i}.5 4:-{i}" for i in range(m)]
        _write(src, f"{m} 5 2\n" + "".join(row + "\n" for row in rows))
        convert_interchange(src, dst)
        want = [f"{'1,2' if i % 2 == 0 else '2'}\t{i % 3 + 1}:{i}.5 5:-{i}" for i in range(m)]
        assert dst.read_text() == "#ml-sparse v1 s=2 d=5\n" + "".join(w + "\n" for w in want)

    def test_blank_line_is_an_empty_point(self, tmp_path):
        src = tmp_path / "src.txt"
        _write(src, "2 3 2\n0 1:0.5\n\n")
        convert_interchange(src, tmp_path / "dst.txt")
        data = load_dataset(tmp_path / "dst.txt")
        # the blank second line is a point with no labels and no features
        assert data.m == 2 and data.bits[1].tolist() == [0, 0]

    def test_out_of_range_label(self, tmp_path):
        src = tmp_path / "src.txt"
        _write(src, "1 2 2\n5 1:0.5\n")
        with pytest.raises(DataFormatError, match="label index out of range"):
            convert_interchange(src, tmp_path / "dst.txt")



# ---------------------------------------------------------------- reference
# The per-line reader and the per-row writers that the block code replaced,
# kept as the oracle that the block reader and writers must match exactly.


def _oracle_load_dataset(path):
    """(s, d, label bits, indptr, indices, values) or DataFormatError, line by line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    header = lines[0] if lines else ""
    parts = header.split()
    if (
        len(parts) != 4
        or " ".join(parts[:2]) != "#ml-sparse v1"
        or not parts[2].startswith("s=")
        or not parts[3].startswith("d=")
    ):
        raise DataFormatError("line 1: expected header '#ml-sparse v1 s=<s> d=<d>'")
    try:
        s = int(parts[2][2:])
        d = int(parts[3][2:])
    except ValueError:
        raise DataFormatError("line 1: s and d must be integers") from None
    if s < 1 or d < 1:
        raise DataFormatError("line 1: s and d must be >= 1")

    labels = []
    indptr = [0]
    col_indices = []
    values = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line == "" and lineno == len(lines):
            break  # trailing newline
        if "\t" not in line:
            raise DataFormatError(f"line {lineno}: expected '<labels>\\t<features>'")
        label_part, feat_part = line.split("\t", 1)
        bits = [0] * s
        if label_part:
            for tok in label_part.split(","):
                try:
                    j = int(tok)
                except ValueError:
                    raise DataFormatError(f"line {lineno}: bad label index {tok!r}") from None
                if not 1 <= j <= s:
                    raise DataFormatError(f"line {lineno}: label index {j} out of range 1..{s}")
                bits[j - 1] = 1
        labels.append(tuple(bits))
        prev = 0
        if feat_part:
            for tok in feat_part.split(" "):
                if ":" not in tok:
                    raise DataFormatError(f"line {lineno}: bad feature pair {tok!r}")
                idx_txt, val_txt = tok.split(":", 1)
                try:
                    idx = int(idx_txt)
                    val = float(val_txt)
                except ValueError:
                    raise DataFormatError(f"line {lineno}: bad feature pair {tok!r}") from None
                if not math.isfinite(val):
                    raise DataFormatError(f"line {lineno}: feature value {val_txt!r} is not finite")
                if not 1 <= idx <= d:
                    raise DataFormatError(
                        f"line {lineno}: feature index {idx} out of range 1..{d}"
                    )
                if idx == prev:
                    raise DataFormatError(f"line {lineno}: duplicate feature index {idx}")
                if idx < prev:
                    raise DataFormatError(
                        f"line {lineno}: feature indices must be strictly increasing"
                    )
                prev = idx
                col_indices.append(idx - 1)
                values.append(val)
        indptr.append(len(col_indices))
    return s, d, labels, indptr, col_indices, values


def _oracle_dataset_text(data: Dataset) -> str:
    feats = data.features
    out = [f"#ml-sparse v1 s={data.s} d={data.d}"]
    for i, y in enumerate(data.bits):
        row = feats.getrow(i)
        order = np.argsort(row.indices, kind="stable")
        pairs = " ".join(f"{row.indices[o] + 1}:{row.data[o]:.17g}" for o in order)
        out.append(f"{','.join(str(j) for j, b in enumerate(y, start=1) if b)}\t{pairs}")
    return "\n".join(out) + "\n"


def _oracle_float_lines(rows) -> list[str]:
    return [" ".join(f"{v:.17g}" for v in row) for row in rows]


def _trained(algo: str, data: Dataset, cfg: TrainConfig):
    if algo == "surrogate":
        return train_surrogate(data, cfg, SurrogateConfig.full(data.s, B1))
    if algo == "efp":
        return train_efp(data, cfg, B1)
    return train_br(data, cfg)


def _oracle_prediction_text(bits) -> str:
    out = [",".join(str(j) for j, b in enumerate(row, start=1) if b) for row in bits]
    return "\n".join(out) + "\n" if out else ""


def _same_doubles(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _random_dataset(rng, m, s, d, pool, min_nnz=0) -> Dataset:
    """Sorted random rows with values from pool (explicit zeros included)."""
    nnz = rng.integers(min_nnz, d + 1, size=m)
    indices = [np.sort(rng.choice(d, size=k, replace=False)) for k in nnz]
    indptr = np.concatenate([[0], np.cumsum(nnz)])
    X = sparse.csr_matrix(
        (np.array(pool)[rng.integers(0, len(pool), size=int(indptr[-1]))],
         np.concatenate([np.zeros(0, dtype=np.int64)] + indices), indptr),
        shape=(m, d),
    )
    labels = tuple(LabelVec(tuple(row)) for row in rng.integers(0, 2, size=(m, s)).tolist())
    return Dataset(s=s, d=d, features=X, labels=labels)


@functools.lru_cache(maxsize=None)
def _fuzz_base_text(m: int, seed: int) -> str:
    """A valid s=3, d=6 file with at least two features per row."""
    ds = _random_dataset(np.random.default_rng(seed), m, 3, 6, [0.5, -1.25, 3.0], min_nnz=2)
    return _oracle_dataset_text(ds)


def _assert_matches_oracle(path) -> None:
    """load_dataset gives the oracle's arrays, or raises with the oracle's message."""
    try:
        s, d, labels, indptr, col_indices, values = _oracle_load_dataset(path)
    except DataFormatError as err:
        with pytest.raises(DataFormatError) as got:
            load_dataset(path)
        assert str(got.value) == str(err)
        return
    data = load_dataset(path)
    assert (data.s, data.d) == (s, d)
    assert [tuple(row) for row in data.bits.tolist()] == labels
    assert data.features.indptr.tolist() == indptr
    assert data.features.indices.tolist() == col_indices
    assert _same_doubles(data.features.data, values)


class TestBlockedDatasetIO:
    @pytest.mark.parametrize("m", BLOCK_SIZES)
    @given(data=st.data())
    @settings(max_examples=6, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_datasets_round_trip_bit_for_bit(self, m, data, tmp_path_factory):
        s = data.draw(st.integers(1, 5), label="s")
        d = data.draw(st.integers(1, 8), label="d")
        pool = data.draw(st.lists(FLOATS, min_size=1, max_size=8), label="pool")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        ds = _random_dataset(np.random.default_rng(seed), m, s, d, pool)
        p = tmp_path_factory.mktemp("blocked") / "rt.mlsparse"
        save_dataset(ds, p)
        assert p.read_text(encoding="utf-8") == _oracle_dataset_text(ds)
        back = load_dataset(p)
        assert back.bits.tolist() == ds.bits.tolist()
        assert back.features.indptr.tolist() == ds.features.indptr.tolist()
        assert back.features.indices.tolist() == ds.features.indices.tolist()
        assert _same_doubles(back.features.data, ds.features.data)
        _assert_matches_oracle(p)

    MUTATIONS = (
        "drop_colon", "extra_colon", "repeat_token", "swap_tokens", "index_zero", "index_above_d",
        "bad_label", "blank_line", "carriage_return", "trailing_space", "non_finite_value",
    )
    NON_FINITE = ("inf", "-inf", "nan", "Infinity", "1e400")
    BAD_LABELS = ("x", "0", "9", "1,,2", ",", "-1", " 1", "1_0", "1.0", "99999999999999999999")

    @given(data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    def test_mutated_lines_match_the_reference_parser(self, data, tmp_path_factory):
        m = data.draw(st.sampled_from([5, B + 3]), label="m")
        d = 6
        lines = _fuzz_base_text(m, data.draw(st.integers(0, 3), label="seed")).split("\n")
        near_boundary = [k for k in (B - 1, B, B + 1) if k <= m]
        k = data.draw(st.one_of(st.integers(1, m), st.sampled_from(near_boundary))
                      if near_boundary else st.integers(1, m), label="line")
        labels, feats = lines[k].split("\t")
        toks = feats.split(" ")
        i = data.draw(st.integers(0, len(toks) - 1), label="token")
        what = data.draw(st.sampled_from(self.MUTATIONS), label="mutation")
        if what == "drop_colon":
            toks[i] = toks[i].replace(":", "", 1)
        elif what == "extra_colon":
            toks[i] += ":1"
        elif what == "repeat_token":
            toks.insert(i, toks[i])
        elif what == "swap_tokens":
            j = (i + 1) % len(toks)
            toks[i], toks[j] = toks[j], toks[i]
        elif what in ("index_zero", "index_above_d"):
            bad = 0 if what == "index_zero" else data.draw(st.integers(d + 1, 10 * d))
            toks[i] = f"{bad}:{toks[i].split(':')[1]}"
        elif what == "bad_label":
            labels = data.draw(st.sampled_from(self.BAD_LABELS), label="labels")
        elif what == "non_finite_value":
            value = data.draw(st.sampled_from(self.NON_FINITE), label="value")
            toks[i] = f"{toks[i].split(':')[0]}:{value}"
        line = f"{labels}\t{' '.join(toks)}"
        if what == "blank_line":
            lines.insert(k, "")
        elif what == "carriage_return":
            at = data.draw(st.integers(0, len(line)), label="at")
            lines[k] = line[:at] + "\r" + line[at:]
        elif what == "trailing_space":
            lines[k] = line + " "
        else:
            lines[k] = line
        p = tmp_path_factory.mktemp("fuzz") / "mutated.mlsparse"
        p.write_bytes("\n".join(lines).encode("utf-8"))
        _assert_matches_oracle(p)

    @pytest.mark.parametrize(
        "body, message",
        [
            # the first bad line wins, whatever check the later lines fail
            ("1\t1:0.5 1:2\n9\t1:1\n", "line 2: duplicate feature index 1"),
            ("1\t1:1\n1\t\n1\t2:1 1:1\n1\t3\n", "line 4: strictly increasing"),
            ("1\t1:1\n2\t1:x\nno tab\n", "line 3: bad feature pair '1:x'"),
            ("1\t1:1\n1\t1::1\n", "line 3: bad feature pair '1::1'"),
            ("1\t1:0.5:2\n", "line 2: bad feature pair '1:0.5:2'"),
            ("1\t1:1\n1\t1:2:3 2\n", "line 3: bad feature pair '1:2:3'"),
        ],
    )
    def test_first_bad_line_of_a_block_is_reported(self, tmp_path, body, message):
        p = tmp_path / "bad.mlsparse"
        _write(p, "#ml-sparse v1 s=2 d=2\n" + body)
        with pytest.raises(DataFormatError) as err:
            load_dataset(p)
        lineno, needle = message.split(": ", 1)
        assert str(err.value).startswith(lineno + ":")
        assert needle in str(err.value)

    def test_error_in_a_later_block_names_its_line(self, tmp_path):
        rows = ["1\t1:1"] * (B + 5)
        rows[B + 2] = "1\t2:1 1:1"
        p = tmp_path / "late.mlsparse"
        _write(p, "#ml-sparse v1 s=1 d=2\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match=f"^line {B + 4}: feature indices"):
            load_dataset(p)

    def test_missing_final_newline_and_carriage_returns(self, tmp_path):
        p = tmp_path / "crlf.mlsparse"
        p.write_bytes(b"#ml-sparse v1 s=2 d=3\r\n1,2\t1:0.5 3:2\r\n\t2:1")
        _assert_matches_oracle(p)
        data = load_dataset(p)
        assert data.bits.tolist() == [[1, 1], [0, 0]]
        np.testing.assert_array_equal(data.features.toarray(), [[0.5, 0, 2], [0, 1, 0]])


class TestCanonicalFeatures:
    def test_duplicate_entries_round_trip(self, tmp_path):
        X = sparse.csr_matrix(
            (np.array([1.0, 2.0, 3.0, 4.0]), np.array([1, 1, 2, 0]), np.array([0, 3, 4])),
            shape=(2, 3),
        )
        given_arrays = [a.copy() for a in (X.data, X.indices, X.indptr)]
        data = Dataset(s=1, d=3, features=X, labels=(LabelVec((1,)), LabelVec((0,))))
        p = tmp_path / "dup.mlsparse"
        save_dataset(data, p)
        assert p.read_text().splitlines()[1] == "1\t2:3 3:3"
        back = load_dataset(p)
        for got, want in [(back.features.indptr, data.features.indptr),
                          (back.features.indices, data.features.indices),
                          (back.features.data, data.features.data)]:
            assert got.tolist() == want.tolist()
        np.testing.assert_array_equal(back.features.toarray(), [[0, 3, 3], [4, 0, 0]])
        # the caller's matrix is left as it was
        for now, before in zip((X.data, X.indices, X.indptr), given_arrays):
            assert now.tolist() == before.tolist()
        assert not X.has_canonical_format

    def test_repeated_entries_that_sum_past_the_double_range_are_rejected(self):
        X = sparse.csr_matrix(
            (np.array([1e308, 1e308]), np.array([1, 1]), np.array([0, 2])), shape=(1, 3)
        )
        with pytest.raises(ValueError, match="feature values must be finite"):
            Dataset(s=1, d=3, features=X, labels=(LabelVec((1,)),))

    def test_canonical_features_are_kept_as_given(self):
        dist = build_distribution(0, s=6, d=100)
        dense = to_dataset(dist, sample_batch(dist, 316, stream=0))
        sparse_ds = _random_dataset(np.random.default_rng(7), 400, 5, 2000, [0.5, -1.0], 1)
        for ds in (dense, sparse_ds):
            again = Dataset(s=ds.s, d=ds.d, features=ds.features, labels=ds.bits)
            for a in ("data", "indices", "indptr"):
                assert np.shares_memory(getattr(again.features, a), getattr(ds.features, a))

    def test_entry_order_within_rows_does_not_change_training(self):
        rng = np.random.default_rng(11)
        data = _random_dataset(rng, 120, 2, 12, [0.5, -1.0, 2.0, 0.25], 1)
        X = data.features
        perm = np.concatenate(
            [rng.permutation(np.arange(a, b)) for a, b in zip(X.indptr[:-1], X.indptr[1:])]
        )
        shuffled = sparse.csr_matrix((X.data[perm], X.indices[perm], X.indptr), shape=X.shape)
        assert not shuffled.has_canonical_format
        cfg, scfg = TrainConfig(reg_lambda=0.05), SurrogateConfig.full(2, B1)
        a = train_surrogate(data, cfg, scfg)
        b = train_surrogate(Dataset(s=2, d=12, features=shuffled, labels=data.bits), cfg, scfg)
        assert a.weights.tobytes() == b.weights.tobytes()


class TestBlockedFloatFormats:
    @pytest.mark.parametrize("m", [0, 1, B + 1])
    @given(data=st.data())
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_stat_probs_round_trip_bit_for_bit(self, m, data, tmp_path_factory):
        s = data.draw(st.integers(1, 3), label="s")
        pool = data.draw(st.lists(FLOATS, min_size=1, max_size=6), label="pool")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        rows = np.array(pool)[rng.integers(0, len(pool), size=(m, s * s + 1))]
        p = tmp_path_factory.mktemp("q") / "q.mlq"
        save_stat_probs(rows, s, p)
        assert p.read_text() == "\n".join([f"#ml-q v1 s={s}"] + _oracle_float_lines(rows)) + "\n"
        assert _same_doubles(load_stat_probs(p), rows)

    def test_writers_match_per_token_17_digit_text(self, tmp_path):
        # B + 1 rows span two write blocks; row 1 has no features, and -0.0 is stored
        values = [-0.0, 5e-324, 1e308]
        m = B + 1
        nnz = [3, 0] + [1 + i % 3 for i in range(m - 2)]
        indptr = np.concatenate([[0], np.cumsum(nnz)])
        X = sparse.csr_matrix((np.resize(values, indptr[-1]),
                               np.concatenate([np.arange(k) * 2 for k in nnz]), indptr),
                              shape=(m, 6))
        bits = (np.arange(m * 2).reshape(m, 2) % 3 == 0).astype(np.uint8)
        data = Dataset(s=2, d=6, features=X, labels=bits)
        save_dataset(data, tmp_path / "a.mlsparse")
        lines = ["#ml-sparse v1 s=2 d=6"]
        for i in range(m):
            tags = ",".join(str(j + 1) for j in range(2) if bits[i, j])
            row = X.getrow(i)
            pairs = " ".join("%d:%.17g" % (j + 1, v) for j, v in zip(row.indices, row.data))
            lines.append(f"{tags}\t{pairs}")
        assert (tmp_path / "a.mlsparse").read_bytes() == ("\n".join(lines) + "\n").encode()
        assert lines[1].split("\t")[1].startswith("1:-0 ") and lines[2].endswith("\t")

        rows = np.resize(values, (m, 5))
        save_stat_probs(rows, 2, tmp_path / "a.mlq")
        body = "".join(" ".join("%.17g" % v for v in row) + "\n" for row in rows.tolist())
        assert (tmp_path / "a.mlq").read_bytes() == ("#ml-q v1 s=2\n" + body).encode()
        model = BrModel(s=m, d=4, weights=rows, bias=True, reg_lambda=0.5)
        save_model(model, tmp_path / "a.mlmodel")
        assert (tmp_path / "a.mlmodel").read_bytes().endswith(body.encode())

    @pytest.mark.parametrize("s", [0, -1])
    def test_stat_probs_reject_non_positive_s(self, tmp_path, s):
        p = tmp_path / "q.mlq"
        _write(p, f"#ml-q v1 s={s}\n0.5 0.5\n")
        with pytest.raises(DataFormatError, match="^line 1: s must be >= 1$"):
            load_stat_probs(p)

    def test_header_only_stat_probs_keep_their_width(self, tmp_path):
        p = tmp_path / "q.mlq"
        _write(p, "#ml-q v1 s=2\n")
        back = load_stat_probs(p)
        assert back.shape == (0, 5) and back.dtype == np.float64

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0.5 0.5\n0.5 inf\n0.5\nx 1\n", "line 3: values must be finite"),
            # the short and the long line together hold the right number of values
            ("0.5 0.5\n0.5\n0.5 0.5 0.5\n", "line 3: expected 2 values"),
            ("0.5 0.5\n\n0.5 0.5\n", "line 3: expected 2 values"),
            ("0.5 0.5\n0.5 0x1\n", "line 3: bad float"),
        ],
    )
    def test_first_bad_stat_prob_line_wins(self, tmp_path, body, message):
        p = tmp_path / "q.mlq"
        _write(p, "#ml-q v1 s=1\n" + body)
        with pytest.raises(DataFormatError) as err:
            load_stat_probs(p)
        assert str(err.value) == message

    @given(data=st.data())
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_model_weights_round_trip_bit_for_bit(self, data, tmp_path_factory):
        s = data.draw(st.integers(1, 3), label="s")
        d = data.draw(st.integers(1, 4), label="d")
        weights = data.draw(st.lists(FLOATS, min_size=s * (d + 1), max_size=s * (d + 1)))
        model = BrModel(s=s, d=d, weights=np.reshape(weights, (s, d + 1)), bias=True,
                        reg_lambda=0.5)
        p = tmp_path_factory.mktemp("model") / "m.mlmodel"
        save_model(model, p)
        assert p.read_text().splitlines()[9:] == _oracle_float_lines(model.weights)
        assert _same_doubles(load_model(p).weights, model.weights)

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_trained_model_bytes_match_17_digit_text(self, tmp_path, algo):
        rng = np.random.default_rng(8)
        data = TestModelRoundTrip()._data(rng, s=3)
        cfg = TrainConfig(reg_lambda=0.05)
        model = _trained(algo, data, cfg)
        p = tmp_path / "m.mlmodel"
        save_model(model, p)
        text = p.read_text()
        head = text.splitlines()[:9]
        assert text == "\n".join(head + _oracle_float_lines(model.weights)) + "\n"
        assert head[1] == f"algo={algo}"
        assert head[4:7] == [f"beta={model.beta.beta if algo != 'br' else 1.0:.17g}",
                             "bias=1", "reg=0.050000000000000003"]


class TestBlockedPredictions:
    @pytest.mark.parametrize("m", [0, 1, B + 1])
    def test_blocks_write_the_oracle_bytes(self, tmp_path, m):
        bits = np.random.default_rng(m).integers(0, 2, size=(m, 4)).astype(np.uint8)
        p = tmp_path / "a.mlpred"
        save_predictions(bits, p)
        assert p.read_text() == _oracle_prediction_text(bits.tolist())
        back = load_predictions(p, 4)
        assert [y.bits for y in back] == [tuple(row) for row in bits.tolist()]

    @pytest.mark.parametrize("tag", [0, 4, -2])
    def test_out_of_range_tag_names_the_line(self, tmp_path, tag):
        p = tmp_path / "pred.mlpred"
        _write(p, f"1,2\n\n3,{tag}\n")
        with pytest.raises(DataFormatError,
                           match=f"^line 3: tag index {tag} out of range 1..3$"):
            load_predictions(p, 3)

    def test_bad_token_after_an_out_of_range_line(self, tmp_path):
        p = tmp_path / "pred.mlpred"
        _write(p, "1\n5\nx\n")
        with pytest.raises(DataFormatError, match="^line 2: tag index 5"):
            load_predictions(p, 3)
