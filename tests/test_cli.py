"""End-to-end command pipeline on small synthetic tasks."""

from __future__ import annotations

import numpy as np
import pytest

from fbetamax.cli import (
    CONSISTENCY_CSV_COLUMNS,
    _parse_grid,
    _parse_sizes,
    build_parser,
    main,
    run_consistency,
)
from fbetamax.dataio import load_dataset, load_predictions


def _run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SYNTH = ("synth", "--seed", "0", "--s", "3", "--d", "12",
         "--train-size", "300", "--test-size", "200")


class TestPipeline:
    def test_synth_train_predict_evaluate(self, tmp_path, capsys):
        out = str(tmp_path / "task")
        code, stdout, _ = _run(capsys, *SYNTH, "--out-dir", out)
        assert code == 0
        train_path = f"{out}/train.mlsparse"
        test_path = f"{out}/test.mlsparse"
        assert "train.mlsparse" in stdout
        data = load_dataset(train_path)
        assert (data.s, data.d, data.m) == (3, 12, 300)

        model_path = str(tmp_path / "model.txt")
        code, stdout, _ = _run(
            capsys, "train", "--algo", "surrogate", "--input", train_path,
            "--reg", "0.001", "--model-out", model_path,
        )
        assert code == 0
        assert "converged=yes" in stdout

        pred_path = str(tmp_path / "pred.txt")
        code, stdout, _ = _run(
            capsys, "predict", "--model", model_path, "--input", test_path,
            "--out", pred_path,
        )
        assert code == 0
        preds = load_predictions(pred_path, 3)
        assert len(preds) == 200

        report_path = str(tmp_path / "report.csv")
        code, stdout, _ = _run(
            capsys, "evaluate", "--pred", pred_path, "--input", test_path,
            "--out", report_path,
        )
        assert code == 0
        assert "mean_f=" in stdout
        mean_f = float(
            next(l for l in stdout.splitlines() if l.startswith("mean_f=")).split("=")[1]
        )
        assert 0.0 <= mean_f <= 1.0
        header, row = (tmp_path / "report.csv").read_text().splitlines()
        assert header.startswith("m_test,mean_f")
        assert row.startswith("200,")

    @pytest.mark.parametrize("algo", ["efp", "br"])
    def test_other_algorithms_round_trip(self, tmp_path, capsys, algo):
        out = str(tmp_path / "task")
        _run(capsys, *SYNTH, "--out-dir", out)
        model_path = str(tmp_path / "model.txt")
        code, _, _ = _run(
            capsys, "train", "--algo", algo, "--input", f"{out}/train.mlsparse",
            "--model-out", model_path,
        )
        assert code == 0
        pred_path = str(tmp_path / "pred.txt")
        code, _, _ = _run(
            capsys, "predict", "--model", model_path,
            "--input", f"{out}/test.mlsparse", "--out", pred_path,
        )
        assert code == 0
        assert len(load_predictions(pred_path, 3)) == 200

    @pytest.mark.parametrize("algo", ["surrogate", "efp", "br"])
    def test_empty_dataset_gives_empty_predictions(self, tmp_path, capsys, algo):
        out = str(tmp_path / "task")
        _run(capsys, *SYNTH, "--out-dir", out)
        model_path = str(tmp_path / "model.txt")
        _run(capsys, "train", "--algo", algo, "--input", f"{out}/train.mlsparse",
             "--model-out", model_path)
        empty = tmp_path / "empty.mlsparse"
        empty.write_text("#ml-sparse v1 s=3 d=12\n")
        pred_path = tmp_path / "pred.txt"
        code, stdout, err = _run(
            capsys, "predict", "--model", model_path, "--input", str(empty),
            "--out", str(pred_path),
        )
        assert code == 0, err
        assert "(0 predictions)" in stdout
        assert pred_path.read_text() == ""

    def test_pipeline_is_deterministic(self, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            _run(capsys, *SYNTH, "--out-dir", out)
            model_path = str(tmp_path / f"model_{name}.txt")
            _run(
                capsys, "train", "--algo", "surrogate",
                "--input", f"{out}/train.mlsparse", "--model-out", model_path,
            )
            pred_path = str(tmp_path / f"pred_{name}.txt")
            _run(
                capsys, "predict", "--model", model_path,
                "--input", f"{out}/test.mlsparse", "--out", pred_path,
            )
            outs.append(
                (
                    (tmp_path / name / "train.mlsparse").read_bytes(),
                    (tmp_path / f"model_{name}.txt").read_bytes(),
                    (tmp_path / f"pred_{name}.txt").read_bytes(),
                )
            )
        assert outs[0] == outs[1]

    def test_full_k_trains_every_count(self, tmp_path, capsys):
        out = str(tmp_path / "task")
        _run(capsys, *SYNTH, "--out-dir", out)
        model_path = str(tmp_path / "model.txt")
        code, stdout, _ = _run(
            capsys, "train", "--algo", "surrogate", "--full-k",
            "--input", f"{out}/train.mlsparse", "--model-out", model_path,
        )
        assert code == 0
        # s = 3: zero slot + 9 pairs
        assert stdout.count("subproblem") == 10


class TestConvert:
    def test_zero_and_one_based_dumps(self, tmp_path, capsys):
        src = tmp_path / "dump.txt"
        src.write_text("2 3 2\n0,1 0:0.5 2:1.5\n1 1:2\n")
        dst = tmp_path / "out.mlsparse"
        code, out, _ = _run(capsys, "convert", str(src), str(dst))
        assert code == 0 and out == f"wrote {dst}\n"
        assert dst.read_text() == "#ml-sparse v1 s=2 d=3\n1,2\t1:0.5 3:1.5\n2\t2:2\n"
        src.write_text("1 3 2\n2 3:4\n")
        code, _, _ = _run(capsys, "convert", str(src), str(dst), "--one-based")
        assert code == 0
        data = load_dataset(dst)
        assert data.bits.tolist() == [[0, 1]]
        np.testing.assert_array_equal(data.features.toarray(), [[0, 0, 4]])

    def test_malformed_dump_exits_1_and_writes_nothing(self, tmp_path, capsys):
        src = tmp_path / "dump.txt"
        src.write_text("2 3 2\n0 0:0.5\n")
        dst = tmp_path / "out.mlsparse"
        code, _, err = _run(capsys, "convert", str(src), str(dst))
        assert code == 1
        assert err == "error: line 3: header declares 2 points, file holds 1\n"
        assert not dst.exists()


class TestErrorPaths:
    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = _run(
            capsys, "train", "--algo", "br", "--input", str(tmp_path / "nope.txt"),
            "--model-out", str(tmp_path / "m.txt"),
        )
        assert code == 1
        assert err.startswith("error:")

    def test_too_few_features_for_synth(self, tmp_path, capsys):
        code, _, err = _run(
            capsys, "synth", "--s", "3", "--d", "5", "--out-dir", str(tmp_path / "x"),
        )
        assert code == 1
        assert "features" in err

    def test_malformed_dataset(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("#ml-sparse v1 s=2 d=2\n1 2\n")
        code, _, err = _run(
            capsys, "train", "--algo", "br", "--input", str(bad),
            "--model-out", str(tmp_path / "m.txt"),
        )
        assert code == 1
        assert "line 2" in err

    def test_non_finite_features_rejected(self, tmp_path, capsys):
        bad = tmp_path / "nonfinite.mlsparse"
        bad.write_text("#ml-sparse v1 s=2 d=2\n1\t1:nan 2:inf\n2\t1:0.5\n\t2:1\n")
        model_path = tmp_path / "m.txt"
        code, stdout, err = _run(
            capsys, "train", "--algo", "surrogate", "--input", str(bad),
            "--model-out", str(model_path),
        )
        assert code == 1
        assert "finite" in err
        assert "objective=nan" not in stdout
        assert not model_path.exists()

    def test_unconverged_training_writes_no_model(self, tmp_path, capsys, monkeypatch):
        from functools import partial

        import fbetamax.cli as cli_mod
        from fbetamax.training import TrainConfig

        out = str(tmp_path / "task")
        _run(capsys, *SYNTH, "--out-dir", out)
        # one Newton step cannot reach the default gradient tolerance
        monkeypatch.setattr(cli_mod, "TrainConfig", partial(TrainConfig, max_iters=1))
        model_path = tmp_path / "m.txt"
        code, stdout, err = _run(
            capsys, "train", "--algo", "br", "--input", f"{out}/train.mlsparse",
            "--model-out", str(model_path),
        )
        assert code == 1
        assert "converged=NO" in stdout
        assert err.startswith("error:")
        assert "did not converge" in err and "tag 1" in err
        assert not model_path.exists()

    def test_model_dataset_dimension_mismatch(self, tmp_path, capsys):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        _run(capsys, *SYNTH, "--out-dir", out_a)
        _run(capsys, "synth", "--seed", "1", "--s", "3", "--d", "14",
             "--train-size", "50", "--test-size", "20", "--out-dir", out_b)
        model_path = str(tmp_path / "m.txt")
        _run(capsys, "train", "--algo", "br", "--input", f"{out_a}/train.mlsparse",
             "--model-out", model_path)
        code, _, err = _run(
            capsys, "predict", "--model", model_path,
            "--input", f"{out_b}/test.mlsparse", "--out", str(tmp_path / "p.txt"),
        )
        assert code == 1
        assert "dimensions" in err

    def test_prediction_count_mismatch(self, tmp_path, capsys):
        out = str(tmp_path / "task")
        _run(capsys, *SYNTH, "--out-dir", out)
        short = tmp_path / "short.txt"
        short.write_text("1\n2\n")
        code, _, err = _run(
            capsys, "evaluate", "--pred", str(short),
            "--input", f"{out}/test.mlsparse",
        )
        assert code == 1
        assert "2 predictions for 200 instances" in err


class TestConsistencyCommand:
    def test_tiny_ladder_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "curve.csv"
        code, stdout, _ = _run(
            capsys, "consistency", "--seed", "0", "--sizes", "60,120",
            "--out", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ",".join(CONSISTENCY_CSV_COLUMNS)
        assert len(lines) == 3
        assert lines[1].startswith("60,")
        assert lines[2].startswith("120,")
        assert "final gap" in stdout

    def test_run_consistency_fields_are_coherent(self):
        rows = run_consistency(seed=3, sizes=(80,), test_size=300, s=3, d=12)
        row = rows[0]
        assert 0.0 <= row.f1_surrogate <= 1.0
        assert row.f_regret >= -1e-12  # expected F of the optimum is never beaten
        assert row.psi_regret >= 0.0
        assert row.regret_bound >= 0.0
        assert 0.0 <= row.efp_agreement <= 1.0
        assert row.f_regret <= row.regret_bound + 1e-9
        assert row.bound_ok

    def test_rows_carry_convergence_per_algorithm(self):
        rows = run_consistency(seed=3, sizes=(80, 160), test_size=300, s=3, d=12)
        for row in rows:
            assert row.unconverged == {"surrogate": (), "efp": (), "br": ()}

    def test_unconverged_solve_fails_and_writes_no_csv(self, tmp_path, capsys, monkeypatch):
        from functools import partial

        import fbetamax.cli as cli_mod
        from fbetamax.training import TrainConfig

        # one Newton step cannot reach the default gradient tolerance; a small
        # task keeps the run short
        monkeypatch.setattr(cli_mod, "TrainConfig", partial(TrainConfig, max_iters=1))
        monkeypatch.setattr(
            cli_mod, "run_consistency", partial(run_consistency, test_size=300, s=3, d=12)
        )
        csv_path = tmp_path / "curve.csv"
        code, stdout, err = _run(
            capsys, "consistency", "--seed", "0", "--sizes", "60,120",
            "--out", str(csv_path),
        )
        assert code == 1
        assert err.startswith("error:")
        assert "did not converge" in err
        assert "m=60 efp tag 1" in err and "m=120 br tag 1" in err
        assert "no CSV written" in err
        assert "m=60:" in stdout
        assert not csv_path.exists()

    def test_rejects_bad_sizes(self, tmp_path, capsys):
        code, _, err = _run(
            capsys, "consistency", "--sizes", "10,abc", "--out", str(tmp_path / "c.csv"),
        )
        assert code == 1
        assert "sizes" in err


class TestCrossvalCommand:
    def test_smoke_on_tiny_grid(self, tmp_path, capsys):
        out = str(tmp_path / "task")
        _run(capsys, "synth", "--seed", "0", "--s", "2", "--d", "6",
             "--train-size", "120", "--test-size", "10", "--out-dir", out)
        code, stdout, _ = _run(
            capsys, "crossval", "--algo", "br", "--input", f"{out}/train.mlsparse",
            "--grid", "0.001,0.1", "--folds", "3",
        )
        assert code == 0
        assert stdout.count("fold=") == 6
        assert "chosen reg=" in stdout

    def test_unconverged_fold_fails_and_chooses_no_reg(self, tmp_path, capsys, monkeypatch):
        from functools import partial

        import fbetamax.cli as cli_mod
        from fbetamax.training import TrainConfig

        # one Newton step cannot reach the default gradient tolerance
        monkeypatch.setattr(cli_mod, "TrainConfig", partial(TrainConfig, max_iters=1))
        out = str(tmp_path / "task")
        _run(capsys, "synth", "--seed", "0", "--s", "2", "--d", "6",
             "--train-size", "120", "--test-size", "10", "--out-dir", out)
        code, stdout, err = _run(
            capsys, "crossval", "--algo", "surrogate", "--input", f"{out}/train.mlsparse",
            "--grid", "0.001,0.1", "--folds", "3",
        )
        assert code == 1
        assert err.startswith("error:")
        assert "did not converge" in err
        assert "reg=0.001 fold=0 zero" in err and "reg=0.1 fold=2 zero" in err
        assert "no reg chosen" in err
        assert "chosen reg" not in stdout

    def test_grid_expansion(self):
        assert _parse_grid("1e-2:1e1") == (0.01, 0.1, 1.0, 10.0)
        assert _parse_grid("0.5,0.25") == (0.5, 0.25)
        with pytest.raises(ValueError):
            _parse_grid("1e3:1e-3")
        with pytest.raises(ValueError):
            _parse_grid("0,-1")

    def test_sizes_parsing(self):
        assert _parse_sizes("10,20") == (10, 20)
        with pytest.raises(ValueError):
            _parse_sizes("")
        with pytest.raises(ValueError):
            _parse_sizes("0,5")


class TestParser:
    def test_commands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["synth", "--out-dir", "x"])
        assert args.command == "synth"
        assert args.s == 6 and args.d == 100
        assert args.train_size == 10000 and args.test_size == 15000
        args = parser.parse_args(
            ["train", "--algo", "surrogate", "--input", "a", "--model-out", "b"]
        )
        assert args.beta == 1.0 and args.reg == 1e-4
        assert not args.no_bias and not args.full_k
        args = parser.parse_args(["consistency", "--out", "c.csv"])
        assert args.sizes == "100,316,1000,3162,10000"
        args = parser.parse_args(["crossval", "--algo", "br", "--input", "a"])
        assert args.grid == "1e-4:1e3" and args.folds == 5
