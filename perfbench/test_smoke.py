"""Tiny-size smoke test of the benchmark harness.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at toy sizes, untraced and traced, and checks that a
deliberately corrupted prediction is counted as a failed operation.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import harness  # noqa: E402
from fbetamax import dataio, decoding  # noqa: E402
from fbetamax.fmeasure import LabelVec  # noqa: E402
from tracing import patched  # noqa: E402

TINY = {
    "fit-s6": replace(harness.SIZES["fit-s6"], m_train=120, m_test=300, input_sets=2),
    "predict-s50": replace(harness.SIZES["predict-s50"], s=12, d=200, rows=200, batches=2),
    "cli-sparse": replace(harness.SIZES["cli-sparse"], s=4, d=60, nnz=8, m_train=150, m_test=80),
}


def _tiny(name: str, trace: bool = False):
    return harness.run(name, seed=3, seconds=0, trace=trace, root=ROOT, sizes=TINY[name])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(harness.SIZES))
def test_workload_runs_clean(name, trace):
    result, rec = _tiny(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], rec.failures
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        for key in ("setup_s", "wall_s", "fit_s", "predict_rows_per_s", "peak_mem_mb", "ok_frac"):
            assert result["metrics"][key]["value"] > 0.0
    assert {"env", "inputs", "pass_s"} <= set(rec.info)


def test_tracing_restores_the_program():
    before = (decoding.decode_rows, dataio.save_dataset, harness.training.LinearModel.stat_prob_rows)
    _tiny("cli-sparse", trace=True)
    after = (decoding.decode_rows, dataio.save_dataset, harness.training.LinearModel.stat_prob_rows)
    assert before == after


def _flip_first_bit(decode_rows):
    def corrupted(*args, **kwargs):
        bits, objectives = decode_rows(*args, **kwargs)
        bits = bits.copy()
        bits[0, 0] ^= 1
        return bits, objectives
    return corrupted


def _flip_first_tag(save_predictions):
    def corrupted(labelings, path):
        labelings = list(labelings)
        bits = list(labelings[0].bits)
        bits[0] ^= 1
        labelings[0] = LabelVec(tuple(bits))
        return save_predictions(labelings, path)
    return corrupted


def test_corrupted_decode_counts_as_failure():
    with patched([(decoding, "decode_rows", _flip_first_bit)]):
        result, rec = _tiny("predict-s50")
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_corrupted_prediction_file_counts_as_failure():
    with patched([(dataio, "save_predictions", _flip_first_tag)]):
        result, rec = _tiny("cli-sparse")
    assert not result["correct"]
    assert any(".mlpred" in what for what in rec.failures)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "fit-s6",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
