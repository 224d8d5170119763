"""The benchmark workloads, their output checks and the metrics they report.

A run sets its workload up several times (the median is ``setup_s``),
computes reference values once, then repeats timed passes until the
requested seconds have passed and at least one pass per distinct input set
has run.  A pass is the time to a checked solution.  With tracing on, the
passes alternate untraced and traced over the same inputs; the traced ones
give the per-layer metrics and the pair gives the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy
from scipy import sparse

from fbetamax import cli, dataio, evaluation, synth
from fbetamax import baselines, decoding, surrogate, training
from fbetamax.fmeasure import BetaParam, LabelVec, loss_coeffs_matrix
from fbetamax.surrogate import SurrogateConfig
from fbetamax.training import Dataset, LinearModel, TrainConfig

import inputs
from tracing import Tracer, instrument

BETA = BetaParam(1.0)
SETUP_REPS = 3
IMPORT_REPS = 5
MODEL_BUILDS = 5
# decoded objectives are sums of s^2 products; allow for summation order
OBJECTIVE_RTOL = 1e-9


@dataclass(frozen=True)
class FitSizes:
    """fit-s6: the in-memory learning-curve pipeline at ladder rung m_train."""

    task_seed: int = 0
    s: int = 6
    d: int = 100
    m_train: int = 316
    m_test: int = 15000
    reg: float = 1e-4
    input_sets: int = 3


@dataclass(frozen=True)
class PredictSizes:
    """predict-s50: scoring and decoding only, every coordinate active."""

    task_seed: int = 50
    s: int = 50
    d: int = 1000
    nnz: int = 20
    rows: int = 4000
    batches: int = 3
    intercept_mean: float = -1.5
    shared_scale: float = 1.0
    own_scale: float = 1.5
    input_sets: int = 1


@dataclass(frozen=True)
class CliSizes:
    """cli-sparse: file-based train, predict and evaluate on sparse data."""

    task_seed: int = 10
    s: int = 10
    d: int = 2000
    nnz: int = 50
    m_train: int = 4000
    m_test: int = 2000
    intercept_mean: float = -1.0
    shared_scale: float = 1.0
    own_scale: float = 2.0
    reg: float = 1e-4
    input_sets: int = 1


SIZES = {"fit-s6": FitSizes(), "predict-s50": PredictSizes(), "cli-sparse": CliSizes()}


@dataclass
class Record:
    """What the passes of one run measured and checked."""

    wall: list[float] = field(default_factory=list)
    fit: list[float] = field(default_factory=list)
    rows_per_s: list[float] = field(default_factory=list)
    # one (test_f1, f1_gap) per input set, from its first pass
    quality: dict[int, tuple[float, float]] = field(default_factory=dict)
    checks: int = 0
    checks_failed: int = 0
    solves: int = 0
    solves_failed: int = 0
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.checks_failed += 1
            self.failures.append(what)

    def solved(self, reports) -> None:
        self.solves += len(reports)
        self.solves_failed += sum(not r.converged for r in reports)

    def quality_of(self, index: int, test_f1: float, gap: float) -> None:
        """Keep the first pass's quality per input set; later passes must repeat it."""
        if index in self.quality:
            self.check(self.quality[index] == (test_f1, gap),
                       f"input set {index}: a repeated pass gave different predictions")
        else:
            self.quality[index] = (test_f1, gap)


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _bits(labels) -> np.ndarray:
    return np.array([y.bits for y in labels], dtype=np.int64)


def _hist(sizes: np.ndarray, s: int) -> list[int]:
    return np.bincount(sizes, minlength=s + 1).tolist()


class Workload:
    """setup() builds inputs, reference() computes untimed reference values,
    run_pass() runs one timed and checked pass, close() removes files."""

    def __init__(self, sizes, seed: int):
        self.z = sizes
        self.seed = seed

    def close(self) -> None:
        pass


# ---------------------------------------------------------------- fit-s6

class FitWorkload(Workload):
    """Sample, fit surrogate + EFP + BR, then score, decode and evaluate."""

    def setup(self, workdir) -> None:
        self.dist = synth.build_distribution(self.z.task_seed, s=self.z.s, d=self.z.d)

    def reference(self, rec: Record) -> None:
        rec.info["inputs"] = {
            "task_seed": self.z.task_seed, "s": self.z.s, "d": self.z.d, "features": "dense",
            "m_train": self.z.m_train, "m_test": self.z.m_test, "input_sets": self.z.input_sets,
            "nnz_per_row": self.z.d, "reg": self.z.reg, "bias": False,
        }

    def run_pass(self, index: int, rec: Record, tracer: Tracer | None) -> None:
        z = self.z
        start = time.perf_counter()
        # training streams are part of the task (even ids); --seed picks the test stream
        train = synth.sample_batch(self.dist, z.m_train, stream=2 * index)
        test = synth.sample_batch(self.dist, z.m_test, stream=2 * self.seed + 1)
        data = synth.to_dataset(self.dist, train)
        cfg = TrainConfig(reg_lambda=z.reg, bias=False)
        scfg = SurrogateConfig.for_counts(z.s, sorted(data.observed_counts), BETA)
        fit_start = time.perf_counter()
        model = training.train_surrogate(data, cfg, scfg)
        efp = baselines.train_efp(data, cfg, BETA)
        br = baselines.train_br(data, cfg)
        pred_start = time.perf_counter()
        X = sparse.csr_matrix(test.features)
        probs = model.stat_prob_rows(X)
        bits, _ = decoding.decode_rows(probs, z.s, BETA)
        pred_end = time.perf_counter()
        with _span(tracer, "bench.truth"):
            truth = _bits(test.labels)
        test_f1 = evaluation.evaluate_bits(bits, truth, BETA).mean_f
        f1_bayes = evaluation.bayes_f(test.stat_probs, z.s, BETA)
        gap = f1_bayes - evaluation.mean_expected_f(test.stat_probs, bits, BETA)
        psi = evaluation.surrogate_regret_estimate(model, X, test.stat_probs)
        bound, holds = evaluation.check_regret_bound(gap, psi, z.s, BETA)
        end = time.perf_counter()

        rec.wall.append(end - start)
        rec.fit.append(pred_start - fit_start)
        rec.rows_per_s.append(z.m_test / (pred_end - pred_start))
        rec.check(holds, f"input set {index}: F-regret {gap:.6g} exceeds bound {bound:.6g}")
        rec.quality_of(index, test_f1, gap)
        for reports in (model.reports, efp.reports, br.reports):
            rec.solved(reports)
        if index not in rec.info.setdefault("observed_K", {}):
            rec.info["observed_K"][index] = sorted(data.observed_counts)
            rec.info.setdefault("decoded_sizes", {})[index] = _hist(bits.sum(axis=1), z.s)
            rec.info.setdefault("unconverged", {})[index] = {
                "surrogate": sum(not r.converged for r in model.reports),
                "efp": sum(not r.converged for r in efp.reports),
                "br": sum(not r.converged for r in br.reports),
            }


# ----------------------------------------------------------- predict-s50

@dataclass
class Batch:
    X: sparse.csr_matrix
    truth: np.ndarray
    true_means: np.ndarray | None = None
    f1_bayes: float = 0.0


def check_decoded(probs: np.ndarray, bits: np.ndarray, objectives: np.ndarray,
                  beta: BetaParam) -> int:
    """Rows whose decoded objective is wrong or worse than the empty labeling.

    The attained objective must equal <q, loss_coeffs(bits)> recomputed from
    the coefficient definition, and must not exceed -q_0, the objective of
    predicting no tag at all.
    """
    m, s = bits.shape
    if probs.shape != (m, s * s + 1) or objectives.shape != (m,):
        return m
    if not np.all((bits == 0) | (bits == 1)):
        return m
    recomputed = np.einsum("ij,ij->i", loss_coeffs_matrix(bits, beta), probs)
    tol = OBJECTIVE_RTOL * np.maximum(1.0, np.abs(recomputed))
    wrong = np.abs(recomputed - objectives) > tol
    wrong |= objectives > -probs[:, 0] + tol
    return int(np.count_nonzero(wrong))


class PredictWorkload(Workload):
    """Score and decode sparse batches with a drawn s=50 model, no training."""

    def setup(self, workdir) -> None:
        z = self.z
        planted = inputs.draw_planted(np.random.default_rng(z.task_seed), z.s, z.d, z.nnz,
                                      z.intercept_mean, z.shared_scale, z.own_scale)
        rng = np.random.default_rng(self.seed)
        self.weights = inputs.plug_in_weights(planted)
        self.active = SurrogateConfig.full(z.s, BETA).active_indices
        self.batches = []
        self._marginals = []
        for _ in range(z.batches):
            X = inputs.sparse_features(rng, z.rows, z.d, z.nnz)
            p = planted.marginals(X)
            self.batches.append(Batch(X=X, truth=inputs.sample_labels(rng, p).astype(np.int64)))
            self._marginals.append(p)

    def reference(self, rec: Record) -> None:
        for batch, p in zip(self.batches, self._marginals):
            batch.true_means = inputs.independent_stat_means(p)
            batch.f1_bayes = evaluation.bayes_f(batch.true_means, self.z.s, BETA)
        z = self.z
        sizes = np.concatenate([b.truth.sum(axis=1) for b in self.batches])
        rec.info["inputs"] = {
            "task_seed": z.task_seed, "s": z.s, "d": z.d, "batches": z.batches,
            "rows_per_batch": z.rows, "nnz": int(sum(b.X.nnz for b in self.batches)),
            "active_coordinates": len(self.active), "bias": True,
            "K": np.unique(sizes).tolist(), "true_sizes": _hist(sizes, z.s),
        }

    def run_pass(self, index: int, rec: Record, tracer: Tracer | None) -> None:
        z = self.z
        start = time.perf_counter()
        # building the model takes milliseconds, so time it several times
        builds = []
        for _ in range(MODEL_BUILDS):
            t0 = time.perf_counter()
            model = LinearModel(s=z.s, d=z.d, beta=BETA, active_indices=self.active,
                                weights=self.weights, bias=True, reg_lambda=0.0)
            builds.append(time.perf_counter() - t0)
        predict_time = 0.0
        f1s, gaps, sizes = [], [], []
        for b, batch in enumerate(self.batches):
            t0 = time.perf_counter()
            probs = model.stat_prob_rows(batch.X)
            bits, objectives = decoding.decode_rows(probs, z.s, BETA)
            predict_time += time.perf_counter() - t0
            with _span(tracer, "bench.check"):
                wrong = check_decoded(probs, bits, objectives, BETA)
            rec.check(wrong == 0, f"batch {b}: {wrong} rows decoded wrongly")
            del probs
            f1s.append(evaluation.evaluate_bits(bits, batch.truth, BETA).mean_f)
            gaps.append(batch.f1_bayes - evaluation.mean_expected_f(batch.true_means, bits, BETA))
            sizes.append(bits.sum(axis=1))
        end = time.perf_counter()
        rec.wall.append(end - start)
        rec.fit.append(statistics.median(builds))
        rec.rows_per_s.append(z.rows * z.batches / predict_time)
        rec.quality_of(index, float(np.mean(f1s)), float(np.mean(gaps)))
        rec.info.setdefault("decoded_sizes", _hist(np.concatenate(sizes), z.s))


# ------------------------------------------------------------ cli-sparse

def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run one fbetamax command in this process; returns (code, stdout, seconds)."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - start


def _kv(text: str, key: str) -> float | None:
    for line in text.splitlines():
        if line.startswith(key + "="):
            try:
                return float(line[len(key) + 1:])
            except ValueError:
                return None
    return None


class CliWorkload(Workload):
    """Write sparse datasets, then train, predict and evaluate through the CLI."""

    def setup(self, workdir) -> None:
        z = self.z
        # the planted task and its training rows are fixed; --seed draws the test rows
        task_rng = np.random.default_rng(z.task_seed)
        planted = inputs.draw_planted(task_rng, z.s, z.d, z.nnz,
                                      z.intercept_mean, z.shared_scale, z.own_scale)
        self.train = inputs.draw_split(task_rng, planted, z.m_train, z.nnz, with_means=False)
        self.test = inputs.draw_split(np.random.default_rng(self.seed), planted, z.m_test, z.nnz,
                                      with_means=True)
        self.train_ds = Dataset(s=z.s, d=z.d, features=self.train.X,
                                labels=tuple(LabelVec(tuple(int(b) for b in row)) for row in self.train.bits))
        self.test_ds = Dataset(s=z.s, d=z.d, features=self.test.X,
                               labels=tuple(LabelVec(tuple(int(b) for b in row)) for row in self.test.bits))
        self.dir = os.path.join(workdir, f"cli-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)

    def reference(self, rec: Record) -> None:
        z = self.z
        self.f1_bayes = evaluation.bayes_f(self.test.true_means, z.s, BETA)
        counts = np.concatenate([self.train.bits.sum(axis=1), self.test.bits.sum(axis=1)])
        rec.info["inputs"] = {
            "task_seed": z.task_seed, "s": z.s, "d": z.d, "m_train": z.m_train, "m_test": z.m_test,
            "nnz": int(self.train.X.nnz + self.test.X.nnz), "reg": z.reg, "bias": True,
            "K": sorted(self.train_ds.observed_counts),
            "true_sizes": _hist(counts, z.s),
        }

    def run_pass(self, index: int, rec: Record, tracer: Tracer | None) -> None:
        z = self.z
        path = {name: os.path.join(self.dir, name)
                for name in ("train.mlsparse", "test.mlsparse", "model.mlmodel", "test.mlpred")}
        start = time.perf_counter()
        dataio.save_dataset(self.train_ds, path["train.mlsparse"])
        dataio.save_dataset(self.test_ds, path["test.mlsparse"])
        steps = {
            "train": ["train", "--algo", "surrogate", "--input", path["train.mlsparse"],
                      "--reg", repr(z.reg), "--model-out", path["model.mlmodel"]],
            "predict": ["predict", "--model", path["model.mlmodel"],
                        "--input", path["test.mlsparse"], "--out", path["test.mlpred"]],
            "evaluate": ["evaluate", "--pred", path["test.mlpred"], "--input", path["test.mlsparse"]],
        }
        outputs, seconds = {}, {}
        for name, argv in steps.items():
            with _span(tracer, f"cli.{name}"):
                code, outputs[name], seconds[name] = run_cli(argv)
            rec.check(code == 0, f"fbetamax {name} exited {code}: {outputs[name].strip()[-200:]}")
            if code != 0:
                # later steps need this step's output file
                raise RuntimeError(rec.failures[-1])
        with _span(tracer, "bench.check"):
            reloaded = dataio.load_model(path["model.mlmodel"], expected_algo="surrogate")
            file_bits = _bits(dataio.load_predictions(path["test.mlpred"], z.s))
            memory_bits = reloaded.predict_rows(self.test.X)
        end = time.perf_counter()
        rec.check(file_bits.shape == memory_bits.shape and np.array_equal(file_bits, memory_bits),
                  "the .mlpred bits differ from predict_rows of the reloaded model")
        test_f1 = _kv(outputs["evaluate"], "mean_f")
        direct_f1 = evaluation.evaluate_bits(file_bits, self.test.bits.astype(np.int64), BETA).mean_f
        rec.check(test_f1 is not None and abs(test_f1 - direct_f1) <= 1e-9,
                  f"evaluate printed mean_f={test_f1}, expected {direct_f1:.12g}")
        gap = self.f1_bayes - evaluation.mean_expected_f(self.test.true_means, file_bits, BETA)
        solver_lines = [ln for ln in outputs["train"].splitlines() if ln.startswith("subproblem ")]
        rec.solves += len(solver_lines)
        rec.solves_failed += sum("converged=NO" in ln for ln in solver_lines)

        rec.wall.append(end - start)
        rec.fit.append(seconds["train"])
        rec.rows_per_s.append(z.m_test / seconds["predict"])
        rec.quality_of(index, direct_f1 if test_f1 is None else test_f1, gap)
        rec.info.setdefault("subproblems", len(solver_lines))
        rec.info.setdefault("decoded_sizes", _hist(file_bits.sum(axis=1), z.s))
        rec.info.setdefault("bytes_written", {
            name: os.path.getsize(p) for name, p in path.items()})

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {"fit-s6": FitWorkload, "predict-s50": PredictWorkload, "cli-sparse": CliWorkload}


# ------------------------------------------------------------- tracing

def _add_reports(prefix: str):
    def count(counts, args, kwargs, model) -> None:
        reports = model.reports
        counts[f"{prefix}solves"] += len(reports)
        counts[f"{prefix}iters"] += sum(r.iterations for r in reports)
        counts[f"{prefix}unconverged"] += sum(not r.converged for r in reports)
        counts[f"{prefix}max_grad_norm"] = max(
            counts[f"{prefix}max_grad_norm"], max((r.grad_norm for r in reports), default=0.0))
    return count


def _add_rows(key: str):
    def count(counts, args, kwargs, result) -> None:
        counts[key] += result.m
    return count


def _add_file_bytes(counts, args, kwargs, result) -> None:
    counts["dataio.bytes_written"] += os.path.getsize(args[1])


def _add_saved_rows(counts, args, kwargs, result) -> None:
    _add_file_bytes(counts, args, kwargs, result)
    counts["dataio.rows"] += args[0].m


def _add_decoded(counts, args, kwargs, result) -> None:
    m, s = result[0].shape
    counts["decoding.rows"] += m
    # the O(s^3) decoder computes an (m, s, s) float64 score table per batch
    counts["decoding.bytes_computed"] += 8 * m * s * s


# (span name, owner, attribute, count hook); spans named <layer>.<function>
TRACE_POINTS = (
    ("synth.sample_batch", synth, "sample_batch", _add_rows("synth.points")),
    ("dataio.save_dataset", dataio, "save_dataset", _add_saved_rows),
    ("dataio.load_dataset", dataio, "load_dataset", _add_rows("dataio.rows")),
    ("dataio.save_model", dataio, "save_model", _add_file_bytes),
    ("dataio.load_model", dataio, "load_model", None),
    ("dataio.save_predictions", dataio, "save_predictions", _add_file_bytes),
    ("dataio.load_predictions", dataio, "load_predictions", None),
    ("training.train_surrogate", training, "train_surrogate", _add_reports("training.")),
    ("training.fit_binary_logistic", training, "fit_binary_logistic", None),
    ("training.stat_prob_rows", LinearModel, "stat_prob_rows", None),
    ("surrogate.binary_targets", surrogate, "binary_targets", None),
    ("baselines.train_efp", baselines, "train_efp", _add_reports("baselines.efp_")),
    ("baselines.train_br", baselines, "train_br", _add_reports("baselines.br_")),
    ("baselines.train_multinomial", training, "train_multinomial", None),
    ("decoding.decode_rows", decoding, "decode_rows", _add_decoded),
    ("evaluation.evaluate", evaluation, "evaluate", None),
    ("evaluation.evaluate", evaluation, "evaluate_bits", None),
    ("evaluation.bayes_f", evaluation, "bayes_f", None),
    ("evaluation.regret", evaluation, "mean_expected_f", None),
    ("evaluation.regret", evaluation, "surrogate_regret_estimate", None),
    ("evaluation.regret", evaluation, "check_regret_bound", None),
)

LAYERS = ("synth", "dataio", "training", "surrogate", "baselines", "decoding", "evaluation", "cli")

# per-layer metric name -> (unit, better)
PER_LAYER = {
    "synth.sample_batch_s": ("s", "lower"),
    "synth.points_per_s": ("1/s", "higher"),
    "dataio.save_dataset_s": ("s", "lower"),
    "dataio.load_dataset_s": ("s", "lower"),
    "dataio.rows_per_s": ("1/s", "higher"),
    "dataio.bytes_written": ("bytes", "lower"),
    "dataio.save_model_s": ("s", "lower"),
    "dataio.load_model_s": ("s", "lower"),
    "dataio.save_predictions_s": ("s", "lower"),
    "dataio.load_predictions_s": ("s", "lower"),
    "training.train_surrogate_s": ("s", "lower"),
    "training.subproblems": ("count", "lower"),
    "training.solver_iters": ("count", "lower"),
    "training.unconverged": ("count", "lower"),
    "training.max_grad_norm": ("1", "lower"),
    "training.fit_binary_logistic_s": ("s", "lower"),
    "training.stat_prob_rows_s": ("s", "lower"),
    "surrogate.binary_targets_s": ("s", "lower"),
    "baselines.train_efp_s": ("s", "lower"),
    "baselines.efp_iters": ("count", "lower"),
    "baselines.efp_unconverged": ("count", "lower"),
    "baselines.train_br_s": ("s", "lower"),
    "baselines.br_iters": ("count", "lower"),
    "baselines.train_multinomial_s": ("s", "lower"),
    "decoding.decode_rows_s": ("s", "lower"),
    "decoding.rows_per_s": ("1/s", "higher"),
    "decoding.bytes_computed": ("bytes", "lower"),
    "evaluation.evaluate_s": ("s", "lower"),
    "evaluation.bayes_f_s": ("s", "lower"),
    "evaluation.regret_s": ("s", "lower"),
    "cli.train_s": ("s", "lower"),
    "cli.predict_s": ("s", "lower"),
    "cli.evaluate_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS + ("bench",)},
    "trace.overhead_frac": ("1", "lower"),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "fit_s": "s",
    "predict_rows_per_s": "1/s",
    "peak_mem_mb": "MB",
    "test_f1": "1",
    "f1_gap": "1",
    "ok_frac": "1",
}


def layer_metrics(tracer: Tracer, passes: int, untraced_wall: float, traced_wall: float) -> dict:
    """Per-pass means of the traced spans and counts, keyed as in PER_LAYER."""
    inc = tracer.inclusive()
    counts = tracer.counts
    own = tracer.self_by_layer()

    def per_pass(x: float) -> float:
        return x / passes

    def rate(n: float, seconds: float) -> float:
        return n / seconds if seconds > 0 else 0.0

    dataio_rw = inc["dataio.save_dataset"] + inc["dataio.load_dataset"]
    values = {name: per_pass(inc[name[:-2]]) for name in PER_LAYER
              if name.endswith("_s") and name[:-2] in inc}
    values.update({
        "synth.points_per_s": rate(counts["synth.points"], inc["synth.sample_batch"]),
        "dataio.rows_per_s": rate(counts["dataio.rows"], dataio_rw),
        "dataio.bytes_written": per_pass(counts["dataio.bytes_written"]),
        "training.subproblems": per_pass(counts["training.solves"]),
        "training.solver_iters": per_pass(counts["training.iters"]),
        "training.unconverged": per_pass(counts["training.unconverged"]),
        "training.max_grad_norm": counts["training.max_grad_norm"],
        "baselines.efp_iters": per_pass(counts["baselines.efp_iters"]),
        "baselines.efp_unconverged": per_pass(counts["baselines.efp_unconverged"]),
        "baselines.br_iters": per_pass(counts["baselines.br_iters"]),
        "decoding.rows_per_s": rate(counts["decoding.rows"], inc["decoding.decode_rows"]),
        "decoding.bytes_computed": per_pass(counts["decoding.bytes_computed"]),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    })
    for layer in LAYERS + ("bench",):
        values[f"{layer}.self_s"] = per_pass(own.get(layer, 0.0))
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, (unit, _) in PER_LAYER.items()}


# ------------------------------------------------------------ running

def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "machine": platform.machine(),
    }


def import_seconds(root: str) -> float:
    """Wall time of a fresh interpreter that imports fbetamax from the checkout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import fbetamax"], env=env, check=True, cwd=root)
    return time.perf_counter() - start


def run(name: str, seed: int, seconds: float, trace: bool, root: str,
        sizes=None) -> tuple[dict, Record]:
    """Run one workload; returns the result object and the record behind it."""
    sizes = sizes or SIZES[name]
    workdir = os.path.join(root, ".perfbench_work")
    os.makedirs(workdir, exist_ok=True)
    rec = Record()
    rec.info.update(workload=name, seed=seed, seconds=seconds, trace=trace, env=environment())

    imports = [import_seconds(root) for _ in range(IMPORT_REPS)]
    setups = []
    workload = None
    for _ in range(SETUP_REPS):
        if workload is not None:
            workload.close()
        workload = WORKLOADS[name](sizes, seed)
        start = time.perf_counter()
        workload.setup(workdir)
        setups.append(time.perf_counter() - start)
    try:
        workload.reference(rec)
        tracer = Tracer()
        untraced, traced = [], []
        begin = time.perf_counter()
        index = 0
        while index < sizes.input_sets or time.perf_counter() - begin < seconds:
            which = index % sizes.input_sets
            workload.run_pass(which, rec, None)
            untraced.append(rec.wall[-1])
            if trace:
                with instrument(tracer, TRACE_POINTS), tracer.span("bench.pass"):
                    workload.run_pass(which, rec, tracer)
                traced.append(rec.wall[-1])
            index += 1
    finally:
        workload.close()

    rec.info["pass_s"] = [round(x, 4) for x in untraced]
    rec.info["quality"] = {i: {"test_f1": f1, "f1_gap": gap} for i, (f1, gap) in rec.quality.items()}
    rec.info["setup"] = {"import_s": imports, "inputs_s": setups}
    if rec.failures:
        rec.info["failures"] = rec.failures
    if trace:
        tracer.write(os.path.join(workdir, f"spans-{name}-{seed}.json"))
        metrics = layer_metrics(tracer, len(traced), sum(untraced), sum(traced))
    else:
        quality = [rec.quality[i] for i in sorted(rec.quality)]
        ops = rec.solves + rec.checks
        values = {
            "setup_s": statistics.median(imports) + statistics.median(setups),
            "wall_s": statistics.median(rec.wall),
            "fit_s": statistics.median(rec.fit),
            "predict_rows_per_s": statistics.median(rec.rows_per_s),
            "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "test_f1": float(np.mean([q[0] for q in quality])),
            "f1_gap": float(np.mean([q[1] for q in quality])),
            "ok_frac": (ops - rec.solves_failed - rec.checks_failed) / ops,
        }
        metrics = {k: {"value": float(v), "unit": END_TO_END[k]} for k, v in values.items()}
    result = {
        "correct": rec.checks_failed == 0,
        "attempted": rec.checks,
        "failed": rec.checks_failed,
        "metrics": metrics,
    }
    return result, rec
