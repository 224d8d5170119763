"""Text formats: datasets, true-mean sidecars, predictions, and models.

All files are UTF-8 with LF newlines.  Floats are written with 17
significant digits so every round trip reproduces the exact same doubles,
and therefore bit-identical predictions.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .baselines import BrModel, EfpModel
from .fmeasure import BetaParam, LabelVec, StatIndex
from .training import Dataset, LinearModel
from .surrogate import SurrogateConfig

__all__ = [
    "DataFormatError",
    "convert_interchange",
    "load_dataset",
    "load_model",
    "load_predictions",
    "load_stat_probs",
    "save_dataset",
    "save_model",
    "save_predictions",
    "save_stat_probs",
]

_DATASET_MAGIC = "#ml-sparse v1"
_SIDE_MAGIC = "#ml-q v1"
_MODEL_MAGIC = "#ml-model v1"

ALGORITHMS = ("surrogate", "efp", "br")


class DataFormatError(ValueError):
    """A file violated one of the documented format rules."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _read_lines(path) -> list[str]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    return text.split("\n")


def load_dataset(path) -> Dataset:
    """Parse a dataset file; malformed content raises with the line number."""
    lines = _read_lines(path)
    header = lines[0] if lines else ""
    parts = header.split()
    if (
        len(parts) != 4
        or " ".join(parts[:2]) != _DATASET_MAGIC
        or not parts[2].startswith("s=")
        or not parts[3].startswith("d=")
    ):
        raise DataFormatError(f"line 1: expected header '{_DATASET_MAGIC} s=<s> d=<d>'")
    try:
        s = int(parts[2][2:])
        d = int(parts[3][2:])
    except ValueError:
        raise DataFormatError("line 1: s and d must be integers") from None
    if s < 1 or d < 1:
        raise DataFormatError("line 1: s and d must be >= 1")

    labels: list[LabelVec] = []
    indptr = [0]
    col_indices: list[int] = []
    values: list[float] = []
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
        labels.append(LabelVec(tuple(bits)))
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
    features = sparse.csr_matrix(
        (np.array(values, dtype=np.float64),
         np.array(col_indices, dtype=np.intp),
         np.array(indptr, dtype=np.intp)),
        shape=(len(labels), d),
    )
    return Dataset(s=s, d=d, features=features, labels=tuple(labels))


def save_dataset(data: Dataset, path) -> None:
    """Write a dataset file that load_dataset will reproduce exactly."""
    feats = data.features
    out = [f"{_DATASET_MAGIC} s={data.s} d={data.d}"]
    for i, y in enumerate(data.labels):
        row = feats.getrow(i)
        order = np.argsort(row.indices, kind="stable")
        pairs = " ".join(
            f"{row.indices[o] + 1}:{_fmt(row.data[o])}" for o in order
        )
        out.append(f"{','.join(str(j) for j in y.active_tags())}\t{pairs}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def save_stat_probs(prob_rows: np.ndarray, s: int, path) -> None:
    """Write a sidecar of true statistic means, one point per line."""
    prob_rows = np.asarray(prob_rows, dtype=np.float64)
    if prob_rows.ndim != 2 or prob_rows.shape[1] != s * s + 1:
        raise ValueError(f"expected shape (m, {s * s + 1})")
    out = [f"{_SIDE_MAGIC} s={s}"]
    for row in prob_rows:
        out.append(" ".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def load_stat_probs(path) -> np.ndarray:
    lines = _read_lines(path)
    parts = lines[0].split() if lines else []
    if len(parts) != 3 or " ".join(parts[:2]) != _SIDE_MAGIC or not parts[2].startswith("s="):
        raise DataFormatError(f"line 1: expected header '{_SIDE_MAGIC} s=<s>'")
    try:
        s = int(parts[2][2:])
    except ValueError:
        raise DataFormatError("line 1: s must be an integer") from None
    width = s * s + 1
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line == "" and lineno == len(lines):
            break
        vals = line.split(" ")
        if len(vals) != width:
            raise DataFormatError(f"line {lineno}: expected {width} values")
        try:
            row = [float(v) for v in vals]
        except ValueError:
            raise DataFormatError(f"line {lineno}: bad float") from None
        if not all(np.isfinite(row)):
            raise DataFormatError(f"line {lineno}: values must be finite")
        rows.append(row)
    return np.array(rows, dtype=np.float64)


def save_predictions(labelings, path) -> None:
    """One labeling per line as comma-separated 1-based active tags."""
    out = []
    for y in labelings:
        out.append(",".join(str(j) for j in y.active_tags()))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n" if out else "")


def load_predictions(path, s: int) -> list[LabelVec]:
    lines = _read_lines(path)
    out = []
    for lineno, line in enumerate(lines, start=1):
        if line == "" and lineno == len(lines):
            break
        if line:
            try:
                tags = [int(tok) for tok in line.split(",")]
            except ValueError:
                raise DataFormatError(f"line {lineno}: bad label index") from None
            out.append(LabelVec.from_active(tags, s))
        else:
            out.append(LabelVec.zeros(s))
    return out


def _header_lines(algo: str, s: int, d: int, beta: float, bias: bool, reg: float,
                  counts, n_vectors: int) -> list[str]:
    return [
        _MODEL_MAGIC,
        f"algo={algo}",
        f"s={s}",
        f"d={d}",
        f"beta={_fmt(beta)}",
        f"bias={int(bias)}",
        f"reg={_fmt(reg)}",
        f"counts={','.join(str(k) for k in counts)}",
        f"vectors={n_vectors}",
    ]


def save_model(model, path) -> None:
    """Serialize a trained model; the algorithm tag is part of the header."""
    if isinstance(model, LinearModel):
        counts = sorted({ix.k for ix in model.active_indices if not ix.is_zero})
        header = _header_lines(
            "surrogate", model.s, model.d, model.beta.beta, model.bias,
            model.reg_lambda, counts, len(model.active_indices),
        )
        rows = [model.weights[i] for i in range(model.weights.shape[0])]
    elif isinstance(model, EfpModel):
        header = _header_lines(
            "efp", model.s, model.d, model.beta.beta, model.bias,
            model.reg_lambda, model.counts,
            1 + model.s * (1 + len(model.counts)),
        )
        rows = [model.zero_weights]
        for j in range(model.s):
            rows.extend(model.label_weights[j])
    elif isinstance(model, BrModel):
        header = _header_lines(
            "br", model.s, model.d, 1.0, model.bias, model.reg_lambda, (), model.s,
        )
        rows = [model.weights[j] for j in range(model.s)]
    else:
        raise ValueError(f"cannot serialize a {type(model).__name__}")
    body = [" ".join(_fmt(v) for v in row) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(header + body) + "\n")


def _parse_model_header(lines: list[str]) -> dict:
    if not lines or lines[0] != _MODEL_MAGIC:
        raise DataFormatError(f"line 1: expected '{_MODEL_MAGIC}'")
    keys = ("algo", "s", "d", "beta", "bias", "reg", "counts", "vectors")
    fields: dict = {}
    for lineno, key in enumerate(keys, start=2):
        if lineno - 1 >= len(lines) or not lines[lineno - 1].startswith(f"{key}="):
            raise DataFormatError(f"line {lineno}: expected '{key}=...'")
        fields[key] = lines[lineno - 1][len(key) + 1:]
    try:
        fields["s"] = int(fields["s"])
        fields["d"] = int(fields["d"])
        fields["beta"] = float(fields["beta"])
        fields["bias"] = bool(int(fields["bias"]))
        fields["reg"] = float(fields["reg"])
        fields["vectors"] = int(fields["vectors"])
        fields["counts"] = tuple(
            int(tok) for tok in fields["counts"].split(",") if tok
        )
    except ValueError:
        raise DataFormatError("malformed model header value") from None
    if fields["algo"] not in ALGORITHMS:
        raise DataFormatError(f"unknown algorithm tag {fields['algo']!r}")
    return fields


def load_model(path, expected_algo: str | None = None):
    """Load a model file; raises on version/tag mismatch or truncation."""
    lines = _read_lines(path)
    fields = _parse_model_header(lines)
    if expected_algo is not None and fields["algo"] != expected_algo:
        raise DataFormatError(
            f"algorithm tag mismatch: file says {fields['algo']!r}, "
            f"expected {expected_algo!r}"
        )
    n_header = 9
    body = [line for line in lines[n_header:] if line != ""]
    if len(body) != fields["vectors"]:
        raise DataFormatError(
            f"truncated model file: header promises {fields['vectors']} "
            f"vectors, found {len(body)}"
        )
    width = fields["d"] + 1
    try:
        rows = np.array([[float(v) for v in line.split(" ")] for line in body])
    except ValueError:
        raise DataFormatError("bad float in model body") from None
    if rows.shape != (fields["vectors"], width):
        raise DataFormatError(f"weight vectors must have {width} entries")
    s, d = fields["s"], fields["d"]
    algo = fields["algo"]
    if algo == "surrogate":
        scfg_counts = fields["counts"]
        active = SurrogateConfig.for_counts(
            s, scfg_counts, BetaParam(fields["beta"])
        ).active_indices
        return LinearModel(
            s=s, d=d, beta=BetaParam(fields["beta"]), active_indices=active,
            weights=rows, bias=fields["bias"], reg_lambda=fields["reg"],
        )
    if algo == "efp":
        n_counts = len(fields["counts"])
        per_tag = 1 + n_counts
        return EfpModel(
            s=s, d=d, beta=BetaParam(fields["beta"]), counts=fields["counts"],
            zero_weights=rows[0],
            label_weights=rows[1:].reshape(s, per_tag, width),
            bias=fields["bias"], reg_lambda=fields["reg"],
        )
    return BrModel(
        s=s, d=d, weights=rows, bias=fields["bias"], reg_lambda=fields["reg"],
    )


def convert_interchange(src, dst, zero_based: bool = True) -> None:
    """Convert the common 'header then label,label idx:val ...' layout.

    The source header line is 'num_points num_features num_labels'; label
    and feature indices are 0-based by default.  Output is a dataset file.
    A point count that disagrees with the header, a malformed or duplicate
    feature, or a non-finite value raises with the line number.
    """
    lines = _read_lines(src)
    head = lines[0].split() if lines else []
    if len(head) != 3:
        raise DataFormatError("line 1: expected 'num_points num_features num_labels'")
    try:
        m, d, s = (int(tok) for tok in head)
    except ValueError:
        raise DataFormatError("line 1: counts must be integers") from None
    if m < 0 or d < 1 or s < 1:
        raise DataFormatError("line 1: num_points must be >= 0, the other counts >= 1")
    body = lines[1:]
    if body and body[-1] == "":
        body.pop()  # trailing newline
    if len(body) != m:
        raise DataFormatError(
            f"line {min(len(body), m) + 2}: header declares {m} points, file holds {len(body)}"
        )
    shift = 1 if zero_based else 0
    out = [f"{_DATASET_MAGIC} s={s} d={d}"]
    for lineno, line in enumerate(body, start=2):
        parts = line.split(" ")
        label_part = ""
        feats = parts
        if parts and ":" not in parts[0]:
            label_part, feats = parts[0], parts[1:]
        try:
            tags = sorted({int(tok) + shift for tok in label_part.split(",") if tok != ""})
        except ValueError:
            raise DataFormatError(f"line {lineno}: bad label index in {label_part!r}") from None
        if any(not 1 <= j <= s for j in tags):
            raise DataFormatError(f"line {lineno}: label index out of range")
        pairs = {}
        for tok in feats:
            if not tok:
                continue
            # a token without ':' leaves val_txt empty, which float() rejects
            idx_txt, _, val_txt = tok.partition(":")
            try:
                idx, val = int(idx_txt) + shift, float(val_txt)
            except ValueError:
                raise DataFormatError(f"line {lineno}: bad feature pair {tok!r}") from None
            if not np.isfinite(val):
                raise DataFormatError(f"line {lineno}: feature value {val_txt!r} is not finite")
            if not 1 <= idx <= d:
                raise DataFormatError(f"line {lineno}: feature index out of range")
            if idx in pairs:
                raise DataFormatError(f"line {lineno}: duplicate feature index {idx_txt}")
            pairs[idx] = val
        feat_txt = " ".join(f"{idx}:{_fmt(pairs[idx])}" for idx in sorted(pairs))
        out.append(f"{','.join(str(t) for t in tags)}\t{feat_txt}")
    with open(dst, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
