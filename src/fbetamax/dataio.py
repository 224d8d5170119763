"""Text formats: datasets, true-mean sidecars, predictions, and models.

All files are UTF-8 with LF newlines.  Floats are written with 17
significant digits so every round trip reproduces the exact same doubles,
and therefore bit-identical predictions.

Datasets, sidecars and predictions are read and written one block of
_BLOCK_ROWS lines at a time, and each block is converted and checked as
arrays, so temporaries stay O(block) however many rows a file holds.  A
block that fails any check is parsed again line by line, which names the
first offending line and token.
"""

from __future__ import annotations

import os
import secrets
from contextlib import suppress
from itertools import compress, islice

import numpy as np
from scipy import sparse

from .baselines import BrModel, EfpModel
from .fmeasure import BetaParam, LabelVec, _bit_matrix, labelvec_rows
from .training import Dataset, LinearModel, _Trained
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

# lines per read or write block
_BLOCK_ROWS = 1024

# every byte but the ' ' and ':' separators of a feature list
_NOT_SEPARATOR = bytes(sorted(set(range(256)) - set(b" :")))


class DataFormatError(ValueError):
    """A file violated one of the documented format rules."""


def _check_dim(where: str, name: str, value: int) -> None:
    """DataFormatError naming the header line `where` when value exceeds any array axis."""
    if value > np.iinfo(np.intp).max:
        raise DataFormatError(f"{where}: {name}={value} exceeds the largest array dimension")


def _check_dataset_dims(s: int, d: int) -> None:
    """Refuse a dataset header whose s or d its parse could not hold, naming line 1."""
    _check_dim("line 1", "d", d)
    # each block's labels become a (rows, s) bit matrix: a width that matrix
    # cannot take is a header error, not a MemoryError mid-file
    try:
        np.empty((_BLOCK_ROWS, s), dtype=np.uint8)
    except (MemoryError, ValueError):
        raise DataFormatError(f"line 1: {_BLOCK_ROWS} rows of s={s} tags "
                              f"do not fit in memory") from None


# same bytes as f"{x:.17g}", and cheap enough to map over whole rows
_fmt = "%.17g".__mod__


def _open_lines(path):
    """Open a text file whose lines end at LF only; a CR stays part of its line."""
    return open(path, "r", encoding="utf-8", newline="\n")


def _parsed_blocks(fh, lineno: int, parse, rescan, *args):
    """Yield parse(rows, *args) for each block of the remaining lines of fh.

    rows are the block's lines, newlines stripped, and lineno is the number
    of the first.  A block that parse rejects with ValueError or
    OverflowError goes to rescan(rows, its first line number, *args), which
    raises at the first bad line with that line's exact message.
    """
    while True:
        rows = [line.rstrip("\n") for line in islice(fh, _BLOCK_ROWS)]
        if not rows:
            return
        try:
            parsed = parse(rows, *args)
        except (ValueError, OverflowError):
            parsed = rescan(rows, lineno, *args)
        yield parsed
        lineno += len(rows)


def _write_float_rows(fh, rows: np.ndarray) -> None:
    """Write one LF-terminated line of space-separated 17-digit floats per row,
    _BLOCK_ROWS rows at a time, so the text is never held whole."""
    # one % call per row, with the same bytes as _fmt per value
    line = " ".join(["%.17g"] * rows.shape[1]) + "\n"
    for lo in range(0, len(rows), _BLOCK_ROWS):
        fh.write("".join([line % tuple(row) for row in rows[lo:lo + _BLOCK_ROWS].tolist()]))


def _tag_text(bits: np.ndarray) -> list[str]:
    """Comma-separated 1-based active tags of each 0/1 row."""
    names = [str(j) for j in range(1, bits.shape[1] + 1)]
    return [",".join(compress(names, row)) for row in bits.tolist()]


def _tag_bits(fields: list[str], s: int) -> np.ndarray:
    """(len(fields), s) 0/1 rows from comma-separated 1-based tag lists.

    Raises ValueError or OverflowError on any bad or out-of-range tag; the
    caller then rescans line by line for the exact message.
    """
    bits = np.zeros((len(fields), s), dtype=np.uint8)
    joined = ",".join(filter(None, fields))
    if joined:
        tags = np.fromiter(map(int, joined.split(",")), dtype=np.int64)
        if tags.min() < 1 or tags.max() > s:
            raise ValueError("tag index out of range")
        per_row = [field.count(",") + 1 if field else 0 for field in fields]
        bits[np.repeat(np.arange(len(fields)), per_row), tags - 1] = 1
    return bits


def _dataset_block(rows: list[str], s: int, d: int):
    """(bits, nnz per row, 0-based indices, values) of one block of data lines.

    Raises ValueError or OverflowError when any line breaks a format rule.
    """
    parts = [row.partition("\t") for row in rows]
    if not all(tab for _, tab, _ in parts):
        raise ValueError("a line has no tab")
    bits = _tag_bits([labels for labels, _, _ in parts], s)
    feats = [feat for _, _, feat in parts]
    nnz = np.array([feat.count(" ") + 1 if feat else 0 for feat in feats], dtype=np.intp)
    n = int(nnz.sum())
    joined = " ".join(filter(None, feats))
    # every token is exactly one index:value pair
    if joined.encode().translate(None, _NOT_SEPARATOR) != (b": " * n)[:-1]:
        raise ValueError("a feature token has no or several ':'")
    flat = joined.replace(":", " ").split(" ") if n else []
    idx = np.fromiter(map(int, flat[0::2]), dtype=np.intp, count=n)
    vals = np.fromiter(map(float, flat[1::2]), dtype=np.float64, count=n)
    if not np.all(np.isfinite(vals)):
        raise ValueError("a feature value is not finite")
    if n and (idx.min() < 1 or idx.max() > d):
        raise ValueError("feature index out of range")
    row_of = np.repeat(np.arange(len(rows)), nnz)
    if not np.all((np.diff(idx) > 0) | (np.diff(row_of) > 0)):
        raise ValueError("feature indices not strictly increasing")
    return bits, nnz, idx - 1, vals


def _dataset_lines(rows: list[str], lineno: int, s: int, d: int):
    """_dataset_block parsed line by line, raising at the first bad line and token."""
    bits = np.zeros((len(rows), s), dtype=np.uint8)
    nnz = np.zeros(len(rows), dtype=np.intp)
    col_indices: list[int] = []
    values: list[float] = []
    for r, line in enumerate(rows):
        where = f"line {lineno + r}"
        if "\t" not in line:
            raise DataFormatError(f"{where}: expected '<labels>\\t<features>'")
        label_part, feat_part = line.split("\t", 1)
        if label_part:
            for tok in label_part.split(","):
                try:
                    j = int(tok)
                except ValueError:
                    raise DataFormatError(f"{where}: bad label index {tok!r}") from None
                if not 1 <= j <= s:
                    raise DataFormatError(f"{where}: label index {j} out of range 1..{s}")
                bits[r, j - 1] = 1
        prev = 0
        if feat_part:
            for tok in feat_part.split(" "):
                if ":" not in tok:
                    raise DataFormatError(f"{where}: bad feature pair {tok!r}")
                idx_txt, val_txt = tok.split(":", 1)
                try:
                    idx = int(idx_txt)
                    val = float(val_txt)
                except ValueError:
                    raise DataFormatError(f"{where}: bad feature pair {tok!r}") from None
                if not np.isfinite(val):
                    raise DataFormatError(f"{where}: feature value {val_txt!r} is not finite")
                if not 1 <= idx <= d:
                    raise DataFormatError(f"{where}: feature index {idx} out of range 1..{d}")
                if idx == prev:
                    raise DataFormatError(f"{where}: duplicate feature index {idx}")
                if idx < prev:
                    raise DataFormatError(f"{where}: feature indices must be strictly increasing")
                prev = idx
                col_indices.append(idx - 1)
                values.append(val)
                nnz[r] += 1
    return (bits, nnz, np.array(col_indices, dtype=np.intp),
            np.array(values, dtype=np.float64))


def load_dataset(path) -> Dataset:
    """Parse a dataset file; malformed content raises with the line number."""
    with _open_lines(path) as fh:
        parts = fh.readline().split()
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
        _check_dataset_dims(s, d)

        pieces = [(np.zeros((0, s), dtype=np.uint8), np.zeros(0, dtype=np.intp),
                   np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.float64))]
        pieces.extend(_parsed_blocks(fh, 2, _dataset_block, _dataset_lines, s, d))
    bits, nnz, col_indices, values = (np.concatenate(arrays) for arrays in zip(*pieces))
    del pieces
    indptr = np.zeros(len(nnz) + 1, dtype=np.intp)
    np.cumsum(nnz, out=indptr[1:])
    features = sparse.csr_matrix((values, col_indices, indptr), shape=(len(nnz), d))
    return Dataset(s=s, d=d, features=features, labels=bits)


def save_dataset(data: Dataset, path) -> None:
    """Write a dataset file that load_dataset will reproduce exactly."""
    # Dataset keeps its features in canonical CSR form, so each row's
    # entries are already in the strictly increasing order the format needs
    feats = data.features
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{_DATASET_MAGIC} s={data.s} d={data.d}\n")
        for lo in range(0, data.m, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, data.m)
            ptr = feats.indptr[lo:hi + 1]
            entries = slice(ptr[0], ptr[-1])
            pairs = [None] * (2 * int(ptr[-1] - ptr[0]))
            pairs[0::2] = (feats.indices[entries] + 1).tolist()
            pairs[1::2] = feats.data[entries].tolist()
            # the whole block is one % call; tag lists hold only digits and commas
            counts = np.diff(ptr).tolist()
            fmt = "".join([f"{labels}\t{(' %d:%.17g' * n)[1:]}\n"
                           for labels, n in zip(_tag_text(data.bits[lo:hi]), counts)])
            fh.write(fmt % tuple(pairs))


def save_stat_probs(prob_rows: np.ndarray, s: int, path) -> None:
    """Write a sidecar of true statistic means, one point per line, checked before writing."""
    prob_rows = np.asarray(prob_rows, dtype=np.float64)
    if prob_rows.ndim != 2 or prob_rows.shape[1] != s * s + 1:
        raise ValueError(f"expected shape (m, {s * s + 1})")
    if not np.all(np.isfinite(prob_rows)):
        raise ValueError("statistic means must be finite")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{_SIDE_MAGIC} s={s}\n")
        _write_float_rows(fh, prob_rows)


def _stat_prob_block(rows: list[str], width: int) -> np.ndarray:
    """(len(rows), width) finite floats; ValueError when any line breaks a rule."""
    if any(row.count(" ") != width - 1 for row in rows):
        raise ValueError("a line has the wrong number of values")
    vals = np.fromiter(map(float, " ".join(rows).split(" ")), dtype=np.float64,
                       count=len(rows) * width)
    if not np.all(np.isfinite(vals)):
        raise ValueError("a value is not finite")
    return vals.reshape(len(rows), width)


def _stat_prob_lines(rows: list[str], lineno: int, width: int) -> np.ndarray:
    """_stat_prob_block parsed line by line, raising at the first bad line."""
    out = []
    for r, line in enumerate(rows):
        vals = line.split(" ")
        if len(vals) != width:
            raise DataFormatError(f"line {lineno + r}: expected {width} values")
        try:
            row = [float(v) for v in vals]
        except ValueError:
            raise DataFormatError(f"line {lineno + r}: bad float") from None
        if not all(np.isfinite(row)):
            raise DataFormatError(f"line {lineno + r}: values must be finite")
        out.append(row)
    return np.array(out, dtype=np.float64).reshape(len(rows), width)


def load_stat_probs(path) -> np.ndarray:
    """Read a sidecar as an (m, s*s + 1) array; malformed content raises with the line number."""
    with _open_lines(path) as fh:
        parts = fh.readline().split()
        if len(parts) != 3 or " ".join(parts[:2]) != _SIDE_MAGIC or not parts[2].startswith("s="):
            raise DataFormatError(f"line 1: expected header '{_SIDE_MAGIC} s=<s>'")
        try:
            s = int(parts[2][2:])
        except ValueError:
            raise DataFormatError("line 1: s must be an integer") from None
        if s < 1:
            raise DataFormatError("line 1: s must be >= 1")
        width = s * s + 1
        _check_dim("line 1", "s*s+1", width)
        blocks = [np.zeros((0, width), dtype=np.float64)]
        blocks.extend(_parsed_blocks(fh, 2, _stat_prob_block, _stat_prob_lines, width))
    return np.concatenate(blocks)


def save_predictions(bits, path) -> None:
    """One labeling per line as comma-separated 1-based active tags.

    bits is an (m, s) 0/1 matrix, as predict_rows returns, or a sequence of LabelVec.
    A matrix that is not 2-d or holds other values, or LabelVecs of different
    tag counts, raise ValueError before the file is opened.
    """
    bits = _bit_matrix(bits)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for lo in range(0, len(bits), _BLOCK_ROWS):
            fh.write("".join(line + "\n" for line in _tag_text(bits[lo:lo + _BLOCK_ROWS])))


def _prediction_lines(rows: list[str], lineno: int, s: int) -> np.ndarray:
    """_tag_bits parsed line by line, raising at the first bad line."""
    bits = np.zeros((len(rows), s), dtype=np.uint8)
    for r, line in enumerate(rows):
        if not line:
            continue
        try:
            tags = [int(tok) for tok in line.split(",")]
        except ValueError:
            raise DataFormatError(f"line {lineno + r}: bad label index") from None
        for j in tags:
            if not 1 <= j <= s:
                raise DataFormatError(f"line {lineno + r}: tag index {j} out of range 1..{s}")
            bits[r, j - 1] = 1
    return bits


def load_predictions(path, s: int) -> list[LabelVec]:
    """Read one labeling per line; a bad or out-of-range tag raises with the line number."""
    blocks = [np.zeros((0, s), dtype=np.uint8)]
    with _open_lines(path) as fh:
        blocks.extend(_parsed_blocks(fh, 1, _tag_bits, _prediction_lines, s))
    return labelvec_rows(np.concatenate(blocks))


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
        algo, beta, counts = "surrogate", model.beta.beta, model.counts
    elif isinstance(model, EfpModel):
        algo, beta, counts = "efp", model.beta.beta, model.counts
    elif isinstance(model, BrModel):
        algo, beta, counts = "br", 1.0, ()
    else:
        raise ValueError(f"cannot serialize a {type(model).__name__}")
    header = _header_lines(algo, model.s, model.d, beta, model.bias, model.reg_lambda,
                           counts, len(model.weights))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in header))
        _write_float_rows(fh, model.weights)


def _parse_model_header(lines: list[str]) -> dict:
    if lines[0] != _MODEL_MAGIC:
        raise DataFormatError(f"line 1: expected '{_MODEL_MAGIC}'")
    keys = ("algo", "s", "d", "beta", "bias", "reg", "counts", "vectors")
    fields: dict = {}
    for lineno, key in enumerate(keys, start=2):
        if not lines[lineno - 1].startswith(f"{key}="):
            raise DataFormatError(f"line {lineno}: expected '{key}=...'")
        fields[key] = lines[lineno - 1][len(key) + 1:]
    try:
        fields["s"] = int(fields["s"])
        fields["d"] = int(fields["d"])
        fields["beta"] = float(fields["beta"])
        fields["bias"] = int(fields["bias"])
        fields["reg"] = float(fields["reg"])
        fields["vectors"] = int(fields["vectors"])
        fields["counts"] = tuple(
            int(tok) for tok in fields["counts"].split(",") if tok
        )
    except ValueError:
        raise DataFormatError("malformed model header value") from None
    algo, s, counts = fields["algo"], fields["s"], fields["counts"]
    if algo not in ALGORITHMS:
        raise DataFormatError(f"unknown algorithm tag {algo!r}")
    if s < 1:
        raise DataFormatError("line 3: s must be >= 1")
    if fields["d"] < 1:
        raise DataFormatError("line 4: d must be >= 1")
    _check_dim("line 3", "s", s)
    _check_dim("line 4", "d", fields["d"])
    if not (np.isfinite(fields["beta"]) and fields["beta"] > 0.0):
        raise DataFormatError("line 5: beta must be a finite positive real")
    if fields["bias"] not in (0, 1):
        raise DataFormatError("line 6: bias must be 0 or 1")
    fields["bias"] = bool(fields["bias"])
    if not (np.isfinite(fields["reg"]) and fields["reg"] >= 0.0):
        raise DataFormatError("line 7: reg must be a finite non-negative real")
    if algo == "br" and counts:
        raise DataFormatError("line 8: a br model has no counts")
    if counts != tuple(sorted(set(counts))) or any(not 1 <= k <= s for k in counts):
        raise DataFormatError(f"line 8: counts must be strictly increasing within 1..{s}")
    n_vectors = {"surrogate": 1 + s * len(counts), "efp": 1 + s * (1 + len(counts)), "br": s}
    if fields["vectors"] != n_vectors[algo]:
        raise DataFormatError(
            f"line 9: a {algo} model with s={s} and {len(counts)} counts has "
            f"{n_vectors[algo]} vectors, not {fields['vectors']}"
        )
    return fields


def load_model(path, expected_algo: str | None = None):
    """Load a model file; raises on version/tag mismatch, truncation, or a header whose
    counts= or vectors= does not fit its algorithm.

    The body is read line by line into the model's preallocated weight
    matrix, which the model then keeps uncopied, so neither the text of the
    file nor a second copy of the weights is ever held.  Blank lines are
    skipped; a non-finite weight is rejected naming its line.
    """
    with _open_lines(path) as fh:
        fields = _parse_model_header([fh.readline().rstrip("\n") for _ in range(9)])
        if expected_algo is not None and fields["algo"] != expected_algo:
            raise DataFormatError(
                f"algorithm tag mismatch: file says {fields['algo']!r}, "
                f"expected {expected_algo!r}"
            )
        width = fields["d"] + 1
        try:
            rows = np.empty((fields["vectors"], width))
        except (MemoryError, ValueError):
            raise DataFormatError(f"lines 4 and 9: {fields['vectors']} weight vectors of "
                                  f"{width} entries do not fit in memory") from None
        found, error = 0, None
        # the header takes lines 1-9
        for lineno, line in enumerate(fh, start=10):
            line = line.rstrip("\n")
            if not line:
                continue
            # after a bad row, only count the rest: a wrong row count is reported first
            if error is None and found < len(rows):
                try:
                    # numpy's str-to-float64 cast accepts and rounds as float() does
                    row = np.array(line.split(" "), dtype=np.float64)
                except ValueError:
                    error = "bad float in model body"
                else:
                    if row.size != width:
                        error = f"weight vectors must have {width} entries"
                    elif not np.all(np.isfinite(row)):
                        # nan, inf and overflowing tokens such as 1e400 parse
                        error = f"line {lineno}: model weights must be finite"
                    else:
                        rows[found] = row
            found += 1
    if found != len(rows):
        raise DataFormatError(
            f"truncated model file: header promises {len(rows)} vectors, found {found}"
        )
    if error is not None:
        raise DataFormatError(error)
    s, d, counts = fields["s"], fields["d"], fields["counts"]
    weights = _Trained(rows)
    if fields["algo"] == "br":
        return BrModel(s=s, d=d, weights=weights, bias=fields["bias"], reg_lambda=fields["reg"])
    beta = BetaParam(fields["beta"])
    if fields["algo"] == "surrogate":
        return LinearModel(
            s=s, d=d, beta=beta, active_indices=SurrogateConfig(s, beta, counts).active_indices,
            weights=weights, bias=fields["bias"], reg_lambda=fields["reg"],
        )
    return EfpModel(
        s=s, d=d, beta=beta, counts=counts, weights=weights,
        bias=fields["bias"], reg_lambda=fields["reg"],
    )


def _interchange_row(line: str, lineno: int, s: int, d: int, shift: int) -> str:
    """One interchange body line as an LF-terminated dataset line; raises naming lineno."""
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
    return f"{','.join(str(t) for t in tags)}\t{feat_txt}\n"


def convert_interchange(src, dst, zero_based: bool = True) -> None:
    """Convert the common 'header then label,label idx:val ...' layout.

    The source header line is 'num_points num_features num_labels'; label
    and feature indices are 0-based by default.  Output is a dataset file.
    A point count that disagrees with the header, a malformed or duplicate
    feature, or a non-finite value raises with the line number.

    The source is read twice, line by line: once to count its points, then
    to convert them a block at a time into a temporary file beside dst,
    which replaces dst only once every line has converted.  A failed
    conversion leaves dst as it was.
    """
    with _open_lines(src) as fh:
        head = fh.readline().split()
        n_body = sum(1 for _ in fh)
    if len(head) != 3:
        raise DataFormatError("line 1: expected 'num_points num_features num_labels'")
    try:
        m, d, s = (int(tok) for tok in head)
    except ValueError:
        raise DataFormatError("line 1: counts must be integers") from None
    if m < 0 or d < 1 or s < 1:
        raise DataFormatError("line 1: num_points must be >= 0, the other counts >= 1")
    _check_dataset_dims(s, d)
    if n_body != m:
        raise DataFormatError(
            f"line {min(n_body, m) + 2}: header declares {m} points, file holds {n_body}"
        )
    shift = 1 if zero_based else 0
    tmp = f"{os.fspath(dst)}.{secrets.token_hex(8)}.tmp"
    try:
        with _open_lines(src) as fh, open(tmp, "x", encoding="utf-8", newline="\n") as out:
            fh.readline()
            out.write(f"{_DATASET_MAGIC} s={s} d={d}\n")
            lineno = 2
            while rows := list(islice(fh, _BLOCK_ROWS)):
                out.write("".join(_interchange_row(line.rstrip("\n"), lineno + r, s, d, shift)
                                  for r, line in enumerate(rows)))
                lineno += len(rows)
        os.replace(tmp, dst)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise
