"""Dataset ingestion, normalization, and batching.

Supports the two container formats the experiments use: IDX binaries (the
MNIST pair of image/label files) and delimited numeric text with one label
column, which numpy's C text reader parses at a peak of about twice the table.
Normalization is fitted on training rows only and maps each feature column
affinely into [-1, 1], in place; selected columns can be log- or log1p-
transformed first.  A fitted spec round-trips through a JSON dict so stored
models can reproduce their training preprocessing exactly.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NoReturn

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class DataFormatError(ValueError):
    """A dataset file violates its format contract."""


@dataclass
class Dataset:
    """Features plus per-row labels, with an optional train/test row split."""

    features: np.ndarray  # N x n0
    labels: np.ndarray  # length N; integer classes or real targets
    n_train: int | None = None  # first n_train rows are the training split

    def __post_init__(self):
        if self.features.ndim != 2:
            raise DataFormatError(f"features must be 2-D, got ndim={self.features.ndim}")
        if len(self.labels) != self.features.shape[0]:
            raise DataFormatError(
                f"{len(self.labels)} labels for {self.features.shape[0]} rows")
        if self.n_train is not None and not (0 < self.n_train <= self.features.shape[0]):
            raise DataFormatError(f"n_train={self.n_train} outside (0, {self.features.shape[0]}]")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def train(self) -> "Dataset":
        if self.n_train is None:
            return self
        return Dataset(self.features[:self.n_train], self.labels[:self.n_train])

    @property
    def test(self) -> "Dataset":
        if self.n_train is None:
            raise ValueError("dataset has no split metadata")
        return Dataset(self.features[self.n_train:], self.labels[self.n_train:])


class BoundedReader:
    """Reads a file, refusing any request larger than the bytes left in it.

    Sizes come from file headers, so each is checked before anything is
    allocated for it: a crafted header cannot force a huge allocation.
    ``left`` counts the bytes not yet read; errors are ``error``, naming the file.
    """

    def __init__(self, f, name, error=DataFormatError):
        self._f, self.name, self._error = f, name, error
        self.left = os.fstat(f.fileno()).st_size - f.tell()

    def exact(self, n: int, what: str) -> bytes:
        if n <= self.left:
            buf = self._f.read(n)
            if len(buf) == n:
                self.left -= n
                return buf
            self.left = len(buf)  # the file shrank since it was opened
        raise self._error(f"{self.name}: truncated while reading {what}: "
                          f"wanted {n} bytes, {self.left} left")


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair into rows of raw byte values.

    Image pixels arrive as floats in [0, 255]; apply a transform spec to map
    them into the cascade's working range.  A pair of 0 images is rejected
    as an empty dataset, as ``load_delimited`` rejects a file of no rows.
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    with open(images_path, "rb") as f:
        reader = BoundedReader(f, images_path)
        magic, count, rows, cols = struct.unpack(">IIII", reader.exact(16, "header"))
        if magic != IDX_IMAGES_MAGIC:
            raise DataFormatError(
                f"{images_path}: bad magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
        if count == 0:
            raise DataFormatError(f"{images_path}: empty dataset")
        payload = reader.exact(count * rows * cols, f"{count} images of {rows}x{cols}")
        if reader.left:
            raise DataFormatError(f"{images_path}: trailing bytes after image payload")
    features = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols).astype(np.float64)

    with open(labels_path, "rb") as f:
        reader = BoundedReader(f, labels_path)
        magic, label_count = struct.unpack(">II", reader.exact(8, "header"))
        if magic != IDX_LABELS_MAGIC:
            raise DataFormatError(
                f"{labels_path}: bad magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}")
        if label_count != count:
            raise DataFormatError(
                f"{labels_path}: {label_count} labels for {count} images in {images_path}")
        labels = np.frombuffer(reader.exact(label_count, "labels"), dtype=np.uint8)
        if reader.left:
            raise DataFormatError(f"{labels_path}: trailing bytes after label payload")
    return Dataset(features, labels.astype(np.int64))


def _number(cell: str) -> float:
    """A cell as numpy's text reader reads it: ``float`` of ASCII text without underscores."""
    cell = cell.strip()
    if not cell.isascii() or "_" in cell:
        raise ValueError(cell)
    return float(cell)


def _raise_first_error(path, delimiter: str, max_rows: int | None, reason: str) -> NoReturn:
    """Raise DataFormatError naming the first ragged row, unreadable or non-finite cell of
    a file the reader refused; with ``reason``, the reader's message, if it finds none."""
    width, n_rows = None, 0
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for row_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(delimiter)
            width = width or len(cells)
            if len(cells) != width:
                raise DataFormatError(
                    f"{path}: row {row_no} has {len(cells)} cells, expected {width}")
            for col_no, cell in enumerate(cells, start=1):
                try:
                    value = _number(cell)
                except ValueError:
                    if line.encode("utf-8", "replace").decode() != line:  # has a lone surrogate
                        raise DataFormatError(f"{path}: row {row_no} is not UTF-8 text") from None
                    raise DataFormatError(
                        f"{path}: non-numeric cell at row {row_no}, column {col_no}: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataFormatError(f"{path}: non-finite cell at row {row_no}, "
                                          f"column {col_no}: {value}")
            n_rows += 1
            if n_rows == max_rows:
                break
    raise DataFormatError(f"{path}: {reason}")


def load_delimited(path, label_column: int = 0, delimiter: str = ",",
                   max_rows: int | None = None) -> Dataset:
    """Parse a rectangular numeric table, one label column, rest features.

    The delimiter is one character, not a line end.  A cell holds a finite
    number in ``float`` syntax, ASCII without underscores, spaces around it
    allowed.  Blank lines are skipped; ``max_rows`` (at least 1) counts data
    rows.  numpy's C reader parses the table into one float64 array, so
    memory peaks at about twice the table.  A line scan runs only to name a
    fault the reader met by its 1-based row (file line) and column, or a row
    that is not UTF-8 text by its row.
    """
    path = Path(path)
    if not delimiter:
        raise DataFormatError(f"{path}: the delimiter is empty")
    if len(delimiter) > 1 or delimiter in "\r\n":
        raise DataFormatError(f"{path}: the delimiter must be one character other than a line "
                              f"end, got {delimiter!r}")
    if max_rows is not None and max_rows < 1:
        raise DataFormatError(f"{path}: max_rows must be >= 1, got {max_rows}")
    # undecodable bytes become lone surrogates, which no cell parses as a number
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        lines = filter(None, map(str.strip, f))
        first = next(lines, None)
        if first is None:
            raise DataFormatError(f"{path}: empty dataset")
        width = len(first.split(delimiter))
        if label_column >= width or label_column < -width:
            raise DataFormatError(
                f"{path}: label column {label_column} out of range for {width} columns")
        try:
            table = np.loadtxt(itertools.chain([first], lines), dtype=np.float64,
                               delimiter=delimiter, comments=None, ndmin=2, max_rows=max_rows)
        except ValueError as exc:
            _raise_first_error(path, delimiter, max_rows, str(exc))
    if not np.isfinite(table).all():
        _raise_first_error(path, delimiter, max_rows, "a cell is NaN or Inf")
    label = label_column % width
    return Dataset(np.delete(table, label, axis=1), table[:, label].copy())


@dataclass(frozen=True)
class TransformSpec:
    """Per-column preprocessing: optional log transforms, then min-max to [-1, 1].

    ``log_columns`` and ``log1p_columns`` are 0-based feature indices.  The
    bounds fields are filled by fitting; a spec with bounds applies without
    refitting, which is how inference reuses training normalization.
    """

    log_columns: tuple[int, ...] = ()
    log1p_columns: tuple[int, ...] = ()
    clamp: bool = False
    col_min: tuple[float, ...] | None = None
    col_max: tuple[float, ...] | None = None

    def __post_init__(self):
        named = [*self.log_columns, *self.log1p_columns]
        if len(set(named)) < len(named):
            raise DataFormatError(f"log_columns {list(self.log_columns)} and log1p_columns "
                                  f"{list(self.log1p_columns)} name a column twice")

    @property
    def fitted(self) -> bool:
        return self.col_min is not None

    def check_width(self, width: int) -> None:
        """Raise DataFormatError unless the spec applies to rows of ``width`` features: its
        columns lie in [0, width), and any bounds have ``width`` ranges whose doubles are
        finite, so no value within its bounds normalises beyond the float range."""
        bad_cols = [c for c in (*self.log_columns, *self.log1p_columns) if not 0 <= c < width]
        if bad_cols:
            raise DataFormatError(f"transform columns {bad_cols} out of range for {width} features")
        if self.fitted and len(self.col_min) != width:
            raise DataFormatError(f"preprocessing bounds have {len(self.col_min)} columns for "
                                  f"{width} features")
        overflow = [j for j, (lo, hi) in enumerate(zip(self.col_min or (), self.col_max or ()))
                    if not math.isfinite(2.0 * (float(hi) - float(lo)))]
        if overflow:
            raise DataFormatError(f"preprocessing bounds are too far apart at columns {overflow}")

    def to_dict(self) -> dict:
        return {
            "log_columns": list(self.log_columns),
            "log1p_columns": list(self.log1p_columns),
            "clamp": self.clamp,
            "col_min": None if self.col_min is None else list(self.col_min),
            "col_max": None if self.col_max is None else list(self.col_max),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TransformSpec":
        """Rebuild a spec from ``to_dict`` output; a mistyped entry raises DataFormatError."""
        def numbers(key, ok, what):
            value = d.get(key, [])
            if not (isinstance(value, list) and all(type(v) in (int, float) and ok(v)
                                                    for v in value)):
                raise DataFormatError(f"preprocessing {key} is not a list of {what}: {value!r}")
            return tuple(value)

        def columns(key):
            return numbers(key, lambda v: type(v) is int, "ints")

        def bounds(key):
            if d.get(key) is None:
                return None
            # False for NaN, infinities and ints beyond the float range
            return numbers(key, lambda v: abs(v) <= sys.float_info.max, "finite numbers")

        if not isinstance(d.get("clamp", False), bool):
            raise DataFormatError(f"preprocessing clamp is not a boolean: {d['clamp']!r}")
        col_min, col_max = bounds("col_min"), bounds("col_max")
        if (col_min is None) != (col_max is None) or (
                col_min is not None and len(col_min) != len(col_max)):
            raise DataFormatError("preprocessing col_min and col_max must both be absent "
                                  "or both present with equal lengths")
        crossed = [j for j, (lo, hi) in enumerate(zip(col_min or (), col_max or ())) if lo > hi]
        if crossed:
            raise DataFormatError(f"preprocessing col_min exceeds col_max at columns {crossed}")
        return cls(log_columns=columns("log_columns"), log1p_columns=columns("log1p_columns"),
                   clamp=d.get("clamp", False), col_min=col_min, col_max=col_max)


def _apply_logs(features: np.ndarray, spec: TransformSpec, out: np.ndarray) -> None:
    """Write the log and log1p transforms of the named ``features`` columns into ``out``."""
    for col in spec.log_columns:
        column = features[:, col]
        if np.any(column <= 0):
            bad = int(np.argmax(column <= 0))
            raise DataFormatError(
                f"features: log column {col} has non-positive value {column[bad]} "
                f"at data row {bad + 1} (blank lines not counted)")
        out[:, col] = np.log(column)
    for col in spec.log1p_columns:
        column = features[:, col]
        if np.any(column <= -1):
            bad = int(np.argmax(column <= -1))
            raise DataFormatError(
                f"features: log1p column {col} has value {column[bad]} <= -1 "
                f"at data row {bad + 1} (blank lines not counted)")
        out[:, col] = np.log1p(column)


def fit_apply_transforms(dataset: Dataset, spec: TransformSpec,
                         ) -> tuple[Dataset, TransformSpec]:
    """Fit bounds on the training split (unless already fitted) and apply.

    Log transforms run first, then each column maps affinely so the training
    min/max land on -1/+1.  Zero-range columns map to 0 everywhere.  Rows
    outside the training bounds (test split) pass through unclamped unless
    the spec asks for clamping, all in place in one output array.  A value
    that does not normalise to a finite number raises ``DataFormatError``
    naming its 0-based feature index, the index ``log_columns`` uses, and its
    1-based data row, which counts rows of ``dataset`` (blank lines of a
    delimited file are not rows; ``load_delimited``'s own errors name file
    lines).
    """
    spec.check_width(dataset.n_features)
    features = dataset.features
    # the dtype of ``features - lo``: float64 against fitted bounds, else the features' float type
    out = features.astype(np.result_type(features.dtype, np.float64 if spec.fitted else 1.0))
    _apply_logs(features, spec, out)

    if spec.fitted:
        lo = np.asarray(spec.col_min, dtype=np.float64)
        hi = np.asarray(spec.col_max, dtype=np.float64)
        fitted = spec
    else:
        train_rows = out if dataset.n_train is None else out[:dataset.n_train]
        lo = train_rows.min(axis=0)
        hi = train_rows.max(axis=0)
        fitted = replace(spec, col_min=tuple(lo.tolist()), col_max=tuple(hi.tolist()))

    # 2 * (x - lo) / span - 1, one operation at a time in place; an overflow is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
        safe_span = np.where(span > 0, span, 1.0)
        out -= lo
        out *= 2.0
        out /= safe_span
        out -= 1.0
    out[:, span == 0] = 0.0
    if spec.clamp:
        np.clip(out, -1.0, 1.0, out=out)
    if not np.isfinite(out).all():
        i, j = np.argwhere(~np.isfinite(out))[0]
        row = features[i:i + 1].astype(out.dtype)
        _apply_logs(features[i:i + 1], spec, row)
        raise DataFormatError(f"feature {j} of data row {i + 1} (blank lines not counted) "
                              f"normalises to {out[i, j]}: value {row[0, j]}, "
                              f"training bounds [{lo[j]}, {hi[j]}]")
    return Dataset(out, dataset.labels, n_train=dataset.n_train), fitted


@dataclass(frozen=True)
class Batch:
    features: np.ndarray
    labels: np.ndarray
    indices: np.ndarray  # dataset row numbers of this batch


def batches(dataset: Dataset, batch_rows: int, seed: int = 0, shuffle: bool = True):
    """Yield batches covering the dataset exactly once; final batch may be short."""
    if batch_rows < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_rows}")
    n = dataset.n_rows
    if batch_rows > n:
        warnings.warn(f"batch size {batch_rows} exceeds dataset rows {n}; using one batch")
    order = np.arange(n)
    if shuffle:
        order = np.random.default_rng(seed).permutation(n)
    for lo in range(0, n, batch_rows):
        idx = order[lo:lo + batch_rows]
        yield Batch(dataset.features[idx], dataset.labels[idx], idx)
