"""Dataset ingestion, normalization, and batching.

Supports the two container formats the experiments use: IDX binaries (the
MNIST pair of image/label files) and delimited numeric text with one label
column.  Normalization is fitted on training rows only and maps each feature
column affinely into [-1, 1]; selected columns can be log- or log1p-
transformed first.  A fitted spec round-trips through a JSON dict so stored
models can reproduce their training preprocessing exactly.
"""

from __future__ import annotations

import os
import struct
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

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


def _read_exact(f, n: int, what: str, path) -> bytes:
    """Read n bytes, refusing a request larger than what is left in the file.

    Sizes come from file headers, so they are checked before anything is
    allocated for them: a crafted header cannot force a huge allocation.
    """
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise DataFormatError(
            f"{path}: truncated while reading {what}: wanted {n} bytes, {left} left")
    buf = f.read(n)
    if len(buf) != n:
        raise DataFormatError(
            f"{path}: truncated while reading {what}: wanted {n} bytes, got {len(buf)}")
    return buf


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair into rows of raw byte values.

    Image pixels arrive as floats in [0, 255]; apply a transform spec to map
    them into the cascade's working range.  A pair of 0 images is rejected
    as an empty dataset, as ``load_delimited`` rejects a file of no rows.
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, "header", images_path))
        if magic != IDX_IMAGES_MAGIC:
            raise DataFormatError(
                f"{images_path}: bad magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
        if count == 0:
            raise DataFormatError(f"{images_path}: empty dataset")
        payload = _read_exact(f, count * rows * cols, f"{count} images of {rows}x{cols}",
                              images_path)
        if f.read(1):
            raise DataFormatError(f"{images_path}: trailing bytes after image payload")
    features = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols).astype(np.float64)

    with open(labels_path, "rb") as f:
        magic, label_count = struct.unpack(">II", _read_exact(f, 8, "header", labels_path))
        if magic != IDX_LABELS_MAGIC:
            raise DataFormatError(
                f"{labels_path}: bad magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}")
        if label_count != count:
            raise DataFormatError(
                f"{labels_path}: {label_count} labels for {count} images in {images_path}")
        labels = np.frombuffer(_read_exact(f, label_count, "labels", labels_path), dtype=np.uint8)
        if f.read(1):
            raise DataFormatError(f"{labels_path}: trailing bytes after label payload")
    return Dataset(features, labels.astype(np.int64))


def _finite_chunk(path, rows: list[list[float]], row_nos: list[int]) -> np.ndarray:
    """Parsed rows as one array; a NaN or Inf cell is named by its 1-based row and column."""
    chunk = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(chunk)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise DataFormatError(f"{path}: non-finite cell at row {row_nos[i]}, column {j + 1}: "
                              f"{float(chunk[i, j])}")
    return chunk


def load_delimited(path, label_column: int = 0, delimiter: str = ",",
                   max_rows: int | None = None) -> Dataset:
    """Parse a rectangular numeric table, one label column, rest features.

    Streams the file line by line; memory is proportional to the parsed
    output.  Blank lines are skipped, and ``max_rows`` counts data rows.
    Errors, including a NaN or Inf cell, carry 1-based row (file line) and
    column coordinates; a row that is not UTF-8 text is named by its row.
    """
    path = Path(path)
    if not delimiter:
        raise DataFormatError(f"{path}: the delimiter is empty")
    chunks: list[np.ndarray] = []
    buf: list[list[float]] = []
    buf_row_nos: list[int] = []
    n_rows = 0
    width = None
    # undecodable bytes become lone surrogates, which no cell parses as a number
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for row_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(delimiter)
            if width is None:
                width = len(cells)
                if label_column >= width or label_column < -width:
                    raise DataFormatError(
                        f"{path}: label column {label_column} out of range for {width} columns")
            elif len(cells) != width:
                raise DataFormatError(
                    f"{path}: row {row_no} has {len(cells)} cells, expected {width}")
            try:
                buf.append([float(c) for c in cells])
            except ValueError:
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise DataFormatError(f"{path}: row {row_no} is not UTF-8 text") from None
                for col_no, c in enumerate(cells, start=1):
                    try:
                        float(c)
                    except ValueError:
                        raise DataFormatError(
                            f"{path}: non-numeric cell at row {row_no}, column {col_no}: {c!r}"
                        ) from None
                raise
            buf_row_nos.append(row_no)
            n_rows += 1
            if len(buf) >= 65536:
                chunks.append(_finite_chunk(path, buf, buf_row_nos))
                buf, buf_row_nos = [], []
            if max_rows is not None and n_rows >= max_rows:
                break
    if buf:
        chunks.append(_finite_chunk(path, buf, buf_row_nos))
    if not chunks:
        raise DataFormatError(f"{path}: empty dataset")
    table = np.vstack(chunks)
    del chunks
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

    @property
    def fitted(self) -> bool:
        return self.col_min is not None

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
        return cls(log_columns=columns("log_columns"), log1p_columns=columns("log1p_columns"),
                   clamp=d.get("clamp", False), col_min=col_min, col_max=col_max)


def _apply_logs(features: np.ndarray, spec: TransformSpec, path_hint: str) -> np.ndarray:
    out = features.copy()
    for col in spec.log_columns:
        column = out[:, col]
        if np.any(column <= 0):
            bad = int(np.argmax(column <= 0))
            raise DataFormatError(
                f"{path_hint}: log column {col} has non-positive value {column[bad]} at row {bad}")
        out[:, col] = np.log(column)
    for col in spec.log1p_columns:
        column = out[:, col]
        if np.any(column <= -1):
            bad = int(np.argmax(column <= -1))
            raise DataFormatError(
                f"{path_hint}: log1p column {col} has value {column[bad]} <= -1 at row {bad}")
        out[:, col] = np.log1p(column)
    return out


def fit_apply_transforms(dataset: Dataset, spec: TransformSpec,
                         ) -> tuple[Dataset, TransformSpec]:
    """Fit bounds on the training split (unless already fitted) and apply.

    Log transforms run first, then each column maps affinely so the training
    min/max land on -1/+1.  Zero-range columns map to 0 everywhere.  Rows
    outside the training bounds (test split) pass through unclamped unless
    the spec asks for clamping.  A value that does not normalise to a
    finite number raises ``DataFormatError`` naming its 0-based feature
    index, the index ``log_columns`` uses, and its 1-based data row, which
    counts rows of ``dataset`` (blank lines of a delimited file are not
    rows; ``load_delimited``'s own errors name file lines).
    """
    ncols = dataset.n_features
    bad_cols = [c for c in (*spec.log_columns, *spec.log1p_columns) if not 0 <= c < ncols]
    if bad_cols:
        raise DataFormatError(f"transform columns {bad_cols} out of range for {ncols} features")
    transformed = _apply_logs(dataset.features, spec, "features")

    if spec.fitted:
        lo = np.asarray(spec.col_min, dtype=np.float64)
        hi = np.asarray(spec.col_max, dtype=np.float64)
        if lo.size != ncols:
            raise DataFormatError(f"fitted spec has {lo.size} columns, dataset has {ncols}")
        fitted = spec
    else:
        train_rows = transformed if dataset.n_train is None else transformed[:dataset.n_train]
        lo = train_rows.min(axis=0)
        hi = train_rows.max(axis=0)
        fitted = replace(spec, col_min=tuple(lo.tolist()), col_max=tuple(hi.tolist()))

    # an overflow here is reported below, with its row and feature
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
        safe_span = np.where(span > 0, span, 1.0)
        scaled = 2.0 * (transformed - lo) / safe_span - 1.0
    scaled[:, span == 0] = 0.0
    if spec.clamp:
        np.clip(scaled, -1.0, 1.0, out=scaled)
    if not np.isfinite(scaled).all():
        i, j = np.argwhere(~np.isfinite(scaled))[0]
        raise DataFormatError(f"feature {j} of data row {i + 1} (blank lines not counted) "
                              f"normalises to {scaled[i, j]}: value {transformed[i, j]}, "
                              f"training bounds [{lo[j]}, {hi[j]}]")
    return Dataset(scaled, dataset.labels, n_train=dataset.n_train), fitted


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
