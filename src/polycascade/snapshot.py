"""Versioned binary model container.

Layout (all integers little-endian unsigned 64-bit unless noted):

    magic   4 bytes  b"PHC1"
    u64     replica count d
    u64     package count q
    u64*(q+1)  single-output core widths (last is 1)
    f64     alpha
    f64     kernel coefficient b
    f64     kernel coefficient c
    f64     sigma2
    u64     dtype code (0 = float64, 1 = float32)
    u64     preprocessing JSON byte length, then that many UTF-8 bytes
    then, per replica and per package in order:
    u64     rows, u64 cols, rows*cols values in the stored dtype

Only value matrices are stored; coefficient matrices are rederived on load,
so a snapshot is always internally consistent.  The embedded preprocessing
spec lets inference reproduce training normalization bit-for-bit.  Every
length read from the header is checked against the bytes left in the file
before it is read (``data.BoundedReader``), so a corrupt file fails with
SnapshotFormatError instead of a huge allocation.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .cascade import MultiOutputCascade
from .data import BoundedReader, DataFormatError, TransformSpec
from .kernel import KernelParams
from .linalg import NonFiniteError

MAGIC = b"PHC1"
_DTYPE_CODES = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}
_CODE_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}


class SnapshotFormatError(ValueError):
    """The file is not a valid model container."""


def _write_u64(f, *vals):
    f.write(struct.pack("<" + "Q" * len(vals), *vals))


def _write_f64(f, *vals):
    f.write(struct.pack("<" + "d" * len(vals), *vals))


def _matrix(reader: BoundedReader, dtype: np.dtype, what: str) -> np.ndarray:
    """A stored (rows, cols) header and the values it announces."""
    rows, cols = struct.unpack("<2Q", reader.exact(16, f"shape of {what}"))
    raw = reader.exact(rows * cols * dtype.itemsize, f"values of {what}")
    try:
        return np.frombuffer(raw, dtype=dtype).reshape(rows, cols)
    except ValueError as exc:  # an empty shape with a dimension numpy cannot hold
        raise SnapshotFormatError(f"{what}: stored shape {(rows, cols)}: {exc}") from exc


def _check_spec(preprocessing: dict, width: int) -> None:
    """Raise SnapshotFormatError unless ``preprocessing`` suits inputs of ``width`` features."""
    try:
        TransformSpec.from_dict(preprocessing).check_width(width)
    except DataFormatError as exc:
        raise SnapshotFormatError(f"invalid preprocessing spec: {exc}") from exc


def save_snapshot(path, model: MultiOutputCascade, preprocessing: dict | None = None) -> None:
    """Write the model and its optional preprocessing spec, checked first, to a PHC1 file."""
    widths = model.widths
    if preprocessing is not None:
        _check_spec(preprocessing, widths[0])
    dtype_code = _DTYPE_CODES[model.dtype]
    blob = b"" if preprocessing is None else json.dumps(preprocessing).encode("utf-8")

    path = Path(path)
    with open(path, "wb") as f:
        f.write(MAGIC)
        _write_u64(f, model.d, len(widths) - 1, *widths)
        _write_f64(f, model.alpha, model.kernel.b, model.kernel.c, model.sigma2)
        _write_u64(f, dtype_code, len(blob))
        f.write(blob)
        store_dtype = _CODE_DTYPES[dtype_code]
        for cascade in model.replicas:
            for pkg in cascade.packages:
                rows, cols = pkg.values.shape
                _write_u64(f, rows, cols)
                f.write(np.ascontiguousarray(pkg.values, dtype=store_dtype).tobytes())


def load_snapshot(path) -> tuple[MultiOutputCascade, dict | None]:
    """Read a PHC1 file back into a model plus its preprocessing spec.

    Any malformed content, including non-finite or out-of-range numbers,
    raises SnapshotFormatError.
    """
    path = Path(path)
    with open(path, "rb") as f:
        reader = BoundedReader(f, path, SnapshotFormatError)
        magic = reader.exact(4, "magic")
        if magic != MAGIC:
            raise SnapshotFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        d, q = struct.unpack("<2Q", reader.exact(16, "replica and package counts"))
        if q < 1:  # a replica of no packages reads no bytes, so the payload would not bound d
            raise SnapshotFormatError(f"invalid package count {q}")
        widths = list(struct.unpack(f"<{q + 1}Q", reader.exact(8 * (q + 1), "widths")))
        alpha, b, c, sigma2 = struct.unpack("<4d", reader.exact(32, "hyperparameters"))
        dtype_code, blob_len = struct.unpack(
            "<2Q", reader.exact(16, "dtype code and preprocessing length"))
        if dtype_code not in _CODE_DTYPES:
            raise SnapshotFormatError(f"unknown dtype code {dtype_code}")
        preprocessing = None
        if blob_len:
            blob = reader.exact(blob_len, "preprocessing spec")
            try:
                preprocessing = json.loads(blob)
            except ValueError as exc:
                raise SnapshotFormatError(f"preprocessing spec is not valid JSON: {exc}") from exc
            if not isinstance(preprocessing, dict):
                raise SnapshotFormatError("preprocessing spec is not a JSON object")
            _check_spec(preprocessing, widths[0])

        store_dtype = _CODE_DTYPES[dtype_code]
        values = [[_matrix(reader, store_dtype, f"replica {j} package {i}") for i in range(q)]
                  for j in range(d)]
        if reader.left:
            raise SnapshotFormatError("trailing bytes after model payload")
    try:
        model = MultiOutputCascade(widths, values, alpha, KernelParams(b=b, c=c), sigma2,
                                   store_dtype)
    except (ValueError, NonFiniteError) as exc:
        raise SnapshotFormatError(str(exc)) from exc
    return model, preprocessing
