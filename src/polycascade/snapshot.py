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
before it is read, so a corrupt file fails with SnapshotFormatError instead
of a huge allocation.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .cascade import Cascade, MultiOutputCascade
from .constellation import build_octahedral
from .data import DataFormatError, TransformSpec
from .kernel import KernelParams
from .linalg import NonFiniteError
from .package import Package

MAGIC = b"PHC1"
_DTYPE_CODES = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}
_CODE_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}


class SnapshotFormatError(ValueError):
    """The file is not a valid model container."""


def _write_u64(f, *vals):
    f.write(struct.pack("<" + "Q" * len(vals), *vals))


def _write_f64(f, *vals):
    f.write(struct.pack("<" + "d" * len(vals), *vals))


class _Reader:
    """Reads a snapshot, refusing any request larger than the bytes left in the file.

    Every length in the header is checked against the file before anything is
    allocated for it, so a corrupt header cannot force a huge allocation.
    """

    def __init__(self, f):
        self._f = f
        self.left = os.fstat(f.fileno()).st_size

    def exact(self, n: int, what: str) -> bytes:
        if n > self.left:
            raise SnapshotFormatError(
                f"truncated snapshot: wanted {n} bytes for {what}, {self.left} left")
        buf = self._f.read(n)
        if len(buf) != n:
            raise SnapshotFormatError(
                f"truncated snapshot: wanted {n} bytes for {what}, got {len(buf)}")
        self.left -= n
        return buf

    def u64(self, count: int, what: str) -> tuple[int, ...]:
        return struct.unpack(f"<{count}Q", self.exact(8 * count, what))

    def f64(self, count: int, what: str) -> tuple[float, ...]:
        return struct.unpack(f"<{count}d", self.exact(8 * count, what))


def save_snapshot(path, model: MultiOutputCascade, preprocessing: dict | None = None) -> None:
    """Write the model (and optional preprocessing spec) to a PHC1 file."""
    widths = model.widths
    sigma2 = model.replicas[0].packages[0].constellation.sigma2
    dtype_code = _DTYPE_CODES[np.dtype(model.dtype)]
    blob = b"" if preprocessing is None else json.dumps(preprocessing).encode("utf-8")

    path = Path(path)
    with open(path, "wb") as f:
        f.write(MAGIC)
        _write_u64(f, model.d, len(widths) - 1, *widths)
        _write_f64(f, model.alpha, model.kernel.b, model.kernel.c, sigma2)
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
        reader = _Reader(f)
        magic = reader.exact(4, "magic")
        if magic != MAGIC:
            raise SnapshotFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        d, q = reader.u64(2, "replica and package counts")
        if d < 1 or q < 1:
            raise SnapshotFormatError(f"invalid counts d={d}, q={q}")
        widths = list(reader.u64(q + 1, "widths"))
        if min(widths) < 1 or widths[-1] != 1:
            raise SnapshotFormatError(f"invalid widths {widths}: need positive widths ending in 1")
        alpha, b, c, sigma2 = reader.f64(4, "hyperparameters")
        if not (all(map(math.isfinite, (alpha, b, c, sigma2))) and alpha >= 0 and sigma2 >= 0):
            raise SnapshotFormatError(
                f"invalid hyperparameters alpha={alpha}, b={b}, c={c}, sigma2={sigma2}")
        dtype_code, blob_len = reader.u64(2, "dtype code and preprocessing length")
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
            try:
                TransformSpec.from_dict(preprocessing)
            except DataFormatError as exc:
                raise SnapshotFormatError(f"invalid preprocessing spec: {exc}") from exc

        store_dtype = _CODE_DTYPES[dtype_code]
        model_dtype = np.float64 if dtype_code == 0 else np.float32
        kernel = KernelParams(b=b, c=c)
        replicas = []
        for ri in range(d):
            packages = []
            for pi, (n_in, n_out) in enumerate(zip(widths, widths[1:])):
                where = f"replica {ri} package {pi}"
                constellation = build_octahedral(n_in, sigma2=sigma2)
                shape = (constellation.k, n_out)
                rows, cols = reader.u64(2, f"shape of {where}")
                if (rows, cols) != shape:
                    raise SnapshotFormatError(
                        f"{where}: stored shape {(rows, cols)} does not match "
                        f"widths-derived shape {shape}")
                raw = reader.exact(rows * cols * store_dtype.itemsize, f"values of {where}")
                values = np.frombuffer(raw, dtype=store_dtype).reshape(rows, cols)
                try:
                    pkg = Package(constellation, kernel, values.astype(model_dtype, copy=False),
                                  dtype=model_dtype)
                except (ValueError, NonFiniteError) as exc:
                    raise SnapshotFormatError(f"{where}: {exc}") from exc
                if not np.isfinite(pkg.coeffs).all():
                    raise SnapshotFormatError(f"{where}: values overflow the coefficients")
                packages.append(pkg)
            replicas.append(Cascade(packages, alpha=alpha, kernel=kernel, dtype=model_dtype))
        if reader.left:
            raise SnapshotFormatError("trailing bytes after model payload")
    return MultiOutputCascade(replicas), preprocessing
