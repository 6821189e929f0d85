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
spec lets inference reproduce training normalization bit-for-bit.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .cascade import Cascade, MultiOutputCascade
from .constellation import build_octahedral
from .kernel import KernelParams
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


def _read_exact(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise SnapshotFormatError(f"truncated snapshot: wanted {n} bytes for {what}, got {len(buf)}")
    return buf


def _read_u64(f, count: int, what: str):
    vals = struct.unpack("<" + "Q" * count, _read_exact(f, 8 * count, what))
    return vals[0] if count == 1 else vals


def _read_f64(f, count: int, what: str):
    vals = struct.unpack("<" + "d" * count, _read_exact(f, 8 * count, what))
    return vals[0] if count == 1 else vals


def save_snapshot(path, model: MultiOutputCascade | Cascade,
                  preprocessing: dict | None = None) -> None:
    """Write the model (and optional preprocessing spec) to a PHC1 file."""
    mc = MultiOutputCascade([model]) if isinstance(model, Cascade) else model
    widths = mc.widths
    sigma2 = mc.replicas[0].packages[0].constellation.sigma2
    dtype_code = _DTYPE_CODES[np.dtype(mc.dtype)]
    blob = b"" if preprocessing is None else json.dumps(preprocessing).encode("utf-8")

    path = Path(path)
    with open(path, "wb") as f:
        f.write(MAGIC)
        _write_u64(f, mc.d, len(widths) - 1, *widths)
        _write_f64(f, mc.alpha, mc.kernel.b, mc.kernel.c, sigma2)
        _write_u64(f, dtype_code, len(blob))
        f.write(blob)
        store_dtype = _CODE_DTYPES[dtype_code]
        for cascade in mc.replicas:
            for pkg in cascade.packages:
                rows, cols = pkg.values.shape
                _write_u64(f, rows, cols)
                f.write(np.ascontiguousarray(pkg.values, dtype=store_dtype).tobytes())


def load_snapshot(path) -> tuple[MultiOutputCascade, dict | None]:
    """Read a PHC1 file back into a model plus its preprocessing spec."""
    path = Path(path)
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != MAGIC:
            raise SnapshotFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        d = _read_u64(f, 1, "replica count")
        q = _read_u64(f, 1, "package count")
        if d < 1 or q < 1:
            raise SnapshotFormatError(f"invalid counts d={d}, q={q}")
        widths = list(_read_u64(f, q + 1, "widths"))
        if min(widths) < 1 or widths[-1] != 1:
            raise SnapshotFormatError(f"invalid widths {widths}: need positive widths ending in 1")
        alpha, b, c, sigma2 = _read_f64(f, 4, "hyperparameters")
        dtype_code = _read_u64(f, 1, "dtype code")
        if dtype_code not in _CODE_DTYPES:
            raise SnapshotFormatError(f"unknown dtype code {dtype_code}")
        blob_len = _read_u64(f, 1, "preprocessing length")
        preprocessing = None
        if blob_len:
            preprocessing = json.loads(_read_exact(f, blob_len, "preprocessing spec"))

        store_dtype = _CODE_DTYPES[dtype_code]
        model_dtype = np.float64 if dtype_code == 0 else np.float32
        kernel = KernelParams(b=b, c=c)
        replicas = []
        for ri in range(d):
            packages = []
            for pi, (n_in, n_out) in enumerate(zip(widths, widths[1:])):
                constellation = build_octahedral(n_in, sigma2=sigma2)
                shape = (constellation.k, n_out)
                rows, cols = _read_u64(f, 2, f"shape of replica {ri} package {pi}")
                if (rows, cols) != shape:
                    raise SnapshotFormatError(
                        f"replica {ri} package {pi}: stored shape {(rows, cols)} does not match "
                        f"widths-derived shape {shape}")
                raw = _read_exact(f, rows * cols * store_dtype.itemsize,
                                  f"values of replica {ri} package {pi}")
                values = np.frombuffer(raw, dtype=store_dtype).reshape(rows, cols)
                packages.append(Package(constellation, kernel,
                                        values.astype(model_dtype, copy=False), dtype=model_dtype))
            replicas.append(Cascade(packages, alpha=alpha, kernel=kernel, dtype=model_dtype))
        trailing = f.read(1)
        if trailing:
            raise SnapshotFormatError("trailing bytes after model payload")
    return MultiOutputCascade(replicas), preprocessing
