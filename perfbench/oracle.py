"""Independent reference for the program's outputs.

Nothing here imports the program.  Snapshots are parsed from their bytes by
a reader built from the PHC1 layout that ``polycascade/snapshot.py``
documents; the cascade is evaluated from the paper's formulas with explicit
octahedral points, explicit squared distances, ``phi(0) = c`` and kernel
coefficients from ``np.linalg.solve`` on the explicit Gram matrix; ROC AUC
is counted pair by pair from sorted negatives.  The benchmark compares the
program's scores and metrics against these after every run.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"PHC1"
STORED_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}

# Scores may differ from the oracle by ATOL + RTOL * max|oracle score|.  The
# float64 bound sits far above the ~1e-11 the two computations differ by and
# far below what a changed stored value moves.  In float32 the program's
# rounding grows through twenty packages of kernel values near c = 400 with
# cancelling coefficients: up to 1.1e-2 was seen on higgs-eval.
TOLERANCES = {"float64": (1e-9, 1e-9), "float32": (3e-2, 3e-2)}


class OracleMismatch(AssertionError):
    """The program's output disagrees with the independent computation."""


@dataclass
class Snapshot:
    widths: list[int]  # single-output core widths, last is 1
    alpha: float
    b: float
    c: float
    sigma2: float
    dtype: str  # "float64" | "float32"
    preprocessing: dict | None
    values: list[list[np.ndarray]]  # [replica][package], stored values as float64

    @property
    def d(self) -> int:
        return len(self.values)


def read_phc1(buf: bytes) -> Snapshot:
    """Parse a PHC1 snapshot from its bytes."""
    if buf[:4] != MAGIC:
        raise OracleMismatch(f"bad magic {buf[:4]!r}")
    pos = 4

    def take(fmt: str):
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(buf):
            raise OracleMismatch("snapshot ends inside its header")
        out = struct.unpack_from(fmt, buf, pos)
        pos += size
        return out

    d, q = take("<2Q")
    widths = list(take(f"<{q + 1}Q"))
    alpha, b, c, sigma2 = take("<4d")
    code, blob_len = take("<2Q")
    if code not in STORED_DTYPES:
        raise OracleMismatch(f"unknown dtype code {code}")
    preprocessing = json.loads(buf[pos:pos + blob_len]) if blob_len else None
    pos += blob_len
    stored = STORED_DTYPES[code]
    values = []
    for _ in range(d):
        packages = []
        for n_in, n_out in zip(widths, widths[1:]):
            rows, cols = take("<2Q")
            if (rows, cols) != (2 * n_in + 1, n_out):
                raise OracleMismatch(f"stored shape {(rows, cols)} for widths {n_in}->{n_out}")
            count = rows * cols
            block = np.frombuffer(buf, dtype=stored, count=count, offset=pos)
            packages.append(block.reshape(rows, cols).astype(np.float64))
            pos += count * stored.itemsize
        values.append(packages)
    if pos != len(buf):
        raise OracleMismatch(f"{len(buf) - pos} bytes after the last value matrix")
    return Snapshot(widths, alpha, b, c, sigma2, "float64" if code == 0 else "float32",
                    preprocessing, values)


def octahedral_points(n: int) -> np.ndarray:
    """The origin, then -e_1..-e_n, then +e_1..+e_n."""
    return np.vstack([np.zeros((1, n)), -np.eye(n), np.eye(n)])


def squared_distances(x: np.ndarray, points: np.ndarray) -> np.ndarray:
    """|x|^2 + |p|^2 - 2 x.p for every row and point, clipped at 0."""
    m = (x * x).sum(axis=1)[:, None] + (points * points).sum(axis=1)[None, :] - 2.0 * x @ points.T
    return np.maximum(m, 0.0)


def phi(m: np.ndarray, b: float, c: float) -> np.ndarray:
    out = np.full(m.shape, c, dtype=np.float64)
    pos = m > 0
    out[pos] = 0.5 * m[pos] * (np.log(m[pos]) - 2.0 * b) + c
    return out


def cascade_scores(snap: Snapshot, x: np.ndarray) -> np.ndarray:
    """Outputs of every replica (columns) for the rows of x, in float64."""
    outs = [np.asarray(x, dtype=np.float64)] * snap.d
    for p, n_in in enumerate(snap.widths[:-1]):
        points = octahedral_points(n_in)
        gram = phi(squared_distances(points, points), snap.b, snap.c)
        gram += snap.sigma2 * np.eye(points.shape[0])
        # replicas share the Gram matrix, so one solve serves all of them
        stacked = np.hstack([snap.values[r][p] for r in range(snap.d)])
        coeffs = np.split(np.linalg.solve(gram, stacked), snap.d, axis=1)
        outs = [phi(squared_distances(o, points), snap.b, snap.c) @ a
                for o, a in zip(outs, coeffs)]
    return np.hstack(outs)


def apply_preprocessing(features: np.ndarray, spec: dict | None) -> np.ndarray:
    """Log columns, then min-max to [-1, 1] with the stored bounds; flat columns map to 0."""
    x = np.array(features, dtype=np.float64)
    if not spec:
        return x
    for col in spec.get("log_columns", ()):
        x[:, col] = np.log(x[:, col])
    for col in spec.get("log1p_columns", ()):
        x[:, col] = np.log1p(x[:, col])
    lo = np.asarray(spec["col_min"], dtype=np.float64)
    hi = np.asarray(spec["col_max"], dtype=np.float64)
    flat = hi == lo
    out = 2.0 * (x - lo) / np.where(flat, 1.0, hi - lo) - 1.0
    out[:, flat] = 0.0
    if spec.get("clamp"):
        out = np.clip(out, -1.0, 1.0)
    return out


def roc_auc(scores, labels) -> float:
    """Share of (positive, negative) pairs ranked correctly; ties count 1/2."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    positive = np.asarray(labels).ravel() == 1
    neg = np.sort(scores[~positive])
    pos = scores[positive]
    below = np.searchsorted(neg, pos, side="left")
    not_above = np.searchsorted(neg, pos, side="right")
    return float((below.sum() + 0.5 * (not_above - below).sum()) / (pos.size * neg.size))


def accuracy(scores, labels) -> float:
    return float(np.mean(np.argmax(scores, axis=1) == np.asarray(labels).ravel()))


def check_scores(program_scores: np.ndarray, snap: Snapshot, raw_rows: np.ndarray) -> float:
    """Program scores of some rows against the oracle's from the raw rows; returns the error."""
    expected = cascade_scores(snap, apply_preprocessing(raw_rows, snap.preprocessing))
    got = np.asarray(program_scores, dtype=np.float64)
    if got.shape != expected.shape:
        raise OracleMismatch(f"score shape {got.shape}, oracle {expected.shape}")
    atol, rtol = TOLERANCES[snap.dtype]
    err = float(np.abs(got - expected).max())
    limit = atol + rtol * float(np.abs(expected).max())
    if not err <= limit:
        raise OracleMismatch(f"scores differ from the oracle by {err:.3e} (limit {limit:.3e})")
    return err


def check_metric(test_score: float, scores: np.ndarray, labels, task: str, floor: float) -> float:
    """The reported test score against the oracle's metric and the quality floor."""
    own = roc_auc(scores[:, 0], labels) if task == "binary-auc" else accuracy(scores, labels)
    if abs(own - test_score) > 1e-12:
        raise OracleMismatch(f"test score {test_score!r}, oracle {own!r}")
    if not own >= floor:
        raise OracleMismatch(f"test score {own:.4f} is below the quality floor {floor}")
    return own
