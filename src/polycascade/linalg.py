"""Dense real-matrix substrate.

Every array flowing through the library is a 2-D, C-contiguous ndarray in
one of two precisions (float64 by default, float32 for performance runs).
This module holds what the rest is written against besides plain numpy
products: validation/coercion and a symmetric-positive-definite solve.

Non-finite values are rejected where data enters and around the solve only:
``as_matrix`` checks batches, targets and value matrices, the training step
checks its regularized system and right-hand side before calling
``spd_solve``, and ``spd_solve`` checks its solution.  Products in between
are not re-scanned: a NaN or Inf produced there propagates into the system
and is reported as ``NonFiniteError``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

DTYPES = {"float64": np.float64, "float32": np.float32}
DEFAULT_DTYPE = np.float64


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NotSPDError(ValueError):
    """A matrix expected to be symmetric positive definite is not."""


class NonFiniteError(FloatingPointError):
    """NaN or Inf appeared in an operand or a result."""


def resolve_dtype(dtype) -> np.dtype:
    """Map a precision name or dtype-like to one of the two supported dtypes."""
    if isinstance(dtype, str):
        try:
            return np.dtype(DTYPES[dtype])
        except KeyError:
            raise ValueError(f"unsupported precision {dtype!r}; use 'float64' or 'float32'")
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ValueError(f"unsupported dtype {dt}; use float64 or float32")
    return dt


def as_matrix(a, dtype=None, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D C-order array, casting only when needed."""
    arr = np.asarray(a)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if dtype is not None:
        arr = np.ascontiguousarray(arr, dtype=resolve_dtype(dtype))
    else:
        arr = np.ascontiguousarray(arr, dtype=DEFAULT_DTYPE if arr.dtype.kind != "f" else arr.dtype)
    ensure_finite(arr, name)
    return arr


def ensure_finite(a: np.ndarray, name: str = "result") -> np.ndarray:
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{name} contains NaN or Inf")
    return a


def spd_solve(s: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve s @ x = rhs for symmetric positive definite s via Cholesky.

    ``np.linalg.cholesky`` factors ``s`` reading its lower triangle only, and
    LAPACK ``potrs`` solves with the factor's transpose, which is already
    in the column-major layout it reads, so the factor is not copied.
    Never forms the explicit inverse.  A non-positive pivot is reported as
    NotSPDError, distinct from shape errors.

    The factorization runs in numpy's BLAS library, the one every matrix
    product of the training step runs in.  scipy loads a second OpenBLAS
    build; factoring there (``cho_factor``, ``potrf``) between numpy
    products made each library's idle worker threads spin against the
    other's work, and a training step took about 1.6 times as long on two
    cores.  ``potrs`` is two triangular solves, too small to matter.
    """
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeMismatchError(f"spd_solve needs a square matrix, got {s.shape}")
    r = np.asarray(rhs)
    if r.ndim == 1:
        r = r.reshape(-1, 1)
    if r.shape[0] != s.shape[0]:
        raise ShapeMismatchError(f"rhs has {r.shape[0]} rows, system has {s.shape[0]}")
    try:
        lower = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise NotSPDError(f"matrix is not positive definite: {exc}") from exc
    potrs = scipy.linalg.get_lapack_funcs("potrs", (lower, r))
    x, _ = potrs(lower.T, r, lower=False)
    return ensure_finite(x, "spd_solve result")
