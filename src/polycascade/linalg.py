"""Dense real-matrix substrate.

Every array flowing through the library is a 2-D, C-contiguous ndarray in
one of two precisions (float64 by default, float32 for performance runs).
This module holds what the rest is written against besides plain numpy
products: validation/coercion, a symmetric-positive-definite solve and a
symmetric matrix-vector product.  The solve calls the Cholesky routines of
numpy's own LAPACK through ``ctypes``, in place and in the array's precision,
because ``np.linalg.cholesky`` copies its input and result and always factors
in float64; the product calls numpy's own ``?symv`` the same way, so that it
reads only the triangle an in-place factor leaves.  Where numpy's build
exports no such routine, ``np.linalg.cholesky``, two numpy solves and a plain
product stand in.  numpy is the only linear-algebra library loaded, so every
product and every solve runs in one BLAS and its one pool of threads.

``run_parallel`` runs a parallel region on the cores of the process affinity
(``worker_count``): the calling thread and a pool of threads made on first
use.  Inside it, numpy's BLAS runs on one thread, set through the same
library handle, even for a lone task, and its idle pool of threads is shut
down, so that it holds no core the region's threads need; the count is
restored on every exit.  Where that BLAS exports no thread-count routine, a
region runs in the calling thread alone, and so does a region entered from
a task, inside which ``worker_count`` reads 1.  Scoring runs one region per
call.  A batch trains in two: replica 0's sweep, and then, for d > 1
replicas, whole replicas side by side, or, for one, its assembly; a
one-replica batch factors and solves outside them.

Non-finite values are rejected where data enters and around the solve only:
``as_matrix`` checks batches, targets and value matrices, the training step
checks its regularized system and right-hand side before calling
``spd_solve``, and ``spd_solve`` checks its solution.  Products in between
are not re-scanned: a NaN or Inf produced there propagates into the system
and is reported as ``NonFiniteError``.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import numpy.linalg._umath_linalg as _umath_linalg

DTYPES = {"float64": np.float64, "float32": np.float32}


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


def as_matrix(a, dtype, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D C-order array of ``dtype``, casting only when needed."""
    arr = np.asarray(a)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-D, got ndim={arr.ndim}")
    arr = np.ascontiguousarray(arr, dtype=resolve_dtype(dtype))
    ensure_finite(arr, name)
    return arr


def ensure_finite(a: np.ndarray, name: str = "result") -> np.ndarray:
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{name} contains NaN or Inf")
    return a


def _numpy_library() -> ctypes.CDLL | None:
    """The BLAS/LAPACK library numpy is linked against, through its linear-algebra extension.

    Loading the extension by its path gives the library it is already linked
    against, the one every numpy product runs in.
    """
    try:
        return ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None


def _bind(lib: ctypes.CDLL, candidates: list[str], argtypes: list, restype):
    """The first of ``candidates`` that ``lib`` exports, typed, or None where it exports none."""
    symbol = next((sym for sym in candidates if hasattr(lib, sym)), None)
    if symbol is None:
        return None
    fn = getattr(lib, symbol)
    fn.argtypes, fn.restype = argtypes, restype
    return fn


def _numpy_lapack(lib: ctypes.CDLL) -> dict | None:
    """numpy's own ``?potrf``, ``?potrs`` and ``?symv`` for each dtype, or None where any is missing.

    Builds against scipy-openblas export the routines as
    ``scipy_dpotrf_64_``; others as ``dpotrf_64_`` or ``dpotrf_``.  The
    integer width follows the build (``_ilp64``).
    """
    ilp64 = bool(getattr(_umath_linalg, "_ilp64", False))
    suffix = "_64_" if ilp64 else "_"
    int_t = ctypes.c_int64 if ilp64 else ctypes.c_int32
    int_p = ctypes.POINTER(int_t)
    ptr, char, strlen = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t
    argtypes = {"potrf": [char, int_p, ptr, int_p, int_p, strlen],
                "potrs": [char, int_p, int_p, ptr, int_p, ptr, int_p, int_p, strlen],
                "symv": [char, int_p, ptr, ptr, int_p, ptr, int_p, ptr, ptr, int_p, strlen]}
    routines = {}
    for dt, t in ((np.dtype(np.float64), "d"), (np.dtype(np.float32), "s")):
        found = [_bind(lib, [f"scipy_{t}{name}{suffix}", f"{t}{name}{suffix}", f"{t}{name}_"],
                       types, None) for name, types in argtypes.items()]
        if None in found:
            return None
        routines[dt] = (int_t, *found)
    return routines


# numpy's library, opened once: the fallback route below runs only where it exports no routine
_LIB = _numpy_library()
_LAPACK = None if _LIB is None else _numpy_lapack(_LIB)


def _not_spd(order: int) -> NotSPDError:
    return NotSPDError(f"matrix is not positive definite: the leading minor of order {order} "
                       "is not positive")


def spd_solve(s: np.ndarray, rhs: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Solve s @ x = rhs for symmetric positive definite s via Cholesky.

    Only the lower triangle of ``s`` is read.  LAPACK ``potrf`` factors a
    C-order factor buffer in place: read as a column-major matrix, its lower
    triangle is the upper one, so ``uplo='U'``.  ``potrs`` then solves with
    the same buffer, a fresh copy of ``s``.  With ``overwrite`` the copy is
    skipped and ``s`` itself, which must then be C-contiguous and of the
    solve's dtype, is factored in place: its strict lower triangle then
    holds the factor, while its diagonal, saved before the factor and put
    back after the solve, and its strict upper triangle, which ``potrf``
    never touches, still hold ``s``, so ``symmetric_product`` can still
    multiply by it.  After a failed factor, ``s``'s lower triangle is
    undefined.  The solve runs in float32 when ``s`` and ``rhs`` both are,
    otherwise in float64.  Never forms the explicit inverse.  A non-positive
    pivot is reported as NotSPDError naming the leading minor, distinct
    from shape errors.

    Both routines are numpy's own, the library every product of the
    training step runs in, so no second BLAS library is loaded beside it.
    Where numpy's build exports no such routine, ``np.linalg.cholesky``
    (which always factors in float64, in a copy, so ``s`` is never written)
    and two numpy solves with the factor are the route.
    """
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeMismatchError(f"spd_solve needs a square matrix, got {s.shape}")
    r = np.asarray(rhs)
    if r.ndim == 1:
        r = r.reshape(-1, 1)
    if r.shape[0] != s.shape[0]:
        raise ShapeMismatchError(f"rhs has {r.shape[0]} rows, system has {s.shape[0]}")
    if _LAPACK is None:
        return _spd_solve_fallback(s, r)
    dt = np.dtype(np.float32 if s.dtype == r.dtype == np.float32 else np.float64)
    if overwrite and (s.dtype != dt or not s.flags.c_contiguous):
        raise ValueError(f"overwrite needs a C-contiguous {s.shape} {dt} system")
    factor = s if overwrite else np.array(s, dtype=dt, order="C")
    diagonal = s.diagonal().copy() if overwrite else None
    x = np.array(r, dtype=dt, order="F")  # potrs overwrites it with the solution
    int_t, potrf, potrs, _ = _LAPACK[dt]
    n, nrhs, info = int_t(s.shape[0]), int_t(r.shape[1]), int_t(0)
    lead = int_t(max(s.shape[0], 1))
    potrf(b"U", n, factor.ctypes.data, lead, info, 1)
    if info.value > 0:
        raise _not_spd(info.value)
    if info.value == 0:
        potrs(b"U", n, nrhs, factor.ctypes.data, lead, x.ctypes.data, lead, info, 1)
    if info.value < 0:
        raise ValueError(f"LAPACK rejected argument {-info.value}")
    if diagonal is not None:
        np.fill_diagonal(s, diagonal)
    return ensure_finite(np.ascontiguousarray(x), "spd_solve result")


def symmetric_product(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``s @ x`` for symmetric ``s`` and one column ``x``, as an n x 1 array in ``s``'s dtype.

    Reads ``s``'s diagonal and strict upper triangle only: one call of
    numpy's own ``?symv`` reads a C-order upper triangle as a column-major
    lower one (``uplo='L'``), so the product is right after
    ``spd_solve(s, rhs, overwrite=True)`` has written its factor below the
    diagonal.  Where numpy's build exports no routine, that solve never
    writes ``s``, and this is ``s @ x``.
    """
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeMismatchError(f"symmetric_product needs a square matrix, got {s.shape}")
    if np.size(x) != s.shape[0]:
        raise ShapeMismatchError(f"symmetric_product multiplies one column of {s.shape[0]} "
                                 f"rows, got shape {np.shape(x)}")
    x = np.array(x, dtype=s.dtype).reshape(-1, 1)
    if _LAPACK is None:
        return s @ x
    s = np.ascontiguousarray(s)
    int_t, _, _, symv = _LAPACK[s.dtype]
    n, inc = int_t(s.shape[0]), int_t(1)
    lead = int_t(max(s.shape[0], 1))
    alpha, beta = np.ones(1, s.dtype), np.zeros(1, s.dtype)
    y = np.empty_like(x)
    symv(b"L", n, alpha.ctypes.data, s.ctypes.data, lead, x.ctypes.data, inc,
         beta.ctypes.data, y.ctypes.data, inc, 1)
    return y


def _spd_solve_fallback(s: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``spd_solve`` where numpy exports no LAPACK routine: numpy's factor, then two solves.

    numpy has no triangular solver, so ``np.linalg.solve`` takes the factor
    and then its transpose.  Both factor and solves run in float64; the
    result is float32 when ``s`` and ``r`` both are, as on the main route.
    """
    try:
        lower = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise _not_spd(_failing_minor(s)) from exc
    x = np.linalg.solve(lower.T, np.linalg.solve(lower, r))
    return ensure_finite(np.ascontiguousarray(x), "spd_solve result")


def _failing_minor(s: np.ndarray) -> int:
    """Order of the first leading minor of ``s`` that a column-by-column Cholesky finds not positive.

    Reads the lower triangle in float64.  Only the failing path runs this
    O(n) Python loop; where rounding lets it pass a matrix the blocked
    factor rejected, it names the whole matrix.
    """
    lower = np.tril(s).astype(np.float64)
    for j in range(lower.shape[0]):
        row = lower[j, :j]
        pivot = lower[j, j] - row @ row
        if not pivot > 0:  # also NaN
            return j + 1
        lower[j, j] = np.sqrt(pivot)
        lower[j + 1:, j] = (lower[j + 1:, j] - lower[j + 1:, :j] @ row) / lower[j, j]
    return lower.shape[0]


def _blas_thread_routines(lib: ctypes.CDLL) -> tuple | None:
    """numpy's OpenBLAS thread-count getter and setter and its pool shutdown, or None where any is missing.

    scipy-openblas builds export the first two as
    ``scipy_openblas_get_num_threads64_`` and ``..._set_...``; plain
    OpenBLAS as ``openblas_get_num_threads``.  Setting the count starts the
    pool of BLAS threads again after a shutdown.
    """
    def named(name):
        return [f"{prefix}_{name}{suffix}" for prefix in ("scipy_openblas", "openblas")
                for suffix in ("64_", "")]

    found = (_bind(lib, named("get_num_threads"), [], ctypes.c_int),
             _bind(lib, named("set_num_threads"), [ctypes.c_int], None),
             _bind(lib, ["blas_thread_shutdown_"], [], ctypes.c_int))
    return None if None in found else found


# resolved once: without them, every parallel region runs in the calling thread
_BLAS_THREADS = None if _LIB is None else _blas_thread_routines(_LIB)
# the BLAS thread count is process-global, so one parallel region runs at a time
_PARALLEL_LOCK = threading.Lock()
# set while a task of a region runs, in the calling thread and in copies of its context
_IN_TASK = contextvars.ContextVar("polycascade_in_task", default=False)
_pool: ThreadPoolExecutor | None = None


def _forget_pool() -> None:
    """In a forked child, which has none of the pool's threads and no holder of the lock."""
    global _pool, _PARALLEL_LOCK
    _pool, _PARALLEL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def worker_count() -> int:
    """Threads a parallel region runs on: the cores of the process affinity.

    One inside a task of a region, and where numpy's BLAS exports no
    thread-count routine, since its own threads would contend with the region's.
    """
    if _BLAS_THREADS is None or _IN_TASK.get():
        return 1
    if not hasattr(os, "sched_getaffinity"):
        return os.cpu_count() or 1
    return len(os.sched_getaffinity(0))


def run_parallel(tasks: list) -> None:
    """Run ``tasks[0]`` in the calling thread and the others on a pool of threads, and wait for all.

    numpy's BLAS runs on one thread while the tasks do, however many there
    are, so that a task's products get the same bits whichever task runs
    them and however many run, and do not contend for the cores with BLAS's
    own threads; its idle pool is shut down first, since those threads spin
    on a core for a while after each threaded call.  A lone task runs in the
    calling thread.  The count is restored however the region ends, which
    starts the pool again.  The count is process-global, so a module lock
    lets one region run at a time.  A region entered from a task runs its
    tasks in that task's thread, since it would otherwise wait on the lock
    its caller holds, and so does a region where BLAS exports no
    thread-count routine, with BLAS as it is.  Each task runs in a copy of
    the caller's ``contextvars`` context, so ``np.errstate`` holds in it.
    The pool is made on first use, with ``worker_count() - 1`` threads;
    tasks beyond that wait for one.  Once every task has ended, the calling
    thread's exception, or else the first worker's, is raised.
    """
    global _pool
    if not tasks or _BLAS_THREADS is None or _IN_TASK.get():
        for task in tasks:
            task()
        return
    get_threads, set_threads, shutdown = _BLAS_THREADS
    with _PARALLEL_LOCK:
        if _pool is None and len(tasks) > 1:
            _pool = ThreadPoolExecutor(max(worker_count() - 1, 1),
                                       thread_name_prefix="polycascade")
        saved, token = get_threads(), _IN_TASK.set(True)
        try:
            set_threads(1)  # before the shutdown: setting the count starts the pool
            shutdown()
            futures = [_pool.submit(contextvars.copy_context().run, task) for task in tasks[1:]]
            try:
                tasks[0]()
            finally:
                wait(futures)
            for future in futures:
                future.result()
        finally:
            _IN_TASK.reset(token)
            set_threads(saved)
