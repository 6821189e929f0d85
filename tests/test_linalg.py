import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import polycascade
from polycascade import cascade, linalg
from polycascade.cascade import init_multi, train_multi
from polycascade.linalg import (NonFiniteError, NotSPDError, ShapeMismatchError, as_matrix,
                                resolve_dtype, spd_solve, symmetric_product)


def test_spd_solve_identity_system():
    v = np.array([[1.0], [2.0], [3.0]])
    assert np.allclose(spd_solve(np.eye(3), v), v)


def test_spd_solve_diagonal():
    s = np.diag([2.0, 8.0])
    x = spd_solve(s, np.array([[2.0], [16.0]]))
    assert np.allclose(x, np.array([[1.0], [2.0]]))


@pytest.mark.parametrize("size", [5, 50, 200])
def test_spd_solve_residual_oracle(size):
    rng = np.random.default_rng(size)
    a = rng.standard_normal((size, size))
    s = a.T @ a + np.eye(size)
    rhs = rng.standard_normal((size, 3))
    x = spd_solve(s, rhs)
    residual = np.abs(s @ x - rhs).max() / max(np.abs(rhs).max(), 1.0)
    assert residual <= 1e-10


def test_spd_solve_rejects_indefinite():
    s = np.diag([1.0, -1.0])
    with pytest.raises(NotSPDError):
        spd_solve(s, np.ones((2, 1)))


def test_spd_solve_shape_errors_distinct_from_spd():
    with pytest.raises(ShapeMismatchError):
        spd_solve(np.ones((2, 3)), np.ones((2, 1)))
    with pytest.raises(ShapeMismatchError):
        spd_solve(np.eye(3), np.ones((2, 1)))


def test_determinism_bit_identical():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((30, 30))
    b = rng.standard_normal((30, 30))
    assert np.array_equal(a @ b, a @ b)
    s = a.T @ a + np.eye(30)
    assert np.array_equal(spd_solve(s, b[:, :1]), spd_solve(s, b[:, :1]))


def test_as_matrix_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        as_matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(NonFiniteError):
        as_matrix(np.array([[np.inf, 1.0]]))


def test_as_matrix_dtype_selection():
    a32 = as_matrix([[1, 2]], dtype="float32")
    assert a32.dtype == np.float32
    assert resolve_dtype("float64") == np.float64
    with pytest.raises(ValueError):
        resolve_dtype("float16")


def test_spd_solve_same_bits_for_c_and_fortran_order():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((60, 60))
    s = a.T @ a + np.eye(60)
    s = (s + s.T) / 2
    rhs = rng.standard_normal((60, 1))
    assert np.array_equal(spd_solve(s, rhs), spd_solve(np.asfortranarray(s), rhs))


@pytest.fixture(params=["numpy-lapack", "fallback"])
def route(request, monkeypatch):
    """Run a test on numpy's own LAPACK routines and on the route used where none resolve."""
    if request.param == "fallback":
        monkeypatch.setattr(linalg, "_LAPACK", None)
    return request.param


def _spd(size, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((size, size))
    s = a @ a.T + size * np.eye(size)
    return s.astype(dtype), rng.standard_normal((size, 2)).astype(dtype)


def test_spd_solve_reads_only_the_lower_triangle(route):
    s, rhs = _spd(40, 11)
    junk = s.copy()
    upper = np.triu_indices(40, 1)
    junk[upper] = np.random.default_rng(12).uniform(-1e3, 1e3, upper[0].size)
    assert np.array_equal(spd_solve(junk, rhs), spd_solve(s, rhs))


def test_spd_solve_names_the_failing_leading_minor(route):
    s, rhs = _spd(6, 13)
    s[3, 3] = -1e3
    with pytest.raises(NotSPDError, match="leading minor of order 4 "):
        spd_solve(s, rhs)


def test_float32_solve_stays_float32_and_agrees_with_float64(route):
    s, rhs = _spd(120, 14)
    x64 = spd_solve(s, rhs)
    x32 = spd_solve(s.astype(np.float32), rhs.astype(np.float32))
    assert x32.dtype == np.float32 and x32.flags.c_contiguous
    assert np.abs(x32 - x64).max() <= 1e-4 * np.abs(x64).max()


def test_fallback_float32_solves_in_float32_and_names_the_failing_leading_minor(monkeypatch):
    monkeypatch.setattr(linalg, "_LAPACK", None)
    s, rhs = _spd(6, 13, np.float32)
    x = spd_solve(s, rhs)
    assert x.dtype == np.float32
    assert np.abs(s @ x - rhs).max() <= 1e-5 * np.abs(rhs).max()
    s[3, 3] = -1e3
    with pytest.raises(NotSPDError, match="leading minor of order 4 "):
        spd_solve(s, rhs)


def test_fallback_route_passes_the_spd_solve_tests(monkeypatch):
    monkeypatch.setattr(linalg, "_LAPACK", None)
    test_spd_solve_identity_system()
    test_spd_solve_diagonal()
    for size in (5, 50, 200):
        test_spd_solve_residual_oracle(size)
    test_spd_solve_rejects_indefinite()
    test_spd_solve_shape_errors_distinct_from_spd()
    test_determinism_bit_identical()
    test_spd_solve_same_bits_for_c_and_fortran_order()


def test_in_place_solve_rejects_a_system_of_another_dtype_or_order():
    # a float32 system solved against float64 rhs runs in float64, so it cannot be the factor
    s, rhs = _spd(50, 15)
    for system in (s.astype(np.float32), np.asfortranarray(s)):
        kept = system.copy()
        with pytest.raises(ValueError, match="overwrite needs a C-contiguous"):
            spd_solve(system, rhs, overwrite=True)
        assert np.array_equal(system, kept)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_in_place_solve_leaves_the_system_above_its_factor(route, dtype):
    # overwrite skips the copy: the factor takes the strict lower triangle, and the
    # diagonal and upper triangle still hold s, so symmetric_product multiplies by s
    s, rhs = _spd(60, 16, dtype)
    x = spd_solve(s.copy(), rhs)
    work = s.copy()
    assert np.array_equal(spd_solve(work, rhs, overwrite=True), x)
    assert np.array_equal(np.triu(work), np.triu(s))
    eps = np.finfo(dtype).eps
    bound = 60 * eps * (np.abs(s) @ np.abs(x)).max()
    for column in x.T:  # one column per product, as r or r x 1
        for shape in ((60,), (60, 1)):
            got = symmetric_product(work, column.reshape(shape))
            assert got.shape == (60, 1) and got.dtype == np.dtype(dtype)
            assert np.abs(got[:, 0] - s @ column).max() <= bound
    with pytest.raises(ShapeMismatchError, match="one column"):
        symmetric_product(work, x)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_solve_residual_is_that_of_the_system_before_its_factor(route, monkeypatch, dtype):
    # the step factors its system in place and takes solve_residual_inf from what the
    # factor leaves: it must equal the residual against an untouched copy, to rounding
    solve, seen = cascade.spd_solve, []

    def copying_solve(s, rhs, **kwargs):
        seen.append((s.copy(), rhs.copy()))
        x = solve(s, rhs, **kwargs)
        seen[-1] += (x,)
        return x

    monkeypatch.setattr(cascade, "spd_solve", copying_solve)
    rng = np.random.default_rng(17)
    mc = init_multi([5, 6, 4, 2], seed=17, alpha=0.5, dtype=dtype)
    reports = train_multi(mc, rng.uniform(-1, 1, (150, 5)), rng.uniform(-1, 1, (150, 2)))
    assert len(reports) == len(seen) == 2
    eps = np.finfo(dtype).eps
    for report, (s, rhs, x) in zip(reports, seen):
        expected = np.abs(s @ x - rhs).max()
        bound = 150 * eps * (np.abs(s) @ np.abs(x)).max()
        assert abs(report.solve_residual_inf - expected) <= bound


def test_numpy_lapack_resolves_on_scipy_openblas_builds():
    # the benchmark host's numpy links scipy-openblas; there the fallback must never run
    try:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"]
    except (KeyError, TypeError):
        pytest.skip("numpy reports no LAPACK build dependency")
    if "scipy-openblas" not in lapack:
        pytest.skip(f"numpy links {lapack}, not scipy-openblas")
    assert linalg._LAPACK is not None
    assert set(linalg._LAPACK) == {np.dtype(np.float64), np.dtype(np.float32)}


@pytest.mark.parametrize("missing,table", [("spotrs", "lapack"), ("dsymv", "lapack"),
                                           ("set_num_threads", "threads"),
                                           ("blas_thread_shutdown", "threads")])
def test_symbol_tables_are_none_where_a_symbol_is_missing(missing, table):
    if linalg._LAPACK is None or linalg._BLAS_THREADS is None:
        pytest.skip("numpy's library does not export both tables")

    class Without:
        """numpy's library, less every symbol whose name holds ``missing``."""

        def __getattr__(self, name):
            if missing in name:
                raise AttributeError(name)
            return getattr(linalg._LIB, name)

    lapack, threads = linalg._numpy_lapack(Without()), linalg._blas_thread_routines(Without())
    assert (lapack is None, threads is None) == (table == "lapack", table == "threads")


def test_import_loads_no_scipy():
    # numpy is the only linear-algebra library: scipy would map a second BLAS beside it
    code = ("import sys, polycascade; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    src = Path(polycascade.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_import_starts_no_thread():
    # the scoring pool is made by the first parallel region, not by the import
    code = ("import threading; before = threading.active_count(); import polycascade; "
            "print(threading.active_count() - before)")
    src = Path(polycascade.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform has no fork")
def test_forked_child_scores_with_a_pool_of_its_own():
    # the parent's pool threads do not exist in a fork; work queued for them would never run
    code = textwrap.dedent("""
        import os, signal, numpy as np, polycascade
        from polycascade import cascade
        cascade.worker_count = lambda: 2
        model = polycascade.init_multi([3, 4, 1], seed=0)
        x = np.random.default_rng(0).uniform(-1, 1, (2 * model.chunk_rows + 100, 3))
        want = model.scores(x)
        pid = os.fork()
        if pid == 0:
            signal.alarm(30)
            os._exit(0 if np.array_equal(model.scores(x), want) else 3)
        print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    """)
    src = Path(polycascade.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"
