import numpy as np
import pytest

from polycascade.linalg import (NonFiniteError, NotSPDError, ShapeMismatchError, as_matrix,
                                resolve_dtype, spd_solve)


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
