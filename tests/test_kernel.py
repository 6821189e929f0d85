import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycascade.kernel import (EPS_M, KernelParams, NegativeDistanceError, phi, phi_matrix,
                                theta, theta_matrix)

KP = KernelParams()  # b=5, c=400


def test_defaults():
    assert KP.b == 5.0 and KP.c == 400.0
    with pytest.raises(ValueError):
        KernelParams(b=float("nan"))


def test_phi_limit_at_zero():
    assert phi(0.0, KP) == 400.0


def test_phi_at_one_is_c_minus_b():
    assert phi(1.0, KP) == pytest.approx(395.0, abs=1e-12)


def test_phi_at_two():
    # 0.5*2*(ln 2 - 10) + 400
    assert phi(2.0, KP) == pytest.approx(math.log(2.0) - 10.0 + 400.0, abs=1e-12)
    assert phi(2.0, KP) == pytest.approx(390.69314718055995, abs=1e-9)


def test_phi_at_four():
    assert phi(4.0, KP) == pytest.approx(2.0 * (math.log(4.0) - 10.0) + 400.0, abs=1e-12)
    assert phi(4.0, KP) == pytest.approx(382.7725887222398, abs=1e-9)


def test_phi_rejects_negative():
    with pytest.raises(NegativeDistanceError):
        phi(-1e-9, KP)


def test_phi_continuous_at_zero():
    assert abs(phi(1e-300, KP) - KP.c) <= 1e-6


def test_phi_matrix_of_zeros():
    out = phi_matrix(np.zeros((2, 3)), KP)
    assert out.shape == (2, 3)
    assert np.all(out == 400.0)


def test_phi_matrix_entries():
    m = np.array([[0.0, 1.0], [1.0, 4.0]])
    out = phi_matrix(m, KP)
    expected = np.array([[400.0, 395.0], [395.0, 382.7725887222398]])
    assert np.allclose(out, expected, atol=1e-9)


def test_phi_matrix_shape_preserved_and_matches_scalar():
    rng = np.random.default_rng(0)
    m = rng.uniform(0, 10, (7, 4))
    out = phi_matrix(m, KP)
    assert out.shape == m.shape
    scalar = np.array([[phi(v, KP) for v in row] for row in m])
    assert np.array_equal(out, scalar) or np.allclose(out, scalar, rtol=0, atol=0)


def test_theta_zero_crossing():
    m = math.exp(2 * KP.b - 1)  # e^9
    assert abs(theta(m, KP)) <= 1e-12


def test_theta_at_one():
    assert theta(1.0, KP) == pytest.approx(-9.0, abs=1e-12)


def test_theta_matrix_matches_scalar_and_clamps():
    m = np.array([[1.0, math.e ** 9], [0.0, 2.0]])
    out = theta_matrix(m, KP)
    assert out[0, 0] == pytest.approx(-9.0)
    assert out[0, 1] == pytest.approx(0.0, abs=1e-12)
    # m = 0 is clamped to EPS_M before the log instead of producing -inf
    assert out[1, 0] == pytest.approx(math.log(EPS_M) - 9.0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("params", [KP, KernelParams(b=1.0, c=1.0), KernelParams(b=12.0, c=1e-3),
                                    KernelParams(b=5.0, c=0.0), KernelParams(b=-3.0, c=-5.0)],
                         ids=["default", "b1-c1", "b12-c1e-3", "c0", "b-3-c-5"])
def test_phi_matrix_moves_off_the_formula_only_below_the_smallest_normal(dtype, params):
    # phi_matrix takes the log of the smallest normal (tiny) below it: a zero distance gives
    # exactly c, a subnormal one moves the value off 0.5 m (ln m - 2b) + c by less than 19 m,
    # and one that rounded below zero moves it off c by at most |m| * |ln(tiny) - 2b| / 2,
    # each before the result rounds
    finfo = np.finfo(dtype)
    c = dtype(params.c)
    assert phi_matrix(np.zeros(3, dtype), params).tolist() == [c] * 3
    subnormal = np.array([finfo.smallest_subnormal, finfo.tiny / 8], dtype)
    got = phi_matrix(subnormal, params)
    m = subnormal.astype(np.float64)
    formula = m * (np.log(m) - 2.0 * params.b) * 0.5 + float(c)  # 0.5 m alone can underflow
    rounding = np.spacing(np.abs(got)).astype(np.float64)
    assert np.all(np.abs(got - formula) <= 19.0 * m + 2.0 * rounding)
    below = -finfo.eps * np.array([1.0, 16.0, 256.0], dtype)
    got = phi_matrix(below, params)
    shift = np.abs(below.astype(np.float64)) * abs(math.log(finfo.tiny) - 2.0 * params.b) / 2.0
    rounding = np.spacing(np.abs(got)).astype(np.float64)
    assert np.all(np.abs(got.astype(np.float64) - c) <= shift * (1.0 + 4.0 * finfo.eps) + rounding)


def central_difference(m: float, h: float) -> float:
    # differencing the non-constant kernel part: the additive constant has
    # zero derivative but at small m it swamps the signal in float64, so the
    # oracle must not evaluate it at all
    g = lambda v: 0.5 * v * (math.log(v) - 2.0 * KP.b)
    return (g(m + h) - g(m - h)) / (2.0 * h)


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 10.0])
def test_scalar_derivative_consistency(m):
    h = 1e-6 * m
    fd = (phi(m + h, KP) - phi(m - h, KP)) / (2.0 * h)
    analytic = 0.5 * theta(m, KP)
    assert abs(fd - analytic) / abs(analytic) <= 1e-6


def test_derivative_on_log_grid():
    # d phi / dm == theta / 2 across ten decades
    for m in np.logspace(-6, 4, 100):
        fd = central_difference(float(m), 1e-6 * float(m))
        analytic = 0.5 * theta(float(m), KP)
        denom = max(abs(analytic), abs(fd))
        assert abs(fd - analytic) / denom <= 1e-5, f"m={m}"


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-5, max_value=1e3))
def test_derivative_property(m):
    fd = central_difference(m, 1e-6 * m)
    analytic = 0.5 * theta(m, KP)
    denom = max(abs(analytic), abs(fd), 1e-9)
    assert abs(fd - analytic) / denom <= 1e-5


def test_float32_paths():
    m = np.array([[0.0, 1.0, 2.0]], dtype=np.float32)
    assert phi_matrix(m, KP).dtype == np.float32
    assert theta_matrix(np.maximum(m, 1e-3), KP).dtype == np.float32


@pytest.mark.parametrize("fn, scalar", [(phi_matrix, phi), (theta_matrix, theta)])
def test_matrix_routes_accept_integer_input(fn, scalar):
    m = np.array([[0, 1, 4]])
    out = fn(m, KP)
    assert out.dtype == np.float64
    assert out.shape == (1, 3)
    assert np.allclose(out[0], [scalar(float(v), KP) for v in m[0]], rtol=0, atol=1e-12)


def _phi_where(m, params):
    # the earlier formula, with a temporary of the matrix's size per operation
    dt = m.dtype
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(m > 0, 0.5 * m * (np.log(m) - dt.type(2.0 * params.b)), dt.type(0))
    return (out + dt.type(params.c)).astype(dt, copy=False)


def _theta_where(m, params):
    dt = m.dtype
    return np.log(np.maximum(m, dt.type(EPS_M))) - dt.type(2.0 * params.b - 1.0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("fn,reference", [(phi_matrix, _phi_where), (theta_matrix, _theta_where)],
                         ids=["phi", "theta"])
def test_matrix_routes_in_place_match_formula_bitwise(dtype, fn, reference):
    m = np.random.default_rng(5).uniform(0, 1600, (300, 201)).astype(dtype)
    m[::7, 3] = 0
    m[4, :9] = 1e-30
    expected = reference(m, KP)
    tracemalloc.start()
    try:
        got = fn(m, KP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.dtype == np.dtype(dtype)
    assert got.tobytes() == expected.tobytes()
    assert peak <= 1.25 * got.nbytes
