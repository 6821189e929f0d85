"""Scalar polyharmonic kernel and its derivative transform.

The kernel maps a squared distance m to ``0.5 * m * (ln m - 2b) + c`` and is
applied elementwise to squared-distance matrices.  Its derivative with
respect to m is ``0.5 * (ln m - 2b + 1)``; the backward pass uses the
bracketed factor (here ``theta``) directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Squared distances below this are clamped before the logarithm in theta;
# the gradient term they scale vanishes at the same rate, so the clamp only
# guards ln(0) for inputs that coincide with a constellation point.
EPS_M = 1e-12


class NegativeDistanceError(ValueError):
    """A squared distance was negative."""


@dataclass(frozen=True)
class KernelParams:
    """Coefficients of the kernel transform. Defaults are the production values."""

    b: float = 5.0
    c: float = 400.0

    def __post_init__(self):
        if not (math.isfinite(self.b) and math.isfinite(self.c)):
            raise ValueError(f"kernel coefficients must be finite, got b={self.b}, c={self.c}")


def phi(m: float, params: KernelParams) -> float:
    """Kernel value at squared distance m; returns c at m = 0 (the limit)."""
    if m < 0:
        raise NegativeDistanceError(f"squared distance must be >= 0, got {m}")
    if m == 0.0:
        return params.c
    return 0.5 * m * (math.log(m) - 2.0 * params.b) + params.c


def phi_matrix(m: np.ndarray, params: KernelParams, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise kernel over a squared-distance matrix, shape preserved.

    Computed in one output array by in-place ufuncs, with no temporaries of
    the matrix's size.  The logarithm's input is clamped at the dtype's
    smallest normal (tiny), so that m = 0 gives a finite log whose product
    with m is a zero, and the m = 0 limit needs no mask.  For m >= tiny the
    result has the bits of ``0.5 * m * (ln m - 2b) + c`` (scaling by 0.5 is
    exact).  Below tiny the log is ln(tiny): a subnormal m moves the value by
    less than 19 m, which c absorbs unless it is as small, and a distance
    that rounded below zero moves it off c by at most
    |m| * |ln(tiny) - 2b| / 2 before the sum with c rounds.  ``out`` (not
    ``m``, which is read after the logarithm) receives the result when given;
    otherwise a new array of ``m``'s float dtype does.  ``m`` is not scanned.
    """
    if out is None:
        out = np.empty(m.shape, dtype=m.dtype if m.dtype.kind == "f" else np.float64)
    dt = out.dtype
    np.maximum(m, np.finfo(dt).tiny, out=out)
    np.log(out, out=out)
    out -= dt.type(2.0 * params.b)
    out *= dt.type(0.5)
    out *= m
    out += dt.type(params.c)
    return out


def theta(m: float, params: KernelParams) -> float:
    """Scalar derivative factor ln(m) - 2b + 1, with the small-m clamp."""
    if m < 0:
        raise NegativeDistanceError(f"squared distance must be >= 0, got {m}")
    return math.log(max(m, EPS_M)) - 2.0 * params.b + 1.0


def theta_matrix(m: np.ndarray, params: KernelParams, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise derivative factor over a squared-distance matrix, in one output array.

    The logarithm's input is clamped at ``EPS_M``, which also maps any
    distance below it, a zero or one that rounded below zero, to the
    factor at ``EPS_M``.  ``out`` (``m`` itself, for the backward pass)
    receives the result when given; otherwise a new array of ``m``'s float
    dtype does.  ``m`` is not scanned, as in ``phi_matrix``.
    """
    if out is None:
        out = np.empty(m.shape, dtype=m.dtype if m.dtype.kind == "f" else np.float64)
    dt = out.dtype
    np.maximum(m, dt.type(EPS_M), out=out)
    np.log(out, out=out)
    out -= dt.type(2.0 * params.b - 1.0)
    return out
