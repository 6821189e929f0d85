"""Constellations and the inverse of their kernel Gram matrix.

A constellation is the fixed point set at which a package's spline family is
specified.  The production choice is a cross-polytope (hyperoctahedron) of
unit vertices plus the origin: in n dimensions, 2n + 1 points with rows
ordered [origin, -e_1..-e_n, +e_1..+e_n].  Pairwise squared distances between
those points take only the values {0, 1, 2, 4}, which collapses the Gram
matrix inverse U = (K + sigma^2 I)^-1 to ten scalars: four kernel values,
three Schur-complement basis coefficients, their three inverses, and two
border coefficients.  ``Package.coeffs_from_values`` applies U from the
scalars without forming it; ``oracle.gram_inverse`` computes U the slow way
from the point matrix and is the cross-check for the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import KernelParams, phi


class DegenerateKernelError(ValueError):
    """Kernel parameters make the closed-form coefficient system singular."""


@dataclass(frozen=True)
class Constellation:
    """The octahedral point set of one package, kept implicit (see octahedral_points)."""

    n: int
    sigma2: float = 0.0

    @property
    def k(self) -> int:
        return 2 * self.n + 1


def octahedral_points(n: int, dtype=np.float64) -> np.ndarray:
    """Rows [origin; -I_n; +I_n] — the unit cross-polytope plus its center."""
    c = np.zeros((2 * n + 1, n), dtype=dtype)
    idx = np.arange(n)
    c[1 + idx, idx] = -1.0
    c[1 + n + idx, idx] = 1.0
    return c


def build_octahedral(n: int, sigma2: float = 0.0) -> Constellation:
    """Octahedral constellation over an n-dimensional input space."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be >= 0, got {sigma2}")
    return Constellation(n=n, sigma2=sigma2)


@dataclass(frozen=True)
class OctaCoefficients:
    """The ten scalars the closed-form U is assembled from."""

    k0: float
    k1: float
    k2: float
    k4: float
    a1: float
    a2: float
    a3: float
    b1: float
    b2: float
    b3: float
    u1: float
    u2: float


def derive_coefficients(n: int, params: KernelParams, sigma2: float = 0.0) -> OctaCoefficients:
    """Closed-form coefficients for the octahedral Gram inverse.

    Cost is O(1) arithmetic regardless of n.  Raises DegenerateKernelError
    when any denominator of the coefficient system vanishes.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be >= 0, got {sigma2}")
    k0 = phi(0.0, params)
    k1 = phi(1.0, params)
    k2 = phi(2.0, params)
    k4 = phi(4.0, params)

    d0 = k0 + sigma2
    if d0 * d0 == 0.0:  # u1 divides by the square, which can underflow
        raise DegenerateKernelError("k0 + sigma2 is zero or too small to square")
    a1 = k0 - k2 + sigma2
    a2 = k4 - k2
    a3 = k2 - k1 * k1 / d0

    if a1 * a1 == a2 * a2:
        raise DegenerateKernelError(f"a1^2 == a2^2 ({a1}, {a2}); basis inverse undefined")
    if a1 + a2 == 0.0:
        raise DegenerateKernelError("a1 + a2 is zero")
    ring = a1 + a2 + 2.0 * n * a3
    if ring * (a1 + a2) == 0.0:  # b3's denominator; the product can underflow
        raise DegenerateKernelError("a1 + a2 + 2n*a3 is zero or too small")

    denom = a1 * a1 - a2 * a2
    b1 = a1 / denom
    b2 = -a2 / denom
    b3 = -a3 / (ring * (a1 + a2))

    row_sum = b1 + b2 + 2.0 * n * b3  # any row/column sum of the interior inverse
    u1 = 1.0 / d0 + (k1 * k1) / (d0 * d0) * 2.0 * n * row_sum
    u2 = -(k1 / d0) * row_sum
    return OctaCoefficients(k0, k1, k2, k4, a1, a2, a3, b1, b2, b3, u1, u2)
