"""The octahedral constellation and the inverse of its kernel Gram matrix.

A constellation is the fixed point set at which a package's spline family is
specified.  Every package uses a cross-polytope (hyperoctahedron) of unit
vertices plus the origin: in n dimensions, 2n + 1 points with rows ordered
[origin, -e_1..-e_n, +e_1..+e_n], so the width n alone sets it.  Pairwise
squared distances between those points take only the values {0, 1, 2, 4},
which collapses the Gram matrix inverse U = (K + sigma^2 I)^-1 to ten
scalars: four kernel values, three Schur-complement basis coefficients,
their three inverses, and two border coefficients.  ``derive_coefficients``
computes them, and so is the one check that a package can exist.
``Package.coeffs_from_values`` applies U from the scalars without forming
it; ``oracle.gram_inverse`` computes U the slow way from the point matrix
and is the cross-check for the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import KernelParams, phi


class DegenerateKernelError(ValueError):
    """Kernel parameters make the closed-form coefficient system singular."""


def octahedral_points(n: int, dtype=np.float64) -> np.ndarray:
    """Rows [origin; -I_n; +I_n] — the unit cross-polytope plus its center."""
    c = np.zeros((2 * n + 1, n), dtype=dtype)
    idx = np.arange(n)
    c[1 + idx, idx] = -1.0
    c[1 + n + idx, idx] = 1.0
    return c


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

    Cost is O(1) arithmetic regardless of n.  Raises ValueError unless
    n >= 1 and 0 <= sigma2 < inf, and DegenerateKernelError when any
    denominator of the coefficient system vanishes or any scalar is not finite.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not 0 <= sigma2 < math.inf:
        raise ValueError(f"sigma2 must be finite and >= 0, got {sigma2}")
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
    scalars = (k0, k1, k2, k4, a1, a2, a3, b1, b2, b3, u1, u2)
    if not all(map(math.isfinite, scalars)):
        raise DegenerateKernelError(f"kernel b={params.b}, c={params.c} and sigma2={sigma2} "
                                    f"give coefficients that are not finite")
    return OctaCoefficients(*scalars)
