import time

import numpy as np
import pytest

from polycascade.constellation import DegenerateKernelError, derive_coefficients, octahedral_points
from polycascade.kernel import KernelParams, phi
from polycascade.oracle import SingularConstellationError, gram_inverse, pairwise_sq_dists
from polycascade.package import Package

KP = KernelParams()


def rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def closed_form_u(n, sigma2=0.0):
    """U @ I by the production closed form, the route training and scoring run."""
    k = 2 * n + 1
    pkg = Package(n, KP, np.zeros((k, 1)), sigma2=sigma2)
    return pkg.coeffs_from_values(np.eye(k))


def test_points_n1():
    assert np.array_equal(octahedral_points(1), np.array([[0.0], [-1.0], [1.0]]))


def test_points_n2_block_layout():
    expected = np.array([[0.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(octahedral_points(2), expected)


def test_point_count_arithmetic():
    assert Package(784, KP, np.zeros((1569, 1))).k == 1569
    assert Package(1, KP, np.zeros((3, 1))).k == 3
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        Package(0, KP, np.zeros((1, 1)))


def test_constellation_distances_take_four_values():
    m = pairwise_sq_dists(octahedral_points(2))
    assert set(np.unique(m)) == {0.0, 1.0, 2.0, 4.0}


def test_gram_matrix_pattern():
    # block form: k0 diagonal, k1 borders, k4 at opposite-vertex pairs, k2 elsewhere
    n = 3
    m = pairwise_sq_dists(octahedral_points(n))
    k0, k1, k2, k4 = (phi(v, KP) for v in (0.0, 1.0, 2.0, 4.0))
    gram = np.array([[phi(v, KP) for v in row] for row in m])
    assert np.all(np.diag(gram) == k0)
    assert np.all(gram[0, 1:] == k1) and np.all(gram[1:, 0] == k1)
    for i in range(1, n + 1):
        assert gram[i, i + n] == pytest.approx(k4)
    assert gram[1, 2] == pytest.approx(k2)


def test_coefficient_values_frozen():
    co = derive_coefficients(1, KP, 0.0)
    # direct evaluation from the four kernel values
    assert co.a1 == pytest.approx(9.306853, abs=1e-5)
    assert co.a2 == pytest.approx(-7.920559, abs=1e-5)
    assert co.a3 == pytest.approx(0.630647, abs=1e-5)
    # oracle: explicit inversion of the bordered system, projected on {I, P, J}
    assert co.b1 == pytest.approx(0.389698, abs=1e-5)
    assert co.b2 == pytest.approx(0.331651, abs=1e-5)
    assert co.b3 == pytest.approx(-0.171823, abs=1e-5)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 50])
def test_basis_inverse_system_residuals(n):
    co = derive_coefficients(n, KP, 0.0)
    assert abs(co.a1 * co.b1 + co.a2 * co.b2 - 1.0) <= 1e-12
    assert abs(co.a1 * co.b2 + co.a2 * co.b1) <= 1e-12
    ring = (co.a1 * co.b3 + co.a2 * co.b3 + co.a3 * co.b1 + co.a3 * co.b2
            + 2 * n * co.a3 * co.b3)
    assert abs(ring) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 7, 50])
def test_synthesized_matches_explicit(n):
    fast = closed_form_u(n)
    slow = gram_inverse(octahedral_points(n), KP)
    assert rel_err(fast, slow) <= 1e-8


def test_synthesized_u_structure():
    n = 3
    co = derive_coefficients(n, KP, 0.0)
    u = closed_form_u(n)
    assert np.array_equal(u, u.T)
    assert u[0, 0] == co.u1
    assert np.all(u[0, 1:] == co.u2)
    # interior: diagonal b1 + b3, swapped-half positions b2 + b3
    assert u[1, 1] == pytest.approx(co.b1 + co.b3)
    assert u[1, 1 + n] == pytest.approx(co.b2 + co.b3)
    assert u[1, 2] == pytest.approx(co.b3)


def test_u_solves_gram_system():
    n = 1
    u = closed_form_u(n)
    c = octahedral_points(n)
    gram = np.array([[phi(v, KP) for v in row] for row in pairwise_sq_dists(c)])
    assert np.abs(u @ gram - np.eye(2 * n + 1)).max() <= 1e-8


def test_interior_row_sums():
    # every row/column of the interior inverse sums to b1 + b2 + 2n*b3
    n = 5
    co = derive_coefficients(n, KP, 0.0)
    u = closed_form_u(n)
    interior = u[1:, 1:]
    expected = co.b1 + co.b2 + 2 * n * co.b3
    assert np.allclose(interior.sum(axis=1), expected, atol=1e-12)
    assert np.allclose(interior.sum(axis=0), expected, atol=1e-12)


def test_sigma2_agreement():
    n = 4
    sigma2 = 0.35
    fast = closed_form_u(n, sigma2)
    slow = gram_inverse(octahedral_points(n), KP, sigma2=sigma2)
    assert rel_err(fast, slow) <= 1e-8


def test_degenerate_kernel_reported():
    # b = c = 0 collapses k0 + sigma2 to zero
    with pytest.raises(DegenerateKernelError):
        derive_coefficients(3, KernelParams(b=0.0, c=0.0), 0.0)
    # a tiny c leaves k0 + sigma2 nonzero, but its square underflows to zero
    with pytest.raises(DegenerateKernelError):
        derive_coefficients(3, KernelParams(b=5.0, c=2.2250738585072014e-306), 0.0)
    # finite coefficients whose kernel values overflow: every scalar must come out finite
    for b in (1e308, -1e308):
        with pytest.raises(DegenerateKernelError, match="not finite"):
            derive_coefficients(3, KernelParams(b=b), 0.0)
    with pytest.raises(DegenerateKernelError):
        derive_coefficients(3, KernelParams(c=1e308), 0.0)


def test_explicit_constellation_duplicate_points():
    with pytest.raises(SingularConstellationError):
        gram_inverse(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), KP)
    # the same points are allowed once regularized
    u = gram_inverse(np.array([[0.0, 0.0], [1e-9, 0.0], [1.0, 0.0]]), KP, sigma2=1.0)
    assert u.shape == (3, 3)


def test_gram_inverse_reads_distances_clamped_at_zero():
    # phi_matrix does not scan for negative distances; on these general points the expanded
    # formula rounds some to about -1e-15, which the oracle clamps before the kernel
    pts = np.random.default_rng(1).uniform(-1, 1, (21, 10))
    assert pairwise_sq_dists(pts).min() >= 0.0
    u = gram_inverse(pts, KP)
    gram = np.array([[phi(v, KP) for v in row] for row in pairwise_sq_dists(pts)])
    assert np.abs(u @ gram - np.eye(21)).max() <= 1e-8


def test_explicit_u_general_points():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, (6, 3))
    u = gram_inverse(pts, KP)
    gram = np.array([[phi(v, KP) for v in row] for row in pairwise_sq_dists(pts)])
    assert np.abs(u @ gram - np.eye(6)).max() <= 1e-8


def test_coefficient_cost_independent_of_dimension():
    def median_time(n, calls=2000):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                derive_coefficients(n, KP, 0.0)
            times.append(time.perf_counter() - t0)
        return np.median(times)

    small, large = median_time(10), median_time(10_000)
    assert large <= 2.0 * small, f"n=10: {small:.4f}s vs n=10000: {large:.4f}s"
