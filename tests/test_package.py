import tracemalloc

import numpy as np
import pytest

from polycascade import oracle
from polycascade.constellation import octahedral_points
from polycascade.kernel import EPS_M, KernelParams, phi, phi_matrix, theta_matrix
from polycascade.linalg import ShapeMismatchError
from polycascade.package import Package

KP = KernelParams()


def rel_err(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-30)


def make_package(n, n_out=3, seed=0, sigma2=0.0):
    rng = np.random.default_rng(seed)
    return Package(n, KP, rng.uniform(-1, 1, (2 * n + 1, n_out)), sigma2=sigma2)


def test_distances_from_origin():
    pkg = make_package(1)
    m = pkg.squared_distances(np.array([[0.0]]))
    assert np.allclose(m, [[0.0], [1.0], [1.0]])


def test_distances_hand_expanded():
    # closed form: [|x|^2, |x|^2 + 1 + 2x_i ..., |x|^2 + 1 - 2x_i ...], a column per batch row
    pkg = make_package(2)
    m = pkg.squared_distances(np.array([[0.5], [0.0]]))
    assert np.allclose(m, [[0.25], [2.25], [1.25], [0.25], [1.25]])


@pytest.mark.parametrize("n", [1, 3, 50])
def test_distances_fast_vs_naive(n):
    pkg = make_package(n)
    x = np.random.default_rng(n).uniform(-2, 2, (9, n))
    fast = pkg.squared_distances(x.T)
    naive = oracle.squared_distances(x, octahedral_points(n))  # rows x points
    assert np.abs(fast.T - naive).max() <= 1e-10


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", [3, 50, 784])
def test_distances_bitwise_equal_to_the_expanded_formula(n, dtype):
    # the in-place route must give exactly the bits of the full-size-temporary formula,
    # written features x rows, with no clamp
    pkg = Package(n, KP, np.zeros((2 * n + 1, 1)), dtype=dtype)
    x = np.random.default_rng(n).uniform(-1, 1, (n, 20)).astype(dtype)
    x[0, 0] = 0.0  # +-2 * 0 gives signed zeros
    sq_norms = np.sum(x * x, axis=0, keepdims=True)
    expected = np.vstack([sq_norms, sq_norms + 1.0 + 2.0 * x, sq_norms + 1.0 - 2.0 * x])
    got = pkg.squared_distances(x)
    assert got.dtype == np.dtype(dtype)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_kernel_chain_at_and_near_constellation_points(dtype):
    # exact hits (x = 0 and +-e_j) give zero distances; the chain maps them, and distances
    # below the smallest normal, to exactly c and to theta at EPS_M
    n = 3
    pkg = Package(n, KP, np.zeros((2 * n + 1, 1)), dtype=dtype)
    points = octahedral_points(n, dtype).T  # column j is point j
    hits = pkg.squared_distances(points)
    off = ~np.eye(pkg.k, dtype=bool)
    assert np.array_equal(np.diag(hits), np.zeros(pkg.k)) and np.all(hits[off] >= 1.0)
    assert np.all(np.diag(pkg.kernel_values(points)) == KP.c)
    finfo = np.finfo(dtype)
    # a distance that rounded below zero, as an expanded form can round one, a subnormal
    # distance and the smallest normal
    below, subnormal, tiny = -finfo.eps, finfo.tiny / 8, finfo.tiny
    near = np.array([0.0, below, subnormal, tiny], dtype)
    theta_eps = theta_matrix(np.array([EPS_M], dtype), KP)[0]
    assert np.all(theta_matrix(np.diag(hits).copy(), KP) == theta_eps)
    assert np.all(theta_matrix(near, KP) == theta_eps)
    assert np.all(phi_matrix(near[[0, 2, 3]], KP) == KP.c)


def test_distances_width_mismatch():
    pkg = make_package(4)
    with pytest.raises(ShapeMismatchError):
        pkg.squared_distances(np.ones((3, 2)))


def test_forward_interpolates_values_at_points():
    pkg = make_package(4, seed=3)
    out, _ = pkg.forward(octahedral_points(4).T)  # one column per point
    assert np.abs(out.T - pkg.values).max() <= 1e-8


def test_forward_zero_values_zero_output():
    pkg = Package(3, KP, np.zeros((7, 2)))
    out, _ = pkg.forward(np.random.default_rng(1).uniform(-1, 1, (3, 6)))
    assert out.shape == (2, 6) and np.all(out == 0.0)


def test_forward_near_identity_oracle():
    # values = points makes the 1-d package approximately the identity map;
    # the expected number comes from evaluating the interpolant directly
    pkg = Package(1, KP, octahedral_points(1))
    out, _ = pkg.forward(np.array([[0.3]]))

    pts = np.array([0.0, -1.0, 1.0])
    gram = np.array([[phi((a - b) ** 2, KP) for b in pts] for a in pts])
    lam = np.linalg.solve(gram, pts.reshape(-1, 1))
    direct = float(np.array([phi((0.3 - p) ** 2, KP) for p in pts]) @ lam[:, 0])

    assert out[0, 0] == pytest.approx(direct, abs=1e-9)
    assert direct == pytest.approx(0.3123994420141156, abs=1e-9)
    # propagation is only approximately the identity between the points
    assert abs(out[0, 0] - 0.3) <= 0.02


def test_coeffs_zero_values():
    pkg = make_package(3)
    assert np.all(pkg.coeffs_from_values(np.zeros((pkg.k, 2))) == 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 50])
def test_coeffs_fast_vs_naive(n):
    pkg = make_package(n, n_out=4, seed=n)
    y = np.random.default_rng(n + 100).uniform(-1, 1, (pkg.k, 4))
    fast = pkg.coeffs_from_values(y)
    naive = oracle.coefficients(oracle.gram_inverse(octahedral_points(n), KP), y)
    assert rel_err(fast, naive) <= 1e-8


def test_coeffs_first_row_composition():
    # first output row is u1 * (first value row) + u2 * (column sums of the rest)
    pkg = make_package(5, n_out=2, seed=8)
    y = np.random.default_rng(9).uniform(-1, 1, (pkg.k, 2))
    out = pkg.coeffs_from_values(y)
    oc = pkg.octa_coeffs
    expected = oc.u1 * y[0] + oc.u2 * y[1:].sum(axis=0)
    assert np.allclose(out[0], expected, atol=1e-12)


def test_values_coeffs_always_consistent():
    pkg = make_package(6, seed=2)
    u = oracle.gram_inverse(octahedral_points(6), KP)
    assert rel_err(pkg.coeffs, u @ pkg.values) <= 1e-8
    new_y = np.random.default_rng(3).uniform(-1, 1, pkg.values.shape)
    pkg.set_values(new_y)
    assert rel_err(pkg.coeffs, u @ new_y) <= 1e-8


@pytest.mark.parametrize("shape", [(7, 5), (7, 1), (9, 4)])
def test_set_values_keeps_the_shape_of_the_first_values(shape):
    # another width would change n_out under the next package, which reads n_out features
    pkg = make_package(3, n_out=4)
    values, coeffs = pkg.values.copy(), pkg.coeffs.copy()
    with pytest.raises(ShapeMismatchError, match=r"package holds \(7, 4\)"):
        pkg.set_values(np.zeros(shape))
    assert np.array_equal(pkg.values, values) and np.array_equal(pkg.coeffs, coeffs)


def test_basis_identity_rows_at_points():
    pkg = make_package(4, seed=1)
    _, kv = pkg.forward(octahedral_points(4).T)
    basis = pkg.cardinal_basis(kv)
    assert np.abs(basis - np.eye(pkg.k)).max() <= 1e-8


@pytest.mark.parametrize("n", [1, 3, 50])
def test_basis_fast_vs_naive(n):
    pkg = make_package(n, seed=n)
    x = np.random.default_rng(n).uniform(-1, 1, (7, n))
    _, kv = pkg.forward(x.T)
    # the oracle reads the kernel values (as rows x points) before cardinal_basis writes
    # the basis over them
    naive = oracle.cardinal_basis(kv.T, oracle.gram_inverse(octahedral_points(n), KP))
    fast = pkg.cardinal_basis(kv)
    assert rel_err(fast.T, naive) <= 1e-8


def test_basis_first_column_composition():
    # the first point's basis function, a row of the k x c basis
    pkg = make_package(5, seed=4)
    x = np.random.default_rng(5).uniform(-1, 1, (5, 6))
    _, kv = pkg.forward(x)
    basis = pkg.cardinal_basis(kv.copy())  # written over the kernel values it is given
    oc = pkg.octa_coeffs
    expected = oc.u1 * kv[0] + oc.u2 * kv[1:].sum(axis=0)
    assert np.allclose(basis[0], expected, atol=1e-10)


def test_backward_zero_gradient():
    pkg = make_package(3, seed=6)
    x = np.random.default_rng(6).uniform(-1, 1, (3, 5))
    g_prev = pkg.backward(np.zeros((pkg.n_out, 5)), x)
    assert np.all(g_prev == 0.0)


@pytest.mark.parametrize("n", [1, 3, 50])
def test_backward_fast_vs_naive(n):
    pkg = make_package(n, n_out=2, seed=n + 7)
    rng = np.random.default_rng(n)
    x = rng.uniform(-1, 1, (8, n))
    g = rng.standard_normal((8, 2))
    # the oracle holds batches rows x features
    naive = oracle.backward(g, x, oracle.squared_distances(x, octahedral_points(n)),
                            octahedral_points(n), pkg.coeffs, KP)
    fast = pkg.backward(np.ascontiguousarray(g.T), x.T)
    assert rel_err(fast.T, naive) <= 1e-8


def test_backward_finite_difference():
    # single-output package: input derivatives vs central differences
    rng = np.random.default_rng(12)
    pkg = make_package(4, n_out=1, seed=12)
    x = rng.uniform(-0.8, 0.8, (4, 5))  # features x rows
    g = pkg.backward(np.ones((1, 5)), x)
    h = 1e-5
    for i in range(5):
        for j in range(4):
            xp, xm = x.copy(), x.copy()
            xp[j, i] += h
            xm[j, i] -= h
            fd = (pkg.forward(xp)[0][0, i] - pkg.forward(xm)[0][0, i]) / (2 * h)
            assert abs(fd - g[j, i]) / max(abs(fd), 1e-12) <= 1e-4


def test_backward_over_its_input_equals_the_allocating_call():
    # a sweep chunk writes each package's input derivative over its input; backward reads the
    # input alone, so a forward pass and a cardinal basis on the same batch change nothing
    pkg = make_package(2)
    x = np.random.default_rng(2).uniform(-1, 1, (2, 3))
    g = np.ones((pkg.n_out, 3))
    expected = pkg.backward(g, x)
    pkg.cardinal_basis(pkg.forward(x)[1])
    assert np.array_equal(pkg.backward(g, x), expected)
    got = pkg.backward(g, x, out=x)
    assert got is x and np.array_equal(x, expected)


def test_basis_overwrites_the_kernel_values_and_backward_repeats():
    # cardinal_basis writes the basis over the kernel values it is given and returns them;
    # backward consumes nothing, so it runs again to the same bits
    pkg = make_package(3, n_out=2, seed=8)
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, (3, 6))
    _, kv = pkg.forward(x)
    g = rng.standard_normal((2, 6))
    first = pkg.backward(g, x)
    assert np.array_equal(pkg.backward(g, x), first)
    expected = pkg.coeffs_from_values(kv)
    basis = pkg.cardinal_basis(kv)
    assert basis is kv and np.array_equal(basis, expected)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_backward_into_a_row_slice_equals_the_allocating_call(dtype):
    # a sweep chunk writes its derivatives into a row block of its working set, and its
    # distances into its own k x c array
    rng = np.random.default_rng(9)
    pkg = Package(5, KP, rng.uniform(-1, 1, (11, 3)), dtype=dtype)
    x = rng.uniform(-1, 1, (5, 7)).astype(dtype)
    g = rng.standard_normal((3, 7)).astype(dtype)
    x_copy = x.copy()
    expected = pkg.backward(g, x)
    big = np.full((12, 7), 7.0, dtype=dtype)
    dists = np.empty((pkg.k, 7), dtype=dtype)
    got = pkg.backward(g, x, out=big[3:8], sq_dists=dists)
    assert np.shares_memory(got, big) and got.dtype == np.dtype(dtype)
    assert np.array_equal(big[3:8], expected)
    assert np.all(big[:3] == 7.0) and np.all(big[8:] == 7.0)
    assert np.array_equal(x, x_copy)  # the input is written over only when it is out


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes that numpy allocates during ``fn(*args, **kwargs)``."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_distances_and_backward_in_buffers_make_no_batch_sized_array(dtype):
    # given their buffers, a sweep chunk's distances and its backward allocate single rows and
    # numpy's iterator buffers, never a k x c or an n x c array
    n, c = 16, 3000
    rng = np.random.default_rng(4)
    pkg = Package(n, KP, rng.uniform(-1, 1, (2 * n + 1, 4)), dtype=dtype)
    x = rng.uniform(-1, 1, (n, c)).astype(dtype)
    g = rng.standard_normal((4, c)).astype(dtype)
    dists, scratch, out = np.empty((pkg.k, c), dtype), np.empty((pkg.k, c), dtype), x.copy()
    assert traced_peak(pkg.squared_distances, x, out=dists) < x.nbytes / 4
    assert traced_peak(pkg.backward, g, x, out=out, sq_dists=dists, scratch=scratch) < x.nbytes / 4
    assert np.array_equal(out, pkg.backward(g, x))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_coeffs_from_values_over_its_input_makes_two_n_row_arrays(dtype):
    # the cardinal basis is written over the kernel values with two n x c temporaries
    n, c = 64, 3000
    pkg = Package(n, KP, np.zeros((2 * n + 1, 1)), dtype=dtype)
    kv = np.random.default_rng(5).uniform(300, 400, (pkg.k, c)).astype(dtype)
    expected = pkg.coeffs_from_values(kv)
    n_rows = n * c * np.dtype(dtype).itemsize
    assert traced_peak(pkg.coeffs_from_values, kv, out=kv) < 2.25 * n_rows
    assert np.array_equal(kv, expected)


def test_backward_at_constellation_point_is_finite():
    # inputs sitting exactly on a point hit the log clamp, not -inf
    pkg = make_package(3, n_out=1, seed=1)
    g = pkg.backward(np.ones((1, 2)), octahedral_points(3)[:2].T)
    assert np.isfinite(g).all()


def test_shape_contracts():
    # features x rows: one column per batch row
    pkg = make_package(6, n_out=4, seed=0)
    x = np.random.default_rng(0).uniform(-1, 1, (6, 11))
    out, kv = pkg.forward(x)
    assert out.shape == (4, 11)
    assert pkg.squared_distances(x).shape == (pkg.k, 11)
    assert kv.shape == pkg.kernel_values(x).shape == (pkg.k, 11)
    assert pkg.cardinal_basis(kv).shape == (pkg.k, 11)
    assert pkg.backward(np.ones((4, 11)), x).shape == (6, 11)


def test_float32_package_roundtrip():
    rng = np.random.default_rng(0)
    pkg = Package(3, KP, rng.uniform(-1, 1, (7, 2)), dtype=np.float32)
    out, kv = pkg.forward(rng.uniform(-1, 1, (3, 4)).astype(np.float32))
    assert out.dtype == np.float32
    assert pkg.cardinal_basis(kv).dtype == np.float32
