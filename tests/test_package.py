import numpy as np
import pytest

from polycascade import oracle
from polycascade.constellation import build_octahedral, octahedral_points
from polycascade.kernel import KernelParams, phi
from polycascade.linalg import ShapeMismatchError
from polycascade.package import Package, PackageBatchState

KP = KernelParams()


def rel_err(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-30)


def make_package(n, n_out=3, seed=0, sigma2=0.0):
    rng = np.random.default_rng(seed)
    c = build_octahedral(n, sigma2=sigma2)
    return Package(c, KP, rng.uniform(-1, 1, (c.k, n_out)))


def test_distances_from_origin():
    pkg = make_package(1)
    m = pkg.squared_distances(np.array([[0.0]]))
    assert np.allclose(m, [[0.0, 1.0, 1.0]])


def test_distances_hand_expanded():
    # closed form: [|x|^2, |x|^2 + 1 + 2x_i ..., |x|^2 + 1 - 2x_i ...]
    pkg = make_package(2)
    m = pkg.squared_distances(np.array([[0.5, 0.0]]))
    assert np.allclose(m, [[0.25, 2.25, 1.25, 0.25, 1.25]])


@pytest.mark.parametrize("n", [1, 3, 50])
def test_distances_fast_vs_naive(n):
    pkg = make_package(n)
    x = np.random.default_rng(n).uniform(-2, 2, (9, n))
    fast = pkg.squared_distances(x)
    naive = oracle.squared_distances(x, octahedral_points(n))
    assert np.abs(fast - naive).max() <= 1e-10


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", [3, 50, 784])
def test_distances_bitwise_equal_to_the_expanded_formula(n, dtype):
    # the in-place route must give exactly the bits of the full-size-temporary formula
    c = build_octahedral(n)
    pkg = Package(c, KP, np.zeros((c.k, 1)), dtype=dtype)
    x = np.random.default_rng(n).uniform(-1, 1, (20, n)).astype(dtype)
    x[0, 0] = 0.0  # +-2 * 0 gives signed zeros
    sq_norms = np.sum(x * x, axis=1, keepdims=True)
    expected = np.hstack([sq_norms, sq_norms + 1.0 + 2.0 * x, sq_norms + 1.0 - 2.0 * x])
    np.maximum(expected, 0.0, out=expected)
    got = pkg.squared_distances(x)
    assert got.dtype == np.dtype(dtype)
    assert np.array_equal(got, expected)


def test_distances_width_mismatch():
    pkg = make_package(4)
    with pytest.raises(ShapeMismatchError):
        pkg.squared_distances(np.ones((2, 3)))


def test_forward_interpolates_values_at_points():
    pkg = make_package(4, seed=3)
    out, _ = pkg.forward(octahedral_points(4))
    assert np.abs(out - pkg.values).max() <= 1e-8


def test_forward_zero_values_zero_output():
    c = build_octahedral(3)
    pkg = Package(c, KP, np.zeros((c.k, 2)))
    out, _ = pkg.forward(np.random.default_rng(1).uniform(-1, 1, (6, 3)))
    assert np.all(out == 0.0)


def test_forward_near_identity_oracle():
    # values = points makes the 1-d package approximately the identity map;
    # the expected number comes from evaluating the interpolant directly
    c = build_octahedral(1)
    pkg = Package(c, KP, octahedral_points(1))
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


def test_basis_identity_rows_at_points():
    pkg = make_package(4, seed=1)
    _, state = pkg.forward(octahedral_points(4))
    basis = pkg.cardinal_basis(state)
    assert np.abs(basis - np.eye(pkg.k)).max() <= 1e-8


@pytest.mark.parametrize("n", [1, 3, 50])
def test_basis_fast_vs_naive(n):
    pkg = make_package(n, seed=n)
    x = np.random.default_rng(n).uniform(-1, 1, (7, n))
    _, state = pkg.forward(x)
    # the oracle reads the kernel values before cardinal_basis writes the basis over them
    naive = oracle.cardinal_basis(state.kernel_vals, oracle.gram_inverse(octahedral_points(n), KP))
    fast = pkg.cardinal_basis(state)
    assert rel_err(fast, naive) <= 1e-8


def test_basis_first_column_composition():
    pkg = make_package(5, seed=4)
    x = np.random.default_rng(5).uniform(-1, 1, (6, 5))
    _, state = pkg.forward(x)
    kv = state.kernel_vals.copy()  # cardinal_basis writes the basis over them
    basis = pkg.cardinal_basis(state)
    oc = pkg.octa_coeffs
    expected = oc.u1 * kv[:, 0] + oc.u2 * kv[:, 1:].sum(axis=1)
    assert np.allclose(basis[:, 0], expected, atol=1e-10)


def test_basis_requires_kernel_values():
    pkg = make_package(2)
    empty = PackageBatchState(x_in=np.zeros((1, 2)))
    with pytest.raises(ValueError):
        pkg.cardinal_basis(empty)


def test_backward_zero_gradient():
    pkg = make_package(3, seed=6)
    x = np.random.default_rng(6).uniform(-1, 1, (5, 3))
    _, state = pkg.forward(x)
    g_prev = pkg.backward(np.zeros((5, pkg.n_out)), state)
    assert np.all(g_prev == 0.0)


@pytest.mark.parametrize("n", [1, 3, 50])
def test_backward_fast_vs_naive(n):
    pkg = make_package(n, n_out=2, seed=n + 7)
    rng = np.random.default_rng(n)
    x = rng.uniform(-1, 1, (8, n))
    _, state = pkg.forward(x)
    g = rng.standard_normal((8, 2))
    # the oracle reads the distances before backward writes its derivative factors over them
    naive = oracle.backward(g, x, state.sq_dists, octahedral_points(n), pkg.coeffs, KP)
    fast = pkg.backward(g, state)
    assert rel_err(fast, naive) <= 1e-8


def test_backward_finite_difference():
    # single-output package: input derivatives vs central differences
    rng = np.random.default_rng(12)
    pkg = make_package(4, n_out=1, seed=12)
    x = rng.uniform(-0.8, 0.8, (5, 4))
    out, state = pkg.forward(x)
    g = pkg.backward(np.ones((5, 1)), state)
    h = 1e-5
    for i in range(5):
        for j in range(4):
            xp, xm = x.copy(), x.copy()
            xp[i, j] += h
            xm[i, j] -= h
            fd = (pkg.forward(xp)[0][i, 0] - pkg.forward(xm)[0][i, 0]) / (2 * h)
            assert abs(fd - g[i, j]) / max(abs(fd), 1e-12) <= 1e-4


def test_backward_requires_forward_state():
    # batch_state keeps no distances (the shared layer-1 state); backward needs them
    pkg = make_package(2)
    state = pkg.batch_state(np.zeros((3, 2)))
    assert state.sq_dists is None and state.kernel_vals is not None
    with pytest.raises(ValueError, match="squared distances"):
        pkg.backward(np.ones((3, pkg.n_out)), state)


def test_consumed_state_fails_loudly():
    # cardinal_basis writes the basis over the kernel values and backward its derivative
    # factors over the distances; neither array may be read again as what it was
    pkg = make_package(3, n_out=2, seed=8)
    rng = np.random.default_rng(8)
    _, state = pkg.forward(rng.uniform(-1, 1, (6, 3)))
    g = rng.standard_normal((6, 2))
    kv = state.kernel_vals
    pkg.backward(g, state)
    assert state.sq_dists is None
    with pytest.raises(ValueError, match="holds no squared distances"):
        pkg.backward(g, state)
    assert np.shares_memory(pkg.cardinal_basis(state), kv)
    assert state.kernel_vals is None and state.basis is not None
    with pytest.raises(ValueError, match="holds no kernel values"):
        pkg.evaluate(state)
    # the basis stays cached, in place, for every replica that shares the state
    assert pkg.cardinal_basis(state) is state.basis


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_backward_into_a_row_slice_equals_the_allocating_call(dtype):
    # the cascade's row parts write their rows of a whole-batch derivative matrix
    c = build_octahedral(5)
    rng = np.random.default_rng(9)
    pkg = Package(c, KP, rng.uniform(-1, 1, (c.k, 3)), dtype=dtype)
    x = rng.uniform(-1, 1, (7, 5)).astype(dtype)
    g = rng.standard_normal((7, 3)).astype(dtype)
    _, state = pkg.forward(x)
    twin = PackageBatchState(x_in=state.x_in, sq_dists=state.sq_dists.copy())
    expected = pkg.backward(g, state)
    big = np.full((12, 5), 7.0, dtype=dtype)
    got = pkg.backward(g, twin, out=big[3:10])
    assert np.shares_memory(got, big) and got.dtype == np.dtype(dtype)
    assert np.array_equal(big[3:10], expected)
    assert np.all(big[:3] == 7.0) and np.all(big[10:] == 7.0)
    assert twin.sq_dists is None


def test_backward_at_constellation_point_is_finite():
    # inputs sitting exactly on a point hit the log clamp, not -inf
    pkg = make_package(3, n_out=1, seed=1)
    _, state = pkg.forward(octahedral_points(3)[:2])
    g = pkg.backward(np.ones((2, 1)), state)
    assert np.isfinite(g).all()


def test_shape_contracts():
    pkg = make_package(6, n_out=4, seed=0)
    x = np.random.default_rng(0).uniform(-1, 1, (11, 6))
    out, state = pkg.forward(x)
    assert out.shape == (11, 4)
    assert state.sq_dists.shape == (11, pkg.k)
    assert state.kernel_vals.shape == (11, pkg.k)
    assert pkg.cardinal_basis(state).shape == (11, pkg.k)
    assert pkg.backward(np.ones((11, 4)), state).shape == (11, 6)


def test_float32_package_roundtrip():
    c = build_octahedral(3)
    rng = np.random.default_rng(0)
    pkg = Package(c, KP, rng.uniform(-1, 1, (c.k, 2)), dtype=np.float32)
    out, state = pkg.forward(rng.uniform(-1, 1, (4, 3)).astype(np.float32))
    assert out.dtype == np.float32
    assert pkg.cardinal_basis(state).dtype == np.float32
