"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criterion 8 drives the real MNIST IDX files and is marked slow, as is the
500-package stability test after criterion 10.  Criterion 8 is
skipped (not failed) when the files are absent, since the package never
downloads datasets.  Point MNIST_DIR (or ./data/mnist) at a directory with
the four standard files to run it:

    train-images-idx3-ubyte   train-labels-idx1-ubyte
    t10k-images-idx3-ubyte    t10k-labels-idx1-ubyte
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from polycascade import oracle
from polycascade.cascade import init_multi, sweep, train_multi
from polycascade.constellation import octahedral_points
from polycascade.data import Dataset, TransformSpec, fit_apply_transforms, load_idx
from polycascade.kernel import KernelParams
from polycascade.linalg import spd_solve
from polycascade.package import Package
from polycascade.synthetic import make_shell_task
from polycascade.training import TrainConfig, run_training

KP = KernelParams()

MNIST_DIR = Path(os.environ.get("MNIST_DIR", "data/mnist"))
MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")
HAVE_MNIST = all((MNIST_DIR / f).exists() for f in MNIST_FILES)

needs_mnist = pytest.mark.skipif(
    not HAVE_MNIST, reason=f"MNIST IDX files not found under {MNIST_DIR} (set MNIST_DIR)")


def announce(num, text):
    print(f"PASS criterion {num}: {text}")


def rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.acceptance
def test_criterion_1_closed_form_gram_inverse():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3, 7, 50, 200):
        k = 2 * n + 1
        # U @ I through the production closed form
        fast = Package(n, KP, np.zeros((k, 1))).coeffs_from_values(np.eye(k))
        slow = oracle.gram_inverse(octahedral_points(n), KP)
        worst = max(worst, rel_err(fast, slow))
        assert rel_err(fast, slow) <= 1e-8, f"n={n}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(1, f"closed-form Gram inverse matches explicit inversion "
                f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


@pytest.mark.acceptance
def test_criterion_2_fast_path_equivalence_battery():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3, 7, 50):
        for seed in range(20):
            rng = np.random.default_rng(1000 * n + seed)
            pkg = Package(n, KP, rng.uniform(-1, 1, (2 * n + 1, 3)))
            points = octahedral_points(n)
            u = oracle.gram_inverse(points, KP)
            lam_f = pkg.coeffs_from_values(pkg.values)
            lam_n = oracle.coefficients(u, pkg.values)
            worst = max(worst, rel_err(lam_f, lam_n))
            for r in (1, 5, 64):
                # the oracle holds batches rows x features, the package features x rows
                x = rng.uniform(-1.5, 1.5, (r, n))
                m_f = pkg.squared_distances(x.T).T
                m_n = oracle.squared_distances(x, points)
                worst = max(worst, np.abs(m_f - m_n).max() / max(np.abs(m_n).max(), 1e-30))
                _, kv = pkg.forward(x.T)
                # the oracle reads first: cardinal_basis writes over the kernel values
                h_n = oracle.cardinal_basis(kv.T, u)
                h_f = pkg.cardinal_basis(kv).T
                worst = max(worst, rel_err(h_f, h_n))
                g = rng.standard_normal((r, 3))
                g_n = oracle.backward(g, x, m_n, points, pkg.coeffs, KP)
                g_f = pkg.backward(np.ascontiguousarray(g.T), x.T).T
                worst = max(worst, rel_err(g_f, g_n))
            assert worst <= 1e-8, f"n={n} seed={seed}: {worst:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    announce(2, f"closed-form/oracle equivalence over the full grid "
                f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


@pytest.mark.acceptance
def test_criterion_3_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    mc = init_multi([5, 4, 3, 1], seed=33, alpha=1.0)
    cascade = mc.replicas[0]

    def tail(x1v):
        out = x1v
        for pkg in cascade.packages[1:]:
            out, _ = pkg.forward(out)
        return out

    h = 1e-5
    probes = 0
    worst = 0.0
    while probes < 100:
        k1, (x1,) = mc.layer1(rng.uniform(-0.9, 0.9, (5, 5)))
        _, _, grads = sweep(cascade, cascade.packages[0].cardinal_basis(k1), x1)
        for i in range(x1.shape[0]):  # features x rows, like every batch array of the cascade
            for j in range(x1.shape[1]):
                xp, xm = x1.copy(), x1.copy()
                xp[i, j] += h
                xm[i, j] -= h
                fd = (tail(xp)[0, j] - tail(xm)[0, j]) / (2 * h)
                err = abs(fd - grads[0][i, j]) / max(abs(fd), 1e-12)
                worst = max(worst, err)
                assert err <= 1e-4, f"probe {probes}: rel err {err:.3e}"
                probes += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(3, f"analytic derivatives match central differences on {probes} probes "
                f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


@pytest.mark.acceptance
def test_criterion_4_interpolation_exactness():
    worst = 0.0
    for n, n_out, seed in ((1, 1, 0), (4, 3, 1), (10, 2, 2), (50, 5, 3)):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1, 1, (2 * n + 1, n_out))
        pkg = Package(n, KP, values, sigma2=0.0)
        out, _ = pkg.forward(octahedral_points(n).T)  # one column per point
        worst = max(worst, float(np.abs(out.T - values).max()))
    assert worst <= 1e-8
    announce(4, f"evaluation at constellation points reproduces values "
                f"(max abs err {worst:.2e})")


@pytest.mark.acceptance
def test_criterion_5_single_package_exact_fit():
    rng = np.random.default_rng(55)
    mc = init_multi([30, 1], seed=55, alpha=0.0)
    x0 = rng.uniform(-1, 1, (50, 30))
    lstar = rng.uniform(-1, 1, (50, 1))
    train_multi(mc, x0, lstar)
    residual = float(np.abs(mc.scores(x0) - lstar).max())
    assert residual <= 1e-6
    announce(5, f"one unregularized step fits 50 targets exactly (residual {residual:.2e})")


@pytest.mark.acceptance
def test_criterion_6_gram_products_psd_and_system_spd():
    rng = np.random.default_rng(66)
    min_eig = np.inf
    for trial in range(20):
        widths = [int(rng.integers(3, 8)), int(rng.integers(2, 6)), 1]
        mc = init_multi(widths, seed=trial, alpha=1.0)
        r = int(rng.integers(2, 21))
        k1, (x1,) = mc.layer1(rng.uniform(-1, 1, (r, widths[0])))
        first = mc.replicas[0].packages[0]
        _, bases, grads = sweep(mc.replicas[0], first.cardinal_basis(k1), x1)
        # the oracle holds batches rows x features
        for omega in oracle.package_omegas([h.T for h in bases], [g.T for g in grads]):
            min_eig = min(min_eig, float(np.linalg.eigvalsh(omega).min()))
    assert min_eig >= -1e-8

    for trial in range(100):
        widths = [int(rng.integers(3, 10)), int(rng.integers(2, 8)), 1]
        mc = init_multi(widths, seed=200 + trial, alpha=1.0)
        r = int(rng.integers(2, 65))
        k1, (x1,) = mc.layer1(rng.uniform(-1, 1, (r, widths[0])))
        first = mc.replicas[0].packages[0]
        _, bases, grads = sweep(mc.replicas[0], first.cardinal_basis(k1), x1)
        total = (sum(oracle.package_omegas([h.T for h in bases], [g.T for g in grads]))
                 + 1.0 * np.eye(r))
        spd_solve(total, rng.standard_normal((r, 1)))  # raises if not SPD
    announce(6, f"Gram products PSD (min eig {min_eig:.2e}); "
                f"regularized system SPD on 100 trials")


@pytest.mark.acceptance
def test_criterion_7_identity_fragment_propagation():
    width = 6
    mc = init_multi([width] * 11 + [1], seed=7, mode="identity-fragments", alpha=1.0)
    identity = mc.replicas[0].packages[:10]

    def through(x):
        """The rows of x carried through the ten identity packages, as rows."""
        y = np.ascontiguousarray(x.T)
        for pkg in identity:
            y, _ = pkg.forward(y)
        return y.T

    points = octahedral_points(width)
    exact_err = float(np.abs(through(points) - points).max())
    assert exact_err <= 1e-8

    rng = np.random.default_rng(7)
    interior = rng.uniform(-0.7, 0.7, (64, width))
    drift = float(np.abs(through(interior) - interior).max())  # reported, not asserted
    announce(7, f"constellation points pass 10 identity layers exactly "
                f"({exact_err:.2e}); interior drift {drift:.4f} (reported only)")


def _load_mnist():
    train = load_idx(MNIST_DIR / MNIST_FILES[0], MNIST_DIR / MNIST_FILES[1])
    test = load_idx(MNIST_DIR / MNIST_FILES[2], MNIST_DIR / MNIST_FILES[3])
    joined = Dataset(np.vstack([train.features, test.features]),
                     np.concatenate([train.labels, test.labels]), n_train=train.n_rows)
    normalized, _ = fit_apply_transforms(joined, TransformSpec())
    return normalized.train, normalized.test, train.labels, test.labels


@pytest.mark.acceptance
@pytest.mark.slow
@needs_mnist
def test_criterion_8_mnist_experiment():
    train, test, train_labels, test_labels = _load_mnist()
    train = Dataset(train.features, train_labels)
    test = Dataset(test.features, test_labels)
    assert train.n_rows == 60000 and test.n_rows == 10000
    cfg = TrainConfig(widths=[784, 100, 20, 20, 10], alpha=200.0, epochs=10,
                      batch_rows=2000, seed=0, precision="float32")
    _, records = run_training(cfg, train, test,
                              on_epoch=lambda r, _m: print(
                                  f"  epoch {r.epoch}: test acc {r.test_metric:.4f} "
                                  f"({r.seconds:.0f}s)", flush=True))
    assert records[0].test_metric >= 0.965, f"epoch 1: {records[0].test_metric:.4f}"
    assert records[-1].test_metric >= 0.980, f"epoch 10: {records[-1].test_metric:.4f}"
    announce(8, f"MNIST 784-100-20-20 x10: epoch-1 acc {records[0].test_metric:.4f}, "
                f"epoch-10 acc {records[-1].test_metric:.4f}")


@pytest.mark.acceptance
def test_criterion_9_synthetic_shells_auc():
    t0 = time.perf_counter()
    train, test = make_shell_task(n_train=20000, n_test=5000, dim=10, seed=11)
    widths = [10] + [50] * 9 + [1]
    best = 0.0
    # run epoch by epoch so the test can stop as soon as the bar is cleared
    for epochs in (1, 2, 5, 20):
        cfg = TrainConfig(widths=widths, alpha=50.0, epochs=epochs, batch_rows=1000,
                          seed=9, init_mode="identity-fragments", task="binary-auc")
        _, records = run_training(cfg, train, test)
        best = max(best, max(r.test_metric for r in records))
        if best >= 0.95:
            break
    elapsed = time.perf_counter() - t0
    assert best >= 0.95, f"best AUC {best:.4f} within 20 epochs"
    assert elapsed < 300.0
    announce(9, f"10-package cascade reaches AUC {best:.4f} on concentric shells "
                f"({elapsed:.0f}s)")


@pytest.mark.acceptance
def test_criterion_10_hundred_package_depth():
    # the paper's depth claim: identity-fragment init trains a cascade of 100
    # packages with no skip connections.  Bars from seeds 0-9 of this setup:
    # final AUC 0.962-0.977, residual 0.91-1.13 -> 0.50-0.61, max |values| <= 1.20;
    # random init at this depth stays at chance (AUC <= 0.52, residual ~1.0).
    t0 = time.perf_counter()
    train, test = make_shell_task(n_train=4000, n_test=2000, dim=10, seed=0)
    cfg = TrainConfig(widths=[10] * 100 + [1], alpha=50.0, epochs=3, batch_rows=1000, seed=0,
                      precision="float32", init_mode="identity-fragments", task="binary-auc")
    model, records = run_training(cfg, train, test)
    elapsed = time.perf_counter() - t0
    values = [pkg.values for pkg in model.replicas[0].packages]
    assert all(np.isfinite(v).all() for v in values)
    max_value = max(float(np.abs(v).max()) for v in values)
    assert max_value <= 1.5, f"max |values| {max_value:.3f}"
    assert records[-1].residual < records[0].residual
    assert records[-1].residual <= 0.75, f"final residual {records[-1].residual:.3f}"
    assert records[-1].test_metric >= 0.93, f"AUC {records[-1].test_metric:.4f}"
    announce(10, f"100-package cascade reaches AUC {records[-1].test_metric:.4f}, residual "
                 f"{records[0].residual:.3f} -> {records[-1].residual:.3f}, max |values| "
                 f"{max_value:.3f} ({elapsed:.1f}s)")


@pytest.mark.slow
def test_five_hundred_package_depth_stays_stable():
    # the paper's 500-layer regime: identity-fragment init keeps a cascade of 500
    # packages finite and bounded while its residual falls.  Seeds 0-7 of this setup
    # (14-16 s each): residual 1.10-1.13 -> 0.96-0.99, max |values| 1.014-1.032.
    # Not asserted: the test AUC is only 0.51-0.67 after three epochs.
    train, test = make_shell_task(n_train=4000, n_test=2000, dim=10, seed=0)
    cfg = TrainConfig(widths=[10] * 500 + [1], alpha=50.0, epochs=3, batch_rows=1000, seed=0,
                      precision="float32", init_mode="identity-fragments", task="binary-auc")
    model, records = run_training(cfg, train, test)
    values = [pkg.values for pkg in model.replicas[0].packages]
    assert all(np.isfinite(v).all() for v in values)
    max_value = max(float(np.abs(v).max()) for v in values)
    assert max_value <= 1.2, f"max |values| {max_value:.3f}"
    assert records[-1].residual < records[0].residual
    assert records[-1].residual <= 1.05, f"final residual {records[-1].residual:.3f}"
