import itertools
import logging
import os
import struct
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from polycascade import cascade as cascade_module
from polycascade import linalg
from polycascade import package as package_module
from polycascade.cascade import (PANEL_ROWS, MultiOutputCascade, TrainingBuffers,
                                 assemble_system, init_multi, one_hot_pm1, sweep, train_multi)
from polycascade.constellation import octahedral_points
from polycascade.data import Dataset
from polycascade.kernel import KernelParams
from polycascade.linalg import NonFiniteError, NotSPDError, ShapeMismatchError
from polycascade.oracle import gram_inverse, package_omegas
from polycascade.package import Package
from polycascade.snapshot import SnapshotFormatError, load_snapshot, save_snapshot
from polycascade.training import TrainConfig, run_training

KP = KernelParams()


def single(widths, seed, **kwargs):
    """A d = 1 model and its one replica."""
    mc = init_multi(widths, seed=seed, **kwargs)
    return mc, mc.replicas[0]


def layer1_basis(mc, x0):
    """The layer-1 basis of the rows x0, which every replica shares, and the layer-1 outputs."""
    k1, x1 = mc.layer1(x0)
    return mc.replicas[0].packages[0].cardinal_basis(k1), x1


def sweeps(mc, x0):
    """The shared layer-1 basis of the rows x0 and every replica's (output, bases, derivatives)."""
    h1, x1 = layer1_basis(mc, x0)
    return h1, [sweep(c, h1, x) for c, x in zip(mc.replicas, x1)]


def forward_through(packages, x):
    """The rows of x carried through the packages' forward passes, as rows."""
    y = np.ascontiguousarray(x.T)
    for pkg in packages:
        y, _ = pkg.forward(y)
    return y.T


def test_width_chain_validation():
    with pytest.raises(ValueError):
        init_multi([5], seed=0)
    with pytest.raises(ValueError):
        init_multi([5, 0, 1], seed=0)
    with pytest.raises(ValueError):
        init_multi([5, 4, 0], seed=0)  # no outputs
    with pytest.raises(ValueError, match="init mode"):
        init_multi([5, 4, 1], seed=0, mode="bogus")
    # an infinite alpha would fail only at the first training step
    with pytest.raises(ValueError, match="alpha must be finite"):
        init_multi([3, 2], seed=0, alpha=float("inf"))


def test_constructor_validation():
    # core [5, 4, 1]: package 0 holds 11 x 4 values, package 1 holds 9 x 1
    good = [np.zeros((11, 4)), np.zeros((9, 1))]
    model = MultiOutputCascade([5, 4, 1], [good, good], alpha=1.0, kernel=KP)
    assert (model.d, model.widths, model.alpha, model.kernel) == (2, [5, 4, 1], 1.0, KP)
    # every replica's package at one depth has the same points, kernel and sigma2, so layer 1
    # can be shared
    for pa, pb in zip(*(c.packages for c in model.replicas)):
        assert ((pa.n_in, pa.k, pa.kernel, pa.sigma2, pa.octa_coeffs)
                == (pb.n_in, pb.k, pb.kernel, pb.sigma2, pb.octa_coeffs))
    with pytest.raises(ShapeMismatchError, match=r"replica 1 package 1: values shape \(9, 2\)"):
        MultiOutputCascade([5, 4, 1], [good, [good[0], np.zeros((9, 2))]], alpha=1.0, kernel=KP)
    with pytest.raises(ValueError, match="replica 0: 1 value matrices for 2 packages"):
        MultiOutputCascade([5, 4, 1], [good[:1]], alpha=1.0, kernel=KP)
    with pytest.raises(ValueError, match="ending in 1"):
        MultiOutputCascade([5, 4, 2], [good], alpha=1.0, kernel=KP)
    with pytest.raises(ValueError, match="at least one replica"):
        MultiOutputCascade([5, 4, 1], [], alpha=1.0, kernel=KP)
    for alpha in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="alpha"):
            MultiOutputCascade([5, 4, 1], [good], alpha=alpha, kernel=KP)
    for dtype, big in (("float64", 1e308), ("float32", 3e38)):
        # finite values whose coefficients overflow, rejected without a numpy warning
        with pytest.raises(ValueError, match="replica 1 package 0: values overflow the "
                                             "coefficients"):
            MultiOutputCascade([5, 4, 1], [good, [np.full((11, 4), big), good[1]]], alpha=1.0,
                               kernel=KP, dtype=dtype)


# each fails the one check of a model, check_model, and the message it fails with
BAD_HYPERPARAMETERS = {
    "sigma2=inf": ({"sigma2": np.inf}, "sigma2 must be finite and >= 0"),
    "sigma2=nan": ({"sigma2": np.nan}, "sigma2 must be finite and >= 0"),
    "kernel_b=1e308": ({"kernel": KernelParams(b=1e308)}, "coefficients that are not finite"),
    "kernel_b=-1e308": ({"kernel": KernelParams(b=-1e308)}, "coefficients that are not finite"),
    "kernel_c=1e308": ({"kernel": KernelParams(c=1e308)}, "basis inverse undefined"),
    "alpha=inf": ({"alpha": np.inf}, "alpha must be finite and >= 0"),
}


@pytest.mark.parametrize("name", list(BAD_HYPERPARAMETERS))
def test_bad_hyperparameters_rejected_by_every_entry_point(tmp_path, name):
    override, message = BAD_HYPERPARAMETERS[name]
    bad = {"alpha": 1.0, "kernel": KP, "sigma2": 0.0, **override}
    with pytest.raises(ValueError, match=message):
        init_multi([3, 4, 2], seed=0, **bad)
    values = [np.zeros((7, 4)), np.zeros((9, 1))]
    with pytest.raises(ValueError, match=message):
        MultiOutputCascade([3, 4, 1], [values, values], **bad)
    with pytest.raises(ValueError, match=message):
        TrainConfig(widths=[3, 4, 2], epochs=1, batch_rows=10, **bad)
    # a valid snapshot whose header is spliced to hold the hyperparameters
    path = tmp_path / "m.phc1"
    save_snapshot(path, init_multi([3, 4, 2], seed=0))
    data = bytearray(path.read_bytes())
    offset = 4 + 2 * 8 + 3 * 8  # magic, d, q, three widths
    data[offset:offset + 32] = struct.pack("<4d", bad["alpha"], bad["kernel"].b,
                                           bad["kernel"].c, bad["sigma2"])
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotFormatError, match=message):
        load_snapshot(path)


def test_architecture_shape():
    mc = init_multi([784, 100, 20, 20, 10], seed=0)
    cascade = mc.replicas[0]
    assert mc.d == 10
    assert len(cascade.packages) == 4
    assert mc.widths == [784, 100, 20, 20, 1]
    assert [(p.n_in, p.n_out) for p in cascade.packages] == [(784, 100), (100, 20), (20, 20),
                                                             (20, 1)]
    assert [p.k for p in cascade.packages] == [1569, 201, 41, 41]
    # the published 1.6M parameters: ten replicas of the single-output core
    per_replica = sum(p.values.size for p in cascade.packages)
    assert sum(p.values.size for c in mc.replicas for p in c.packages) == per_replica * 10 \
        == 1_617_810


def test_random_init_row_norms_and_distinctness():
    _, cascade = single([6, 5, 4, 1], seed=7, mode="random")
    for pkg in cascade.packages:
        norms = np.linalg.norm(pkg.values, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-6)
    values = [p.values for p in cascade.packages[:2]]
    assert values[0].shape != values[1].shape or not np.array_equal(*values)


def test_identity_fragment_init_sets_points(caplog):
    with caplog.at_level(logging.INFO, logger="polycascade.cascade"):
        _, cascade = single([4, 6, 6, 6, 1], seed=0, mode="identity-fragments")
    assert np.array_equal(cascade.packages[1].values, octahedral_points(6))
    assert np.array_equal(cascade.packages[2].values, octahedral_points(6))
    # unequal-width packages degrade to random and the event is logged
    assert not np.array_equal(cascade.packages[0].values[:4], octahedral_points(4)[:4])
    assert any("random init" in rec.message for rec in caplog.records)


def test_init_deterministic_in_seed():
    a = init_multi([5, 4, 3], seed=3).replicas
    b = init_multi([5, 4, 3], seed=3).replicas
    c = init_multi([5, 4, 1], seed=4).replicas
    for ra, rb in zip(a, b):
        for pa, pb in zip(ra.packages, rb.packages):
            assert np.array_equal(pa.values, pb.values)
    assert not np.array_equal(a[0].packages[0].values, c[0].packages[0].values)
    # replica j is seeded seed + j
    for pa, pc in zip(a[1].packages, c[0].packages):
        assert np.array_equal(pa.values, pc.values)


def test_forward_batch_composes_package_forwards():
    rng = np.random.default_rng(2)
    mc, cascade = single([5, 4, 3, 1], seed=2)
    x0 = rng.uniform(-1, 1, (6, 5))
    h1, (x1,) = layer1_basis(mc, x0)
    out, _, _ = sweep(cascade, h1, x1)
    # features x rows: one column per row of x0
    assert [h1.shape, x1.shape, out.shape] == [(11, 6), (4, 6), (1, 6)]
    assert np.array_equal(out, forward_through(cascade.packages, x0).T)


def test_forward_zero_values_single_package():
    mc, cascade = single([4, 1], seed=0)
    cascade.packages[0].set_values(np.zeros_like(cascade.packages[0].values))
    out = mc.scores(np.random.default_rng(0).uniform(-1, 1, (5, 4)))
    assert np.all(out == 0.0)


def test_forward_width_mismatch():
    mc, _ = single([4, 1], seed=0)
    with pytest.raises(ShapeMismatchError):
        mc.layer1(np.ones((2, 3)))
    with pytest.raises(ShapeMismatchError):
        mc.scores(np.ones((2, 3)))


def test_identity_fragment_passthrough_at_points():
    width = 5
    mc, cascade = single([width] * 11 + [1], seed=0, mode="identity-fragments")
    points = octahedral_points(width)
    assert np.abs(forward_through(cascade.packages[:10], points) - points).max() <= 1e-8


def test_backward_quantities_shapes_and_final_ones():
    mc, cascade = single([5, 4, 3, 1], seed=1)
    _, [(_, bases, grads)] = sweeps(mc, np.random.default_rng(1).uniform(-1, 1, (7, 5)))
    assert [b.shape for b in bases] == [(11, 7), (9, 7), (7, 7)]
    assert [g.shape for g in grads] == [(4, 7), (3, 7), (1, 7)]
    assert np.array_equal(grads[-1], np.ones((1, 7)))


def test_end_to_end_gradient_check():
    rng = np.random.default_rng(5)
    mc, cascade = single([5, 4, 3, 1], seed=5)
    h1, (x1,) = layer1_basis(mc, rng.uniform(-0.9, 0.9, (6, 5)))
    _, _, grads = sweep(cascade, h1, x1)

    def tail(x1v):
        out = x1v
        for pkg in cascade.packages[1:]:
            out, _ = pkg.forward(out)
        return out

    h = 1e-5
    for i in range(6):  # x1 and the derivatives are features x rows
        for j in range(4):
            xp, xm = x1.copy(), x1.copy()
            xp[j, i] += h
            xm[j, i] -= h
            fd = (tail(xp)[0, i] - tail(xm)[0, i]) / (2 * h)
            assert abs(fd - grads[0][j, i]) / max(abs(fd), 1e-12) <= 1e-4


def test_omegas_are_psd():
    rng = np.random.default_rng(11)
    mc, cascade = single([6, 5, 1], seed=11)
    _, [(_, bases, grads)] = sweeps(mc, rng.uniform(-1, 1, (15, 6)))
    # the oracle holds batches rows x features
    for omega in package_omegas([h.T for h in bases], [g.T for g in grads]):
        assert np.array_equal(omega, omega.T) or np.abs(omega - omega.T).max() < 1e-12
        assert np.linalg.eigvalsh(omega).min() >= -1e-8


def test_train_step_zero_residual_fixed_point():
    mc, cascade = single([4, 3, 1], seed=3, alpha=5.0)
    x0 = np.random.default_rng(3).uniform(-1, 1, (8, 4))
    out = mc.scores(x0)
    before = [p.values.copy() for p in cascade.packages]
    (report,) = train_multi(mc, x0, out.copy())
    for pkg, old in zip(cascade.packages, before):
        assert np.abs(pkg.values - old).max() <= 1e-12
    assert report.residual_before_inf == 0.0
    assert np.abs(mc.scores(x0) - out).max() <= 1e-10


def test_train_step_huge_alpha_freezes_updates():
    alpha = 1e12
    mc, _ = single([4, 3, 1], seed=4, alpha=alpha)
    x0 = np.random.default_rng(4).uniform(-1, 1, (10, 4))
    lstar = mc.scores(x0) + 1.0
    (report,) = train_multi(mc, x0, lstar)
    assert report.b_inf <= (1.0 / alpha) * (1 + 1e-6)
    assert np.abs(lstar - mc.scores(x0)).max() >= 0.99  # essentially unchanged


def test_single_package_exact_fit():
    rng = np.random.default_rng(17)
    mc, _ = single([30, 1], seed=17, alpha=0.0)
    x0 = rng.uniform(-1, 1, (50, 30))
    lstar = rng.uniform(-1, 1, (50, 1))
    train_multi(mc, x0, lstar)
    assert np.abs(mc.scores(x0) - lstar).max() <= 1e-6


def test_train_step_rederives_coefficients():
    mc, cascade = single([5, 4, 1], seed=6, alpha=2.0)
    train_multi(mc, np.random.default_rng(6).uniform(-1, 1, (9, 5)), np.ones((9, 1)))
    for pkg in cascade.packages:
        u = gram_inverse(octahedral_points(pkg.n_in), pkg.kernel)
        expected = u @ pkg.values
        err = np.abs(pkg.coeffs - expected).max() / max(np.abs(expected).max(), 1e-30)
        assert err <= 1e-8


def test_train_multi_rejects_wrong_target_rows_before_any_update():
    mc = init_multi([4, 3, 2], seed=0, alpha=1.0)
    x0 = np.random.default_rng(0).uniform(-1, 1, (6, 4))
    before = [[p.values.copy() for p in c.packages] for c in mc.replicas]
    for rows in (5, 7):
        with pytest.raises(ShapeMismatchError, match="targets shape"):
            train_multi(mc, x0, np.ones((rows, 2)))
    for c, old in zip(mc.replicas, before):
        for pkg, values in zip(c.packages, old):
            assert np.array_equal(pkg.values, values)
    assert len(train_multi(mc, x0, np.ones((6, 2)))) == 2


def test_alpha_zero_spd_failure_is_reported():
    # rank-deficient system: more batch rows than basis columns available
    mc, _ = single([1, 1], seed=0, alpha=0.0)
    with pytest.raises(NotSPDError):
        train_multi(mc, np.random.default_rng(0).uniform(-1, 1, (10, 1)), np.ones((10, 1)))


def test_multi_replicas_share_architecture():
    mc = init_multi([6, 5, 3], seed=0, alpha=1.0)
    assert mc.d == 3
    assert mc.widths == [6, 5, 1]
    assert len({c.packages[0].values.tobytes() for c in mc.replicas}) == 3


def test_replicas_identical_seeds_identical_updates():
    rng = np.random.default_rng(9)
    x0 = rng.uniform(-1, 1, (10, 4))
    target = rng.uniform(-1, 1, (10, 1))
    outcomes = []
    for _ in range(2):
        mc, cascade = single([4, 3, 1], seed=21, alpha=3.0)
        train_multi(mc, x0, target)
        outcomes.append([p.values.copy() for p in cascade.packages])
    for va, vb in zip(*outcomes):
        assert np.array_equal(va, vb)


def test_ten_replicas_all_residuals_decrease():
    rng = np.random.default_rng(10)
    mc = init_multi([8, 6, 10], seed=10, alpha=5.0)
    x0 = rng.uniform(-1, 1, (40, 8))
    targets = one_hot_pm1(rng.integers(0, 10, 40), 10)
    reports = train_multi(mc, x0, targets)
    assert len(reports) == 10
    after = np.sqrt(np.mean((targets - mc.scores(x0)) ** 2, axis=0))
    for rep, rms in zip(reports, after):
        assert rms < rep.residual_before_rms


def test_train_multi_validates_target_width():
    mc = init_multi([4, 3, 2], seed=0, alpha=1.0)
    with pytest.raises(ShapeMismatchError):
        train_multi(mc, np.zeros((3, 4)), np.ones((3, 3)))


def test_one_hot_encoding_consistency():
    labels = np.array([0, 2, 1])
    t = one_hot_pm1(labels, 3)
    assert t.shape == (3, 3)
    assert np.array_equal(np.argmax(t, axis=1), labels)
    assert set(np.unique(t)) == {-1.0, 1.0}
    with pytest.raises(ValueError):
        one_hot_pm1(np.array([3]), 3)


def test_zero_error_model_is_100_percent_accurate():
    # when replica outputs equal the +-1 one-hot targets, argmax matches labels
    labels = np.array([0, 1, 2, 1])
    scores = one_hot_pm1(labels, 3)
    assert np.array_equal(np.argmax(scores, axis=1), labels)


def test_training_determinism_across_runs():
    def run():
        mc, cascade = single([5, 4, 1], seed=13, alpha=2.0, dtype="float64")
        rng = np.random.default_rng(13)
        for _ in range(3):
            x0 = rng.uniform(-1, 1, (10, 5))
            train_multi(mc, x0, rng.uniform(-1, 1, (10, 1)))
        return [p.values.copy() for p in cascade.packages]

    for va, vb in zip(run(), run()):
        assert np.array_equal(va, vb)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_shared_layer1_training_matches_replicas_trained_alone(dtype):
    # the replicas share one layer-1 basis and product; running and training
    # replica i as a d = 1 model seeded seed + i must give the same bits
    rng = np.random.default_rng(40)
    arch, core, seed = [6, 5, 4, 3], [6, 5, 4, 1], 40
    features = rng.uniform(-1, 1, (36, 6))
    targets = one_hot_pm1(rng.integers(0, 3, 36), 3)
    mc = init_multi(arch, seed=seed, alpha=3.0, dtype=dtype)
    alone = [init_multi(core, seed=seed + i, alpha=3.0, dtype=dtype) for i in range(3)]
    for idx in np.split(rng.permutation(36), 3):
        x0 = features[idx].astype(dtype)
        # one layer-1 product gives every replica's layer-1 output as a contiguous row block
        _, x1 = mc.layer1(x0)
        assert all(x.flags.c_contiguous and x.base is x1[0].base for x in x1)
        outs = mc.scores(x0)
        reports = train_multi(mc, x0, targets[idx])
        scores = mc.scores(x0)
        for i, model in enumerate(alone):
            assert np.array_equal(model.scores(x0), outs[:, i:i + 1])
            assert train_multi(model, x0, targets[idx, i:i + 1]) == [reports[i]]
            assert np.array_equal(model.scores(x0), scores[:, i:i + 1])
    for shared, model in zip(mc.replicas, alone):
        for pa, pb in zip(shared.packages, model.replicas[0].packages):
            assert pa.values.dtype == np.dtype(dtype)
            assert np.array_equal(pa.values, pb.values)


def test_scores_equal_per_replica_forward_batch(monkeypatch):
    # scores drops the intermediates that each replica's training sweep keeps; the outputs
    # are the same bits.  Both cases end in a partial chunk after several full ones; the
    # second is the model's own chunk.
    rng = np.random.default_rng(41)
    mc = init_multi([5, 4, 3, 3], seed=41, alpha=2.0)
    for rows, chunk in ((23, 7), (2 * mc.chunk_rows + 300, mc.chunk_rows)):
        monkeypatch.setattr(MultiOutputCascade, "chunk_rows", chunk)
        x = rng.uniform(-1, 1, (rows, 5))
        got = mc.scores(x)
        expected = [np.vstack([out for out, _, _ in sweeps(mc, x[lo:lo + chunk])[1]])
                    for lo in range(0, rows, chunk)]
        assert got.shape == (rows, 3)
        assert np.array_equal(got, np.hstack(expected).T)


@pytest.fixture
def blas_threads():
    """numpy's BLAS thread count, set to 3 for the test and restored after; None where unsettable."""
    if linalg._BLAS_THREADS is None:
        yield None
        return
    get_threads, set_threads, _ = linalg._BLAS_THREADS
    saved = get_threads()
    set_threads(3)  # a count no parallel region sets, so a missed restore shows
    try:
        yield get_threads
    finally:
        set_threads(saved)


@pytest.fixture
def one_blas_thread(blas_threads):
    """numpy's BLAS on one thread for the test, so that a threaded and a one-thread run differ
    only in how their rows and panels are shared out; the count getter, or None."""
    if blas_threads is not None:
        linalg._BLAS_THREADS[1](1)
    return blas_threads


def patch_workers(monkeypatch, workers):
    """``cascade.worker_count`` reads ``workers``, and one inside a task, as ``linalg``'s does."""
    monkeypatch.setattr(cascade_module, "worker_count",
                        lambda: 1 if linalg._IN_TASK.get() else workers)


def narrow_model(d, dtype):
    # narrow products, which BLAS runs on one thread whatever its count, so any bits that
    # differ come from the split over workers
    return init_multi([5, 6, 4, d], seed=7, alpha=2.0, dtype=dtype)


@pytest.fixture
def scoring_tasks(monkeypatch):
    """The task count of every ``run_parallel`` region that ``cascade`` enters, in order."""
    counts = []

    def counting(tasks):
        counts.append(len(tasks))
        run_parallel(tasks)

    run_parallel = cascade_module.run_parallel
    monkeypatch.setattr(cascade_module, "run_parallel", counting)
    return counts


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_threaded_scores_equal_one_thread_scores_in_the_same_chunks(monkeypatch, blas_threads,
                                                                   scoring_tasks, workers, d,
                                                                   dtype):
    # tasks beyond the pool's threads (cores - 1) wait for one, so three workers fit any host;
    # a call runs one task per worker, but never more tasks than it has chunks
    mc = narrow_model(d, dtype)
    step = mc.chunk_rows
    x = np.random.default_rng(d).uniform(-1.2, 1.2, (3 * step + 5, 5))
    for rows in (0, 1, step - 1, step, step + 1, 2 * step + 3, 3 * step + 5):
        monkeypatch.setattr(cascade_module, "worker_count", lambda: workers)
        scoring_tasks.clear()
        got = mc.scores(x[:rows])
        assert scoring_tasks == [min(workers, -(-rows // step))], rows
        monkeypatch.setattr(cascade_module, "worker_count", lambda: 1)
        expected = mc.scores(x[:rows])
        assert got.shape == (rows, d) and got.dtype == np.dtype(dtype)
        assert np.array_equal(got, expected), rows
        if blas_threads is not None:
            assert blas_threads() == 3


def scoring_model(shape, dtype):
    widths = {"10,50x9,1": [10] + [50] * 9 + [1], "10x100,1": [10] * 100 + [1],
              "28,200x19,1": [28] + [200] * 19 + [1]}[shape]
    return init_multi(widths, seed=52, mode="identity-fragments", alpha=50.0, dtype=dtype)


@pytest.mark.parametrize("shape,dtype", [("10,50x9,1", "float64"), ("10,50x9,1", "float32"),
                                         ("10x100,1", "float32"), ("10x100,1", "float64"),
                                         ("28,200x19,1", "float32")])
def test_scores_do_not_depend_on_the_worker_count(monkeypatch, shape, dtype):
    # every call scores in the model's own chunks, whichever task takes each one: a call
    # shorter than one chunk, exactly one chunk, and several ending in a partial one
    mc = scoring_model(shape, dtype)
    step = mc.chunk_rows
    x = np.random.default_rng(52).uniform(-1, 1, (3 * step + step // 3, mc.widths[0]))
    whole = mc.scores(x)
    for rows in (step // 2, step, x.shape[0]):
        got = []
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(cascade_module, "worker_count", lambda: workers)
            got.append(mc.scores(x[:rows]))
        assert all(np.array_equal(g, got[0]) for g in got[1:]), rows
        # a call's rows score as in a longer call when they fill 16-row blocks, as these do
        assert np.array_equal(got[0], whole[:rows]), rows


def test_narrow_packages_score_in_one_part_and_wide_ones_split(monkeypatch, blas_threads,
                                                               scoring_tasks):
    # 768 kB of an r x k array at the packages' mean k, in multiples of 16 rows within 512
    # to 2048: the wide one-package model (k = 801), the higgs-eval and mnist-shape shapes
    # stay at 512 rows, the shells-deep replica (mean k 93) takes 1024, and 20 float32
    # packages of k = 21 take 2048, so a 2000-row call of them runs in one task
    monkeypatch.setattr(cascade_module, "worker_count", lambda: 2)
    narrow = init_multi([10] * 20 + [1], seed=51, mode="identity-fragments", alpha=50.0,
                        dtype="float32")
    models = [init_multi([400, 1], seed=51), scoring_model("28,200x19,1", "float32"),
              init_multi([784, 100, 20, 20, 1], seed=51), shells_deep_model(), narrow]
    assert [m.chunk_rows for m in models] == [512, 512, 512, 1024, 2048]
    assert init_multi([784, 100, 20, 20, 10], seed=51).chunk_rows == 512  # not set by d
    x = np.random.default_rng(51).uniform(-1, 1, (2000, 784))
    for model in models:
        model.scores(x[:, :model.widths[0]])
    assert scoring_tasks == [2, 2, 2, 2, 1]
    got = narrow.scores(x[:, :10])
    if blas_threads is not None:
        assert blas_threads() == 3  # one task runs with BLAS as it is
    monkeypatch.setattr(linalg, "_BLAS_THREADS", None)
    assert np.array_equal(got, narrow.scores(x[:, :10]))


def test_errstate_holds_in_scoring_workers(monkeypatch, blas_threads, scoring_tasks):
    # an overflow in every chunk: a thread that scored one without the caller's errstate
    # would warn, which is an error here, instead of calling back
    monkeypatch.setattr(cascade_module, "worker_count", lambda: 2)
    mc = init_multi([3, 4, 1], seed=0, alpha=1.0)
    step = mc.chunk_rows
    x = np.random.default_rng(0).uniform(-1, 1, (64 * step, 3))
    x[::step, 0] = 1e308  # finite, so it passes the input check
    threads = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="call", invalid="ignore",
                         call=lambda *_: threads.add(threading.get_ident())):
            mc.scores(x)
    assert scoring_tasks == [2]
    assert len(threads) == 2
    if blas_threads is not None:
        assert blas_threads() == 3
    x[::step, 0] = 0.5
    assert np.isfinite(mc.scores(x)).all()


def test_a_row_on_a_constellation_point_scores_and_trains_without_warnings():
    # m = 0 reaches the kernel's logarithm, in layer 1 and, through the identity fragments,
    # in package 2; no scan guards it, and no log warning may escape
    mc = init_multi([3, 3, 3, 1], seed=53, mode="identity-fragments", alpha=5.0)
    rng = np.random.default_rng(53)
    x = np.vstack([octahedral_points(3), rng.uniform(-1, 1, (9, 3))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(mc.scores(x)).all()
        reports = train_multi(mc, x, rng.choice([-1.0, 1.0], (16, 1)))
    assert np.isfinite(reports[0].solve_residual_inf)
    assert all(np.isfinite(p.values).all() for p in mc.replicas[0].packages)


def test_concurrent_scores_calls_are_correct(monkeypatch, blas_threads, scoring_tasks):
    # more calling threads than cores, switching often: each region holds the module lock
    mc = narrow_model(3, "float64")
    rows = 2 * mc.chunk_rows + 100
    inputs = [np.random.default_rng(i).uniform(-1, 1, (rows, 5)) for i in range(4)]
    expected = [mc.scores(x) for x in inputs]
    failures = []

    def score(x, want):
        for _ in range(10):
            if not np.array_equal(mc.scores(x), want):
                failures.append(threading.get_ident())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=score, args=pair) for pair in zip(inputs, expected)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert set(scoring_tasks) == {min(cascade_module.worker_count(), 3)}
    if blas_threads is not None:
        assert blas_threads() == 3


def test_scoring_region_waits_while_another_region_runs(monkeypatch, scoring_tasks):
    # the BLAS thread count is process-global: a second region would save the first's count of 1
    monkeypatch.setattr(cascade_module, "worker_count", lambda: 2)
    mc = narrow_model(1, "float64")
    x = np.random.default_rng(0).uniform(-1, 1, (2 * mc.chunk_rows + 100, 5))
    got = []
    with linalg._PARALLEL_LOCK:
        caller = threading.Thread(target=lambda: got.append(mc.scores(x)))
        caller.start()
        caller.join(timeout=0.5)
        blocked = caller.is_alive() or linalg._BLAS_THREADS is None
    caller.join(timeout=60)
    assert blocked and not caller.is_alive()
    assert np.array_equal(got[0], mc.scores(x))
    assert scoring_tasks == [2, 2]


def test_scores_without_blas_thread_routines_run_in_the_calling_thread(monkeypatch,
                                                                         scoring_tasks):
    workers = linalg.worker_count()
    mc = narrow_model(3, "float64")
    x = np.random.default_rng(5).uniform(-1, 1, (2 * mc.chunk_rows + 300, 5))
    threaded = mc.scores(x)
    monkeypatch.setattr(linalg, "_BLAS_THREADS", None)
    assert linalg.worker_count() == 1
    assert np.array_equal(mc.scores(x), threaded)
    assert scoring_tasks == [min(workers, 3), 1]
    idents = []
    linalg.run_parallel([lambda: idents.append(threading.get_ident())] * 3)
    assert idents == [threading.get_ident()] * 3


def test_scoring_memory_peak_is_bounded():
    # 5000 rows of the shells-deep shape held 19.8 MB at a 4096-row chunk; the
    # default chunk keeps each package's distances and kernel values near 0.8 MB
    mc = init_multi([10] + [50] * 9 + [1], seed=0, mode="identity-fragments", alpha=50.0)
    x = np.random.default_rng(0).uniform(-1, 1, (5000, 10))
    tracemalloc.start()
    try:
        mc.scores(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20


@pytest.mark.parametrize("rows,dtype", [(5, "float64"), (6, "float32")], ids=["rows", "dtype"])
def test_train_multi_rejects_buffers_that_cannot_hold_the_batch(rows, dtype):
    mc, cascade = single([4, 3, 1], seed=3, alpha=1.0)
    x0 = np.random.default_rng(3).uniform(-1, 1, (6, 4))
    before = [p.values.copy() for p in cascade.packages]
    with pytest.raises(ValueError, match="training buffers"):
        train_multi(mc, x0, np.ones((6, 1)), TrainingBuffers(rows, dtype))
    for pkg, old in zip(cascade.packages, before):
        assert np.array_equal(pkg.values, old)


def test_not_spd_error_names_replica():
    mc = init_multi([1, 3], seed=0, alpha=0.0)  # one package, rank-deficient system
    x0 = np.random.default_rng(0).uniform(-1, 1, (10, 1))
    with pytest.raises(NotSPDError, match="replica 0"):
        train_multi(mc, x0, np.ones((10, 3)))


def test_shared_layer1_state_keeps_no_distances():
    # nothing keeps distances: the shared layer-1 intermediate is the batch's kernel values
    # alone, a forward pass returns its output and kernel values, and backward computes a
    # package's distances again from its input
    mc = init_multi([5, 4, 3], seed=2, alpha=1.0)
    x0 = np.random.default_rng(2).uniform(-1, 1, (6, 5))
    k1, x1 = mc.layer1(x0)
    assert type(k1) is np.ndarray and k1.shape == (11, 6)
    assert np.array_equal(k1, mc.replicas[0].packages[0].kernel_values(x0.T.copy()))
    pkg = mc.replicas[0].packages[1]
    out, kv = pkg.forward(x1[0])
    assert (out.shape, kv.shape) == ((1, 6), (9, 6))
    assert pkg.backward(np.ones((1, 6)), x1[0]).shape == (4, 6)


def nan_coefficient_after_forward(monkeypatch, cascade, package):
    """Put a NaN in ``cascade``'s package coefficients right after its forward pass.

    The NaN is set as the package's ``backward`` starts, after the forward
    pass of the sweep's one chunk, so the output residual stays finite and
    the NaN reaches the training system only through ``backward``: only the
    system check can see it.
    """
    pkg = cascade.packages[package]
    backward = pkg.backward

    def nan_then_backward(*args, **kwargs):
        pkg.coeffs[0, 0] = np.nan
        return backward(*args, **kwargs)
    monkeypatch.setattr(pkg, "backward", nan_then_backward)


def test_nan_coefficient_raises_non_finite_before_any_update(monkeypatch):
    # intermediate products are not scanned; the NaN must reach the system check
    mc, cascade = single([4, 3, 2, 1], seed=12, alpha=1.0)
    x0 = np.random.default_rng(12).uniform(-1, 1, (8, 4))
    nan_coefficient_after_forward(monkeypatch, cascade, 1)
    before = [p.values.copy() for p in cascade.packages]
    with pytest.raises(NonFiniteError, match="training system"):
        train_multi(mc, x0, np.ones((8, 1)))
    for pkg, old in zip(cascade.packages, before):
        assert np.array_equal(pkg.values, old)


def test_non_finite_inputs_rejected_where_they_enter():
    mc, cascade = single([4, 3, 1], seed=0, alpha=1.0)
    x0 = np.random.default_rng(0).uniform(-1, 1, (5, 4))
    with pytest.raises(NonFiniteError, match="batch input"):
        mc.layer1(np.where(np.eye(5, 4) > 0, np.nan, x0))
    with pytest.raises(NonFiniteError, match="targets"):
        train_multi(mc, x0, np.full((5, 1), np.inf))
    pkg = cascade.packages[0]
    with pytest.raises(NonFiniteError, match="values"):
        pkg.set_values(np.full_like(pkg.values, np.nan))


@pytest.mark.parametrize("dtype,bound", [("float64", 1e-12), ("float32", 1e-5)])
def test_assembled_system_equals_oracle_sum(dtype, bound):
    # d = 3 replicas share one layer-1 basis, with its Gram built in panels per replica
    # (as a one-replica model does) and then read from the H1^T H1 that train_multi builds
    # once for d > 1; package 2 has one output, so its derivative is a column that is not
    # all ones.  The batch sizes cover one partial panel, exactly one full panel, and
    # several ending in a partial one.
    for r, cached in itertools.product((17, PANEL_ROWS, 2 * PANEL_ROWS + 44), (False, True)):
        mc = init_multi([5, 4, 1, 3, 3], seed=42, alpha=2.5, dtype=dtype)
        h1, replica_sweeps = sweeps(mc, np.random.default_rng(42).uniform(-1, 1, (r, 5)))
        gram = h1.T @ h1 if cached else None
        for _, bases, grads in replica_sweeps:
            # the oracle holds batches rows x features
            expected = (sum(package_omegas([h.T for h in bases], [g.T for g in grads]))
                        + 2.5 * np.eye(r, dtype=dtype))
            system = assemble_system(bases, grads, mc.alpha, gram=gram)
            assert system.dtype == np.dtype(dtype)
            assert np.array_equal(system, system.T)
            assert np.abs(system - expected).max() <= bound * np.abs(expected).max()


@pytest.mark.parametrize("failure", [NotSPDError, NonFiniteError])
def test_failing_replica_leaves_earlier_replicas_updated_and_itself_untouched(monkeypatch,
                                                                             failure):
    rng = np.random.default_rng(43)
    x0 = rng.uniform(-1, 1, (12, 5))
    targets = one_hot_pm1(rng.integers(0, 4, 12), 4)
    mc = init_multi([5, 4, 3, 4], seed=43, alpha=2.0)
    alone = [init_multi([5, 4, 3, 1], seed=43 + i, alpha=2.0) for i in range(2)]
    for i, model in enumerate(alone):
        train_multi(model, x0, targets[:, i:i + 1])
    before = [[p.values.copy() for p in c.packages] for c in mc.replicas]
    if failure is NotSPDError:
        # replicas train side by side, so the failing solve is picked by its replica: a
        # negative alpha makes a system that the solve finds not positive definite
        step = cascade_module.train_step
        monkeypatch.setattr(cascade_module, "train_step",
                            lambda c, swept, gram, lstar, update, alpha, buffers: step(
                                c, swept, gram, lstar, update,
                                -1e6 if c is mc.replicas[2] else alpha, buffers))
    else:
        nan_coefficient_after_forward(monkeypatch, mc.replicas[2], 1)
    with pytest.raises(failure, match="^replica 2: " if failure is NotSPDError
                       else "^replica 2: training system"):
        train_multi(mc, x0, targets)
    for shared, model in zip(mc.replicas[:2], alone):
        for pa, pb in zip(shared.packages, model.replicas[0].packages):
            assert np.array_equal(pa.values, pb.values)
    for c, old in zip(mc.replicas[2:], before[2:]):
        for pkg, values in zip(c.packages, old):
            assert np.array_equal(pkg.values, values)


def test_train_step_holds_one_square_array_and_consumed_intermediates(monkeypatch):
    # the shells-deep shape: the system is factored in place, a one-replica model keeps
    # no layer-1 Gram, and each package's basis and derivative factors are written over
    # its kernel values and distances (the set held three r x r arrays and the step
    # peaked at 4.2x the intermediates' size when each was a new array)
    rng = np.random.default_rng(45)
    r = 1000
    x0 = rng.uniform(-1, 1, (r, 10))
    targets = rng.choice([-1.0, 1.0], (r, 1))
    mc = init_multi([10] + [50] * 9 + [1], seed=45, mode="identity-fragments", alpha=50.0)
    buffers = TrainingBuffers(r, mc.dtype)
    train_multi(mc, x0, targets, buffers)  # the set's arrays are not counted
    assert [a.size for a in buffers.systems] == [r * r] and buffers.gram is None
    tracemalloc.start()
    try:
        train_multi(mc, x0, targets, buffers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    intermediates = sum(r * p.k for p in mc.replicas[0].packages) * mc.dtype.itemsize
    assert peak <= 2.7 * intermediates
    # d > 1 replicas share one layer-1 Gram, and each replica task has a system of its own
    for workers in (1, 2, 3):
        patch_workers(monkeypatch, workers)
        mc = init_multi([6, 5, 4, 3], seed=45, alpha=2.0)
        buffers = TrainingBuffers(200, mc.dtype)
        train_multi(mc, x0[:200, :6], rng.uniform(-1, 1, (200, 3)), buffers)
        assert [a.size for a in buffers.systems] == [200 * 200] * min(workers, 3)
        assert buffers.gram.size == 200 * 200


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_train_multi_holds_one_replica_intermediates_per_task(monkeypatch, workers):
    # each task runs a replica's forward pass right before its step and drops it after, so
    # eight replicas of a deep narrow cascade train in about the memory of one per task
    # (the peak rose 5x from d = 1 to d = 8 when every workspace was built first)
    rng = np.random.default_rng(44)
    x0 = rng.uniform(-1, 1, (200, 6))
    targets = rng.uniform(-1, 1, (200, 8))
    patch_workers(monkeypatch, workers)
    peaks = {}
    for d in (1, 8):
        mc = init_multi([6] + [8] * 20 + [d], seed=44, mode="identity-fragments", alpha=5.0)
        buffers = TrainingBuffers(200, mc.dtype)
        train_multi(mc, x0, targets[:, :d], buffers)  # the set's arrays are not counted
        tracemalloc.start()
        try:
            train_multi(mc, x0, targets[:, :d], buffers)
            peaks[d] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8] <= 1.5 * min(workers, 8) * peaks[1]


def shells_deep_model(depth=9):
    # the shells-deep benchmark's replica: packages of k = 101, whose sweep splits over
    # workers at a few hundred rows
    return init_multi([10] + [50] * depth + [1], seed=46, mode="identity-fragments",
                      alpha=50.0)


def train_twice(mc, x0, targets):
    """Two train_multi calls on one buffer set: their reports as an array, the values and the
    model's outputs on the batch afterwards."""
    buffers = TrainingBuffers(x0.shape[0], mc.dtype)
    reports = [vars(rep) for _ in range(2) for rep in train_multi(mc, x0, targets, buffers)]
    values = [p.values for c in mc.replicas for p in c.packages]
    return np.array([list(rep.values()) for rep in reports]), values, mc.scores(x0)


def assert_same_training(got, expected):
    (reports, values, outputs), (reports_1, values_1, outputs_1) = got, expected
    assert np.array_equal(reports, reports_1)
    assert all(np.array_equal(a, b) for a, b in zip(values, values_1))
    assert np.array_equal(outputs, outputs_1)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("shape", ["shells-deep-float64", "10x100,1-float32", "784,100,20,20,1"])
def test_threaded_training_equals_one_thread_training(monkeypatch, one_blas_thread, shape,
                                                      workers):
    # the sweep splits into two row chunks on the shells-deep shape and runs in one chunk on
    # the narrow shape and on the wide one, whose products' bits change with their row count,
    # so a split that followed the worker count would show; the assembly's panels are spread
    # over the workers on all three
    make = {"shells-deep-float64": shells_deep_model,
            "10x100,1-float32": lambda: init_multi([10] * 100 + [1], seed=46, alpha=50.0,
                                                   mode="identity-fragments", dtype="float32"),
            "784,100,20,20,1": lambda: init_multi([784, 100, 20, 20, 1], seed=46,
                                                  alpha=200.0)}[shape]
    rng = np.random.default_rng(46)
    x0 = rng.uniform(-1, 1, (1000, make().widths[0]))
    targets = rng.choice([-1.0, 1.0], (1000, 1))
    monkeypatch.setattr(cascade_module, "worker_count", lambda: workers)
    threaded = train_twice(make(), x0, targets)
    monkeypatch.undo()
    monkeypatch.setattr(linalg, "_BLAS_THREADS", None)
    assert cascade_module.worker_count() == 1
    assert_same_training(threaded, train_twice(make(), x0, targets))


@pytest.mark.parametrize("workers", [2, 3])
def test_threaded_training_on_uneven_and_short_batches(monkeypatch, one_blas_thread, workers):
    # one row; fewer rows than one sweep chunk holds (an r x 101 float64 array below
    # SWEEP_CHUNK_BYTES); one whole panel; three panels, the last partial; and row chunks of
    # unequal size, two of them and three, which two workers share out
    rng = np.random.default_rng(47)
    chunk_rows = {1: [1], 100: [100], PANEL_ROWS: [PANEL_ROWS],
                  2 * PANEL_ROWS + 45: [2 * PANEL_ROWS + 45], 1001: [496, 505],
                  1500: [496, 496, 508]}
    packages = shells_deep_model(depth=3).replicas[0].packages[1:]
    for rows, sizes in chunk_rows.items():
        x0 = rng.uniform(-1, 1, (rows, 10))
        targets = rng.choice([-1.0, 1.0], (rows, 1))
        monkeypatch.setattr(cascade_module, "worker_count", lambda: workers)
        assert [c.stop - c.start for c in cascade_module._row_chunks(rows, packages)] == sizes
        threaded = train_twice(shells_deep_model(depth=3), x0, targets)
        monkeypatch.setattr(cascade_module, "worker_count", lambda: 1)
        assert_same_training(threaded, train_twice(shells_deep_model(depth=3), x0, targets))
        if one_blas_thread is not None:
            assert one_blas_thread() == 1


def test_panel_sets_are_counted_when_the_buffers_are_allocated(monkeypatch, one_blas_thread):
    # an affinity change between batches must not index past the sets a buffer set holds;
    # the packages are narrow, so the sweep runs in one chunk and only the panels are shared
    def model():
        return init_multi([10] * 4 + [1], seed=48, mode="identity-fragments", alpha=50.0)

    rng = np.random.default_rng(48)
    x0 = rng.uniform(-1, 1, (3 * PANEL_ROWS, 10))
    targets = rng.choice([-1.0, 1.0], (3 * PANEL_ROWS, 1))
    monkeypatch.setattr(cascade_module, "worker_count", lambda: 1)
    expected = train_twice(model(), x0, targets)
    for first, then in ((1, 3), (3, 1)):
        mc = model()
        buffers = TrainingBuffers(3 * PANEL_ROWS, mc.dtype)
        monkeypatch.setattr(cascade_module, "worker_count", lambda: first)
        train_multi(mc, x0, targets, buffers)
        assert len(buffers.panel_sets) == first
        monkeypatch.setattr(cascade_module, "worker_count", lambda: then)
        train_multi(mc, x0, targets, buffers)
        assert len(buffers.panel_sets) == first
        assert all(np.array_equal(p.values, v)
                   for p, v in zip(mc.replicas[0].packages, expected[1]))
    # never more sets than a batch of the set's rows has panels
    monkeypatch.setattr(cascade_module, "worker_count", lambda: 8)
    buffers = TrainingBuffers.fitting(None, x0[:PANEL_ROWS + 1].T)  # features x rows
    assert len(buffers.panel_sets) == 2


def test_assembly_panels_are_each_built_once_under_contention(monkeypatch):
    # more tasks than cores take panels from one shared deque, switching often: a panel
    # that no task built would leave rows of the uninitialised system in the result
    mc, cascade = single([10, 50, 50, 1], seed=49, mode="identity-fragments", alpha=50.0)
    h1, [(_, bases, grads)] = sweeps(mc, np.random.default_rng(49).uniform(-1, 1, (1000, 10)))
    monkeypatch.setattr(cascade_module, "worker_count", lambda: 1)
    expected = assemble_system(bases, grads, mc.alpha).copy()
    monkeypatch.setattr(cascade_module, "worker_count", lambda: 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            buffers = TrainingBuffers.fitting(None, h1)
            buffers.systems[0].fill(np.nan)
            system = assemble_system(bases, grads, mc.alpha, buffers)
            assert len(buffers.panel_sets) == 5 and np.array_equal(system, expected)
    finally:
        sys.setswitchinterval(interval)


def test_assembly_takes_panels_largest_first(monkeypatch):
    # from one end of one deque: the last rows' panels, the widest, first
    mc, cascade = single([6, 5, 1], seed=52, alpha=2.0)
    r = 3 * PANEL_ROWS + 5
    _, [(_, bases, grads)] = sweeps(mc, np.random.default_rng(52).uniform(-1, 1, (r, 6)))
    drain, taken = cascade_module._drain, []

    def watched_drain(items):
        for item in drain(items):
            taken.append(item)
            yield item
    monkeypatch.setattr(cascade_module, "_drain", watched_drain)
    monkeypatch.setattr(cascade_module, "worker_count", lambda: 1)
    assemble_system(bases, grads, mc.alpha)
    assert taken == [3 * PANEL_ROWS, 2 * PANEL_ROWS, PANEL_ROWS, 0]


@pytest.mark.parametrize("failure", [NotSPDError, NonFiniteError])
def test_blas_thread_count_is_restored_after_a_failing_step(monkeypatch, blas_threads,
                                                            failure):
    # NotSPDError comes from the solve: after the sweep regions at d = 1, and inside the
    # replicas' region at d = 3.  NonFiniteError is raised by a package's forward pass: at
    # d = 1 inside every sweep chunk, at d = 3 in the task that trains the last replica
    patch_workers(monkeypatch, 2)
    solve = cascade_module.spd_solve
    rng = np.random.default_rng(50)
    # 1000 rows of k = 101 float64 packages split into two sweep chunks, so the d = 1
    # sweeps run in regions of two tasks
    x0 = rng.uniform(-1, 1, (1000, 10))
    for d in (1, 3):
        def model():
            return init_multi([10] + [50] * 3 + [d], seed=46, mode="identity-fragments",
                              alpha=50.0)

        mc = model()
        targets = rng.choice([-1.0, 1.0], (1000, d))
        assert len(cascade_module._row_chunks(1000, mc.replicas[0].packages[1:])) == 2
        monkeypatch.setattr(cascade_module, "spd_solve", solve)
        train_multi(model(), x0, targets)
        if blas_threads is not None:
            assert blas_threads() == 3
        if failure is NotSPDError:
            monkeypatch.setattr(cascade_module, "spd_solve",
                                lambda s, rhs, **kw: solve(-s, rhs, **kw))
            match = "^replica 0: "
        else:
            def failing_forward(*args, **kwargs):
                raise NonFiniteError("raised in a sweep chunk")
            monkeypatch.setattr(mc.replicas[-1].packages[2], "forward", failing_forward)
            match = f"^replica {d - 1}: raised" if d > 1 else "^raised in a sweep chunk"
        with pytest.raises(failure, match=match):
            train_multi(mc, x0, targets)
        if blas_threads is not None:
            assert blas_threads() == 3


# a test whose tasks wait for each other needs two threads; without BLAS thread routines a
# region runs its tasks one after the other in the calling thread
needs_threads = pytest.mark.skipif(linalg._BLAS_THREADS is None,
                                   reason="regions run in the calling thread")


@needs_threads
@pytest.mark.parametrize("order", [(1, 2), (2, 1)], ids=["1-fails-while-2-trains",
                                                         "2-fails-then-1-fails"])
def test_replicas_failing_side_by_side_apply_those_below_the_lowest_and_name_it(monkeypatch,
                                                                               order):
    # replicas 1 and 2 train side by side on two workers, each waiting until the other has
    # started; order[0] ends its step first, failing, and order[1] ends after it, failing
    # too when replica 2 failed first.  Replica 0 is fully updated, layer 1 included, the
    # others are untouched, and replica 3, still in the deque, is never trained
    rng = np.random.default_rng(51)
    x0 = rng.uniform(-1, 1, (60, 5))
    targets = one_hot_pm1(rng.integers(0, 4, 60), 4)
    patch_workers(monkeypatch, 2)
    expected = init_multi([5, 4, 3, 4], seed=51, alpha=2.0)
    train_multi(expected, x0, targets)
    mc = init_multi([5, 4, 3, 4], seed=51, alpha=2.0)
    before = [[p.values.copy() for p in c.packages] for c in mc.replicas]
    started, ended, others = {1: threading.Event(), 2: threading.Event()}, threading.Event(), []
    train_step = cascade_module.train_step

    def side_by_side_step(c, swept, gram, lstar, update, alpha, buffers):
        j = next(i for i, replica in enumerate(mc.replicas) if replica is c)
        if j not in started:
            others.append(j)
            return train_step(c, swept, gram, lstar, update, alpha, buffers)
        started[j].set()
        assert started[3 - j].wait(30)
        if j == order[1]:
            assert ended.wait(30)
        fails = j == order[0] or j == 1
        try:
            # a negative alpha makes a system that the solve finds not positive definite
            return train_step(c, swept, gram, lstar, update, -1e6 if fails else alpha,
                              buffers)
        finally:
            ended.set()

    monkeypatch.setattr(cascade_module, "train_step", side_by_side_step)
    with pytest.raises(NotSPDError, match="^replica 1: matrix is not positive definite"):
        train_multi(mc, x0, targets)
    assert others == [0]
    for pa, pb in zip(mc.replicas[0].packages, expected.replicas[0].packages):
        assert np.array_equal(pa.values, pb.values)
    for c, old in zip(mc.replicas[1:], before[1:]):
        for pkg, values in zip(c.packages, old):
            assert np.array_equal(pkg.values, values)


def test_replicas_are_each_trained_once_under_contention(monkeypatch):
    # more tasks than cores take replicas from one shared deque, switching often: a replica
    # that no task trained would keep its values, and one trained twice would get others
    rng = np.random.default_rng(53)
    x0 = rng.uniform(-1, 1, (150, 6))
    targets = rng.uniform(-1, 1, (150, 8))

    def trained(workers):
        patch_workers(monkeypatch, workers)
        mc = init_multi([6, 7, 5, 8], seed=53, alpha=2.0)
        reports = train_multi(mc, x0, targets)
        return reports, [p.values for c in mc.replicas for p in c.packages]

    expected_reports, expected = trained(2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            reports, values = trained(5)
            assert [vars(rep) for rep in reports] == [vars(rep) for rep in expected_reports]
            assert all(np.array_equal(a, b) for a, b in zip(values, expected))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("shape", ["10,50x9,4", "784,100,20,20,10", "shells-deep",
                                   "10x100,1-float32"])
def test_trained_values_do_not_depend_on_the_worker_count(monkeypatch, shape):
    # each of d > 1 replicas trains whole in one task at one BLAS thread, so two, three and
    # four tasks give the same bits (with one worker, its factor runs on BLAS's own threads);
    # a one-replica batch shares its sweep chunks and panels out over one to four workers
    widths, dtype, init = {
        "10,50x9,4": ([10] + [50] * 9 + [4], "float64", "identity-fragments"),
        "784,100,20,20,10": ([784, 100, 20, 20, 10], "float64", "random"),
        "shells-deep": ([10] + [50] * 9 + [1], "float64", "identity-fragments"),
        "10x100,1-float32": ([10] * 100 + [1], "float32", "identity-fragments")}[shape]
    d = widths[-1]
    rng = np.random.default_rng(52)
    rows = 1200 if d > 1 else 2000
    features = rng.uniform(-1, 1, (rows + 200, widths[0]))
    labels = rng.integers(0, max(d, 2), rows + 200)
    train, test = (Dataset(features[:rows], labels[:rows]),
                   Dataset(features[rows:], labels[rows:]))
    # 600 rows have five panels, so d > 1 batches run as many tasks as there are workers
    cfg = TrainConfig(widths=widths, alpha=200.0 if init == "random" else 50.0, epochs=1,
                      batch_rows=600 if d > 1 else 1000, seed=52, precision=dtype,
                      init_mode=init, task="classify" if d > 1 else "binary-auc")
    trained = []
    for workers in (2, 3, 4) if d > 1 else (1, 2, 3, 4):
        patch_workers(monkeypatch, workers)
        model, _ = run_training(cfg, train, test)
        trained.append([p.values for c in model.replicas for p in c.packages])
    for values in trained[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(trained[0], values))


def test_the_chain_works_on_contiguous_arrays_only(monkeypatch):
    # every batch array is features x rows and each sweep chunk works in its own working set,
    # so the kernel, its derivative factor and the closed-form Gram inverse never receive a
    # strided view (a transposed array, or a chunk's columns of a whole-batch array): not in
    # a one-replica batch's two sweep chunks on two workers, not in replicas trained side by
    # side, and not in scoring
    contiguous = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            contiguous.extend(a.flags.c_contiguous for a in [*args, *kwargs.values()]
                              if isinstance(a, np.ndarray))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("phi_matrix", "theta_matrix"):
        monkeypatch.setattr(package_module, name, recording(getattr(package_module, name)))
    monkeypatch.setattr(Package, "coeffs_from_values", recording(Package.coeffs_from_values))
    patch_workers(monkeypatch, 2)
    rng = np.random.default_rng(54)
    x0 = rng.uniform(-1, 1, (1000, 10))
    one = shells_deep_model(depth=3)
    assert len(cascade_module._row_chunks(1000, one.replicas[0].packages[1:])) == 2
    train_multi(one, x0, rng.choice([-1.0, 1.0], (1000, 1)))
    several = init_multi([10, 50, 50, 3], seed=54, mode="identity-fragments", alpha=50.0)
    train_multi(several, x0[:300], one_hot_pm1(rng.integers(0, 3, 300), 3))
    several.scores(x0)
    assert len(contiguous) > 100 and all(contiguous)


def test_a_one_replica_batch_trains_in_two_regions(monkeypatch, scoring_tasks):
    # the sweep, whose tasks each run a chunk's forward pass, bases and backward sweep, then
    # the assembly; the lone replica runs in the calling thread, outside any region, so its
    # factor and solve keep BLAS's own threads
    patch_workers(monkeypatch, 2)
    mc = shells_deep_model(depth=3)
    assert len(cascade_module._row_chunks(1000, mc.replicas[0].packages[1:])) == 2
    rng = np.random.default_rng(55)
    train_multi(mc, rng.uniform(-1, 1, (1000, 10)), rng.choice([-1.0, 1.0], (1000, 1)))
    assert scoring_tasks == [2, 2]


def test_forked_child_trains_with_a_pool_of_its_own():
    # the parent's pool threads do not exist in a fork; a sweep chunk or panel queued for
    # them would never run
    code = textwrap.dedent("""
        import os, signal, numpy as np, polycascade
        from polycascade import cascade
        cascade.worker_count = lambda: 2
        rng = np.random.default_rng(0)
        x, t = rng.uniform(-1, 1, (1000, 10)), rng.choice([-1.0, 1.0], (1000, 1))
        def model():
            return polycascade.init_multi([10, 50, 50, 1], seed=0, mode="identity-fragments",
                                          alpha=50.0)
        trained, fresh = model(), model()
        polycascade.train_multi(trained, x, t)
        assert len(cascade._row_chunks(1000, trained.replicas[0].packages[1:])) == 2
        pid = os.fork()
        if pid == 0:
            signal.alarm(30)
            polycascade.train_multi(fresh, x, t)
            same = all(np.array_equal(a.values, b.values) for a, b in
                       zip(trained.replicas[0].packages, fresh.replicas[0].packages))
            os._exit(0 if same else 3)
        print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    """)
    src = Path(cascade_module.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"
