import itertools
import logging
import os
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
from polycascade.cascade import (PANEL_ROWS, MultiOutputCascade, TrainingBuffers,
                                 assemble_system, backward_quantities, init_multi, one_hot_pm1,
                                 train_multi)
from polycascade.constellation import octahedral_points, synthesize_u
from polycascade.kernel import KernelParams
from polycascade.linalg import NonFiniteError, NotSPDError, ShapeMismatchError
from polycascade.oracle import package_omegas

KP = KernelParams()


def single(widths, seed, **kwargs):
    """A d = 1 model and its one replica."""
    mc = init_multi(widths, seed=seed, **kwargs)
    return mc, mc.replicas[0]


def test_width_chain_validation():
    with pytest.raises(ValueError):
        init_multi([5], seed=0)
    with pytest.raises(ValueError):
        init_multi([5, 0, 1], seed=0)
    with pytest.raises(ValueError):
        init_multi([5, 4, 0], seed=0)  # no outputs
    with pytest.raises(ValueError, match="init mode"):
        init_multi([5, 4, 1], seed=0, mode="bogus")


def test_constructor_validation():
    # core [5, 4, 1]: package 0 holds 11 x 4 values, package 1 holds 9 x 1
    good = [np.zeros((11, 4)), np.zeros((9, 1))]
    model = MultiOutputCascade([5, 4, 1], [good, good], alpha=1.0, kernel=KP)
    assert (model.d, model.widths, model.alpha, model.kernel) == (2, [5, 4, 1], 1.0, KP)
    # one constellation per depth serves every replica, so layer 1 can be shared
    for pa, pb in zip(*(c.packages for c in model.replicas)):
        assert pa.constellation is pb.constellation
    with pytest.raises(ShapeMismatchError, match=r"replica 1 package 1: values shape \(9, 2\)"):
        MultiOutputCascade([5, 4, 1], [good, [good[0], np.zeros((9, 2))]], alpha=1.0, kernel=KP)
    with pytest.raises(ValueError, match="replica 0: 1 value matrices for 2 packages"):
        MultiOutputCascade([5, 4, 1], [good[:1]], alpha=1.0, kernel=KP)
    with pytest.raises(ValueError, match="ending in 1"):
        MultiOutputCascade([5, 4, 2], [good], alpha=1.0, kernel=KP)
    with pytest.raises(ValueError, match="at least one replica"):
        MultiOutputCascade([5, 4, 1], [], alpha=1.0, kernel=KP)
    with pytest.raises(ValueError, match="alpha"):
        MultiOutputCascade([5, 4, 1], [good], alpha=-1.0, kernel=KP)


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
    out, (ws,) = mc.forward_all(x0)
    x = x0
    for pkg in cascade.packages:
        x, _ = pkg.forward(x)
    assert np.array_equal(out, x)
    assert [s.x_in.shape[1] for s in ws.states] + [ws.output.shape[1]] == [5, 4, 3, 1]


def test_forward_zero_values_single_package():
    mc, cascade = single([4, 1], seed=0)
    cascade.packages[0].set_values(np.zeros_like(cascade.packages[0].values))
    out, _ = mc.forward_all(np.random.default_rng(0).uniform(-1, 1, (5, 4)))
    assert np.all(out == 0.0)


def test_forward_width_mismatch():
    mc, _ = single([4, 1], seed=0)
    with pytest.raises(ShapeMismatchError):
        mc.forward_all(np.ones((2, 3)))
    with pytest.raises(ShapeMismatchError):
        mc.scores(np.ones((2, 3)))


def test_identity_fragment_passthrough_at_points():
    width = 5
    mc, _ = single([width] * 11 + [1], seed=0, mode="identity-fragments")
    points = octahedral_points(width)
    _, (ws,) = mc.forward_all(points)
    assert np.abs(ws.states[10].x_in - points).max() <= 1e-8


def test_backward_quantities_shapes_and_final_ones():
    mc, cascade = single([5, 4, 3, 1], seed=1)
    _, (ws,) = mc.forward_all(np.random.default_rng(1).uniform(-1, 1, (7, 5)))
    bases, grads = backward_quantities(cascade, ws)
    assert [b.shape for b in bases] == [(7, 11), (7, 9), (7, 7)]
    assert [g.shape for g in grads] == [(7, 4), (7, 3), (7, 1)]
    assert np.array_equal(grads[-1], np.ones((7, 1)))


def test_end_to_end_gradient_check():
    rng = np.random.default_rng(5)
    mc, cascade = single([5, 4, 3, 1], seed=5)
    _, (ws,) = mc.forward_all(rng.uniform(-0.9, 0.9, (6, 5)))
    _, grads = backward_quantities(cascade, ws)
    x1 = ws.states[1].x_in

    def tail(x1v):
        out = x1v
        for pkg in cascade.packages[1:]:
            out, _ = pkg.forward(out)
        return out

    h = 1e-5
    for i in range(6):
        for j in range(4):
            xp, xm = x1.copy(), x1.copy()
            xp[i, j] += h
            xm[i, j] -= h
            fd = (tail(xp)[i, 0] - tail(xm)[i, 0]) / (2 * h)
            assert abs(fd - grads[0][i, j]) / max(abs(fd), 1e-12) <= 1e-4


def test_omegas_are_psd():
    rng = np.random.default_rng(11)
    mc, cascade = single([6, 5, 1], seed=11)
    _, (ws,) = mc.forward_all(rng.uniform(-1, 1, (15, 6)))
    bases, grads = backward_quantities(cascade, ws)
    for omega in package_omegas(bases, grads):
        assert np.array_equal(omega, omega.T) or np.abs(omega - omega.T).max() < 1e-12
        assert np.linalg.eigvalsh(omega).min() >= -1e-8


def test_train_step_zero_residual_fixed_point():
    mc, cascade = single([4, 3, 1], seed=3, alpha=5.0)
    x0 = np.random.default_rng(3).uniform(-1, 1, (8, 4))
    out, _ = mc.forward_all(x0)
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
        u = synthesize_u(pkg.octa_coeffs, pkg.n_in)
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
    # the replicas share one layer-1 state and product; running and training
    # replica i as a d = 1 model seeded seed + i must give the same bits
    rng = np.random.default_rng(40)
    arch, core, seed = [6, 5, 4, 3], [6, 5, 4, 1], 40
    features = rng.uniform(-1, 1, (36, 6))
    targets = one_hot_pm1(rng.integers(0, 3, 36), 3)
    mc = init_multi(arch, seed=seed, alpha=3.0, dtype=dtype)
    alone = [init_multi(core, seed=seed + i, alpha=3.0, dtype=dtype) for i in range(3)]
    for idx in np.split(rng.permutation(36), 3):
        x0 = features[idx].astype(dtype)
        outs, workspaces = mc.forward_all(x0)
        assert all(ws.states[0] is workspaces[0].states[0] for ws in workspaces)
        reports = train_multi(mc, x0, targets[idx])
        scores = mc.scores(x0)
        for i, model in enumerate(alone):
            out, _ = model.forward_all(x0)
            assert np.array_equal(out, outs[:, i:i + 1])
            assert train_multi(model, x0, targets[idx, i:i + 1]) == [reports[i]]
            assert np.array_equal(model.scores(x0), scores[:, i:i + 1])
    for shared, model in zip(mc.replicas, alone):
        for pa, pb in zip(shared.packages, model.replicas[0].packages):
            assert pa.values.dtype == np.dtype(dtype)
            assert np.array_equal(pa.values, pb.values)


def test_scores_equal_per_replica_forward_batch(monkeypatch):
    # scores drops the intermediates forward_all keeps; the outputs are the same bits.
    # Both cases end in a partial chunk after several full ones; the second is the model's
    # own chunk.
    rng = np.random.default_rng(41)
    mc = init_multi([5, 4, 3, 3], seed=41, alpha=2.0)
    for rows, chunk in ((23, 7), (2 * mc.chunk_rows + 300, mc.chunk_rows)):
        monkeypatch.setattr(MultiOutputCascade, "chunk_rows", chunk)
        x = rng.uniform(-1, 1, (rows, 5))
        got = mc.scores(x)
        expected = [mc.forward_all(x[lo:lo + chunk])[0] for lo in range(0, rows, chunk)]
        assert got.shape == (rows, 3)
        assert np.array_equal(got, np.vstack(expected))


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
    for rows in (step // 2, step, x.shape[0]):
        got = []
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(cascade_module, "worker_count", lambda: workers)
            got.append(mc.scores(x[:rows]))
        assert all(np.array_equal(g, got[0]) for g in got[1:]), rows


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
    # training never runs backward on package 1, so its shared state drops sq_dists
    mc = init_multi([5, 4, 3], seed=2, alpha=1.0)
    _, workspaces = mc.forward_all(np.random.default_rng(2).uniform(-1, 1, (6, 5)))
    assert workspaces[0].states[0].sq_dists is None
    assert workspaces[0].states[1].sq_dists is not None  # package 2 still runs backward


def nan_coefficient_after_forward(monkeypatch, cascade, package):
    """Put a NaN in ``cascade``'s package coefficients right after its forward pass.

    The output residual stays finite, and the NaN reaches the training
    system only through ``backward``, so only the system check can see it.
    """
    forward = cascade_module.forward_batch

    def forward_then_nan(c, layer1, x1):
        ws = forward(c, layer1, x1)
        if c is cascade:
            c.packages[package].coeffs[0, 0] = np.nan
        return ws
    monkeypatch.setattr(cascade_module, "forward_batch", forward_then_nan)


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
        mc.forward_all(np.where(np.eye(5, 4) > 0, np.nan, x0))
    with pytest.raises(NonFiniteError, match="targets"):
        train_multi(mc, x0, np.full((5, 1), np.inf))
    pkg = cascade.packages[0]
    with pytest.raises(NonFiniteError, match="values"):
        pkg.set_values(np.full_like(pkg.values, np.nan))


@pytest.mark.parametrize("dtype,bound", [("float64", 1e-12), ("float32", 1e-5)])
def test_assembled_system_equals_oracle_sum(dtype, bound):
    # d = 3 replicas share one layer-1 state, with its Gram built in panels per replica
    # (as a one-replica model does) and then read from the cached H1 H1^T that train_multi
    # keeps for d > 1; package 2 has one output, so its derivative is a column that is not
    # all ones.  The batch sizes cover one partial panel, exactly one full panel, and
    # several ending in a partial one.
    for r, cached in itertools.product((17, PANEL_ROWS, 2 * PANEL_ROWS + 44), (False, True)):
        mc = init_multi([5, 4, 1, 3, 3], seed=42, alpha=2.5, dtype=dtype)
        _, workspaces = mc.forward_all(np.random.default_rng(42).uniform(-1, 1, (r, 5)))
        if cached:
            layer1 = workspaces[0].states[0]
            h1 = mc.replicas[0].packages[0].cardinal_basis(layer1)
            layer1.gram = h1 @ h1.T
        for c, ws in zip(mc.replicas, workspaces):
            bases, grads = backward_quantities(c, ws)
            expected = sum(package_omegas(bases, grads)) + 2.5 * np.eye(r, dtype=dtype)
            system = assemble_system(ws.states[0], bases, grads, mc.alpha)
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
        solve = cascade_module.spd_solve
        calls = iter(range(4))
        monkeypatch.setattr(cascade_module, "spd_solve",
                            lambda s, rhs, **kw: solve(-s if next(calls) == 2 else s, rhs, **kw))
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


def test_train_step_holds_one_square_array_and_consumed_intermediates():
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
    squares = [a for a in vars(buffers).values() if isinstance(a, np.ndarray) and a.size >= r * r]
    assert len(squares) == 1 and buffers.gram is None
    tracemalloc.start()
    try:
        train_multi(mc, x0, targets, buffers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    intermediates = sum(r * p.k for p in mc.replicas[0].packages) * mc.dtype.itemsize
    assert peak <= 2.7 * intermediates
    # d > 1 replicas share one layer-1 Gram, the set's second r x r array
    mc = init_multi([6, 5, 4, 3], seed=45, alpha=2.0)
    buffers = TrainingBuffers(200, mc.dtype)
    train_multi(mc, x0[:200, :6], rng.uniform(-1, 1, (200, 3)), buffers)
    squares = [a for a in vars(buffers).values()
               if isinstance(a, np.ndarray) and a.size >= 200 * 200]
    assert len(squares) == 2 and buffers.gram is not None


def test_train_multi_holds_one_replica_intermediates_at_a_time():
    # each replica's forward pass runs right before its step and is dropped after it, so
    # eight replicas of a deep narrow cascade train in about the memory of one
    # (the peak rose 5x from d = 1 to d = 8 when every workspace was built first)
    rng = np.random.default_rng(44)
    x0 = rng.uniform(-1, 1, (200, 6))
    targets = rng.uniform(-1, 1, (200, 8))
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
    assert peaks[8] <= 1.5 * peaks[1]


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
    return np.array([list(rep.values()) for rep in reports]), values, mc.forward_all(x0)[0]


def assert_same_training(got, expected):
    (reports, values, outputs), (reports_1, values_1, outputs_1) = got, expected
    assert np.array_equal(reports, reports_1)
    assert all(np.array_equal(a, b) for a, b in zip(values, values_1))
    assert np.array_equal(outputs, outputs_1)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("shape", ["shells-deep-float64", "10x100,1-float32"])
def test_threaded_training_equals_one_thread_training(monkeypatch, one_blas_thread, shape,
                                                      workers):
    # the sweep splits into row parts on the shells-deep shape and runs in one part on the
    # narrow one; the assembly's panels are spread over the workers on both
    def make():
        if shape == "shells-deep-float64":
            return shells_deep_model()
        return init_multi([10] * 100 + [1], seed=46, mode="identity-fragments", alpha=50.0,
                          dtype="float32")

    rng = np.random.default_rng(46)
    x0 = rng.uniform(-1, 1, (1000, 10))
    targets = rng.choice([-1.0, 1.0], (1000, 1))
    monkeypatch.setattr(cascade_module, "worker_count", lambda: workers)
    threaded = train_twice(make(), x0, targets)
    monkeypatch.undo()
    monkeypatch.setattr(linalg, "_BLAS_THREADS", None)
    assert cascade_module.worker_count() == 1
    assert_same_training(threaded, train_twice(make(), x0, targets))


@pytest.mark.parametrize("workers", [2, 3])
def test_threaded_training_on_uneven_and_short_batches(monkeypatch, one_blas_thread, workers):
    # one row; fewer rows than one sweep part (100 x 101 float64 values < SWEEP_PART_BYTES);
    # one whole panel; three panels, the last partial; and row parts of unequal size
    rng = np.random.default_rng(47)
    for rows in (1, 100, PANEL_ROWS, 2 * PANEL_ROWS + 45, 1001):
        x0 = rng.uniform(-1, 1, (rows, 10))
        targets = rng.choice([-1.0, 1.0], (rows, 1))
        monkeypatch.setattr(cascade_module, "worker_count", lambda: workers)
        parts = cascade_module._row_parts(rows, shells_deep_model().replicas[0].packages[1:])
        assert [p.stop - p.start for p in parts] in ([rows], [496, 505], [320, 336, 345])
        threaded = train_twice(shells_deep_model(depth=3), x0, targets)
        monkeypatch.setattr(cascade_module, "worker_count", lambda: 1)
        assert_same_training(threaded, train_twice(shells_deep_model(depth=3), x0, targets))
        if one_blas_thread is not None:
            assert one_blas_thread() == 1


def test_panel_sets_are_counted_when_the_buffers_are_allocated(monkeypatch, one_blas_thread):
    # an affinity change between batches must not index past the sets a buffer set holds;
    # the packages are narrow, so the sweep runs in one part and only the panels are shared
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
    buffers = TrainingBuffers.fitting(None, x0[:PANEL_ROWS + 1])
    assert len(buffers.panel_sets) == 2


def test_assembly_panels_are_each_built_once_under_contention(monkeypatch):
    # more tasks than cores take panels from one shared deque, switching often: a panel
    # that no task built would leave rows of the uninitialised system in the result
    mc, cascade = single([10, 50, 50, 1], seed=49, mode="identity-fragments", alpha=50.0)
    _, (ws,) = mc.forward_all(np.random.default_rng(49).uniform(-1, 1, (1000, 10)))
    bases, grads = backward_quantities(cascade, ws)
    monkeypatch.setattr(cascade_module, "worker_count", lambda: 1)
    expected = assemble_system(ws.states[0], bases, grads, mc.alpha).copy()
    monkeypatch.setattr(cascade_module, "worker_count", lambda: 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            buffers = TrainingBuffers.fitting(None, ws.states[0].x_in)
            buffers.system.fill(np.nan)
            system = assemble_system(ws.states[0], bases, grads, mc.alpha, buffers)
            assert len(buffers.panel_sets) == 5 and np.array_equal(system, expected)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("failure", [NotSPDError, NonFiniteError])
def test_blas_thread_count_is_restored_after_a_failing_step(monkeypatch, blas_threads,
                                                            failure):
    # NotSPDError comes from the solve, after the regions; NonFiniteError is raised by a
    # package's forward pass inside every sweep part
    monkeypatch.setattr(cascade_module, "worker_count", lambda: 2)
    mc = shells_deep_model(depth=3)
    rng = np.random.default_rng(50)
    x0 = rng.uniform(-1, 1, (400, 10))
    targets = rng.choice([-1.0, 1.0], (400, 1))
    assert len(cascade_module._row_parts(400, mc.replicas[0].packages[1:])) == 2
    train_multi(shells_deep_model(depth=3), x0, targets)
    if blas_threads is not None:
        assert blas_threads() == 3
    if failure is NotSPDError:
        solve = cascade_module.spd_solve
        monkeypatch.setattr(cascade_module, "spd_solve",
                            lambda s, rhs, **kw: solve(-s, rhs, **kw))
        match = "replica 0"
    else:
        def failing_forward(*args, **kwargs):
            raise NonFiniteError("raised in a sweep part")
        monkeypatch.setattr(mc.replicas[0].packages[2], "forward", failing_forward)
        match = "raised in a sweep part"
    with pytest.raises(failure, match=match):
        train_multi(mc, x0, targets)
    if blas_threads is not None:
        assert blas_threads() == 3


def test_forked_child_trains_with_a_pool_of_its_own():
    # the parent's pool threads do not exist in a fork; a sweep part or panel queued for
    # them would never run
    code = textwrap.dedent("""
        import os, signal, numpy as np, polycascade
        from polycascade import cascade
        cascade.worker_count = lambda: 2
        rng = np.random.default_rng(0)
        x, t = rng.uniform(-1, 1, (600, 10)), rng.choice([-1.0, 1.0], (600, 1))
        def model():
            return polycascade.init_multi([10, 50, 50, 1], seed=0, mode="identity-fragments",
                                          alpha=50.0)
        trained, fresh = model(), model()
        polycascade.train_multi(trained, x, t)
        assert len(cascade._row_parts(600, trained.replicas[0].packages[1:])) == 2
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
