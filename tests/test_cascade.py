import logging

import numpy as np
import pytest

from polycascade import cascade as cascade_module
from polycascade.cascade import (PANEL_ROWS, Cascade, MultiOutputCascade, assemble_system,
                                 backward_quantities, forward_batch, init_cascade, init_multi,
                                 one_hot_pm1, train_multi, train_step)
from polycascade.constellation import build_octahedral, octahedral_points, synthesize_u
from polycascade.kernel import KernelParams
from polycascade.linalg import NonFiniteError, NotSPDError, ShapeMismatchError
from polycascade.oracle import package_omegas
from polycascade.package import Package

KP = KernelParams()


def test_width_chain_validation():
    with pytest.raises(ValueError):
        init_cascade([5], seed=0)
    with pytest.raises(ValueError):
        init_cascade([5, 4, 3], seed=0)  # must end in 1
    with pytest.raises(ValueError):
        init_cascade([5, 0, 1], seed=0)


def test_architecture_shape():
    cascade = init_cascade([784, 100, 20, 20, 1], seed=0)
    assert cascade.q == 4
    assert cascade.widths == [784, 100, 20, 20, 1]
    assert [p.k for p in cascade.packages] == [1569, 201, 41, 41]
    # parameter count scales to the published 1.6M once replicated tenfold
    assert cascade.parameter_count() * 10 == 1_617_810


def test_random_init_row_norms_and_distinctness():
    cascade = init_cascade([6, 5, 4, 1], seed=7, mode="random")
    for pkg in cascade.packages:
        norms = np.linalg.norm(pkg.values, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-6)
    values = [p.values for p in cascade.packages[:2]]
    assert values[0].shape != values[1].shape or not np.array_equal(*values)


def test_identity_fragment_init_sets_points(caplog):
    with caplog.at_level(logging.INFO, logger="polycascade.cascade"):
        cascade = init_cascade([4, 6, 6, 6, 1], seed=0, mode="identity-fragments")
    assert np.array_equal(cascade.packages[1].values, octahedral_points(6))
    assert np.array_equal(cascade.packages[2].values, octahedral_points(6))
    # unequal-width packages degrade to random and the event is logged
    assert not np.array_equal(cascade.packages[0].values[:4], octahedral_points(4)[:4])
    assert any("random init" in rec.message for rec in caplog.records)


def test_init_deterministic_in_seed():
    a = init_cascade([5, 4, 1], seed=3)
    b = init_cascade([5, 4, 1], seed=3)
    c = init_cascade([5, 4, 1], seed=4)
    for pa, pb in zip(a.packages, b.packages):
        assert np.array_equal(pa.values, pb.values)
    assert not np.array_equal(a.packages[0].values, c.packages[0].values)


def test_forward_batch_composes_package_forwards():
    rng = np.random.default_rng(2)
    cascade = init_cascade([5, 4, 3, 1], seed=2)
    x0 = rng.uniform(-1, 1, (6, 5))
    out, ws = forward_batch(cascade, x0)
    x = x0
    for pkg in cascade.packages:
        x, _ = pkg.forward(x)
    assert np.array_equal(out, x)
    assert [xi.shape[1] for xi in ws.xs] == [5, 4, 3, 1]


def test_forward_zero_values_single_package():
    cascade = init_cascade([4, 1], seed=0)
    cascade.packages[0].set_values(np.zeros_like(cascade.packages[0].values))
    out, _ = forward_batch(cascade, np.random.default_rng(0).uniform(-1, 1, (5, 4)))
    assert np.all(out == 0.0)


def test_forward_width_mismatch():
    cascade = init_cascade([4, 1], seed=0)
    with pytest.raises(ShapeMismatchError):
        forward_batch(cascade, np.ones((2, 3)))


def test_identity_fragment_passthrough_at_points():
    width = 5
    cascade = init_cascade([width] * 11 + [1], seed=0, mode="identity-fragments")
    points = octahedral_points(width)
    _, ws = forward_batch(cascade, points)
    assert np.abs(ws.xs[10] - points).max() <= 1e-8


def test_backward_quantities_shapes_and_final_ones():
    cascade = init_cascade([5, 4, 3, 1], seed=1)
    x0 = np.random.default_rng(1).uniform(-1, 1, (7, 5))
    _, ws = forward_batch(cascade, x0)
    bases, grads = backward_quantities(cascade, ws)
    assert [b.shape for b in bases] == [(7, 11), (7, 9), (7, 7)]
    assert [g.shape for g in grads] == [(7, 4), (7, 3), (7, 1)]
    assert np.array_equal(grads[-1], np.ones((7, 1)))


def test_end_to_end_gradient_check():
    rng = np.random.default_rng(5)
    cascade = init_cascade([5, 4, 3, 1], seed=5)
    x0 = rng.uniform(-0.9, 0.9, (6, 5))
    _, ws = forward_batch(cascade, x0)
    _, grads = backward_quantities(cascade, ws)
    x1 = ws.xs[1]

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
    cascade = init_cascade([6, 5, 1], seed=11)
    x0 = rng.uniform(-1, 1, (15, 6))
    _, ws = forward_batch(cascade, x0)
    bases, grads = backward_quantities(cascade, ws)
    for omega in package_omegas(bases, grads):
        assert np.array_equal(omega, omega.T) or np.abs(omega - omega.T).max() < 1e-12
        assert np.linalg.eigvalsh(omega).min() >= -1e-8


def test_train_step_zero_residual_fixed_point():
    cascade = init_cascade([4, 3, 1], seed=3, alpha=5.0)
    x0 = np.random.default_rng(3).uniform(-1, 1, (8, 4))
    out, ws = forward_batch(cascade, x0)
    before = [p.values.copy() for p in cascade.packages]
    report = train_step(cascade, ws, out.copy())
    for pkg, old in zip(cascade.packages, before):
        assert np.abs(pkg.values - old).max() <= 1e-12
    assert report.residual_before_inf == 0.0
    assert report.residual_after_inf <= 1e-10


def test_train_step_huge_alpha_freezes_updates():
    alpha = 1e12
    cascade = init_cascade([4, 3, 1], seed=4, alpha=alpha)
    x0 = np.random.default_rng(4).uniform(-1, 1, (10, 4))
    out, ws = forward_batch(cascade, x0)
    lstar = out + 1.0
    report = train_step(cascade, ws, lstar)
    assert report.b_inf <= (1.0 / alpha) * (1 + 1e-6)
    assert report.residual_after_inf >= 0.99  # essentially unchanged


def test_single_package_exact_fit():
    rng = np.random.default_rng(17)
    cascade = init_cascade([30, 1], seed=17, alpha=0.0)
    x0 = rng.uniform(-1, 1, (50, 30))
    lstar = rng.uniform(-1, 1, (50, 1))
    _, ws = forward_batch(cascade, x0)
    report = train_step(cascade, ws, lstar)
    assert report.residual_after_inf <= 1e-6


def test_train_step_rederives_coefficients():
    cascade = init_cascade([5, 4, 1], seed=6, alpha=2.0)
    x0 = np.random.default_rng(6).uniform(-1, 1, (9, 5))
    _, ws = forward_batch(cascade, x0)
    train_step(cascade, ws, np.ones((9, 1)))
    for pkg in cascade.packages:
        u = synthesize_u(pkg.octa_coeffs, pkg.n_in)
        expected = u @ pkg.values
        err = np.abs(pkg.coeffs - expected).max() / max(np.abs(expected).max(), 1e-30)
        assert err <= 1e-8


def test_train_step_target_shape_checked():
    cascade = init_cascade([4, 1], seed=0, alpha=1.0)
    _, ws = forward_batch(cascade, np.ones((3, 4)) * 0.1)
    with pytest.raises(ShapeMismatchError):
        train_step(cascade, ws, np.ones((4, 1)))


def test_alpha_zero_spd_failure_is_reported():
    # rank-deficient system: more batch rows than basis columns available
    cascade = init_cascade([1, 1], seed=0, alpha=0.0)
    x0 = np.random.default_rng(0).uniform(-1, 1, (10, 1))
    _, ws = forward_batch(cascade, x0)
    with pytest.raises(NotSPDError):
        train_step(cascade, ws, np.ones((10, 1)))


def test_multi_replicas_share_architecture():
    mc = init_multi([6, 5, 3], seed=0, alpha=1.0)
    assert mc.d == 3
    assert mc.widths == [6, 5, 1]
    assert len({c.packages[0].values.tobytes() for c in mc.replicas}) == 3


def test_multi_d1_reduces_to_train_step():
    rng = np.random.default_rng(8)
    x0 = rng.uniform(-1, 1, (12, 5))
    target = rng.uniform(-1, 1, (12, 1))

    mc = init_multi([5, 4, 1], seed=8, alpha=2.0)
    assert mc.d == 1
    _, workspaces = mc.forward_all(x0)
    reports = train_multi(mc, workspaces, target)

    single = init_cascade([5, 4, 1], seed=8, alpha=2.0)
    _, ws = forward_batch(single, x0)
    rep = train_step(single, ws, target)

    assert reports[0].residual_after_inf == rep.residual_after_inf
    for pa, pb in zip(mc.replicas[0].packages, single.packages):
        assert np.array_equal(pa.values, pb.values)


def test_replicas_identical_seeds_identical_updates():
    rng = np.random.default_rng(9)
    x0 = rng.uniform(-1, 1, (10, 4))
    target = rng.uniform(-1, 1, (10, 1))
    outcomes = []
    for _ in range(2):
        cascade = init_cascade([4, 3, 1], seed=21, alpha=3.0)
        _, ws = forward_batch(cascade, x0)
        train_step(cascade, ws, target)
        outcomes.append([p.values.copy() for p in cascade.packages])
    for va, vb in zip(*outcomes):
        assert np.array_equal(va, vb)


def test_ten_replicas_all_residuals_decrease():
    rng = np.random.default_rng(10)
    mc = init_multi([8, 6, 10], seed=10, alpha=5.0)
    x0 = rng.uniform(-1, 1, (40, 8))
    targets = one_hot_pm1(rng.integers(0, 10, 40), 10)
    _, workspaces = mc.forward_all(x0)
    reports = train_multi(mc, workspaces, targets)
    assert len(reports) == 10
    for rep in reports:
        assert rep.residual_after_rms < rep.residual_before_rms


def test_train_multi_validates_target_width():
    mc = init_multi([4, 3, 2], seed=0, alpha=1.0)
    _, workspaces = mc.forward_all(np.zeros((3, 4)))
    with pytest.raises(ShapeMismatchError):
        train_multi(mc, workspaces, np.ones((3, 3)))


def test_predict_argmax_and_ties():
    class Fixed:
        def __init__(self, scores):
            self._s = scores
            self.d = scores.shape[1]

        def scores(self, x0):
            return self._s

    scores = np.array([[0.9, -1.0], [0.5, 0.5]])
    assert np.array_equal(np.argmax(scores, axis=1), [0, 0])  # ties -> lowest index
    got = MultiOutputCascade.predict(Fixed(scores), None)
    assert np.array_equal(got, [0, 0])


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
        cascade = init_cascade([5, 4, 1], seed=13, alpha=2.0, dtype="float64")
        rng = np.random.default_rng(13)
        for _ in range(3):
            x0 = rng.uniform(-1, 1, (10, 5))
            lstar = rng.uniform(-1, 1, (10, 1))
            _, ws = forward_batch(cascade, x0)
            train_step(cascade, ws, lstar)
        return [p.values.copy() for p in cascade.packages]

    for va, vb in zip(run(), run()):
        assert np.array_equal(va, vb)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_shared_layer1_training_matches_replicas_trained_alone(dtype):
    # forward_all shares one layer-1 state across replicas; training each
    # replica on its own with forward_batch must give the same bits
    rng = np.random.default_rng(40)
    arch, core, seed = [6, 5, 4, 3], [6, 5, 4, 1], 40
    features = rng.uniform(-1, 1, (36, 6))
    targets = one_hot_pm1(rng.integers(0, 3, 36), 3)
    mc = init_multi(arch, seed=seed, alpha=3.0, dtype=dtype)
    alone = [init_cascade(core, seed=seed + i, alpha=3.0, dtype=dtype) for i in range(3)]
    for idx in np.split(rng.permutation(36), 3):
        x0 = features[idx].astype(dtype)
        outs, workspaces = mc.forward_all(x0)
        assert all(ws.states[0] is workspaces[0].states[0] for ws in workspaces)
        reports = train_multi(mc, workspaces, targets[idx], measure_after=True)
        assert workspaces[0].states[0].gram is not None
        for i, cascade in enumerate(alone):
            out, ws = forward_batch(cascade, x0)
            assert np.array_equal(out, outs[:, i:i + 1])
            rep = train_step(cascade, ws, targets[idx, i:i + 1], measure_after=True)
            assert rep == reports[i]
    for shared, single in zip(mc.replicas, alone):
        for pa, pb in zip(shared.packages, single.packages):
            assert pa.values.dtype == np.dtype(dtype)
            assert np.array_equal(pa.values, pb.values)


def test_scores_equal_per_replica_forward_batch():
    rng = np.random.default_rng(41)
    mc = init_multi([5, 4, 3, 3], seed=41, alpha=2.0)
    x = rng.uniform(-1, 1, (23, 5))
    chunk = 7  # three full chunks and a partial one
    got = mc.scores(x, chunk_rows=chunk)
    expected = []
    for lo in range(0, 23, chunk):
        expected.append(np.hstack([forward_batch(c, x[lo:lo + chunk])[0]
                                   for c in mc.replicas]))
    assert got.shape == (23, 3)
    assert np.array_equal(got, np.vstack(expected))


def test_replicas_must_share_first_constellation():
    kp = KernelParams()
    replicas = []
    for sigma2 in (0.0, 0.5):
        pkg = Package(build_octahedral(3, sigma2=sigma2), kp, np.zeros((7, 1)))
        replicas.append(Cascade([pkg], alpha=1.0, kernel=kp))
    with pytest.raises(ValueError, match="constellation"):
        MultiOutputCascade(replicas)


def test_not_spd_error_names_replica():
    mc = init_multi([1, 3], seed=0, alpha=0.0)  # one package, rank-deficient system
    x0 = np.random.default_rng(0).uniform(-1, 1, (10, 1))
    _, workspaces = mc.forward_all(x0)
    with pytest.raises(NotSPDError, match="replica 0"):
        train_multi(mc, workspaces, np.ones((10, 3)))


def test_shared_layer1_state_keeps_no_distances():
    # training never runs backward on package 1, so its shared state drops sq_dists
    mc = init_multi([5, 4, 3], seed=2, alpha=1.0)
    _, workspaces = mc.forward_all(np.random.default_rng(2).uniform(-1, 1, (6, 5)))
    assert workspaces[0].states[0].sq_dists is None
    assert workspaces[0].states[1].sq_dists is not None  # package 2 still runs backward


def test_nan_coefficient_raises_non_finite_before_any_update():
    # intermediate products are not scanned; the NaN must reach the system check
    cascade = init_cascade([4, 3, 2, 1], seed=12, alpha=1.0)
    x0 = np.random.default_rng(12).uniform(-1, 1, (8, 4))
    _, ws = forward_batch(cascade, x0)
    cascade.packages[1].coeffs[0, 0] = np.nan
    before = [p.values.copy() for p in cascade.packages]
    with pytest.raises(NonFiniteError):
        train_step(cascade, ws, np.ones((8, 1)))
    for pkg, old in zip(cascade.packages, before):
        assert np.array_equal(pkg.values, old)


def test_non_finite_inputs_rejected_where_they_enter():
    cascade = init_cascade([4, 3, 1], seed=0, alpha=1.0)
    x0 = np.random.default_rng(0).uniform(-1, 1, (5, 4))
    with pytest.raises(NonFiniteError, match="batch input"):
        forward_batch(cascade, np.where(np.eye(5, 4) > 0, np.nan, x0))
    _, ws = forward_batch(cascade, x0)
    with pytest.raises(NonFiniteError, match="targets"):
        train_step(cascade, ws, np.full((5, 1), np.inf))
    pkg = cascade.packages[0]
    with pytest.raises(NonFiniteError, match="values"):
        pkg.set_values(np.full_like(pkg.values, np.nan))


@pytest.mark.parametrize("dtype,bound", [("float64", 1e-12), ("float32", 1e-5)])
def test_assembled_system_equals_oracle_sum(dtype, bound):
    # d = 3 replicas share the layer-1 Gram and buffers; package 2 has one output,
    # so its derivative is a column that is not all ones.  The batch sizes cover
    # one partial panel, exactly one full panel, and several ending in a partial one.
    for r in (17, PANEL_ROWS, 2 * PANEL_ROWS + 44):
        mc = init_multi([5, 4, 1, 3, 3], seed=42, alpha=2.5, dtype=dtype)
        _, workspaces = mc.forward_all(np.random.default_rng(42).uniform(-1, 1, (r, 5)))
        for c, ws in zip(mc.replicas, workspaces):
            bases, grads = backward_quantities(c, ws)
            expected = sum(package_omegas(bases, grads)) + 2.5 * np.eye(r, dtype=dtype)
            system = assemble_system(c, ws.states[0], bases, grads)
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
    alone = [init_cascade([5, 4, 3, 1], seed=43 + i, alpha=2.0) for i in range(2)]
    for i, cascade in enumerate(alone):
        _, ws = forward_batch(cascade, x0)
        train_step(cascade, ws, targets[:, i:i + 1])
    _, workspaces = mc.forward_all(x0)
    before = [[p.values.copy() for p in c.packages] for c in mc.replicas]
    if failure is NotSPDError:
        solve = cascade_module.spd_solve
        calls = iter(range(4))
        monkeypatch.setattr(cascade_module, "spd_solve",
                            lambda s, rhs, **kw: solve(-s if next(calls) == 2 else s, rhs, **kw))
    else:
        mc.replicas[2].packages[1].coeffs[0, 0] = np.nan
    with pytest.raises(failure):
        train_multi(mc, workspaces, targets)
    for shared, single in zip(mc.replicas[:2], alone):
        for pa, pb in zip(shared.packages, single.packages):
            assert np.array_equal(pa.values, pb.values)
    for c, old in zip(mc.replicas[2:], before[2:]):
        for pkg, values in zip(c.packages, old):
            assert np.array_equal(pkg.values, values)
