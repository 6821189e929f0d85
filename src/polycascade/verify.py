"""Self-contained invariant battery behind the ``verify`` command.

Each check is a named callable returning None on success and raising
AssertionError with a diagnostic on failure.  Each runs the production
routes against the ``oracle`` or an exact property: ``Package``'s closed-form
Gram inverse vs explicit inversion, ``bench``'s fast/naive agreement table,
interpolation exactness, derivative correctness by central differences,
positive semidefiniteness of the training Gram products, the single-package
one-step exact fit, and identity-fragment propagation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import oracle
from .bench import _rel_err, run_bench
from .cascade import assemble_system, init_multi, sweep, train_multi
from .constellation import octahedral_points
from .kernel import KernelParams
from .linalg import spd_solve
from .package import Package

logger = logging.getLogger(__name__)


def _check(ok: bool, message: str) -> None:
    """Raise AssertionError with ``message`` unless ``ok``: unlike ``assert``, kept under ``-O``."""
    if not ok:
        raise AssertionError(message)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def check_u_equivalence(seed: int) -> None:
    """The production closed form of the Gram inverse equals its explicit inversion."""
    kp = KernelParams()
    for n in (1, 2, 3, 7, 50):
        k = 2 * n + 1
        fast = Package(n, kp, np.zeros((k, 1))).coeffs_from_values(np.eye(k))
        slow = oracle.gram_inverse(octahedral_points(n), kp)
        err = _rel_err(fast, slow)
        _check(err <= 1e-8, f"n={n}: closed-form inverse off by {err:.3e}")


def check_route_agreement(seed: int) -> None:
    """Package's closed-form routes agree with the oracle: bench's table, timed once."""
    run_bench(widths=(1, 2, 3, 7, 50), batch_rows=(1, 5, 64), repeats=1, seed=seed)


def check_interpolation(seed: int) -> None:
    """With no diagonal regularizer, evaluation at the points reproduces values."""
    kp = KernelParams()
    rng = np.random.default_rng(seed)
    for n in (1, 4, 9):
        values = rng.uniform(-1, 1, (2 * n + 1, 2))
        pkg = Package(n, kp, values)
        out, _ = pkg.forward(octahedral_points(n).T)  # one column per point
        err = float(np.abs(out.T - values).max())
        _check(err <= 1e-8, f"interpolation error {err:.3e} at n={n}")


def check_gradient(seed: int) -> None:
    """Backward derivatives match central differences of the scalar output."""
    rng = np.random.default_rng(seed)
    mc = init_multi([5, 4, 3, 1], seed=seed, alpha=1.0)
    cascade = mc.replicas[0]
    k1, (x1,) = mc.layer1(rng.uniform(-0.9, 0.9, (8, 5)))
    h1 = cascade.packages[0].cardinal_basis(k1)
    _, _, grads = sweep(cascade, h1, x1)

    def tail(x1v):
        return sweep(cascade, h1, x1v)[0]

    h = 1e-5
    worst = 0.0
    for i in range(x1.shape[0]):  # features x rows, like every batch array of the cascade
        for j in range(x1.shape[1]):
            xp, xm = x1.copy(), x1.copy()
            xp[i, j] += h
            xm[i, j] -= h
            fd = (tail(xp)[0, j] - tail(xm)[0, j]) / (2 * h)
            worst = max(worst, abs(fd - grads[0][i, j]) / max(abs(fd), 1e-12))
    _check(worst <= 1e-4, f"gradient relative error {worst:.3e}")


def check_training_gram_psd(seed: int) -> None:
    """Per-package Gram products are PSD; the regularized sum factors as SPD.

    The training step's own assembly of that sum must match the oracle's.
    """
    rng = np.random.default_rng(seed)
    mc = init_multi([6, 5, 1], seed=seed, alpha=1.0)
    cascade = mc.replicas[0]
    for trial in range(20):
        k1, (x1,) = mc.layer1(rng.uniform(-1, 1, (12, 6)))
        _, bases, grads = sweep(cascade, cascade.packages[0].cardinal_basis(k1), x1)
        # the oracle holds batches rows x features
        omegas = oracle.package_omegas([h.T for h in bases], [g.T for g in grads])
        for omega in omegas:
            lo = float(np.linalg.eigvalsh(omega).min())
            _check(lo >= -1e-8, f"trial {trial}: Gram product eigenvalue {lo:.3e}")
        system = sum(omegas) + np.eye(12)
        err = _rel_err(assemble_system(bases, grads, mc.alpha), system)
        _check(err <= 1e-10, f"trial {trial}: assembled system off by {err:.3e}")
        spd_solve(system, rng.standard_normal((12, 1)))


def check_exact_fit(seed: int) -> None:
    """One step with one package and no ridge term lands on the targets."""
    rng = np.random.default_rng(seed)
    mc = init_multi([30, 1], seed=seed, alpha=0.0)
    x0 = rng.uniform(-1, 1, (50, 30))
    lstar = rng.uniform(-1, 1, (50, 1))
    train_multi(mc, x0, lstar)
    residual = float(np.abs(mc.scores(x0) - lstar).max())
    _check(residual <= 1e-6, f"one-step residual {residual:.3e}")


def check_identity_fragment(seed: int) -> float:
    """Constellation points traverse ten identity-initialized layers unchanged.

    Returns the measured drift of random interior points (reported, never
    asserted: interior inputs are only approximately preserved).
    """
    width = 6
    mc = init_multi([width] * 11 + [1], seed=seed, mode="identity-fragments", alpha=1.0)
    identity = mc.replicas[0].packages[:10]
    points = octahedral_points(width)
    err = float(np.abs(_forward_through(identity, points) - points).max())
    _check(err <= 1e-8, f"constellation points drifted by {err:.3e}")
    rng = np.random.default_rng(seed)
    interior = rng.uniform(-0.7, 0.7, (32, width))
    return float(np.abs(_forward_through(identity, interior) - interior).max())


def _forward_through(packages, x: np.ndarray) -> np.ndarray:
    """The rows of ``x`` carried through ``packages``' forward passes, as rows."""
    y = np.ascontiguousarray(x.T)
    for pkg in packages:
        y, _ = pkg.forward(y)
    return y.T


CHECKS = [
    ("closed-form-gram-inverse", check_u_equivalence),
    ("fast-naive-route-agreement", check_route_agreement),
    ("interpolation-exactness", check_interpolation),
    ("gradient-central-difference", check_gradient),
    ("training-gram-psd", check_training_gram_psd),
    ("single-package-exact-fit", check_exact_fit),
    ("identity-fragment-propagation", check_identity_fragment),
]


def run_all(seed: int = 0, report=logger.info) -> list[CheckResult]:
    """Run every check with ``seed``; ``report`` gets one line per check and a summary."""
    results = []
    for name, fn in CHECKS:
        try:
            extra = fn(seed)
            detail = f"interior drift {extra:.4f}" if isinstance(extra, float) else ""
            results.append(CheckResult(name, True, detail))
            report(f"PASS {name}" + (f" ({detail})" if detail else ""))
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc)))
            report(f"FAIL {name}: {exc}")
    passed = sum(r.passed for r in results)
    report(f"{passed}/{len(results)} invariants passed")
    return results
