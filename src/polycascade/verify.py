"""Self-contained invariant battery behind the ``verify`` command.

Each check is a named callable returning None on success and raising
AssertionError with a diagnostic on failure.  The battery covers the load
bearing properties: closed-form Gram inverse vs explicit inversion, agreement
of the octahedral ``Package`` routes with the general-constellation
``oracle``, interpolation exactness, derivative correctness by
central differences, positive semidefiniteness of the training Gram
products, the single-package one-step exact fit, and identity-fragment
propagation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .cascade import assemble_system, backward_quantities, init_multi, train_multi
from .constellation import build_octahedral, derive_coefficients, octahedral_points, synthesize_u
from .kernel import KernelParams
from .linalg import spd_solve
from .package import Package


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _rel_err(a, b) -> float:
    scale = max(float(np.abs(b).max()), 1e-30)
    return float(np.abs(a - b).max()) / scale


def check_u_equivalence(seed: int, coefficients=None) -> None:
    """Synthesized Gram inverse equals the explicit inversion for several widths."""
    kp = KernelParams()
    for n in (1, 2, 3, 7, 50):
        coeffs = coefficients or derive_coefficients(n, kp, 0.0)
        fast = synthesize_u(coeffs, n)
        slow = oracle.gram_inverse(octahedral_points(n), kp)
        err = _rel_err(fast, slow)
        assert err <= 1e-8, f"n={n}: closed-form inverse off by {err:.3e}"


def check_route_agreement(seed: int) -> None:
    """Package's closed-form routes agree with the oracle for all four operations."""
    kp = KernelParams()
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3, 7, 50):
        constellation = build_octahedral(n)
        pkg = Package(constellation, kp, rng.uniform(-1, 1, (constellation.k, 3)))
        points = octahedral_points(n)
        u = oracle.gram_inverse(points, kp)
        for r in (1, 5, 64):
            x = rng.uniform(-1, 1, (r, n))
            m_f = pkg.squared_distances(x)
            m_n = oracle.squared_distances(x, points)
            assert _rel_err(m_f, m_n) <= 1e-8, f"distances disagree at n={n} r={r}"
            _, state = pkg.forward(x)
            h_f = pkg.cardinal_basis(state)
            h_n = oracle.cardinal_basis(state.kernel_vals, u)
            assert _rel_err(h_f, h_n) <= 1e-8, f"cardinal basis disagrees at n={n} r={r}"
            g = rng.standard_normal((r, 3))
            g_f = pkg.backward(g, state)
            g_n = oracle.backward(g, x, state.sq_dists, points, pkg.coeffs, kp)
            assert _rel_err(g_f, g_n) <= 1e-8, f"backward disagrees at n={n} r={r}"
        lam_f = pkg.coeffs_from_values(pkg.values)
        lam_n = oracle.coefficients(u, pkg.values)
        assert _rel_err(lam_f, lam_n) <= 1e-8, f"coefficients disagree at n={n}"


def check_interpolation(seed: int) -> None:
    """With no diagonal regularizer, evaluation at the points reproduces values."""
    kp = KernelParams()
    rng = np.random.default_rng(seed)
    for n in (1, 4, 9):
        constellation = build_octahedral(n)
        values = rng.uniform(-1, 1, (constellation.k, 2))
        pkg = Package(constellation, kp, values)
        out, _ = pkg.forward(octahedral_points(n))
        err = float(np.abs(out - values).max())
        assert err <= 1e-8, f"interpolation error {err:.3e} at n={n}"


def check_gradient(seed: int) -> None:
    """Backward derivatives match central differences of the scalar output."""
    rng = np.random.default_rng(seed)
    mc = init_multi([5, 4, 3, 1], seed=seed, alpha=1.0)
    cascade = mc.replicas[0]
    _, (ws,) = mc.forward_all(rng.uniform(-0.9, 0.9, (8, 5)))
    _, grads = backward_quantities(cascade, ws)
    x1 = ws.xs[1]

    def tail(x1v):
        out, _ = cascade.packages[1].forward(x1v)
        out, _ = cascade.packages[2].forward(out)
        return out

    h = 1e-5
    worst = 0.0
    for i in range(x1.shape[0]):
        for j in range(x1.shape[1]):
            xp, xm = x1.copy(), x1.copy()
            xp[i, j] += h
            xm[i, j] -= h
            fd = (tail(xp)[i, 0] - tail(xm)[i, 0]) / (2 * h)
            worst = max(worst, abs(fd - grads[0][i, j]) / max(abs(fd), 1e-12))
    assert worst <= 1e-4, f"gradient relative error {worst:.3e}"


def check_training_gram_psd(seed: int) -> None:
    """Per-package Gram products are PSD; the regularized sum factors as SPD.

    The training step's own assembly of that sum must match the oracle's.
    """
    rng = np.random.default_rng(seed)
    mc = init_multi([6, 5, 1], seed=seed, alpha=1.0)
    cascade = mc.replicas[0]
    for trial in range(20):
        _, (ws,) = mc.forward_all(rng.uniform(-1, 1, (12, 6)))
        bases, grads = backward_quantities(cascade, ws)
        omegas = oracle.package_omegas(bases, grads)
        for omega in omegas:
            lo = float(np.linalg.eigvalsh(omega).min())
            assert lo >= -1e-8, f"trial {trial}: Gram product eigenvalue {lo:.3e}"
        system = sum(omegas) + np.eye(12)
        err = _rel_err(assemble_system(ws.states[0], bases, grads, mc.alpha), system)
        assert err <= 1e-10, f"trial {trial}: assembled system off by {err:.3e}"
        spd_solve(system, rng.standard_normal((12, 1)))


def check_exact_fit(seed: int) -> None:
    """One step with one package and no ridge term lands on the targets."""
    rng = np.random.default_rng(seed)
    mc = init_multi([30, 1], seed=seed, alpha=0.0)
    x0 = rng.uniform(-1, 1, (50, 30))
    lstar = rng.uniform(-1, 1, (50, 1))
    _, workspaces = mc.forward_all(x0)
    train_multi(mc, workspaces, lstar)
    residual = float(np.abs(mc.scores(x0) - lstar).max())
    assert residual <= 1e-6, f"one-step residual {residual:.3e}"


def check_identity_fragment(seed: int) -> float:
    """Constellation points traverse ten identity-initialized layers unchanged.

    Returns the measured drift of random interior points (reported, never
    asserted: interior inputs are only approximately preserved).
    """
    width = 6
    mc = init_multi([width] * 11 + [1], seed=seed, mode="identity-fragments", alpha=1.0)
    points = octahedral_points(width)
    _, (ws,) = mc.forward_all(points)
    err = float(np.abs(ws.xs[10] - points).max())
    assert err <= 1e-8, f"constellation points drifted by {err:.3e}"
    rng = np.random.default_rng(seed)
    interior = rng.uniform(-0.7, 0.7, (32, width))
    _, (ws,) = mc.forward_all(interior)
    return float(np.abs(ws.xs[10] - interior).max())


CHECKS = [
    ("closed-form-gram-inverse", check_u_equivalence),
    ("fast-naive-route-agreement", check_route_agreement),
    ("interpolation-exactness", check_interpolation),
    ("gradient-central-difference", check_gradient),
    ("training-gram-psd", check_training_gram_psd),
    ("single-package-exact-fit", check_exact_fit),
    ("identity-fragment-propagation", check_identity_fragment),
]


def run_all(seed: int = 0, report=print) -> list[CheckResult]:
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
