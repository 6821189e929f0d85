"""General-constellation reference routes that check the octahedral closed forms.

``Package`` and ``constellation`` compute everything from the octahedral
structure and never form the point matrix or the Gram inverse.  The
functions here do the same work the slow, obvious way, against an explicit
k x n point matrix: pairwise distances, the Gram inverse by ``np.linalg.inv``,
coefficients ``U @ Y``, the cardinal basis ``K @ U``, the backward sweep
through ``psi @ C``, and the per-package training Gram products.  Batches
here are rows x features, as they enter the program, where ``Package`` holds
them features x rows, so a comparison transposes one side.  Agreement
between the two is what ``verify``, ``bench`` and the tests assert; nothing in
the training or scoring path imports this module.
"""

from __future__ import annotations

import numpy as np

from .kernel import KernelParams, phi_matrix, theta_matrix
from .linalg import ensure_finite

# Pairwise squared distance at or below this counts as coincident points.
COINCIDENT_SQ_DIST = 1e-12


class SingularConstellationError(ValueError):
    """The constellation Gram matrix is not invertible (points too close?)."""


def pairwise_sq_dists(c: np.ndarray) -> np.ndarray:
    """All pairwise squared distances between rows of c (clipped at 0)."""
    sq = np.sum(c * c, axis=1, keepdims=True)
    m = sq + sq.T - 2.0 * (c @ c.T)
    # rounding can leave tiny negatives on (near-)coincident rows
    return np.maximum(m, 0.0, out=m)


def gram_inverse(points, params: KernelParams, sigma2: float = 0.0) -> np.ndarray:
    """U = (K + sigma2 I)^-1 for a k x n point matrix, by explicit inversion.

    Without a diagonal regularizer, coincident points make K singular and
    are rejected with SingularConstellationError.
    """
    c = np.asarray(points, dtype=np.float64)
    m = pairwise_sq_dists(c)
    if sigma2 == 0.0:
        off = m[~np.eye(m.shape[0], dtype=bool)]
        if off.size and off.min() <= COINCIDENT_SQ_DIST:
            raise SingularConstellationError(
                f"constellation has points closer than sq dist {COINCIDENT_SQ_DIST}; "
                "use sigma2 > 0 or separate them")
    gram = phi_matrix(m, params) + sigma2 * np.eye(c.shape[0])
    try:
        u = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularConstellationError(
            f"constellation Gram matrix is singular: {exc}; "
            "points may be too close together (consider sigma2 > 0)") from exc
    return ensure_finite(u, "gram_inverse result")


def squared_distances(x: np.ndarray, points: np.ndarray) -> np.ndarray:
    """r x k squared distances from batch rows to the points (clipped at 0)."""
    m = (np.sum(x * x, axis=1, keepdims=True) + np.sum(points * points, axis=1)[None, :]
         - 2.0 * (x @ points.T))
    return np.maximum(m, 0.0, out=m)


def coefficients(u: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Coefficient matrix from values at the points: U @ Y."""
    return u @ values


def cardinal_basis(kernel_vals: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Kernel rows mapped through the Gram inverse: K @ U."""
    return kernel_vals @ u


def backward(g_next: np.ndarray, x_in: np.ndarray, sq_dists: np.ndarray, points: np.ndarray,
             coeffs: np.ndarray, params: KernelParams) -> np.ndarray:
    """Input derivatives of one package: x * rowsum(psi) - psi @ C.

    ``psi = theta(sq_dists) * (g_next @ coeffs.T)`` is the r x k derivative
    of the output with respect to the squared distances, up to a factor 2.
    """
    psi = theta_matrix(sq_dists, params) * (g_next @ coeffs.T)
    return x_in * psi.sum(axis=1, keepdims=True) - psi @ points


def package_omegas(bases: list[np.ndarray], grads: list[np.ndarray]) -> list[np.ndarray]:
    """Per-package r x r Schur products of the basis Gram and derivative Gram."""
    return [(h @ h.T) * (g @ g.T) for h, g in zip(bases, grads)]
