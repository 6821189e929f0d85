"""One cascade layer: a family of polyharmonic splines over a shared constellation.

A package is defined by its constellation, the value matrix ``values`` (one
column per output function, one row per constellation point), and the derived
coefficient matrix ``coeffs`` used for evaluation.  Every operation exists in
two routes: a ``naive`` route written against the explicit point matrix, and
a ``fast`` route valid only for octahedral constellations, where the special
structure removes the large matrix products.  The two routes are mutually
checking oracles; ``auto`` picks fast for octahedral constellations.

Forward evaluation of a batch X (r x n_in):

    sq_dists  = squared distances from each row to each constellation point
    kernel_vals = elementwise kernel over sq_dists
    output    = kernel_vals @ coeffs

The first two stages do not depend on the values (``batch_state``); only the
last product does (``evaluate``).

The backward route maps the derivative of the scalar cascade output with
respect to this package's outputs to the derivative with respect to its
inputs, through the kernel's derivative factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, OctaCoefficients, derive_coefficients, explicit_u
from .kernel import KernelParams, phi_matrix, theta_matrix
from .linalg import ShapeMismatchError, as_matrix, ensure_finite, hadamard, matmul

PATHS = ("auto", "fast", "naive")


@dataclass
class PackageBatchState:
    """Per-batch intermediates retained between forward and training phases.

    Nothing here depends on the package's values, so one state stays valid
    across value updates and serves every package with the same
    constellation and kernel: the replicas of a multi-output model all read
    one layer-1 state.  ``sq_dists`` and ``kernel_vals`` are absent when the
    caller supplied a precomputed cardinal basis for this batch (first-layer
    cache).
    """

    x_in: np.ndarray
    sq_dists: np.ndarray | None = None
    kernel_vals: np.ndarray | None = None
    basis: np.ndarray | None = None  # kernel_vals @ U, filled lazily
    gram: np.ndarray | None = None  # basis @ basis.T, cached by train_step on layer 1 only


class Package:
    """A polyharmonic spline package with consistent value/coefficient matrices."""

    def __init__(self, constellation: Constellation, kernel: KernelParams, values,
                 dtype=np.float64, path: str = "auto"):
        if path not in PATHS:
            raise ValueError(f"path must be one of {PATHS}, got {path!r}")
        self.constellation = constellation
        self.kernel = kernel
        self.dtype = np.dtype(dtype)
        self.default_path = path
        self._octa: OctaCoefficients | None = None
        self._u: np.ndarray | None = None  # explicit Gram inverse, cached on demand
        if constellation.kind == "octahedral":
            self._octa = derive_coefficients(constellation.n, kernel, constellation.sigma2)
        self.values: np.ndarray | None = None
        self.coeffs: np.ndarray | None = None
        self.set_values(values)

    @property
    def n_in(self) -> int:
        return self.constellation.n

    @property
    def n_out(self) -> int:
        return self.values.shape[1]

    @property
    def k(self) -> int:
        return self.constellation.k

    @property
    def octa_coeffs(self) -> OctaCoefficients | None:
        return self._octa

    def _resolve_path(self, path: str | None) -> str:
        p = path or self.default_path
        if p == "auto":
            return "fast" if self.constellation.kind == "octahedral" else "naive"
        if p == "fast" and self.constellation.kind != "octahedral":
            raise ValueError("fast path requires an octahedral constellation")
        return p

    def u_matrix(self) -> np.ndarray:
        """Explicit Gram inverse, cached; the naive route works through it."""
        if self._u is None:
            self._u = explicit_u(self.constellation, self.kernel, dtype=self.dtype).astype(
                self.dtype, copy=False)
        return self._u

    # -- forward ------------------------------------------------------------

    def squared_distances(self, x, path: str | None = None) -> np.ndarray:
        """r x k matrix of squared distances from batch rows to the points."""
        x = as_matrix(x, dtype=self.dtype, name="batch input")
        if x.shape[1] != self.n_in:
            raise ShapeMismatchError(f"batch has width {x.shape[1]}, package expects {self.n_in}")
        p = self._resolve_path(path)
        sq_norms = np.sum(x * x, axis=1, keepdims=True)  # r x 1
        if p == "fast":
            n = self.n_in
            m = np.empty((x.shape[0], self.k), dtype=self.dtype)
            m[:, :1] = sq_norms
            m[:, 1:n + 1] = sq_norms + 1.0 + 2.0 * x
            m[:, n + 1:] = sq_norms + 1.0 - 2.0 * x
        else:
            c = self.constellation.materialize_points().astype(self.dtype, copy=False)
            c_norms = np.sum(c * c, axis=1)  # k
            m = sq_norms + c_norms[None, :] - 2.0 * (x @ c.T)
        # exact hits on constellation points can round to tiny negatives
        np.maximum(m, 0.0, out=m)
        return m

    def batch_state(self, x, basis=None, path: str | None = None) -> PackageBatchState:
        """Value-independent intermediates of a batch: distances and kernel values.

        With ``basis`` (precomputed cardinal-basis rows for this batch) the
        distance and kernel stages are skipped and the state holds the basis.
        """
        x = as_matrix(x, dtype=self.dtype, name="batch input")
        if x.shape[1] != self.n_in:
            raise ShapeMismatchError(f"batch has width {x.shape[1]}, package expects {self.n_in}")
        if basis is not None:
            basis = as_matrix(basis, dtype=self.dtype, name="cardinal basis")
            if basis.shape != (x.shape[0], self.k):
                raise ShapeMismatchError(
                    f"basis has shape {basis.shape}, expected {(x.shape[0], self.k)}")
            return PackageBatchState(x_in=x, basis=basis)
        m = self.squared_distances(x, path=path)
        return PackageBatchState(x_in=x, sq_dists=m, kernel_vals=phi_matrix(m, self.kernel))

    def evaluate(self, state: PackageBatchState) -> np.ndarray:
        """Package output for a prepared batch with the current values.

        ``kernel_vals @ coeffs``, or ``basis @ values`` when the state holds
        only a precomputed basis.
        """
        if state.kernel_vals is None:
            return matmul(state.basis, self.values)
        return matmul(state.kernel_vals, self.coeffs)

    def forward(self, x, path: str | None = None) -> tuple[np.ndarray, PackageBatchState]:
        """Evaluate the package on a batch; retains intermediates for training."""
        state = self.batch_state(x, path=path)
        return self.evaluate(state), state

    # -- coefficient recovery -------------------------------------------------

    def coeffs_from_values(self, values, path: str | None = None) -> np.ndarray:
        """Coefficient matrix from values at constellation points (U @ values)."""
        y = as_matrix(values, dtype=self.dtype, name="values")
        if y.shape[0] != self.k:
            raise ShapeMismatchError(f"values have {y.shape[0]} rows, constellation has {self.k}")
        p = self._resolve_path(path)
        if p == "naive":
            return matmul(self.u_matrix(), y)
        oc = self._octa
        n = self.n_in
        dt = self.dtype.type
        y1 = y[:1, :]
        ya, yb = y[1:n + 1, :], y[n + 1:, :]
        ys = y[1:, :].sum(axis=0, keepdims=True)
        out = np.empty_like(y)
        out[:1, :] = dt(oc.u1) * y1 + dt(oc.u2) * ys
        border = dt(oc.u2) * y1 + dt(oc.b3) * ys
        out[1:n + 1, :] = dt(oc.b1) * ya + dt(oc.b2) * yb + border
        out[n + 1:, :] = dt(oc.b1) * yb + dt(oc.b2) * ya + border
        return ensure_finite(out, "coefficients")

    def set_values(self, values) -> None:
        """Replace the value matrix and rederive coefficients to match."""
        y = as_matrix(values, dtype=self.dtype, name="values")
        if y.shape[0] != self.constellation.k:
            raise ShapeMismatchError(
                f"values have {y.shape[0]} rows, constellation has {self.constellation.k}")
        self.values = y
        self.coeffs = self.coeffs_from_values(y)

    # -- training intermediates ------------------------------------------------

    def cardinal_basis(self, state: PackageBatchState, path: str | None = None) -> np.ndarray:
        """Kernel rows mapped through the Gram inverse (kernel_vals @ U).

        Rows evaluated exactly at constellation points come out as identity
        rows, so this is the batch expressed in the interpolation basis.
        The result is cached on the state.
        """
        if state.basis is not None:
            return state.basis
        kv = state.kernel_vals
        if kv is None:
            raise ValueError("state holds no kernel values; was forward() run on this package?")
        p = self._resolve_path(path)
        if p == "naive":
            basis = matmul(kv, self.u_matrix())
        else:
            oc = self._octa
            n = self.n_in
            dt = self.dtype.type
            k1c = kv[:, :1]
            ka, kb = kv[:, 1:n + 1], kv[:, n + 1:]
            ks = kv[:, 1:].sum(axis=1, keepdims=True)
            basis = np.empty_like(kv)
            basis[:, :1] = dt(oc.u1) * k1c + dt(oc.u2) * ks
            border = dt(oc.u2) * k1c + dt(oc.b3) * ks
            basis[:, 1:n + 1] = dt(oc.b1) * ka + dt(oc.b2) * kb + border
            basis[:, n + 1:] = dt(oc.b1) * kb + dt(oc.b2) * ka + border
            ensure_finite(basis, "cardinal basis")
        state.basis = basis
        return basis

    # -- backward ------------------------------------------------------------

    def backward(self, g_next, state: PackageBatchState, path: str | None = None,
                 return_psi: bool = False):
        """Propagate output derivatives g_next (r x n_out) to input derivatives.

        Uses the kernel derivative factor over the stored squared distances;
        needs the state produced by forward() on the same batch.
        """
        g_next = as_matrix(g_next, dtype=self.dtype, name="g_next")
        if state.sq_dists is None:
            raise ValueError("state holds no squared distances; backward needs a full forward state")
        if g_next.shape != (state.x_in.shape[0], self.n_out):
            raise ShapeMismatchError(
                f"g_next shape {g_next.shape} != ({state.x_in.shape[0]}, {self.n_out})")
        p = self._resolve_path(path)
        th = theta_matrix(state.sq_dists, self.kernel)
        psi = hadamard(th, matmul(g_next, self.coeffs.T))  # r x k
        row_sums = psi.sum(axis=1, keepdims=True)
        if p == "fast":
            n = self.n_in
            g_prev = state.x_in * row_sums + (psi[:, 1:n + 1] - psi[:, n + 1:])
        else:
            c = self.constellation.materialize_points().astype(self.dtype, copy=False)
            g_prev = state.x_in * row_sums - matmul(psi, c)
        ensure_finite(g_prev, "backward result")
        if return_psi:
            return g_prev, psi
        return g_prev
