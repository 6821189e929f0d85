"""One cascade layer: a family of polyharmonic splines over an octahedral constellation.

A package is defined by its constellation, the value matrix ``values`` (one
column per output function, one row per constellation point), and the derived
coefficient matrix ``coeffs`` used for evaluation.  Every operation uses the
octahedral structure directly: the Gram inverse is ten scalars and the
points are signed unit vectors, so no point matrix or k x k inverse is ever
formed.  ``oracle`` holds the general-constellation versions these are
checked against.

Forward evaluation of a batch X (r x n_in):

    sq_dists  = squared distances from each row to each constellation point
    kernel_vals = elementwise kernel over sq_dists
    output    = kernel_vals @ coeffs

The first two stages do not depend on the values (``batch_state``); only the
last product does (``evaluate``).

The backward route maps the derivative of the scalar cascade output with
respect to this package's outputs to the derivative with respect to its
inputs, through the kernel's derivative factor.

The training intermediates are written in place: ``cardinal_basis`` writes
the basis over the kernel values and ``backward`` writes its derivative
factors over the squared distances, and each drops the array it consumed
from the state, so a state holds about half the arrays it would otherwise.

Values are validated (shape, and NaN/Inf via ``as_matrix``) in
``set_values``; a batch's width is checked, but the cascade scans a batch
for NaN/Inf once, where it enters.  A non-finite value made in the chain
propagates into the scores or the training system, which
``training.finite_scores`` and ``cascade.train_step`` check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, derive_coefficients
from .kernel import KernelParams, phi_matrix, theta_matrix
from .linalg import ShapeMismatchError, as_matrix


@dataclass
class PackageBatchState:
    """Per-batch intermediates retained between forward and training phases.

    Nothing here depends on the package's values, so one state stays valid
    across value updates and serves every package with the same
    constellation and kernel: the replicas of a multi-output model all read
    one layer-1 state.  ``sq_dists`` is kept only by ``forward``, for
    ``backward``; ``batch_state`` drops it.

    Two fields are consumed.  ``cardinal_basis`` writes ``basis`` over
    ``kernel_vals`` and sets ``kernel_vals`` to None, so the state can no
    longer be evaluated; ``backward`` writes its derivative factors over
    ``sq_dists`` and sets it to None, so it runs once per state.  Either
    raises ValueError on a state whose array is gone.  A cascade's
    training sweep also writes input derivatives over the ``x_in`` of its
    own states (see ``cascade.backward_quantities``) and sets it to None.
    """

    x_in: np.ndarray | None
    sq_dists: np.ndarray | None = None
    kernel_vals: np.ndarray | None = None
    basis: np.ndarray | None = None  # kernel_vals @ U, in kernel_vals' memory, filled lazily
    # set by cascade.train_multi on a shared layer-1 state only (d > 1): basis @ basis.T,
    # a view of the caller's training buffers that every replica of the batch reads
    gram: np.ndarray | None = None


class Package:
    """A polyharmonic spline package with consistent value/coefficient matrices."""

    def __init__(self, constellation: Constellation, kernel: KernelParams, values,
                 dtype=np.float64):
        self.constellation = constellation
        self.kernel = kernel
        self.dtype = np.dtype(dtype)
        self.octa_coeffs = derive_coefficients(constellation.n, kernel, constellation.sigma2)
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

    # -- forward ------------------------------------------------------------

    def squared_distances(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """r x k matrix of squared distances from batch rows to the points, in ``out`` when given."""
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ShapeMismatchError(f"batch has shape {x.shape}, package expects width "
                                     f"{self.n_in}")
        n = self.n_in
        sq_norms = np.sum(x * x, axis=1, keepdims=True)  # r x 1
        m = np.empty((x.shape[0], self.k), dtype=self.dtype) if out is None else out
        m[:, :1] = sq_norms
        # |x - (+-e_j)|^2 = |x|^2 + 1 +- 2 x_j, written in place without full-size temporaries
        np.multiply(x, 2.0, out=m[:, 1:n + 1])
        np.multiply(x, -2.0, out=m[:, n + 1:])
        m[:, 1:] += sq_norms + 1.0
        # exact hits on constellation points can round to tiny negatives
        np.maximum(m, 0.0, out=m)
        return m

    def batch_state(self, x, sq_dists: np.ndarray | None = None,
                    kernel_vals: np.ndarray | None = None) -> PackageBatchState:
        """Value-independent intermediates of a batch, without the distances.

        Enough to evaluate the package and build its cardinal basis; the
        layer-1 state every replica shares is built here, since training
        never runs ``backward`` on the first package.  The distances and
        kernel values are written into ``sq_dists`` and ``kernel_vals``
        (r x k each) when given.
        """
        x = np.asarray(x, dtype=self.dtype)
        m = self.squared_distances(x, out=sq_dists)
        return PackageBatchState(x_in=x, kernel_vals=phi_matrix(m, self.kernel, out=kernel_vals))

    def evaluate(self, state: PackageBatchState, out: np.ndarray | None = None) -> np.ndarray:
        """Package output for a prepared batch with the current values, in ``out`` when given."""
        if state.kernel_vals is None:
            raise ValueError("state holds no kernel values; cardinal_basis() consumed them, "
                             "or it was never prepared")
        return np.matmul(state.kernel_vals, self.coeffs, out=out)

    def forward(self, x, out: np.ndarray | None = None, sq_dists: np.ndarray | None = None,
                kernel_vals: np.ndarray | None = None) -> tuple[np.ndarray, PackageBatchState]:
        """Evaluate the package on a batch; the state keeps what backward needs.

        The output (r x n_out), distances and kernel values (r x k each) are
        written into ``out``, ``sq_dists`` and ``kernel_vals`` when given.
        """
        x = np.asarray(x, dtype=self.dtype)
        m = self.squared_distances(x, out=sq_dists)
        state = PackageBatchState(x_in=x, sq_dists=m,
                                  kernel_vals=phi_matrix(m, self.kernel, out=kernel_vals))
        return self.evaluate(state, out=out), state

    # -- coefficient recovery -------------------------------------------------

    def coeffs_from_values(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Coefficient matrix from values at constellation points (U @ values).

        ``out`` receives the result when given, and may be ``y`` itself:
        each block of ``y`` is read before its rows are written.  The last
        n rows are built in ``out`` itself, so that at most two n-row
        temporaries are alive at once.
        """
        if y.shape[0] != self.k:
            raise ShapeMismatchError(f"values have {y.shape[0]} rows, constellation has {self.k}")
        oc = self.octa_coeffs
        n = self.n_in
        dt = self.dtype.type
        y1 = y[:1, :]
        ya, yb = y[1:n + 1, :], y[n + 1:, :]
        ys = y[1:, :].sum(axis=0, keepdims=True)
        first = dt(oc.u1) * y1 + dt(oc.u2) * ys
        border = dt(oc.u2) * y1 + dt(oc.b3) * ys
        upper = dt(oc.b1) * ya + dt(oc.b2) * yb + border
        if out is None:
            out = np.empty_like(y)
        lower = np.multiply(yb, dt(oc.b1), out=out[n + 1:, :])
        lower += dt(oc.b2) * ya
        lower += border
        out[1:n + 1, :] = upper
        out[:1, :] = first
        return out

    def set_values(self, values) -> None:
        """Replace the value matrix and rederive coefficients to match."""
        y = as_matrix(values, dtype=self.dtype, name="values")
        self.coeffs = self.coeffs_from_values(y)
        self.values = y

    # -- training intermediates ------------------------------------------------

    def cardinal_basis(self, state: PackageBatchState) -> np.ndarray:
        """Kernel rows mapped through the Gram inverse (kernel_vals @ U).

        Rows evaluated exactly at constellation points come out as identity
        rows, so this is the batch expressed in the interpolation basis.
        The result is written over the state's kernel values, which the
        state then drops, and is cached on the state.
        """
        if state.basis is None:
            if state.kernel_vals is None:
                raise ValueError("state holds no kernel values; was forward() run on this package?")
            # U is symmetric, so kernel_vals @ U = (U @ kernel_vals.T).T
            kt = state.kernel_vals.T
            state.basis = self.coeffs_from_values(kt, out=kt).T
            state.kernel_vals = None
        return state.basis

    # -- backward ------------------------------------------------------------

    def backward(self, g_next: np.ndarray, state: PackageBatchState,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Propagate output derivatives g_next (r x n_out) to input derivatives (r x n_in).

        Uses the kernel derivative factor over the stored squared distances;
        needs the state produced by forward() on the same batch.  The factor
        theta and then psi are written over the distances, which the state
        then drops, so backward runs once per state.  The result is written
        into ``out`` when given.
        """
        if state.sq_dists is None:
            raise ValueError("state holds no squared distances; backward needs a forward() "
                             "state, once")
        if g_next.shape != (state.x_in.shape[0], self.n_out):
            raise ShapeMismatchError(
                f"g_next shape {g_next.shape} != ({state.x_in.shape[0]}, {self.n_out})")
        n = self.n_in
        psi = theta_matrix(state.sq_dists, self.kernel, out=state.sq_dists)
        state.sq_dists = None
        psi *= g_next @ self.coeffs.T  # r x k
        out = np.multiply(state.x_in, psi.sum(axis=1, keepdims=True), out=out)
        out += psi[:, 1:n + 1] - psi[:, n + 1:]
        return out
