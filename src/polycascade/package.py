"""One cascade layer: a family of polyharmonic splines over an octahedral constellation.

A package is defined by its input width n_in, which sets its octahedral
constellation of k = 2 n_in + 1 points, its kernel and ``sigma2``, the value
matrix ``values`` (one column per output function, one row per constellation
point), and the derived coefficient matrix ``coeffs`` used for evaluation.
Every operation uses the octahedral structure directly: the Gram inverse is
ten scalars and the points are signed unit vectors, so no point matrix or
k x k inverse is ever formed.  ``oracle`` holds the general-constellation
versions these are checked against.

Every batch array is held features x rows: a batch of c rows is X (n_in x c),
one column per row, and the distances, kernel values and cardinal basis are
k x c, one row per constellation point.  So each stage works on contiguous
row blocks of C-contiguous arrays, and a batch's rows are its columns.
Forward evaluation of a batch X:

    sq_dists    = squared distances from each column to each constellation point
    kernel_vals = elementwise kernel over sq_dists
    output      = coeffs^T @ kernel_vals        (n_out x c)

The first two stages do not depend on the values (``kernel_values``); only
the last product does (``evaluate``).  The distances are not clamped, since
their expanded form rounds to no less than zero; ``phi_matrix`` and
``theta_matrix`` clamp their inputs before the logarithm, so a forward step
clamps once.

The backward route maps the derivative of the scalar cascade output with
respect to this package's outputs (n_out x c) to the derivative with respect
to its inputs (n_in x c), through the kernel's derivative factor over the
distances, which it computes again from the batch.  So a batch needs one
k x c array between the passes: ``cardinal_basis`` writes the basis over
the kernel values, and a sweep hands that array to ``backward``, once the
basis is copied out, for its product of the coefficients and the
derivatives.

``derive_coefficients`` checks the width, kernel and ``sigma2`` when the
package is made.  Values are validated in ``set_values``: k rows at first,
the shape of the first values after that, and NaN/Inf via ``as_matrix``.  A
batch's width is checked, but the cascade scans a batch for NaN/Inf once,
where it enters.  A non-finite value made in the chain propagates into the
scores or the training system, which ``training.evaluate`` and
``cascade.train_step`` check.
"""

from __future__ import annotations

import numpy as np

from .constellation import derive_coefficients
from .kernel import KernelParams, phi_matrix, theta_matrix
from .linalg import ShapeMismatchError, as_matrix


class Package:
    """A spline package over the octahedral constellation of its input width n."""

    def __init__(self, n: int, kernel: KernelParams, values, sigma2: float = 0.0,
                 dtype=np.float64):
        self.octa_coeffs = derive_coefficients(n, kernel, sigma2)
        self.n_in, self.k = n, 2 * n + 1
        self.kernel, self.sigma2 = kernel, sigma2
        self.dtype = np.dtype(dtype)
        self.values: np.ndarray | None = None
        self.coeffs: np.ndarray | None = None
        self.set_values(values)

    @property
    def n_out(self) -> int:
        return self.values.shape[1]

    # -- forward ------------------------------------------------------------

    def squared_distances(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """k x c squared distances from the batch's columns to the points, in ``out`` when given.

        Not clamped: (|x|^2 + 1) +- 2 x_j rounds to >= 0 for every finite x,
        since rounding is monotone and (x_j +- 1)^2 >= 0, so exact hits on
        points give zeros.  The kernel routes clamp their own inputs.
        """
        if x.ndim != 2 or x.shape[0] != self.n_in:
            raise ShapeMismatchError(f"batch has shape {x.shape}, package expects {self.n_in} "
                                     "features")
        n = self.n_in
        m = np.empty((self.k, x.shape[1]), dtype=self.dtype) if out is None else out
        upper, lower = m[1:n + 1], m[n + 1:]
        # |x + e_j|^2 = (|x|^2 + 1) + 2 x_j above, |x - e_j|^2 = (|x|^2 + 1) - 2 x_j below: |x|^2 is
        # summed from x^2 in the lower rows, and each half is derived from the other in place
        np.multiply(x, x, out=lower)
        np.sum(lower, axis=0, keepdims=True, out=m[:1])
        sq_norms_1 = m[:1] + 1.0  # 1 x c
        np.multiply(x, 2.0, out=upper)
        np.subtract(sq_norms_1, upper, out=lower)
        upper += sq_norms_1
        return m

    def kernel_values(self, x, sq_dists: np.ndarray | None = None,
                      out: np.ndarray | None = None) -> np.ndarray:
        """k x c kernel values of a batch (n_in x c), in ``out`` when given.

        The distances are written into ``sq_dists`` (k x c) when given.
        """
        m = self.squared_distances(np.asarray(x, dtype=self.dtype), out=sq_dists)
        return phi_matrix(m, self.kernel, out=out)

    def evaluate(self, kernel_vals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Output (n_out x c) of a batch's kernel values at the current values, in ``out``."""
        return np.matmul(self.coeffs.T, kernel_vals, out=out)

    def forward(self, x, out: np.ndarray | None = None, sq_dists: np.ndarray | None = None,
                kernel_vals: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate the package on a batch (n_in x c): its output and ``kernel_values``.

        The output (n_out x c), distances and kernel values (k x c each) are
        written into ``out``, ``sq_dists`` and ``kernel_vals`` when given.
        """
        kernel_vals = self.kernel_values(x, sq_dists=sq_dists, out=kernel_vals)
        return self.evaluate(kernel_vals, out=out), kernel_vals

    # -- coefficient recovery -------------------------------------------------

    def coeffs_from_values(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Coefficient matrix from values at constellation points (U @ values).

        ``out`` receives the result when given, and may be ``y`` itself:
        each block of ``y`` is read before its rows are written.  The last
        n rows are built in ``out`` itself and rows 1..n in an n-row
        temporary, and one more n-row temporary holds each product they
        add, so that two are made in all.
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
        upper = np.multiply(ya, dt(oc.b1))
        term = np.multiply(yb, dt(oc.b2))
        upper += term
        upper += border
        if out is None:
            out = np.empty_like(y)
        lower = np.multiply(yb, dt(oc.b1), out=out[n + 1:, :])
        lower += np.multiply(ya, dt(oc.b2), out=term)
        lower += border
        out[1:n + 1, :] = upper
        out[:1, :] = first
        return out

    def set_values(self, values) -> None:
        """Replace the value matrix and rederive coefficients to match.

        The first values need k rows; later ones need the shape of the
        first.  Values that are rejected leave the package untouched.
        """
        y = as_matrix(values, dtype=self.dtype, name="values")
        if self.values is not None and y.shape != self.values.shape:
            raise ShapeMismatchError(f"values have shape {y.shape}, package holds "
                                     f"{self.values.shape}")
        self.coeffs = self.coeffs_from_values(y)
        self.values = y

    # -- training intermediates ------------------------------------------------

    def cardinal_basis(self, kernel_vals: np.ndarray) -> np.ndarray:
        """Kernel values mapped through the Gram inverse (U @ kernel_vals, k x c).

        Columns evaluated exactly at constellation points come out as
        identity columns, so this is the batch expressed in the
        interpolation basis.  The result is written over ``kernel_vals`` and
        returned.
        """
        return self.coeffs_from_values(kernel_vals, out=kernel_vals)

    # -- backward ------------------------------------------------------------

    def backward(self, g_next: np.ndarray, x_in: np.ndarray, out: np.ndarray | None = None,
                 sq_dists: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray:
        """Propagate output derivatives g_next (n_out x c) to input derivatives (n_in x c).

        Uses the kernel derivative factor over the squared distances of the
        batch ``x_in`` (n_in x c), computed again here, in ``sq_dists``
        (k x c) when given, with the bits ``forward`` computed them with; the
        factor theta, clamped by ``theta_matrix``, and then psi are written
        over them.  ``coeffs @ g_next`` is written into ``scratch`` (k x c)
        when given, and the difference of psi's halves over its upper half,
        so the call makes no temporary of the batch's size.  The result is
        written into ``out`` when given, which may be ``x_in`` itself.
        """
        if g_next.shape != (self.n_out, x_in.shape[1]):
            raise ShapeMismatchError(
                f"g_next shape {g_next.shape} != ({self.n_out}, {x_in.shape[1]})")
        n = self.n_in
        m = self.squared_distances(x_in, out=sq_dists)
        psi = theta_matrix(m, self.kernel, out=m)
        psi *= np.matmul(self.coeffs, g_next, out=scratch)  # k x c
        sums = psi.sum(axis=0, keepdims=True)
        upper = np.subtract(psi[1:n + 1], psi[n + 1:], out=psi[1:n + 1])
        out = np.multiply(x_in, sums, out=out)
        out += upper
        return out
