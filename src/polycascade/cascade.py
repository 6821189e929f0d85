"""Multi-output cascades: construction, initialization, batched forward, and training.

A model is a ``MultiOutputCascade`` of d >= 1 single-output replicas, built
from its widths, hyperparameters and value matrices; ``init_multi`` draws
the values and ``snapshot.load_snapshot`` reads them.  Each batch runs
through ``forward_all`` and then ``train_multi``, which takes one training
step per replica; ``scores`` evaluates without keeping training
intermediates.

Training never uses gradient descent: after a forward pass, the
derivative matrices are propagated backward, each package contributes an
r x r Schur-product Gram matrix, their regularized sum is solved for a single
batch vector, and that vector updates every package's value matrix
independently.  The system is built a panel of rows at a time: each
package's Gram products for those rows are computed into two small panel
buffers that stay in cache and combined into the lower triangle, which is
then mirrored once.  The system and the solve's factor buffer are two r x r
arrays that every replica of a batch reuses.

The replicas have independent value matrices and share the architecture and
hyperparameters.  Every replica's first package has the same constellation
and kernel, so the layer-1 distances, kernel values, cardinal basis, basis
Gram product and system buffers are computed or allocated once per batch
(or scoring chunk) and shared by all replicas.  Layer 1 then acts as one
package with d * n1 outputs: one product over the replicas' stacked
coefficients gives every layer-1 output, and one product over their stacked
derivative blocks gives every layer-1 value update.  The derivative Grams
and the solve stay per replica.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, build_octahedral, octahedral_points
from .kernel import KernelParams
from .linalg import (NonFiniteError, NotSPDError, ShapeMismatchError, as_matrix, resolve_dtype,
                     spd_solve)
from .package import Package, PackageBatchState

logger = logging.getLogger(__name__)

INIT_MODES = ("random", "identity-fragments")

# rows per assembly panel: two P x r products per package stay in cache
PANEL_ROWS = 128
_STRICT_UPPER = np.triu(np.ones((PANEL_ROWS, PANEL_ROWS), dtype=bool), 1)


@dataclass
class CascadeBatchWorkspace:
    """Everything retained between a forward pass and the training step."""

    xs: list[np.ndarray]  # X0 .. Xq
    states: list[PackageBatchState]  # states[0] may be shared with other replicas

    @property
    def output(self) -> np.ndarray:
        return self.xs[-1]

    @property
    def batch_rows(self) -> int:
        return self.xs[0].shape[0]


@dataclass
class TrainStepReport:
    """Residual and solve diagnostics for one training step."""

    residual_before_inf: float
    residual_before_rms: float
    b_inf: float
    solve_residual_inf: float


@dataclass
class Cascade:
    """One single-output replica: its packages in order, built by ``MultiOutputCascade``."""

    packages: list[Package]

    @property
    def q(self) -> int:
        return len(self.packages)


def _random_values(rng: np.random.Generator, k: int, n_out: int, dtype) -> np.ndarray:
    y = rng.uniform(-1.0, 1.0, size=(k, n_out))
    norms = np.linalg.norm(y, axis=1, keepdims=True)
    y /= np.maximum(norms, 1e-12)
    return y.astype(dtype, copy=False)


def forward_batch(cascade: Cascade, layer1: PackageBatchState, x1: np.ndarray,
                  ) -> CascadeBatchWorkspace:
    """One replica's packages 2..q on its layer-1 output ``x1``, retaining training intermediates.

    ``layer1`` is the batch's shared layer-1 state (``forward_all``); it keeps
    no squared distances, since training never runs ``backward`` on the
    first package.
    """
    xs = [layer1.x_in, x1]
    states = [layer1]
    for pkg in cascade.packages[1:]:
        out, state = pkg.forward(xs[-1])
        xs.append(out)
        states.append(state)
    return CascadeBatchWorkspace(xs=xs, states=states)


def _layer1_outputs(replicas: list[Cascade], layer1: PackageBatchState) -> np.ndarray:
    """Every replica's layer-1 output as one r x (d * n1) product over stacked coefficients."""
    return layer1.kernel_vals @ np.hstack([c.packages[0].coeffs for c in replicas])


def backward_quantities(cascade: Cascade, ws: CascadeBatchWorkspace,
                        ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Cardinal bases and output-derivative matrices for every package.

    The derivative chain starts from a column of ones at the cascade output
    and never descends below the first package (its input derivative is
    unused by training).
    """
    q = cascade.q
    bases = [pkg.cardinal_basis(state) for pkg, state in zip(cascade.packages, ws.states)]
    grads: list[np.ndarray | None] = [None] * q
    grads[q - 1] = np.ones((ws.batch_rows, 1), dtype=ws.output.dtype)
    for i in range(q - 1, 0, -1):
        grads[i - 1] = cascade.packages[i].backward(grads[i], ws.states[i])
    return bases, grads


def assemble_system(layer1: PackageBatchState, bases: list[np.ndarray], grads: list[np.ndarray],
                    alpha: float) -> np.ndarray:
    """The regularized training system sum_i (H_i H_i^T) * (G_i G_i^T) + alpha I.

    Built in panels of ``PANEL_ROWS`` rows.  For rows I = i0:i1, every
    package's term of the lower block ``system[I, :i1]`` is accumulated in
    place from two panel products, ``H[I] @ H[:i1].T`` and
    ``G[I] @ G[:i1].T``, whose P x r buffers stay in cache; the finished
    panel is then mirrored once into the upper triangle, so the whole
    symmetric matrix is returned.  H_1 H_1^T is cached on ``layer1`` as
    ``gram``.  The last package's G is a column of ones, so its H H^T is
    added alone.  The system buffer and the solve's factor buffer are
    allocated on the first step that uses ``layer1`` and reused by every
    replica sharing it; the returned system is overwritten by the next.
    """
    r = layer1.x_in.shape[0]
    dt = layer1.x_in.dtype
    if layer1.system_buffers is None:
        layer1.system_buffers = (np.empty((r, r), dtype=dt), np.empty((r, r), dtype=dt))
    system = layer1.system_buffers[0]
    if layer1.gram is None:
        layer1.gram = bases[0] @ bases[0].T
    h_buf = np.empty(min(PANEL_ROWS, r) * r, dtype=dt)
    g_buf = np.empty_like(h_buf)
    for i0 in range(0, r, PANEL_ROWS):
        rows = slice(i0, min(i0 + PANEL_ROWS, r))
        i1 = rows.stop
        panel = system[rows, :i1]
        hh = h_buf[:panel.size].reshape(panel.shape)
        gg = g_buf[:panel.size].reshape(panel.shape)
        if len(bases) == 1:
            np.copyto(panel, layer1.gram[rows, :i1])
        else:
            g1 = grads[0]
            np.multiply(layer1.gram[rows, :i1], np.matmul(g1[rows], g1[:i1].T, out=gg), out=panel)
            for h, g in zip(bases[1:-1], grads[1:-1]):
                panel += np.multiply(np.matmul(h[rows], h[:i1].T, out=hh),
                                     np.matmul(g[rows], g[:i1].T, out=gg), out=hh)
            last = bases[-1]
            panel += np.matmul(last[rows], last[:i1].T, out=hh)
        # mirror the finished rows; the diagonal block's upper half too, so s == s.T exactly
        system[:i0, rows] = panel[:, :i0].T
        block = system[rows, rows]
        np.copyto(block, block.T, where=_STRICT_UPPER[:block.shape[0], :block.shape[0]])
    system[np.diag_indices(r)] += dt.type(alpha)
    return system


def train_step(cascade: Cascade, ws: CascadeBatchWorkspace, lstar: np.ndarray,
               layer1_update: np.ndarray, alpha: float) -> TrainStepReport:
    """One replica's training step on the batch held in its workspace.

    Builds the model's alpha-regularized system (``assemble_system``), solves it for
    the batch vector b against the r x 1 targets ``lstar``, applies the
    value updates H^T (G * b) of packages 2..q from the pre-update
    intermediates, and writes G1 * b into ``layer1_update`` (r x n1) for
    ``train_multi`` to apply.  A NaN or Inf anywhere upstream reaches the
    system or its right-hand side and raises ``NonFiniteError`` before any
    update.
    """
    delta_l = lstar - ws.output
    bases, grads = backward_quantities(cascade, ws)
    layer1 = ws.states[0]
    system = assemble_system(layer1, bases, grads, alpha)
    if not (np.isfinite(system).all() and np.isfinite(delta_l).all()):
        raise NonFiniteError("training system or output residual contains NaN or Inf")
    b_vec = spd_solve(system, delta_l, factor_buf=layer1.system_buffers[1])
    solve_residual = float(np.abs(system @ b_vec - delta_l).max())

    # all updates are computed against pre-update intermediates, then applied
    for pkg, h, g in zip(cascade.packages[1:], bases[1:], grads[1:]):
        pkg.set_values(pkg.values + h.T @ (g * b_vec))
    np.multiply(grads[0], b_vec, out=layer1_update)
    return TrainStepReport(
        residual_before_inf=float(np.abs(delta_l).max()),
        residual_before_rms=float(np.sqrt(np.mean(delta_l ** 2))),
        b_inf=float(np.abs(b_vec).max()),
        solve_residual_inf=solve_residual,
    )


class MultiOutputCascade:
    """One single-output cascade replica per output dimension.

    ``widths`` is the single-output core, ending in 1, and ``values[j][i]``
    is replica j's value matrix for package i, of shape
    (2 * widths[i] + 1, widths[i + 1]).  One constellation per depth serves
    every replica, so the replicas share widths, kernel, ``sigma2``, alpha
    and precision by construction.
    """

    def __init__(self, widths, values, alpha: float, kernel: KernelParams, sigma2: float = 0.0,
                 dtype="float64"):
        self.widths = [int(w) for w in widths]
        if len(self.widths) < 2 or min(self.widths) < 1 or self.widths[-1] != 1:
            raise ValueError(f"need at least two positive widths ending in 1, got {self.widths}")
        if not values:
            raise ValueError("need at least one replica")
        if not alpha >= 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.alpha, self.kernel, self.sigma2 = float(alpha), kernel, float(sigma2)
        self.dtype = resolve_dtype(dtype)
        constellations = [build_octahedral(n, sigma2=self.sigma2) for n in self.widths[:-1]]
        self.replicas = []
        for j, matrices in enumerate(values):
            if len(matrices) != len(constellations):
                raise ValueError(f"replica {j}: {len(matrices)} value matrices for "
                                 f"{len(constellations)} packages")
            packages = []
            for i, (c, n_out, y) in enumerate(zip(constellations, self.widths[1:], matrices)):
                if np.shape(y) != (c.k, n_out):
                    raise ShapeMismatchError(f"replica {j} package {i}: values shape "
                                             f"{np.shape(y)} != {(c.k, n_out)}")
                packages.append(Package(c, kernel, y, dtype=self.dtype))
            self.replicas.append(Cascade(packages))

    @property
    def d(self) -> int:
        return len(self.replicas)

    def parameter_count(self) -> int:
        return sum(p.values.size for c in self.replicas for p in c.packages)

    def forward_all(self, x0) -> tuple[np.ndarray, list[CascadeBatchWorkspace]]:
        """Outputs of all replicas as columns of an r x d matrix, with their workspaces.

        Layer 1 is prepared once and every replica's workspace shares that
        state (and the basis, Gram and system buffers that training caches
        on it); one product gives every replica's layer-1 output, and
        ``forward_batch`` runs each replica's packages 2..q.
        """
        layer1 = self.replicas[0].packages[0].batch_state(x0)
        # each workspace keeps its own contiguous copy, so the stacked product is freed
        x1 = np.hsplit(_layer1_outputs(self.replicas, layer1), self.d)
        workspaces = [forward_batch(c, layer1, np.ascontiguousarray(y))
                      for c, y in zip(self.replicas, x1)]
        return np.hstack([ws.output for ws in workspaces]), workspaces

    def scores(self, x0, chunk_rows: int = 4096) -> np.ndarray:
        """Replica outputs without retaining workspaces; chunked to bound memory."""
        x0 = as_matrix(x0, dtype=self.dtype, name="batch input")
        out = np.empty((x0.shape[0], self.d), dtype=self.dtype)
        for lo in range(0, x0.shape[0], chunk_rows):
            rows = slice(lo, lo + chunk_rows)
            out[rows] = self._score_chunk(x0[rows])
        return out

    def _score_chunk(self, x) -> np.ndarray:
        """One chunk: a shared layer-1 state and product, then each replica forward-only.

        The layer-1 kernel values are dropped once the layer-1 outputs exist,
        and each package's intermediates once the next output exists.
        """
        layer1 = self.replicas[0].packages[0].batch_state(x)
        x1 = _layer1_outputs(self.replicas, layer1)
        del layer1
        cols = []
        for c, y in zip(self.replicas, np.hsplit(x1, self.d)):
            for pkg in c.packages[1:]:
                y, _ = pkg.forward(y)
            cols.append(y)
        return np.hstack(cols)

    def predict(self, x0) -> np.ndarray:
        """Per-row argmax over replica outputs; ties go to the lowest index."""
        return np.argmax(self.scores(x0), axis=1)


def init_multi(arch_widths, seed: int, mode: str = "random", alpha: float = 1.0,
               kernel: KernelParams | None = None, sigma2: float = 0.0,
               dtype="float64") -> MultiOutputCascade:
    """Build a model of single-output replicas from widths whose last entry is their count.

    ``arch_widths = [784, 100, 20, 20, 10]`` yields ten replicas of the
    octahedral single-output core [784, 100, 20, 20, 1]; replica j draws its
    values from ``seed + j``.  ``random`` fills each value matrix uniformly
    in [-1, 1] and normalizes rows to unit length.  ``identity-fragments``
    sets values equal to the constellation points wherever a package has
    equal input and output widths (so those layers start as near-identity
    maps) and falls back to random initialization elsewhere.
    """
    if mode not in INIT_MODES:
        raise ValueError(f"init mode must be one of {INIT_MODES}, got {mode!r}")
    widths = [int(w) for w in arch_widths]
    core = widths[:-1] + [1]
    pairs = list(zip(core, core[1:]))
    identity = mode == "identity-fragments"
    degraded = [i for i, (n_in, n_out) in enumerate(pairs) if n_in != n_out]
    if identity and degraded:
        logger.info("identity-fragments: packages %s have unequal widths, used random init",
                    degraded)
    dt = resolve_dtype(dtype)
    values = []
    for j in range(widths[-1]):
        rng = np.random.default_rng(seed + j)
        values.append([octahedral_points(n_in, dtype=dt) if identity and n_in == n_out
                       else _random_values(rng, Constellation(n_in).k, n_out, dt)
                       for n_in, n_out in pairs])
    return MultiOutputCascade(core, values, alpha, kernel or KernelParams(), sigma2, dt)


def train_multi(mc: MultiOutputCascade, workspaces: list[CascadeBatchWorkspace],
                targets) -> list[TrainStepReport]:
    """Train every replica on one batch, replica j against target column j.

    The workspaces must come from one ``forward_all`` call, and ``targets``
    is r x d.  Each replica's ``train_step`` updates its packages 2..q and
    writes G1 * b into its column block of one r x (d * n1) array; one
    product then applies every layer-1 update.  The workspaces are consumed:
    once a replica's step is done, its workspace keeps only the shared
    layer-1 state.  If replica j fails, replicas before it are fully
    updated, layer 1 included, and replica j is untouched.  A non-SPD system
    is re-raised with the failing replica's index.
    """
    if len(workspaces) != mc.d:
        raise ValueError(f"got {len(workspaces)} workspaces for {mc.d} replicas")
    layer1 = workspaces[0].states[0]
    if any(ws.states[0] is not layer1 for ws in workspaces):
        raise ValueError("workspaces must share one layer-1 state (use forward_all)")
    targets = as_matrix(targets, dtype=mc.dtype, name="targets")
    outputs_shape = (workspaces[0].batch_rows, mc.d)
    if targets.shape != outputs_shape:
        raise ShapeMismatchError(f"targets shape {targets.shape} != outputs shape {outputs_shape}")
    n1 = mc.replicas[0].packages[0].n_out
    scaled = np.empty((workspaces[0].batch_rows, mc.d * n1), dtype=mc.dtype)
    reports = []
    try:
        for i, (c, ws) in enumerate(zip(mc.replicas, workspaces)):
            try:
                reports.append(train_step(c, ws, targets[:, i:i + 1],
                                          scaled[:, i * n1:(i + 1) * n1], mc.alpha))
            except NotSPDError as exc:
                raise NotSPDError(f"replica {i}: {exc}") from exc
            del ws.xs[1:], ws.states[1:]
    finally:
        layer1.system_buffers = None
        if reports:
            # H1^T (G1 * b) of every trained replica in one product
            deltas = layer1.basis.T @ scaled[:, :len(reports) * n1]
            for c, delta in zip(mc.replicas, np.hsplit(deltas, len(reports))):
                first = c.packages[0]
                first.set_values(first.values + delta)
    return reports


def one_hot_pm1(labels, num_classes: int, dtype=np.float64) -> np.ndarray:
    """Targets for classification: +1 for the true class, -1 elsewhere."""
    labels = np.asarray(labels).astype(np.int64).ravel()
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"labels outside [0, {num_classes})")
    t = -np.ones((labels.size, num_classes), dtype=dtype)
    t[np.arange(labels.size), labels] = 1.0
    return t
