"""Cascade assembly, initialization, batched forward, and the training step.

A cascade is a strict sequence of packages whose widths chain and whose last
width is 1 (one scalar output).  Training never uses gradient descent: after
a forward pass, the derivative matrices are propagated backward, each package
contributes an r x r Schur-product Gram matrix, their regularized sum is
solved for a single batch vector, and that vector updates every package's
value matrix independently.

Multi-output models replicate the single-output cascade once per output
with independent value matrices (shared architecture and hyperparameters).
Every replica's first package has the same constellation and kernel, so the
layer-1 distances, kernel values, cardinal basis and basis Gram product are
computed once per batch (or scoring chunk) and shared by all replicas; only
the layer-1 output product, the derivative Grams and the value updates are
per replica.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .constellation import build_octahedral, octahedral_points
from .kernel import KernelParams
from .linalg import (NonFiniteError, NotSPDError, ShapeMismatchError, as_matrix, resolve_dtype,
                     spd_solve)
from .package import Package, PackageBatchState

logger = logging.getLogger(__name__)

INIT_MODES = ("random", "identity-fragments")


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
    residual_after_inf: float | None = None
    residual_after_rms: float | None = None


class Cascade:
    """Ordered package sequence plus training hyperparameters."""

    def __init__(self, packages: list[Package], alpha: float, kernel: KernelParams,
                 dtype=np.float64):
        if not packages:
            raise ValueError("cascade needs at least one package")
        for prev, nxt in zip(packages, packages[1:]):
            if prev.n_out != nxt.n_in:
                raise ShapeMismatchError(
                    f"package widths do not chain: {prev.n_out} out vs {nxt.n_in} in")
        if packages[-1].n_out != 1:
            raise ValueError(f"last package must have one output, got {packages[-1].n_out}")
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.packages = packages
        self.alpha = float(alpha)
        self.kernel = kernel
        self.dtype = np.dtype(dtype)

    @property
    def widths(self) -> list[int]:
        return [self.packages[0].n_in] + [p.n_out for p in self.packages]

    @property
    def q(self) -> int:
        return len(self.packages)

    def parameter_count(self) -> int:
        return sum(p.values.size for p in self.packages)


def _random_values(rng: np.random.Generator, k: int, n_out: int, dtype) -> np.ndarray:
    y = rng.uniform(-1.0, 1.0, size=(k, n_out))
    norms = np.linalg.norm(y, axis=1, keepdims=True)
    y /= np.maximum(norms, 1e-12)
    return y.astype(dtype, copy=False)


def init_cascade(widths, seed: int, mode: str = "random", alpha: float = 1.0,
                 kernel: KernelParams | None = None, sigma2: float = 0.0,
                 dtype="float64") -> Cascade:
    """Build an octahedral-constellation cascade with initialized values.

    ``random`` fills each value matrix uniformly in [-1, 1] and normalizes
    rows to unit length.  ``identity-fragments`` sets values equal to the
    constellation points wherever a package has equal input and output
    widths (so those layers start as near-identity maps) and falls back to
    random initialization elsewhere.
    """
    widths = [int(w) for w in widths]
    if len(widths) < 2:
        raise ValueError(f"need at least two widths, got {widths}")
    if any(w < 1 for w in widths):
        raise ValueError(f"widths must be positive, got {widths}")
    if widths[-1] != 1:
        raise ValueError(f"single-output cascade must end in width 1, got {widths[-1]}")
    if mode not in INIT_MODES:
        raise ValueError(f"init mode must be one of {INIT_MODES}, got {mode!r}")
    kernel = kernel or KernelParams()
    dt = resolve_dtype(dtype)
    rng = np.random.default_rng(seed)

    packages = []
    degraded = []
    for i, (n_in, n_out) in enumerate(zip(widths, widths[1:])):
        constellation = build_octahedral(n_in, sigma2=sigma2)
        if mode == "identity-fragments" and n_in == n_out:
            values = octahedral_points(n_in, dtype=dt)
        else:
            if mode == "identity-fragments":
                degraded.append(i)
            values = _random_values(rng, constellation.k, n_out, dt)
        packages.append(Package(constellation, kernel, values, dtype=dt))
    if degraded:
        logger.info("identity-fragments: packages %s have unequal widths, used random init",
                    degraded)
    return Cascade(packages, alpha=alpha, kernel=kernel, dtype=dt)


def forward_batch(cascade: Cascade, x0) -> tuple[np.ndarray, CascadeBatchWorkspace]:
    """Run a batch through every package, retaining training intermediates.

    ``x0`` is the batch matrix, or a layer-1 state from the first package's
    ``batch_state`` that several replicas share (see
    ``MultiOutputCascade.forward_all``); layer 1 then only evaluates its
    output product on that state.  Layer 1 keeps no squared distances:
    training never runs ``backward`` on the first package.
    """
    first = cascade.packages[0]
    layer1 = x0 if isinstance(x0, PackageBatchState) else first.batch_state(x0)
    xs = [layer1.x_in, first.evaluate(layer1)]
    states = [layer1]
    for pkg in cascade.packages[1:]:
        out, state = pkg.forward(xs[-1])
        xs.append(out)
        states.append(state)
    return xs[-1], CascadeBatchWorkspace(xs=xs, states=states)


def backward_quantities(cascade: Cascade, ws: CascadeBatchWorkspace,
                        ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Cardinal bases and output-derivative matrices for every package.

    The derivative chain starts from a column of ones at the cascade output
    and never descends below the first package (its input derivative is
    unused by training).
    """
    r = ws.batch_rows
    q = cascade.q
    bases = [pkg.cardinal_basis(state) for pkg, state in zip(cascade.packages, ws.states)]
    grads: list[np.ndarray | None] = [None] * q
    grads[q - 1] = np.ones((r, 1), dtype=cascade.dtype)
    for i in range(q - 1, 0, -1):
        grads[i - 1] = cascade.packages[i].backward(grads[i], ws.states[i])
    return bases, grads


def train_step(cascade: Cascade, ws: CascadeBatchWorkspace, lstar,
               measure_after: bool = True) -> TrainStepReport:
    """One full training step on the batch held in the workspace.

    Accumulates the per-package Gram products in package order, solves the
    alpha-regularized system for the batch vector, applies every package's
    value update from the pre-update intermediates, and rederives all
    coefficient matrices.  A NaN or Inf anywhere upstream reaches the system
    or its right-hand side and raises ``NonFiniteError`` before any update.
    """
    lstar = as_matrix(lstar, dtype=cascade.dtype, name="targets")
    if lstar.shape != ws.output.shape:
        raise ShapeMismatchError(f"targets shape {lstar.shape} != output shape {ws.output.shape}")
    delta_l = lstar - ws.output
    r = ws.batch_rows

    bases, grads = backward_quantities(cascade, ws)
    # H1 H1^T is the same for every replica sharing this layer-1 state; only
    # that state keeps its Gram, so the other packages' r x r products stay transient
    layer1 = ws.states[0]
    if layer1.gram is None:
        layer1.gram = bases[0] @ bases[0].T
    omega_sum = np.zeros((r, r), dtype=cascade.dtype)
    for i, (h, g) in enumerate(zip(bases, grads)):
        hh = layer1.gram if i == 0 else h @ h.T
        omega_sum += hh * (g @ g.T)
    system = omega_sum
    if cascade.alpha:
        system = omega_sum + cascade.dtype.type(cascade.alpha) * np.eye(r, dtype=cascade.dtype)
    if not (np.isfinite(system).all() and np.isfinite(delta_l).all()):
        raise NonFiniteError("training system or output residual contains NaN or Inf")
    b_vec = spd_solve(system, delta_l)
    solve_residual = float(np.abs(system @ b_vec - delta_l).max())

    # all updates are computed against pre-update intermediates, then applied
    for pkg, h, g in zip(cascade.packages, bases, grads):
        delta_y = h.T @ (g * b_vec)
        pkg.set_values(pkg.values + delta_y)

    report = TrainStepReport(
        residual_before_inf=float(np.abs(delta_l).max()),
        residual_before_rms=float(np.sqrt(np.mean(delta_l ** 2))),
        b_inf=float(np.abs(b_vec).max()),
        solve_residual_inf=solve_residual,
    )
    if measure_after:
        out_after, _ = forward_batch(cascade, layer1)
        delta_after = lstar - out_after
        report.residual_after_inf = float(np.abs(delta_after).max())
        report.residual_after_rms = float(np.sqrt(np.mean(delta_after ** 2)))
    return report


class MultiOutputCascade:
    """One single-output cascade replica per output dimension."""

    def __init__(self, replicas: list[Cascade]):
        if not replicas:
            raise ValueError("need at least one replica")
        ref = replicas[0]
        for c in replicas[1:]:
            # replicas share layer-1 intermediates, so their first packages must agree
            if (c.widths != ref.widths or c.alpha != ref.alpha or c.kernel != ref.kernel
                    or c.dtype != ref.dtype
                    or c.packages[0].constellation != ref.packages[0].constellation):
                raise ValueError("replicas must share widths, alpha, kernel parameters, dtype, "
                                 "and the first package's constellation")
        self.replicas = replicas

    @property
    def d(self) -> int:
        return len(self.replicas)

    @property
    def widths(self) -> list[int]:
        return self.replicas[0].widths

    @property
    def alpha(self) -> float:
        return self.replicas[0].alpha

    @property
    def kernel(self) -> KernelParams:
        return self.replicas[0].kernel

    @property
    def dtype(self) -> np.dtype:
        return self.replicas[0].dtype

    def parameter_count(self) -> int:
        return sum(c.parameter_count() for c in self.replicas)

    def forward_all(self, x0) -> tuple[np.ndarray, list[CascadeBatchWorkspace]]:
        """Outputs of all replicas as columns of an r x d matrix.

        Layer 1 is prepared once and every replica's workspace shares that
        state (and the basis and Gram that training caches on it).
        """
        layer1 = self.replicas[0].packages[0].batch_state(x0)
        outs, workspaces = zip(*(forward_batch(c, layer1) for c in self.replicas))
        return np.hstack(outs), list(workspaces)

    def scores(self, x0, chunk_rows: int = 4096) -> np.ndarray:
        """Replica outputs without retaining workspaces; chunked to bound memory."""
        x0 = as_matrix(x0, dtype=self.dtype, name="batch input")
        out = np.empty((x0.shape[0], self.d), dtype=self.dtype)
        for lo in range(0, x0.shape[0], chunk_rows):
            rows = slice(lo, lo + chunk_rows)
            out[rows] = self._score_chunk(x0[rows])
        return out

    def _score_chunk(self, x) -> np.ndarray:
        """One chunk: a shared layer-1 state, then each replica forward-only.

        Each package's intermediates are dropped once the next output exists.
        """
        layer1 = self.replicas[0].packages[0].batch_state(x)
        cols = []
        for c in self.replicas:
            y = c.packages[0].evaluate(layer1)
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
    """Build a multi-output model from widths whose last entry is the output count.

    ``arch_widths = [784, 100, 20, 20, 10]`` yields ten replicas of the
    single-output core [784, 100, 20, 20, 1], seeded independently but
    deterministically from ``seed``.
    """
    arch_widths = [int(w) for w in arch_widths]
    if len(arch_widths) < 2:
        raise ValueError(f"need at least two widths, got {arch_widths}")
    d = arch_widths[-1]
    core = arch_widths[:-1] + [1]
    replicas = [init_cascade(core, seed=seed + i, mode=mode, alpha=alpha, kernel=kernel,
                             sigma2=sigma2, dtype=dtype) for i in range(d)]
    return MultiOutputCascade(replicas)


def train_multi(mc: MultiOutputCascade, workspaces: list[CascadeBatchWorkspace], targets,
                measure_after: bool = True) -> list[TrainStepReport]:
    """Independent training steps, one replica per target column.

    A non-SPD system is re-raised with the failing replica's index.
    """
    targets = as_matrix(targets, dtype=mc.dtype, name="targets")
    if targets.shape[1] != mc.d:
        raise ShapeMismatchError(f"targets have {targets.shape[1]} columns, model has {mc.d}")
    if len(workspaces) != mc.d:
        raise ValueError(f"got {len(workspaces)} workspaces for {mc.d} replicas")
    reports = []
    for i, (c, ws) in enumerate(zip(mc.replicas, workspaces)):
        try:
            reports.append(train_step(c, ws, targets[:, i:i + 1], measure_after=measure_after))
        except NotSPDError as exc:
            raise NotSPDError(f"replica {i}: {exc}") from exc
    return reports


def one_hot_pm1(labels, num_classes: int, dtype=np.float64) -> np.ndarray:
    """Targets for classification: +1 for the true class, -1 elsewhere."""
    labels = np.asarray(labels).astype(np.int64).ravel()
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"labels outside [0, {num_classes})")
    t = -np.ones((labels.size, num_classes), dtype=dtype)
    t[np.arange(labels.size), labels] = 1.0
    return t
