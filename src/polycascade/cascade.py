"""Multi-output cascades: construction, initialization, batched forward, and training.

A model is a ``MultiOutputCascade`` of d >= 1 single-output replicas, built
from its widths, hyperparameters and value matrices; ``init_multi`` draws
the values and ``snapshot.load_snapshot`` reads them.  Each batch is one
``train_multi`` call, which runs each replica's forward pass right before
that replica's training step, so one replica's intermediates are alive at a
time; ``forward_all`` keeps every replica's intermediates for inspection,
and ``scores`` evaluates without keeping them.  Scoring, and a training
step up to its solve, run on the cores of the process affinity
(``linalg.run_parallel``, which holds numpy's BLAS at one thread and its
pool parked meanwhile).  ``_row_parts`` splits the training forward pass and
backward sweep into contiguous row parts, each run through the whole chain,
where the packages are wide enough for a part to pay for its thread.  Scoring
chunks have a size the model alone sets, and its workers, like the assembly's,
take work from one shared deque.  The factor and solve run on BLAS's own
threads.  Every array a task writes is allocated for the whole batch before
the region, so tasks write disjoint rows of it and need no lock.

Training never uses gradient descent: after a forward pass, the
derivative matrices are propagated backward, each package contributes an
r x r Schur-product Gram matrix, their regularized sum is solved for a single
batch vector, and that vector updates every package's value matrix
independently.  The system is built a panel of rows at a time: each
package's Gram products for those rows are computed into two small panel
buffers that stay in cache and summed into a contiguous panel accumulator,
which is written into the lower triangle and mirrored once; each worker
builds its panels in a panel set of its own.  The Cholesky
factor is then written over the system's lower triangle, and the solve
residual is taken from the diagonal and upper triangle that the factor
leaves holding the system, so a step keeps one r x r array.  The system,
the panel buffers and, for d > 1 replicas, the layer-1 basis Gram form one
``TrainingBuffers`` set that every replica of a batch reuses; ``run_training``
keeps one set for a whole epoch, so a steady-state batch writes into memory
it has already touched.  The set's arrays are allocated together after the
epoch's first forward pass.

Each package's state is consumed as the step reads it: the cardinal basis
is written over the kernel values, the backward sweep's derivative factors
over the squared distances (see ``package``) and each package's input
derivative over its input, so one replica's intermediates come to about two
r x k arrays per package.

The replicas have independent value matrices and share the architecture and
hyperparameters.  Every replica's first package has the same constellation
and kernel, so the layer-1 distances, kernel values, cardinal basis and basis
Gram product are computed once per batch (or scoring chunk) and shared by
all replicas.  Layer 1 then acts as one package with d * n1 outputs: one
product over the replicas' stacked coefficients gives every layer-1 output,
and one product over their stacked derivative blocks gives every layer-1
value update.  The derivative Grams and the solve stay per replica.  A
one-replica model keeps no layer-1 Gram: its layer-1 term is built in
panels like any other package's.
"""

from __future__ import annotations

import collections
import functools
import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, build_octahedral, octahedral_points
from .kernel import KernelParams
from .linalg import (NonFiniteError, NotSPDError, ShapeMismatchError, as_matrix, resolve_dtype,
                     run_parallel, spd_solve, symmetric_product, worker_count)
from .package import Package, PackageBatchState

logger = logging.getLogger(__name__)

INIT_MODES = ("random", "identity-fragments")

# rows per assembly panel: two P x r products per package stay in cache
PANEL_ROWS = 128
_STRICT_UPPER = np.triu(np.ones((PANEL_ROWS, PANEL_ROWS), dtype=bool), 1)
# bytes of one scoring chunk's r x k array at the packages' mean k, within 512 to 2048 rows
# (``MultiOutputCascade.chunk_rows``): a chunk long enough that its numpy calls outlast the
# GIL hand-offs between them, and short enough that its arrays stay near the cache
SCORE_CHUNK_BYTES = 768_000
# the least bytes of an r x k array, at the packages' mean k, in one row part of the forward
# or backward sweep: below it, the GIL hand-offs between a part's many small numpy calls cost
# more than a second core saves (a width sweep of the training step on two cores crossed
# over near 300 kB for the whole batch, in float32 and float64 alike, at 500 to 2000 rows)
SWEEP_PART_BYTES = 150_000
# the rows of a sweep part, but the last, are a multiple of this: OpenBLAS computes a
# product's last rows below its row unroll (4 here) by another route, whose bits can differ
# from those of the same rows inside a longer product
PART_ROW_MULTIPLE = 16


@dataclass
class CascadeBatchWorkspace:
    """One replica's forward pass on a batch: what its training step reads."""

    states: list[PackageBatchState]  # states[i].x_in is X_i; states[0] is shared by every replica
    output: np.ndarray  # X_q


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


def _random_values(rng: np.random.Generator, k: int, n_out: int, dtype) -> np.ndarray:
    y = rng.uniform(-1.0, 1.0, size=(k, n_out))
    norms = np.linalg.norm(y, axis=1, keepdims=True)
    y /= np.maximum(norms, 1e-12)
    return y.astype(dtype, copy=False)


def _row_parts(r: int, packages: list[Package]) -> list[slice]:
    """Contiguous row parts of a training sweep over ``packages`` on a batch of r rows.

    One part per worker of a parallel region, but each part's r x k array
    at the packages' mean k must hold at least ``SWEEP_PART_BYTES``, so a
    batch of narrow packages runs in fewer parts, or in one.  Every part
    but the last has a multiple of ``PART_ROW_MULTIPLE`` rows.
    """
    if not packages:
        return [slice(0, r)]
    size = r * sum(pkg.k for pkg in packages) * packages[0].dtype.itemsize // len(packages)
    parts = max(1, min(worker_count(), r // PART_ROW_MULTIPLE, size // SWEEP_PART_BYTES))
    step = PART_ROW_MULTIPLE
    bounds = [step * (r * p // (parts * step)) for p in range(parts)] + [r]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _rows_of(state: PackageBatchState, rows: slice) -> PackageBatchState:
    """A state of ``rows`` of ``state``'s batch, whose arrays are views of ``state``'s."""
    return PackageBatchState(*(None if a is None else a[rows]
                               for a in (state.x_in, state.sq_dists, state.kernel_vals)))


def forward_batch(cascade: Cascade, layer1: PackageBatchState, x1: np.ndarray,
                  ) -> CascadeBatchWorkspace:
    """One replica's packages 2..q on its layer-1 output ``x1``, retaining training intermediates.

    ``layer1`` is the batch's shared layer-1 state; it keeps no squared
    distances, since training never runs ``backward`` on the first package.
    The calling thread allocates every package's output, distances and
    kernel values for the whole batch; then each row part (``_row_parts``)
    runs through the whole package chain in a ``run_parallel`` region and
    writes its rows of them.  Rows are independent, so the states are those
    of one pass over the batch.
    """
    packages = cascade.packages[1:]
    x = np.ascontiguousarray(x1, dtype=layer1.x_in.dtype)
    r, dt = x.shape[0], x.dtype
    outputs = [np.empty((r, pkg.n_out), dt) for pkg in packages]
    states = [PackageBatchState(x_in=x_in, sq_dists=np.empty((r, pkg.k), dt),
                                kernel_vals=np.empty((r, pkg.k), dt))
              for pkg, x_in in zip(packages, [x] + outputs[:-1])]
    run_parallel([functools.partial(_forward_rows, packages, states, outputs, rows)
                  for rows in _row_parts(r, packages)])
    return CascadeBatchWorkspace(states=[layer1] + states, output=outputs[-1] if packages else x)


def _forward_rows(packages: list[Package], states: list[PackageBatchState],
                  outputs: list[np.ndarray], rows: slice) -> None:
    """``rows`` of ``forward_batch``: each package's forward pass, into the batch's arrays."""
    for pkg, state, out in zip(packages, states, outputs):
        # a package's input is the output whose rows the previous iteration wrote
        pkg.forward(state.x_in[rows], out=out[rows], sq_dists=state.sq_dists[rows],
                    kernel_vals=state.kernel_vals[rows])


def backward_quantities(cascade: Cascade, ws: CascadeBatchWorkspace,
                        ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Cardinal bases and output-derivative matrices for every package.

    The derivative chain starts from a column of ones at the cascade output
    and never descends below the first package (its input derivative is
    unused by training).  It runs first: each ``backward`` writes over the
    distances it consumes, so the bases are then built beside fewer arrays.
    Each package's input derivative is written over its input where
    ``forward_batch`` made that input (packages 3..q), so the sweep
    allocates one derivative matrix, package 2's; those states' ``x_in``
    are then None.  As in ``forward_batch``, each row part runs the whole
    sweep in a ``run_parallel`` region, on views of the batch's states, and
    writes its rows of the whole-batch matrices.  Afterwards each state has
    been consumed as one ``backward`` and one ``cardinal_basis`` consume
    it.  A basis the state already holds (the shared layer-1 one of d > 1
    replicas) is kept.
    """
    packages, states = cascade.packages, ws.states
    r, dt = ws.output.shape[0], ws.output.dtype
    grads = [state.x_in for state in states[2:]] + [np.ones((r, 1), dt)]
    if len(packages) > 1:
        grads.insert(0, np.empty((r, packages[0].n_out), dt))
    pending = [state.basis is None for state in states]
    parts = [(rows, [_rows_of(state, rows) for state in states])
             for rows in _row_parts(r, packages[1:])]
    for state in states:
        # the parts' views hold the distances now, so each package's are freed once every
        # part's backward has consumed them
        state.sq_dists = None
    run_parallel([functools.partial(_backward_rows, packages, part_states, grads, pending, rows)
                  for rows, part_states in parts])
    for state, built in zip(states, pending):
        if built:  # the basis was written over the kernel values
            state.basis, state.kernel_vals = state.kernel_vals, None
    for state in states[2:]:
        state.x_in = None  # it holds the package's input derivative now
    return [state.basis for state in states], grads


def _backward_rows(packages: list[Package], part_states: list[PackageBatchState],
                   grads: list[np.ndarray], pending: list[bool], rows: slice) -> None:
    """``rows`` of ``backward_quantities``: the backward sweep, then the pending bases."""
    for i in range(len(packages) - 1, 0, -1):
        packages[i].backward(grads[i][rows], part_states[i], out=grads[i - 1][rows])
    for pkg, state, todo in zip(packages, part_states, pending):
        if todo:
            pkg.cardinal_basis(state)


class TrainingBuffers:
    """The training step's working memory for batches of at most ``rows`` rows.

    One r x r system, which the solve factors in place, one panel set per
    worker of the assembly (three P x r arrays each: the panel accumulator
    and two Gram-product panels) and, for a model of d > 1 replicas only, a
    second r x r array for the layer-1 basis Gram they share.  Each is held
    flat, so that a shorter batch uses C-contiguous leading views of them.
    The arrays are allocated together by the first ``fitting`` call on the
    set, which ``train_multi`` makes after its first forward pass, so a set
    made before a batch gets its memory after that batch's forward arrays;
    the number of panel sets is fixed then, by ``worker_count()`` and the
    panels a batch of ``rows`` rows has.  A set serves one batch at a time:
    each step overwrites what the previous one left there.
    """

    def __init__(self, rows: int, dtype):
        self.rows = int(rows)
        self.dtype = resolve_dtype(dtype)
        self.system = self.gram = None
        self.panel_sets: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    @classmethod
    def fitting(cls, buffers: TrainingBuffers | None, x: np.ndarray,
                gram: bool = False) -> TrainingBuffers:
        """``buffers``, allocated, if it can hold a step on batch ``x``; a new set if None.

        With ``gram``, the set also holds the layer-1 Gram.
        """
        if buffers is None:
            buffers = cls(x.shape[0], x.dtype)
        elif buffers.rows < x.shape[0] or buffers.dtype != x.dtype:
            raise ValueError(f"training buffers for {buffers.rows} {buffers.dtype} rows cannot "
                             f"hold a batch of {x.shape[0]} {x.dtype} rows")
        n, dt = buffers.rows, buffers.dtype
        if buffers.system is None:
            buffers.system = np.empty(n * n, dt)
            panel = min(PANEL_ROWS, n) * n
            sets = max(1, min(worker_count(), -(-n // PANEL_ROWS)))
            buffers.panel_sets = [tuple(np.empty(panel, dt) for _ in range(3))
                                  for _ in range(sets)]
        if gram and buffers.gram is None:
            buffers.gram = np.empty(n * n, dt)
        return buffers


def _leading(flat: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """A C-contiguous rows x cols view of the start of a flat buffer."""
    return flat[:rows * cols].reshape(rows, cols)


def assemble_system(layer1: PackageBatchState, bases: list[np.ndarray], grads: list[np.ndarray],
                    alpha: float, buffers: TrainingBuffers | None = None) -> np.ndarray:
    """The regularized training system sum_i (H_i H_i^T) * (G_i G_i^T) + alpha I.

    Built in panels of ``PANEL_ROWS`` rows.  For rows I = i0:i1, every
    package's term of the lower block ``system[I, :i1]`` is summed into a
    contiguous P x i1 accumulator from two panel products, ``H[I] @ H[:i1].T``
    and ``G[I] @ G[:i1].T``, whose buffers stay in cache; the accumulator is
    written into the system rows once and mirrored once into the upper
    triangle, so the whole symmetric matrix is returned.  H_1 H_1^T is read
    from ``layer1.gram`` where ``train_multi`` has cached it for d > 1
    replicas, and is otherwise built in panels like any other package's.
    The last package's G is a column of ones, so its H H^T is added alone.

    The panels run in a ``run_parallel`` region, one task per panel set of
    ``buffers`` (at most one per panel).  Each task takes panels
    alternately from the large and the small end of the lower triangle
    until none is left, and works in its own panel set; panels write
    disjoint rows and their mirrored columns, so the system is the same
    whichever task builds a panel.  Every array is a view of ``buffers`` (a
    set made for this call when None), so the returned system is
    overwritten by the next step that uses the same set.
    """
    r = layer1.x_in.shape[0]
    dt = layer1.x_in.dtype
    buffers = TrainingBuffers.fitting(buffers, layer1.x_in)
    system = _leading(buffers.system, r, r)
    starts = collections.deque(range(0, r, PANEL_ROWS))
    run_parallel([functools.partial(_assemble_panels, system, layer1.gram, bases, grads, starts,
                                    panel_set)
                  for panel_set in buffers.panel_sets[:len(starts)]])
    system[np.diag_indices(r)] += dt.type(alpha)
    return system


def _drain(*takes):
    """Items taken by ``takes`` in turn, each a deque's ``pop`` or ``popleft``, until it is empty.

    Both are atomic, so tasks that drain one deque never take the same item.
    """
    for take in itertools.cycle(takes):
        try:
            yield take()
        except IndexError:
            return


def _assemble_panels(system: np.ndarray, gram: np.ndarray | None, bases: list[np.ndarray],
                     grads: list[np.ndarray], starts: collections.deque,
                     panel_set: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
    """Build panels of ``assemble_system`` in ``panel_set`` until ``starts`` is empty."""
    r = system.shape[0]
    h1, g1 = bases[0], grads[0]
    for i0 in _drain(starts.pop, starts.popleft):
        rows = slice(i0, min(i0 + PANEL_ROWS, r))
        i1 = rows.stop
        acc, hh, gg = (_leading(b, i1 - i0, i1) for b in panel_set)
        h1h1 = np.matmul(h1[rows], h1[:i1].T, out=acc) if gram is None else gram[rows, :i1]
        if len(bases) == 1:
            acc = h1h1
        else:
            np.multiply(h1h1, np.matmul(g1[rows], g1[:i1].T, out=gg), out=acc)
            for h, g in zip(bases[1:-1], grads[1:-1]):
                acc += np.multiply(np.matmul(h[rows], h[:i1].T, out=hh),
                                   np.matmul(g[rows], g[:i1].T, out=gg), out=hh)
            last = bases[-1]
            acc += np.matmul(last[rows], last[:i1].T, out=hh)
        system[rows, :i1] = acc
        # mirror the finished rows; the diagonal block's upper half too, so s == s.T exactly
        system[:i0, rows] = acc[:, :i0].T
        block = system[rows, rows]
        np.copyto(block, block.T, where=_STRICT_UPPER[:block.shape[0], :block.shape[0]])


def train_step(cascade: Cascade, ws: CascadeBatchWorkspace, lstar: np.ndarray,
               layer1_update: np.ndarray, alpha: float,
               buffers: TrainingBuffers) -> TrainStepReport:
    """One replica's training step on the batch held in its workspace.

    Builds the model's alpha-regularized system (``assemble_system``) in
    ``buffers``, factors it in place and solves it for the batch vector b
    against the r x 1 targets ``lstar``, takes the solve residual from the
    diagonal and upper triangle that the factor leaves holding the system
    (``symmetric_product``), applies the
    value updates H^T (G * b) of packages 2..q from the pre-update
    intermediates, and writes G1 * b into ``layer1_update`` (r x n1) for
    ``train_multi`` to apply.  A NaN or Inf anywhere upstream reaches the
    system or its right-hand side and raises ``NonFiniteError`` before any
    update.
    """
    delta_l = lstar - ws.output
    bases, grads = backward_quantities(cascade, ws)
    layer1 = ws.states[0]
    system = assemble_system(layer1, bases, grads, alpha, buffers)
    if not (np.isfinite(system).all() and np.isfinite(delta_l).all()):
        raise NonFiniteError("training system or output residual contains NaN or Inf")
    b_vec = spd_solve(system, delta_l, overwrite=True)
    solve_residual = float(np.abs(symmetric_product(system, b_vec) - delta_l).max())

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

    @property
    def chunk_rows(self) -> int:
        """Rows of a scoring chunk: ``SCORE_CHUNK_BYTES`` of an r x k array at the packages' mean k.

        Layer 1 counts, since a chunk runs it; the rows are rounded down to a
        multiple of ``PART_ROW_MULTIPLE`` and kept within 512 to 2048.
        """
        packages = self.replicas[0].packages
        rows = SCORE_CHUNK_BYTES * len(packages) // (sum(pkg.k for pkg in packages)
                                                     * self.dtype.itemsize)
        return min(max(rows - rows % PART_ROW_MULTIPLE, 512), 2048)

    def _layer1(self, x0) -> tuple[PackageBatchState, list[np.ndarray]]:
        """The shared layer-1 state and each replica's layer-1 output, of a batch checked here."""
        x0 = as_matrix(x0, dtype=self.dtype, name="batch input")
        layer1 = self.replicas[0].packages[0].batch_state(x0)
        x1 = layer1.kernel_vals @ np.hstack([c.packages[0].coeffs for c in self.replicas])
        return layer1, np.hsplit(x1, self.d)

    def forward_all(self, x0) -> tuple[np.ndarray, list[CascadeBatchWorkspace]]:
        """Outputs of all replicas as columns of an r x d matrix, with their workspaces.

        The inspection route: every replica's intermediates are kept at
        once, and every workspace shares one layer-1 state.  Training does
        not use it (``train_multi`` holds one replica's at a time).
        """
        layer1, x1 = self._layer1(x0)
        workspaces = [forward_batch(c, layer1, y) for c, y in zip(self.replicas, x1)]
        return np.hstack([ws.output for ws in workspaces]), workspaces

    def scores(self, x0) -> np.ndarray:
        """Replica outputs without retaining workspaces, on the cores of the process affinity.

        The batch is checked once, here, and scored in chunks of
        ``chunk_rows`` rows.  min(workers, chunks) tasks take whole chunks
        from one deque until none is left: the calling thread runs one and a
        pool of threads the others (``run_parallel``, which holds numpy's
        BLAS at one thread and its pool parked meanwhile); one task runs
        with BLAS on its own threads.  A chunk is scored the same way by
        any task, so the scores do not depend on the worker count; a product
        that BLAS splits over its own threads can differ in its last bits.

        Each chunk shares one layer-1 state, and one product with the
        replicas' stacked layer-1 coefficients, stacked once per call, gives
        every layer-1 output.  Each task works in its own working set, which
        the calling thread allocates, sized by the chunk and the widest
        package: distances, kernel values, the layer-1 outputs and two
        package outputs that alternate along a replica.  So the chunk size
        bounds the memory a call holds.
        """
        x0 = as_matrix(x0, dtype=self.dtype, name="batch input")
        r = x0.shape[0]
        out = np.empty((r, self.d), dtype=self.dtype)
        step = self.chunk_rows
        starts = collections.deque(range(0, r, step))
        packages = self.replicas[0].packages
        coeffs1 = np.hstack([c.packages[0].coeffs for c in self.replicas])
        k = max(pkg.k for pkg in packages)
        n_out = max((pkg.n_out for pkg in packages[1:]), default=1)
        rows = min(step, r)
        sizes = (rows * k, rows * k, rows * coeffs1.shape[1], rows * n_out, rows * n_out)
        # allocated here, not in the workers, so that no worker thread grows a heap of its own
        work_sets = [[np.empty(size, dtype=self.dtype) for size in sizes]
                     for _ in range(min(worker_count(), len(starts)))]
        run_parallel([functools.partial(self._score_chunks, x0, out, starts, step, coeffs1, work)
                      for work in work_sets])
        return out

    def _score_chunks(self, x0: np.ndarray, out: np.ndarray, starts: collections.deque,
                      step: int, coeffs1: np.ndarray, work: list[np.ndarray]) -> None:
        """Score chunks of ``x0`` into ``out`` in one working set until ``starts`` is empty."""
        dists, kernel_vals, x1_buf, *outputs = work
        first = self.replicas[0].packages[0]
        n1 = first.n_out
        for lo in _drain(starts.popleft):
            rows = slice(lo, lo + step)
            chunk = x0[rows]
            n = chunk.shape[0]
            layer1 = first.batch_state(chunk, sq_dists=_leading(dists, n, first.k),
                                       kernel_vals=_leading(kernel_vals, n, first.k))
            x1 = np.matmul(layer1.kernel_vals, coeffs1, out=_leading(x1_buf, n, coeffs1.shape[1]))
            for j, c in enumerate(self.replicas):
                y = x1[:, j * n1:(j + 1) * n1]
                for i, pkg in enumerate(c.packages[1:]):
                    y, _ = pkg.forward(y, out=_leading(outputs[i % 2], n, pkg.n_out),
                                       sq_dists=_leading(dists, n, pkg.k),
                                       kernel_vals=_leading(kernel_vals, n, pkg.k))
                out[rows, j:j + 1] = y


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


def train_multi(mc: MultiOutputCascade, x0, targets,
                buffers: TrainingBuffers | None = None) -> list[TrainStepReport]:
    """Train every replica on batch ``x0``, replica j against column j of the r x d ``targets``.

    The layer-1 state and the stacked layer-1 product are built once.  Then
    each replica's ``forward_batch`` runs right before its ``train_step``,
    so its intermediates are dropped before the next replica's forward
    pass.  Each step updates packages 2..q and writes G1 * b into the
    replica's column block of one r x (d * n1) array; one product then
    applies every layer-1 update.  With d > 1 replicas, the layer-1 basis
    Gram is computed once, before the first step, and every replica's
    system reads it.  Every replica's system, panels and the shared Gram
    live in ``buffers``, which must hold at least r rows of the model's
    dtype; without it, a set is made for this one call.  Targets of
    the wrong shape raise before any update.  If replica j fails, in its
    forward pass or in its step, replicas before it are fully updated,
    layer 1 included, and replica j and those after it are untouched.  A
    non-SPD or non-finite system is re-raised with the failing replica's
    index.
    """
    layer1, x1 = mc._layer1(x0)
    r = layer1.x_in.shape[0]
    targets = as_matrix(targets, dtype=mc.dtype, name="targets")
    if targets.shape != (r, mc.d):
        raise ShapeMismatchError(f"targets shape {targets.shape} != outputs shape {(r, mc.d)}")
    n1 = mc.replicas[0].packages[0].n_out
    reports = []
    try:
        for i, (c, y) in enumerate(zip(mc.replicas, x1)):
            try:
                ws = forward_batch(c, layer1, y)
                if i == 0:
                    # after the forward arrays, so the allocator keeps the memory they free
                    # for the next batch instead of returning it to the system
                    buffers = TrainingBuffers.fitting(buffers, layer1.x_in, gram=mc.d > 1)
                    scaled = np.empty((r, mc.d * n1), dtype=mc.dtype)
                    if mc.d > 1:  # every replica's system reads H1 H1^T: one product per batch
                        h1 = c.packages[0].cardinal_basis(layer1)
                        layer1.gram = np.matmul(h1, h1.T, out=_leading(buffers.gram, r, r))
                reports.append(train_step(c, ws, targets[:, i:i + 1],
                                          scaled[:, i * n1:(i + 1) * n1], mc.alpha, buffers))
                del ws  # before the next replica's forward pass
            except (NotSPDError, NonFiniteError) as exc:
                raise type(exc)(f"replica {i}: {exc}") from exc
    finally:
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
