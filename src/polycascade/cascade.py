"""Multi-output cascades: construction, initialization, batched forward, and training.

A model is a ``MultiOutputCascade`` of d >= 1 single-output replicas, built
from its widths, hyperparameters and value matrices; ``init_multi`` draws
the values and ``snapshot.load_snapshot`` reads them.  Each batch is one
``train_multi`` call, which trains the replicas side by side in one
parallel region (``linalg.run_parallel``, which holds numpy's BLAS at one
thread and its pool parked meanwhile): each task takes whole replicas from
one deque and runs each one's forward pass right before its training step,
solve included, so a task holds one replica's intermediates at a time.  A
lone task, as for d = 1, runs in the calling thread, where its workers take
the row chunks of the forward pass and backward sweep (``_row_chunks``, set
by the batch's rows and the packages alone), then the assembly's panels,
from deques.  ``forward_all`` keeps every replica's intermediates for
inspection, and ``scores`` evaluates without keeping them, in chunks of a
size the model alone sets that its workers take from one deque.  So the
worker count sets which task runs a chunk, not its bits.  Every array a
task writes is allocated before the region, so tasks write disjoint parts
and need no lock.

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
leaves holding the system, so a step keeps one r x r array.  A system per
task, the panel buffers and, for d > 1 replicas, the layer-1 basis Gram form
one ``TrainingBuffers`` set that every replica of a batch reuses; ``run_training``
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
import copy
import functools
import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, build_octahedral, octahedral_points
from .kernel import KernelParams
from .linalg import (NonFiniteError, NotSPDError, ShapeMismatchError, as_matrix, ensure_finite,
                     resolve_dtype, run_parallel, spd_solve, symmetric_product, worker_count)
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
# bytes of one training sweep chunk's r x k array at the packages' mean k (``_row_chunks``):
# a width sweep of the training step on two cores found a split paying off above about 300 kB
# for the whole batch, in float32 and float64 alike, at 500 to 2000 rows; a chunk holds more,
# so that its many small numpy calls outlast the GIL hand-offs between them
SWEEP_CHUNK_BYTES = 400_000
# the rows of a sweep or scoring chunk, but the last, are a multiple of this: OpenBLAS computes
# a product's last rows below its row unroll (4 here) by another route, whose bits can differ
# from those of the same rows inside a longer product
PART_ROW_MULTIPLE = 16


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


def _row_chunks(r: int, packages: list[Package]) -> collections.deque:
    """Contiguous row chunks of a training sweep over ``packages`` on a batch of r rows.

    One chunk per ``SWEEP_CHUNK_BYTES`` of an r x k array at the packages'
    mean k, so a batch of narrow packages runs in one chunk.  Every chunk
    but the last has a multiple of ``PART_ROW_MULTIPLE`` rows.  The chunks
    depend on r and the packages alone, so a sweep's bits do not depend on
    how many tasks drain them.
    """
    size = r * sum(pkg.k * pkg.dtype.itemsize for pkg in packages) // max(len(packages), 1)
    chunks = max(1, min(r // PART_ROW_MULTIPLE, size // SWEEP_CHUNK_BYTES))
    step = PART_ROW_MULTIPLE
    bounds = [step * (r * p // (chunks * step)) for p in range(chunks)] + [r]
    return collections.deque(slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]))


def _rows_of(state: PackageBatchState, rows: slice) -> PackageBatchState:
    """A state of ``rows`` of ``state``'s batch, whose arrays are views of ``state``'s."""
    return PackageBatchState(*(None if a is None else a[rows]
                               for a in (state.x_in, state.sq_dists, state.kernel_vals)))


def forward_batch(cascade: Cascade, layer1: PackageBatchState, x1: np.ndarray,
                  ) -> tuple[list[PackageBatchState], np.ndarray]:
    """One replica's packages 2..q on its layer-1 output ``x1``: its states and its output X_q.

    ``states[i].x_in`` is X_i, and ``states[0]`` is ``layer1``, the batch's
    layer-1 state shared by every replica; it keeps no squared distances,
    since training never runs ``backward`` on the first package.
    The calling thread allocates every package's output, distances and
    kernel values for the whole batch; then min(workers, chunks) tasks of a
    ``run_parallel`` region take row chunks (``_row_chunks``) from one deque
    and run each through the whole package chain into its rows of them.
    Rows are independent, so the states are those of one pass over the batch.
    """
    packages = cascade.packages[1:]
    x = np.ascontiguousarray(x1, dtype=layer1.x_in.dtype)
    r, dt = x.shape[0], x.dtype
    outputs = [np.empty((r, pkg.n_out), dt) for pkg in packages]
    states = [PackageBatchState(x_in=x_in, sq_dists=np.empty((r, pkg.k), dt),
                                kernel_vals=np.empty((r, pkg.k), dt))
              for pkg, x_in in zip(packages, [x] + outputs[:-1])]
    chunks = _row_chunks(r, packages)
    run_parallel([functools.partial(_forward_rows, packages, states, outputs, chunks)
                  for _ in range(min(worker_count(), len(chunks)))])
    return [layer1] + states, outputs[-1] if packages else x


def _forward_rows(packages: list[Package], states: list[PackageBatchState],
                  outputs: list[np.ndarray], chunks: collections.deque) -> None:
    """Chunks of ``forward_batch`` until ``chunks`` is empty: each package's forward pass."""
    for rows in _drain(chunks):
        for pkg, state, out in zip(packages, states, outputs):
            # a package's input is the output whose rows the previous iteration wrote
            pkg.forward(state.x_in[rows], out=out[rows], sq_dists=state.sq_dists[rows],
                        kernel_vals=state.kernel_vals[rows])


def backward_quantities(cascade: Cascade, states: list[PackageBatchState],
                        ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Cardinal bases and output-derivative matrices of every package, from its forward states.

    The derivative chain starts from a column of ones at the cascade output
    and never descends below the first package (its input derivative is
    unused by training).  It runs first: each ``backward`` writes over the
    distances it consumes, so the bases are then built beside fewer arrays.
    Each package's input derivative is written over its input where
    ``forward_batch`` made that input (packages 3..q), so the sweep
    allocates one derivative matrix, package 2's; those states' ``x_in``
    are then None.  As in ``forward_batch``, a region's tasks take row
    chunks from one deque and run the whole sweep on each chunk's views of
    the states, writing its rows of the whole-batch matrices.  Afterwards
    each state has been consumed as one ``backward`` and one
    ``cardinal_basis`` consume it.  A basis the state already holds (the
    shared layer-1 one of d > 1 replicas) is kept.
    """
    packages = cascade.packages
    r, dt = states[0].x_in.shape[0], states[0].x_in.dtype
    grads = [state.x_in for state in states[2:]] + [np.ones((r, 1), dt)]
    if len(packages) > 1:
        grads.insert(0, np.empty((r, packages[0].n_out), dt))
    pending = [state.basis is None for state in states]
    chunks = collections.deque((rows, [_rows_of(state, rows) for state in states])
                               for rows in _row_chunks(r, packages[1:]))
    for state in states:
        # the chunks' views hold the distances now, so each package's are freed once every
        # chunk's backward has consumed them
        state.sq_dists = None
    run_parallel([functools.partial(_backward_rows, packages, grads, pending, chunks)
                  for _ in range(min(worker_count(), len(chunks)))])
    for state, built in zip(states, pending):
        if built:  # the basis was written over the kernel values
            state.basis, state.kernel_vals = state.kernel_vals, None
    for state in states[2:]:
        state.x_in = None  # it holds the package's input derivative now
    return [state.basis for state in states], grads


def _backward_rows(packages: list[Package], grads: list[np.ndarray], pending: list[bool],
                   chunks: collections.deque) -> None:
    """Chunks of ``backward_quantities`` until ``chunks`` is empty: the sweep, then the bases."""
    for rows, chunk_states in _drain(chunks):
        for i in range(len(packages) - 1, 0, -1):
            packages[i].backward(grads[i][rows], chunk_states[i], out=grads[i - 1][rows])
        for pkg, state, todo in zip(packages, chunk_states, pending):
            if todo:
                pkg.cardinal_basis(state)


class TrainingBuffers:
    """The training step's working memory for batches of at most ``rows`` rows.

    One r x r system per replica task of ``train_multi``, factored in place
    by the solve; one panel set per worker of the assembly (three P x r
    arrays: the panel accumulator and two Gram-product panels); and, for
    d > 1 replicas only, their shared layer-1 basis Gram (r x r).  Each is
    held flat, so a shorter batch uses C-contiguous leading views of them.
    The first ``fitting`` call, which ``train_multi`` makes after replica
    0's forward pass, allocates them together and fixes their counts, so a
    set made before a batch gets its memory after that batch's forward
    arrays.  A set serves one batch at a time.
    """

    def __init__(self, rows: int, dtype):
        self.rows = int(rows)
        self.dtype = resolve_dtype(dtype)
        self.gram = None
        self.systems: list[np.ndarray] = []
        self.panel_sets: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    @classmethod
    def fitting(cls, buffers: TrainingBuffers | None, x: np.ndarray,
                replicas: int = 1) -> TrainingBuffers:
        """``buffers`` (a new set if None), allocated for d = ``replicas``, if it can hold ``x``."""
        if buffers is None:
            buffers = cls(x.shape[0], x.dtype)
        elif buffers.rows < x.shape[0] or buffers.dtype != x.dtype:
            raise ValueError(f"training buffers for {buffers.rows} {buffers.dtype} rows cannot "
                             f"hold a batch of {x.shape[0]} {x.dtype} rows")
        n, dt = buffers.rows, buffers.dtype
        if not buffers.systems:
            panel = min(PANEL_ROWS, n) * n
            sets = max(1, min(worker_count(), max(-(-n // PANEL_ROWS), replicas)))
            buffers.panel_sets = [tuple(np.empty(panel, dt) for _ in range(3))
                                  for _ in range(sets)]
            buffers.systems = [np.empty(n * n, dt) for _ in range(min(sets, replicas))]
        if replicas > 1 and buffers.gram is None:
            buffers.gram = np.empty(n * n, dt)
        return buffers

    def split(self, tasks: int) -> list[TrainingBuffers]:
        """Sets for ``tasks`` tasks side by side: task i's has system i and every tasks-th panel set."""
        if tasks == 1:
            return [self]
        views = [copy.copy(self) for _ in range(tasks)]
        for i, view in enumerate(views):
            view.systems, view.panel_sets = [self.systems[i]], self.panel_sets[i::tasks]
        return views


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
    ``buffers`` (at most one per panel).  Each task takes panels, largest
    first, until none is left, and works in its own panel set; panels write
    disjoint rows and their mirrored columns, so the system is the same
    whichever task builds a panel.  Every array is a view of ``buffers`` (a
    set made for this call when None), so the returned system is
    overwritten by the next step that uses the same set.
    """
    r = layer1.x_in.shape[0]
    dt = layer1.x_in.dtype
    buffers = TrainingBuffers.fitting(buffers, layer1.x_in)
    system = _leading(buffers.systems[0], r, r)
    starts = collections.deque(reversed(range(0, r, PANEL_ROWS)))
    run_parallel([functools.partial(_assemble_panels, system, layer1.gram, bases, grads, starts,
                                    panel_set)
                  for panel_set in buffers.panel_sets[:len(starts)]])
    system[np.diag_indices(r)] += dt.type(alpha)
    return system


def _drain(items: collections.deque):
    """Items popped from the left of ``items`` until it is empty.

    ``popleft`` is atomic, so tasks that drain one deque never take the same item.
    """
    while True:
        try:
            yield items.popleft()
        except IndexError:
            return


def _assemble_panels(system: np.ndarray, gram: np.ndarray | None, bases: list[np.ndarray],
                     grads: list[np.ndarray], starts: collections.deque,
                     panel_set: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
    """Build panels of ``assemble_system`` in ``panel_set`` until ``starts`` is empty."""
    r = system.shape[0]
    h1, g1 = bases[0], grads[0]
    for i0 in _drain(starts):
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


def train_step(cascade: Cascade, states: list[PackageBatchState], output: np.ndarray,
               lstar: np.ndarray, layer1_update: np.ndarray, alpha: float,
               buffers: TrainingBuffers) -> tuple[TrainStepReport, list[np.ndarray]]:
    """One replica's training step on its ``forward_batch`` states: its report and new values.

    Builds the model's alpha-regularized system (``assemble_system``) in
    ``buffers``, factors it in place and solves it for the batch vector b
    against the r x 1 targets ``lstar``, takes the solve residual from the
    diagonal and upper triangle that the factor leaves holding the system
    (``symmetric_product``), computes the new values H^T (G * b) + values
    of packages 2..q from the pre-update intermediates, for ``train_multi``
    to apply, and writes G1 * b into ``layer1_update`` (r x n1).  A NaN or
    Inf anywhere upstream reaches the system or its right-hand side and
    raises ``NonFiniteError``.
    """
    delta_l = lstar - output
    bases, grads = backward_quantities(cascade, states)
    system = assemble_system(states[0], bases, grads, alpha, buffers)
    if not (np.isfinite(system).all() and np.isfinite(delta_l).all()):
        raise NonFiniteError("training system or output residual contains NaN or Inf")
    b_vec = spd_solve(system, delta_l, overwrite=True)
    solve_residual = float(np.abs(symmetric_product(system, b_vec) - delta_l).max())
    values = [ensure_finite(pkg.values + h.T @ (g * b_vec), "values")
              for pkg, h, g in zip(cascade.packages[1:], bases[1:], grads[1:])]
    np.multiply(grads[0], b_vec, out=layer1_update)
    return TrainStepReport(
        residual_before_inf=float(np.abs(delta_l).max()),
        residual_before_rms=float(np.sqrt(np.mean(delta_l ** 2))),
        b_inf=float(np.abs(b_vec).max()),
        solve_residual_inf=solve_residual,
    ), values


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

    def forward_all(self, x0) -> tuple[np.ndarray, list[list[PackageBatchState]]]:
        """Outputs of all replicas as columns of an r x d matrix, with each replica's states.

        The inspection route: every replica's intermediates are kept at
        once, and every replica's states share one layer-1 state.  Training
        does not use it (``train_multi`` holds one replica's per task).
        """
        layer1, x1 = self._layer1(x0)
        passes = [forward_batch(c, layer1, y) for c, y in zip(self.replicas, x1)]
        return np.hstack([output for _, output in passes]), [states for states, _ in passes]

    def scores(self, x0) -> np.ndarray:
        """Replica outputs without retaining their states, on the cores of the process affinity.

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
        for lo in _drain(starts):
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

    The layer-1 state and the stacked layer-1 product are built once, then
    replica 0's forward pass in the calling thread and, for d > 1, the
    layer-1 basis Gram every system reads.  One ``run_parallel`` region then
    trains the replicas side by side: min(workers, d) tasks take whole
    replicas from one deque, each in a system and panel set of its own
    (``TrainingBuffers.split``), and run a replica's forward pass right
    before its ``train_step``, so a task holds one replica's intermediates
    at a time.  A lone task (d = 1, or one core) runs in the calling thread
    and splits its sweeps and assembly over the cores.  After the region,
    one product gives the layer-1 updates, and the replicas before the
    lowest failing one (all, if none failed) take their new values in
    replica order; the others are untouched, and the failing one's error is
    raised, naming it if non-SPD or non-finite.  ``buffers`` (a new set if
    None) must hold r rows of the model's dtype.  Targets of the wrong
    shape raise before any update.
    """
    layer1, x1 = mc._layer1(x0)
    r = layer1.x_in.shape[0]
    targets = as_matrix(targets, dtype=mc.dtype, name="targets")
    if targets.shape != (r, mc.d):
        raise ShapeMismatchError(f"targets shape {targets.shape} != outputs shape {(r, mc.d)}")
    n1 = mc.replicas[0].packages[0].n_out
    results = [None] * mc.d  # replica j's report and new values, or its exception
    done = {0: forward_batch(mc.replicas[0], layer1, x1[0])}
    # after the forward arrays, so the allocator keeps the memory they free for the next batch
    # instead of returning it to the system
    buffers = TrainingBuffers.fitting(buffers, layer1.x_in, replicas=mc.d)
    scaled = np.empty((r, mc.d * n1), dtype=mc.dtype)
    if mc.d > 1:  # every replica's system reads H1 H1^T: one product per batch
        h1 = mc.replicas[0].packages[0].cardinal_basis(layer1)
        layer1.gram = np.matmul(h1, h1.T, out=_leading(buffers.gram, r, r))
    replicas = collections.deque(range(mc.d))

    def train_replicas(task_buffers: TrainingBuffers) -> None:
        for j in _drain(replicas):
            c = mc.replicas[j]
            try:
                results[j] = train_step(c, *(done.pop(j, None) or forward_batch(c, layer1, x1[j])),
                                        targets[:, j:j + 1], scaled[:, j * n1:(j + 1) * n1],
                                        mc.alpha, task_buffers)
            except Exception as exc:
                results[j] = exc
                replicas.clear()  # no replica after the lowest failing one is applied

    run_parallel([functools.partial(train_replicas, task_buffers)
                  for task_buffers in buffers.split(min(len(buffers.systems), mc.d))])
    trained = list(itertools.takewhile(lambda res: isinstance(res, tuple), results))
    if trained:
        # H1^T (G1 * b) of every trained replica in one product
        deltas = np.hsplit(layer1.basis.T @ scaled[:, :len(trained) * n1], len(trained))
        for c, (_, values), delta in zip(mc.replicas, trained, deltas):
            for pkg, y in zip(c.packages, [c.packages[0].values + delta] + values):
                pkg.set_values(y)
    if len(trained) < mc.d:
        exc = results[len(trained)]
        if isinstance(exc, (NotSPDError, NonFiniteError)):
            raise type(exc)(f"replica {len(trained)}: {exc}") from exc
        raise exc
    return [report for report, _ in trained]


def one_hot_pm1(labels, num_classes: int, dtype=np.float64) -> np.ndarray:
    """Targets for classification: +1 for the true class, -1 elsewhere."""
    labels = np.asarray(labels).astype(np.int64).ravel()
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"labels outside [0, {num_classes})")
    t = -np.ones((labels.size, num_classes), dtype=dtype)
    t[np.arange(labels.size), labels] = 1.0
    return t
