"""Multi-output cascades: construction, initialization, batched forward, and training.

A model is a ``MultiOutputCascade`` of d >= 1 single-output replicas, built
from its widths, hyperparameters and value matrices; ``init_multi`` draws
the values and ``snapshot.load_snapshot`` reads them.

Every batch array inside the cascade is held features x rows, as in
``package``: a batch of r rows is transposed once where it enters
(``MultiOutputCascade.layer1``, and each scoring chunk), each package's
input, output and derivative is n x r, and its distances, kernel values and
basis are k x r, so the batch's rows are the columns of every array.
``scores`` still returns r x d.

Each batch is one ``train_multi`` call, which trains the replicas side by
side in one parallel region (``linalg.run_parallel``, which holds numpy's
BLAS at one thread and its pool parked meanwhile): each task takes whole
replicas from one deque and runs each one's ``sweep`` right before its
``train_step``, so a task holds one replica's intermediates at a time.  A
lone task, as for d = 1, runs in the calling thread, outside any region.
A replica's ``sweep`` runs in chunks of the batch's rows (``_row_chunks``,
set by the rows and the packages alone), and a task runs each chunk whole,
forward pass, cardinal bases and backward sweep, in a contiguous working
set of its own; a lone replica's assembly then shares its panels out from a
deque.  ``scores`` evaluates without keeping intermediates, in chunks of a
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
it has already touched.  The set's arrays are allocated together right
after the epoch's first sweep.

A sweep keeps each package's basis (k x r) and output derivative (n x r)
for the whole batch, and each of its tasks a working set of one chunk: its
input to every package, and one k x c array each of distances and kernel
values that the packages take in turn.  Each package's basis is written
over its kernel values and its input derivative over its input, and
``backward`` computes the distances again instead of keeping them (see
``package``).

The replicas have independent value matrices and share the architecture and
hyperparameters.  Every replica's first package has the same constellation
and kernel, so the layer-1 distances, kernel values, cardinal basis and basis
Gram product are computed once per batch (or scoring chunk) and shared by
all replicas: ``train_multi`` passes the basis to every replica's ``sweep``
and the Gram to every ``train_step`` as plain arrays.  Layer 1 then acts as one package with d * n1 outputs: one
product over the replicas' stacked coefficients gives every layer-1 output,
each replica's a contiguous row block of it, and one product over their
stacked derivative blocks gives every layer-1 value update.  The derivative
Grams and the solve stay per replica.  A one-replica model keeps no layer-1
Gram: its layer-1 term is built in panels like any other package's.
"""

from __future__ import annotations

import collections
import copy
import functools
import itertools
import logging
import math
from dataclasses import astuple, dataclass

import numpy as np

from .constellation import derive_coefficients, octahedral_points
from .kernel import KernelParams
from .linalg import (NonFiniteError, NotSPDError, ShapeMismatchError, as_matrix, ensure_finite,
                     resolve_dtype, run_parallel, spd_solve, symmetric_product, worker_count)
from .package import Package

logger = logging.getLogger(__name__)

INIT_MODES = ("random", "identity-fragments")

# rows per assembly panel: two P x r products per package stay in cache
PANEL_ROWS = 128
_STRICT_UPPER = np.triu(np.ones((PANEL_ROWS, PANEL_ROWS), dtype=bool), 1)
# bytes of one scoring chunk's k x r array at the packages' mean k, within 512 to 2048 rows
# (``MultiOutputCascade.chunk_rows``): a chunk long enough that its numpy calls outlast the
# GIL hand-offs between them, and short enough that its arrays stay near the cache
SCORE_CHUNK_BYTES = 768_000
# bytes of one training sweep chunk's k x r array at the packages' mean k (``_row_chunks``):
# a width sweep of the training step on two cores found a split paying off above about 300 kB
# for the whole batch, in float32 and float64 alike, at 500 to 2000 rows; a chunk holds more,
# so that its many small numpy calls outlast the GIL hand-offs between them
SWEEP_CHUNK_BYTES = 400_000
# the rows of a sweep or scoring chunk, but the last, are a multiple of this: OpenBLAS computes
# a product's last batch rows below its unroll (16 here) by another route, whose bits can differ
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
    """Chunks of consecutive rows of a training sweep over ``packages`` on a batch of r rows.

    One chunk per ``SWEEP_CHUNK_BYTES`` of a k x r array at the packages'
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


def sweep(cascade: Cascade, h1: np.ndarray, x1: np.ndarray,
          ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """One replica's training sweep on its layer-1 output ``x1`` (n1 x r).

    Returns the replica's output X_q (1 x r), every package's cardinal basis
    H_i (k_i x r) and every package's output derivative G_i (n_{i+1} x r),
    whose last is a row of ones: the derivative chain starts at the cascade
    output and never descends below the first package.  H_1 is ``h1``, the
    batch's layer-1 basis that every replica shares, and is not written.

    Packages 2..q run in row chunks (``_row_chunks``): min(workers, chunks)
    tasks of a ``run_parallel`` region take chunks from one deque, and each
    runs a chunk's forward pass, cardinal bases and backward sweep one after
    another in a working set of its own, which the calling thread allocates:
    the chunk's input to every package (n_i x c), and one k x c array each of
    distances and kernel values that the packages take in turn.  A package
    builds its basis over its kernel values right after its forward pass,
    and ``backward`` computes its distances again.  Every array a chunk
    works on is contiguous: it copies its columns of ``x1`` in, writes each
    package's input derivative over its input to that package, and writes
    only its columns of the output, the bases and the derivatives.  Rows are
    independent, so the result is that of one pass over the batch.
    """
    packages = cascade.packages[1:]
    r, dt = x1.shape[1], x1.dtype
    bases = [h1] + [np.empty((pkg.k, r), dt) for pkg in packages]
    grads = [np.empty((pkg.n_out, r), dt) for pkg in cascade.packages[:-1]]
    grads.append(np.ones((1, r), dt))
    if not packages:
        return x1, bases, grads
    output = np.empty((1, r), dt)
    chunks = _row_chunks(r, packages)
    cols = max(c.stop - c.start for c in chunks)
    k = max(pkg.k for pkg in packages)
    sizes = [pkg.n_in * cols for pkg in packages] + [k * cols, k * cols]
    # allocated here, not in the workers, so that no worker thread grows a heap of its own
    work_sets = [[np.empty(size, dt) for size in sizes]
                 for _ in range(min(worker_count(), len(chunks)))]
    run_parallel([functools.partial(_sweep_chunks, packages, x1, output, bases[1:], grads,
                                    chunks, work)
                  for work in work_sets])
    return output, bases, grads


def _sweep_chunks(packages: list[Package], x1: np.ndarray, output: np.ndarray,
                  bases: list[np.ndarray], grads: list[np.ndarray], chunks: collections.deque,
                  work: list[np.ndarray]) -> None:
    """Chunks of ``sweep`` until ``chunks`` is empty, each in the working set ``work``."""
    *input_flats, dists, kernel_vals = work
    for cols in _drain(chunks):
        c = cols.stop - cols.start
        inputs = [_leading(flat, pkg.n_in, c) for pkg, flat in zip(packages, input_flats)]
        np.copyto(inputs[0], x1[:, cols])
        forward_batch(packages, inputs + [output[:, cols]], [h[:, cols] for h in bases], dists,
                      kernel_vals)
        backward_quantities(packages, inputs, [g[:, cols] for g in grads], dists, kernel_vals)


def forward_batch(packages: list[Package], inputs: list[np.ndarray], bases: list[np.ndarray],
                  dists: np.ndarray, kernel_vals: np.ndarray) -> None:
    """A sweep chunk's forward pass through ``packages``, which keeps every package's input.

    ``inputs`` holds each package's input (n x c), which the previous
    package's output is written into, and then the chunk's output.  Every
    package takes the flat arrays ``dists`` and ``kernel_vals`` in turn for
    its k x c distances and kernel values, and builds its cardinal basis over
    the kernel values right after its forward pass, to be copied into its
    array of ``bases`` (the chunk's columns of the batch's basis).
    """
    c = inputs[0].shape[1]
    for pkg, x, out, h in zip(packages, inputs, inputs[1:], bases):
        _, kv = pkg.forward(x, out=out, sq_dists=_leading(dists, pkg.k, c),
                            kernel_vals=_leading(kernel_vals, pkg.k, c))
        h[...] = pkg.cardinal_basis(kv)


def backward_quantities(packages: list[Package], inputs: list[np.ndarray],
                        grads: list[np.ndarray], dists: np.ndarray,
                        kernel_vals: np.ndarray) -> None:
    """A sweep chunk's backward sweep: the output derivative of every package into ``grads``.

    The chain starts from ``grads[-1]``, the cascade output's row of ones,
    and runs down to the input of the first package of ``packages``, whose
    derivative is ``grads[0]``.  Each package computes its distances again
    in the flat array ``dists`` from its array of ``inputs`` (n x c), takes
    the flat array ``kernel_vals``, free once the forward pass has copied the
    bases out, for its k x c product, and writes its input derivative over
    its input, from which it is copied into its array of ``grads`` (the
    chunk's columns of the batch's derivative).
    """
    g = grads[-1]
    c = g.shape[1]
    for pkg, x, g_prev in reversed(list(zip(packages, inputs, grads))):
        g = pkg.backward(g, x, out=x, sq_dists=_leading(dists, pkg.k, c),
                         scratch=_leading(kernel_vals, pkg.k, c))
        g_prev[...] = g


class TrainingBuffers:
    """The training step's working memory for batches of at most ``rows`` rows.

    One r x r system per replica task of ``train_multi``, factored in place
    by the solve; one panel set per worker of the assembly (three P x r
    arrays: the panel accumulator and two Gram-product panels); and, for
    d > 1 replicas only, their shared layer-1 basis Gram (r x r).  Each is
    held flat, so a shorter batch uses C-contiguous leading views of them.
    The first ``fitting`` call, which ``train_multi`` makes after replica
    0's sweep, allocates them together and fixes their counts, so a set
    made before a batch gets its memory after that batch's sweep arrays.  A
    set serves one batch at a time.
    """

    def __init__(self, rows: int, dtype):
        self.rows = int(rows)
        self.dtype = resolve_dtype(dtype)
        self.gram = None
        self.systems: list[np.ndarray] = []
        self.panel_sets: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    @classmethod
    def fitting(cls, buffers: TrainingBuffers | None, h1: np.ndarray,
                replicas: int = 1) -> TrainingBuffers:
        """``buffers`` (a new set if None), allocated for d = ``replicas``, if it can hold ``h1``.

        ``h1`` is the batch's layer-1 basis (k1 x r), or any array that holds
        the batch features x rows: its columns are the batch's rows.
        """
        if buffers is None:
            buffers = cls(h1.shape[1], h1.dtype)
        elif buffers.rows < h1.shape[1] or buffers.dtype != h1.dtype:
            raise ValueError(f"training buffers for {buffers.rows} {buffers.dtype} rows cannot "
                             f"hold a batch of {h1.shape[1]} {h1.dtype} rows")
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


def assemble_system(bases: list[np.ndarray], grads: list[np.ndarray], alpha: float,
                    buffers: TrainingBuffers | None = None,
                    gram: np.ndarray | None = None) -> np.ndarray:
    """The regularized training system sum_i (H_i^T H_i) * (G_i^T G_i) + alpha I.

    H_i is package i's k x r basis and G_i its n x r output derivative.
    Built in panels of ``PANEL_ROWS`` rows.  For rows I = i0:i1, every
    package's term of the lower block ``system[I, :i1]`` is summed into a
    contiguous P x i1 accumulator from two panel products,
    ``H[:, I].T @ H[:, :i1]`` and ``G[:, I].T @ G[:, :i1]``, whose column
    blocks BLAS reads in place and whose buffers stay in cache; the
    accumulator is written into the system rows once and mirrored once into
    the upper triangle, so the whole symmetric matrix is returned.
    H_1^T H_1 is read from ``gram`` (r x r) when given, as ``train_multi``
    gives it for d > 1 replicas, and is otherwise built in panels like any
    other package's.  The last package's G is a row of ones, so its H^T H
    is added alone.

    The panels run in a ``run_parallel`` region, one task per panel set of
    ``buffers`` (at most one per panel).  Each task takes panels, largest
    first, until none is left, and works in its own panel set; panels write
    disjoint rows and their mirrored columns, so the system is the same
    whichever task builds a panel.  Every array is a view of ``buffers`` (a
    set made for this call when None), so the returned system is
    overwritten by the next step that uses the same set.
    """
    r, dt = bases[0].shape[1], bases[0].dtype
    buffers = TrainingBuffers.fitting(buffers, bases[0])
    system = _leading(buffers.systems[0], r, r)
    starts = collections.deque(reversed(range(0, r, PANEL_ROWS)))
    run_parallel([functools.partial(_assemble_panels, system, gram, bases, grads, starts, panel_set)
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
        h1h1 = np.matmul(h1[:, rows].T, h1[:, :i1], out=acc) if gram is None else gram[rows, :i1]
        if len(bases) == 1:
            acc = h1h1
        else:
            np.multiply(h1h1, np.matmul(g1[:, rows].T, g1[:, :i1], out=gg), out=acc)
            for h, g in zip(bases[1:-1], grads[1:-1]):
                acc += np.multiply(np.matmul(h[:, rows].T, h[:, :i1], out=hh),
                                   np.matmul(g[:, rows].T, g[:, :i1], out=gg), out=hh)
            last = bases[-1]
            acc += np.matmul(last[:, rows].T, last[:, :i1], out=hh)
        system[rows, :i1] = acc
        # mirror the finished rows; the diagonal block's upper half too, so s == s.T exactly
        system[:i0, rows] = acc[:, :i0].T
        block = system[rows, rows]
        np.copyto(block, block.T, where=_STRICT_UPPER[:block.shape[0], :block.shape[0]])


def train_step(cascade: Cascade, swept: tuple[np.ndarray, list[np.ndarray], list[np.ndarray]],
               gram: np.ndarray | None, lstar: np.ndarray, layer1_update: np.ndarray, alpha: float,
               buffers: TrainingBuffers) -> tuple[TrainStepReport, list[np.ndarray]]:
    """One replica's training step on its ``sweep``: its report and new values.

    From the sweep's output, bases and derivatives, builds the model's
    alpha-regularized system (``assemble_system``, which reads H1^T H1 from
    ``gram`` when given) in ``buffers``, factors it in place and solves it
    for the batch vector b against the r x 1 targets ``lstar``,
    takes the solve residual from the diagonal and upper triangle that the
    factor leaves holding the system (``symmetric_product``), computes the
    new values H (G * b^T)^T + values of packages 2..q from the pre-update
    intermediates, for ``train_multi`` to apply, and writes G1 * b^T into
    ``layer1_update`` (n1 x r).  A NaN or Inf anywhere upstream reaches the
    system or its right-hand side and raises ``NonFiniteError``.
    """
    output, bases, grads = swept
    delta_l = lstar - output.T
    system = assemble_system(bases, grads, alpha, buffers, gram)
    if not (np.isfinite(system).all() and np.isfinite(delta_l).all()):
        raise NonFiniteError("training system or output residual contains NaN or Inf")
    b_vec = spd_solve(system, delta_l, overwrite=True)
    solve_residual = float(np.abs(symmetric_product(system, b_vec) - delta_l).max())
    values = [ensure_finite(pkg.values + h @ (g * b_vec.T).T, "values")
              for pkg, h, g in zip(cascade.packages[1:], bases[1:], grads[1:])]
    np.multiply(grads[0], b_vec.T, out=layer1_update)
    return TrainStepReport(
        residual_before_inf=float(np.abs(delta_l).max()),
        residual_before_rms=float(np.sqrt(np.mean(delta_l ** 2))),
        b_inf=float(np.abs(b_vec).max()),
        solve_residual_inf=solve_residual,
    ), values


def check_model(widths: list[int], alpha: float, kernel: KernelParams, sigma2: float,
                dtype) -> None:
    """Raise ValueError unless a model of these core widths, hyperparameters and dtype can exist.

    The one check of a model: at least two positive widths ending in 1, a
    finite alpha >= 0, and a package of each input width with this kernel
    and ``sigma2`` (``derive_coefficients``, once per distinct width) whose
    coefficient scalars are finite in ``dtype``, where its coefficients are
    computed.
    """
    if len(widths) < 2 or min(widths) < 1 or widths[-1] != 1:
        raise ValueError(f"need at least two positive widths ending in 1, got {widths}")
    if not 0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    dt = resolve_dtype(dtype)
    for n in dict.fromkeys(widths[:-1]):
        scalars = astuple(derive_coefficients(n, kernel, sigma2))
        with np.errstate(over="ignore"):
            if not np.isfinite(np.array(scalars, dtype=dt)).all():
                raise ValueError(f"kernel b={kernel.b}, c={kernel.c} and sigma2={sigma2} give "
                                 f"coefficients that are not finite in {dt}")


class MultiOutputCascade:
    """One single-output cascade replica per output dimension.

    ``widths`` is the single-output core, ending in 1, and ``values[j][i]``
    is replica j's value matrix for package i, of shape
    (2 * widths[i] + 1, widths[i + 1]).  The replicas share widths, kernel,
    ``sigma2``, alpha and precision by construction, all checked by
    ``check_model``; values whose coefficients overflow are rejected.
    """

    def __init__(self, widths, values, alpha: float, kernel: KernelParams, sigma2: float = 0.0,
                 dtype="float64"):
        self.widths = [int(w) for w in widths]
        self.dtype = resolve_dtype(dtype)
        check_model(self.widths, alpha, kernel, sigma2, self.dtype)
        if not values:
            raise ValueError("need at least one replica")
        self.alpha, self.kernel, self.sigma2 = float(alpha), kernel, float(sigma2)
        pairs = list(zip(self.widths, self.widths[1:]))
        self.replicas = []
        for j, matrices in enumerate(values):
            if len(matrices) != len(pairs):
                raise ValueError(f"replica {j}: {len(matrices)} value matrices for "
                                 f"{len(pairs)} packages")
            packages = []
            for i, ((n_in, n_out), y) in enumerate(zip(pairs, matrices)):
                if np.shape(y) != (2 * n_in + 1, n_out):
                    raise ShapeMismatchError(f"replica {j} package {i}: values shape "
                                             f"{np.shape(y)} != {(2 * n_in + 1, n_out)}")
                with np.errstate(over="ignore", invalid="ignore"):  # raised just below
                    pkg = Package(n_in, kernel, y, self.sigma2, self.dtype)
                if not np.isfinite(pkg.coeffs).all():
                    raise ValueError(f"replica {j} package {i}: values overflow the coefficients")
                packages.append(pkg)
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

    def layer1(self, x0) -> tuple[np.ndarray, list[np.ndarray]]:
        """A batch's layer-1 kernel values K1 (k1 x r) and each replica's layer-1 output.

        Every replica shares K1.  The batch (r x n0) is checked and
        transposed once, here, to the features x rows layout the cascade
        holds every batch array in.  One product with the replicas' stacked
        layer-1 coefficients, C1^T @ K1, gives every replica's layer-1
        output (n1 x r) as a contiguous row block of it.
        """
        x0 = as_matrix(x0, dtype=self.dtype, name="batch input")
        k1 = self.replicas[0].packages[0].kernel_values(np.ascontiguousarray(x0.T))
        coeffs1 = np.hstack([c.packages[0].coeffs for c in self.replicas])
        return k1, np.vsplit(coeffs1.T @ k1, self.d)

    def scores(self, x0) -> np.ndarray:
        """Replica outputs (r x d), keeping no states, on the cores of the process affinity.

        The batch is checked once, here, and scored in chunks of
        ``chunk_rows`` rows.  min(workers, chunks) tasks take whole chunks
        from one deque until none is left: the calling thread runs one and a
        pool of threads the others (``run_parallel``, which holds numpy's
        BLAS at one thread and its pool parked meanwhile, for a lone task
        too).  So a chunk gets the same bits whichever task scores it, and
        the scores do not depend on the worker count.  Nor do they depend on
        how many rows the call has, except in the last bits of the call's
        final partial block of ``PART_ROW_MULTIPLE`` rows: the first m rows
        of a batch, m a multiple of it, score as in a call on the whole batch.

        Each chunk is transposed once into its task's working set, as
        ``layer1`` transposes a batch, and its layer-1 kernel values serve
        every replica; one product with the replicas' stacked layer-1
        coefficients, stacked once per call, gives every layer-1 output.
        The working set, which the calling thread allocates, is sized by the
        chunk and the widest package: the transposed chunk, distances, kernel
        values, the layer-1 outputs and two package outputs that alternate
        along a replica.  So the chunk size bounds the memory a call holds.
        """
        x0 = as_matrix(x0, dtype=self.dtype, name="batch input")
        r = x0.shape[0]
        if x0.shape[1] != self.widths[0]:
            raise ShapeMismatchError(f"batch has shape {x0.shape}, model expects width "
                                     f"{self.widths[0]}")
        out = np.empty((r, self.d), dtype=self.dtype)
        step = self.chunk_rows
        starts = collections.deque(range(0, r, step))
        packages = self.replicas[0].packages
        coeffs1 = np.hstack([c.packages[0].coeffs for c in self.replicas])
        k = max(pkg.k for pkg in packages)
        n_out = max((pkg.n_out for pkg in packages[1:]), default=1)
        rows = min(step, r)
        sizes = (rows * self.widths[0], rows * k, rows * k, rows * coeffs1.shape[1],
                 rows * n_out, rows * n_out)
        # allocated here, not in the workers, so that no worker thread grows a heap of its own
        work_sets = [[np.empty(size, dtype=self.dtype) for size in sizes]
                     for _ in range(min(worker_count(), len(starts)))]
        run_parallel([functools.partial(self._score_chunks, x0, out, starts, step, coeffs1, work)
                      for work in work_sets])
        return out

    def _score_chunks(self, x0: np.ndarray, out: np.ndarray, starts: collections.deque,
                      step: int, coeffs1: np.ndarray, work: list[np.ndarray]) -> None:
        """Score chunks of ``x0`` into ``out`` in one working set until ``starts`` is empty."""
        x_buf, dists, kernel_vals, x1_buf, *outputs = work
        first = self.replicas[0].packages[0]
        n1 = first.n_out
        for lo in _drain(starts):
            rows = slice(lo, lo + step)
            n = x0[rows].shape[0]
            chunk = _leading(x_buf, first.n_in, n)
            np.copyto(chunk, x0[rows].T)
            k1 = first.kernel_values(chunk, sq_dists=_leading(dists, first.k, n),
                                     out=_leading(kernel_vals, first.k, n))
            x1 = np.matmul(coeffs1.T, k1, out=_leading(x1_buf, coeffs1.shape[1], n))
            for j, c in enumerate(self.replicas):
                y = x1[j * n1:(j + 1) * n1]
                for i, pkg in enumerate(c.packages[1:]):
                    y, _ = pkg.forward(y, out=_leading(outputs[i % 2], pkg.n_out, n),
                                       sq_dists=_leading(dists, pkg.k, n),
                                       kernel_vals=_leading(kernel_vals, pkg.k, n))
                out[rows, j] = y[0]


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
                       else _random_values(rng, 2 * n_in + 1, n_out, dt)
                       for n_in, n_out in pairs])
    return MultiOutputCascade(core, values, alpha, kernel or KernelParams(), sigma2, dt)


def train_multi(mc: MultiOutputCascade, x0, targets,
                buffers: TrainingBuffers | None = None) -> list[TrainStepReport]:
    """Train every replica on batch ``x0``, replica j against column j of the r x d ``targets``.

    The layer-1 kernel values and the stacked layer-1 product are built
    once (``MultiOutputCascade.layer1``), then the layer-1 basis H1 over
    those kernel values, replica 0's ``sweep`` in the calling thread and,
    for d > 1, the Gram H1^T H1 every system reads.  One ``run_parallel``
    region then trains the replicas side by side: min(workers, d) tasks
    take whole replicas from one deque, each in a system and panel set of
    its own (``TrainingBuffers.split``), and run each one's sweep right
    before its ``train_step``, so a task holds one replica's intermediates
    at a time.  A lone task (d = 1, or one core) runs in the calling
    thread, outside any region, and splits its assembly over the cores as
    the sweep splits its chunks.  After the region, one product gives the
    layer-1 updates, and the replicas before the lowest failing one (all,
    if none failed) take their new values in replica order; the others are
    untouched, and the failing one's error is raised, naming it
    if non-SPD or non-finite.  ``buffers`` (a new set if None) must hold r
    rows of the model's dtype.  Targets of the wrong shape raise before any
    update.
    """
    k1, x1 = mc.layer1(x0)
    r = k1.shape[1]
    targets = as_matrix(targets, dtype=mc.dtype, name="targets")
    if targets.shape != (r, mc.d):
        raise ShapeMismatchError(f"targets shape {targets.shape} != outputs shape {(r, mc.d)}")
    n1 = mc.replicas[0].packages[0].n_out
    results = [None] * mc.d  # replica j's report and new values, or its exception
    h1 = mc.replicas[0].packages[0].cardinal_basis(k1)
    swept = {0: sweep(mc.replicas[0], h1, x1[0])}
    # after the sweep's arrays, so the allocator keeps the memory they free for the next batch
    # instead of returning it to the system
    buffers = TrainingBuffers.fitting(buffers, h1, replicas=mc.d)
    scaled = np.empty((mc.d * n1, r), dtype=mc.dtype)
    # every replica's system reads H1^T H1: one product per batch
    gram = np.matmul(h1.T, h1, out=_leading(buffers.gram, r, r)) if mc.d > 1 else None
    replicas = collections.deque(range(mc.d))

    def train_replicas(task_buffers: TrainingBuffers) -> None:
        for j in _drain(replicas):
            c = mc.replicas[j]
            try:
                results[j] = train_step(c, swept.pop(j, None) or sweep(c, h1, x1[j]), gram,
                                        targets[:, j:j + 1], scaled[j * n1:(j + 1) * n1],
                                        mc.alpha, task_buffers)
            except Exception as exc:
                results[j] = exc
                replicas.clear()  # no replica after the lowest failing one is applied

    task_sets = buffers.split(min(len(buffers.systems), mc.d))
    if len(task_sets) == 1:  # no region: its factor and solve keep BLAS's own threads
        train_replicas(task_sets[0])
    else:
        run_parallel([functools.partial(train_replicas, task_set) for task_set in task_sets])
    trained = list(itertools.takewhile(lambda res: isinstance(res, tuple), results))
    if trained:
        # H1 (G1 * b^T)^T of every trained replica in one product
        deltas = np.hsplit(h1 @ scaled[:len(trained) * n1].T, len(trained))
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
