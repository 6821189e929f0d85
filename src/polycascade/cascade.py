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

Every parallel region of the cascade is one ``_share_out`` call, which
drains a deque of items over working sets that the calling thread
allocates: ``sweep`` and ``scores`` share out row chunks, each running
packages 2..q through the one package loop ``forward_batch``;
``assemble_system`` shares out panels; and ``train_multi`` shares out whole
replicas for d > 1.  The chunks are set by the rows and the model alone, so
the worker count sets which task runs a chunk, not its bits.

Training never uses gradient descent: after a forward pass, the
derivative matrices are propagated backward, each package contributes an
r x r Schur-product Gram matrix, their regularized sum is solved for a single
batch vector, and that vector updates every package's value matrix
independently.  The system is built in panels of rows (``assemble_system``),
the Cholesky factor is written over its lower triangle, and the solve
residual is taken from the diagonal and upper triangle that the factor
leaves holding the system, so a step keeps one r x r array in a
``TrainingBuffers`` set that ``run_training`` keeps for a whole epoch.  A
sweep computes each package's distances again in ``backward`` instead of
keeping them, and writes its basis over its kernel values and its input
derivative over its input (see ``package``).

The replicas have independent value matrices and share the architecture,
hyperparameters and layer-1 constellation, so layer 1 acts as one package
with d * n1 outputs whose kernel values, basis and basis Gram are computed
once per batch (or scoring chunk); the derivative Grams and the solve stay
per replica.
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


def _drain(items: collections.deque):
    """Items popped from the left of ``items`` until it is empty.

    ``popleft`` is atomic, so tasks that drain one deque never take the same item.
    """
    while True:
        try:
            yield items.popleft()
        except IndexError:
            return


def _work_sets(sizes: list[int], dtype, items: int) -> list[list[np.ndarray]]:
    """min(workers, ``items``) working sets of flat arrays of ``sizes`` for ``_share_out``.

    Allocated in the calling thread, not in the workers, so that no worker
    thread grows a heap of its own.
    """
    return [[np.empty(size, dtype) for size in sizes] for _ in range(min(worker_count(), items))]


def _share_out(items: collections.deque, work_sets: list, task) -> None:
    """Run ``task(item, work)`` for every item of ``items`` in one ``run_parallel`` region.

    The cascade's one parallel engine.  The region has one task per working
    set of ``work_sets``, but never more tasks than items, and each takes
    items from the deque (``_drain``) until it is empty and runs them in its
    set: the calling thread runs one task and a pool of threads the others.
    numpy's BLAS runs at one thread meanwhile, for a lone task too, so an
    item gets the same bits whichever task runs it and however many run.
    Tasks write disjoint parts of arrays allocated before the region and
    need no lock.  An empty deque enters a region of no tasks.  A task's
    exception is raised once every task has ended.
    """
    def drain(work) -> None:
        for item in _drain(items):
            task(item, work)

    run_parallel([functools.partial(drain, work) for work in work_sets[:len(items)]])


def sweep(cascade: Cascade, h1: np.ndarray, x1: np.ndarray,
          ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """One replica's training sweep on its layer-1 output ``x1`` (n1 x r).

    Returns the replica's output X_q (1 x r), every package's cardinal basis
    H_i (k_i x r) and every package's output derivative G_i (n_{i+1} x r),
    whose last is a row of ones: the derivative chain starts at the cascade
    output and never descends below the first package.  H_1 is ``h1``, the
    batch's layer-1 basis that every replica shares, and is not written.

    Packages 2..q run in the row chunks of ``_row_chunks``, shared out
    (``_share_out``) over working sets of one chunk: its input to every
    package (n_i x c) and one k x c array each of distances and kernel
    values.  A chunk runs ``forward_batch`` and ``backward_quantities`` in
    its set and writes only its columns of the output, bases and
    derivatives, so the result is that of one pass over the batch.
    """
    packages = cascade.packages[1:]
    r, dt = x1.shape[1], x1.dtype
    bases = [h1] + [np.empty((pkg.k, r), dt) for pkg in packages]
    grads = [np.empty((pkg.n_out, r), dt) for pkg in cascade.packages[:-1]]
    grads.append(np.ones((1, r), dt))
    if not packages:
        return x1, bases, grads
    output = np.empty((1, r), dt)

    def sweep_chunk(cols: slice, work: list[np.ndarray]) -> None:
        *input_flats, dists, kernel_vals = work
        c = cols.stop - cols.start
        inputs = [_leading(flat, pkg.n_in, c) for pkg, flat in zip(packages, input_flats)]
        np.copyto(inputs[0], x1[:, cols])
        forward_batch(packages, inputs + [output[:, cols]], dists, kernel_vals,
                      [h[:, cols] for h in bases[1:]])
        backward_quantities(packages, inputs, [g[:, cols] for g in grads], dists, kernel_vals)

    chunks = _row_chunks(r, packages)
    width = max(c.stop - c.start for c in chunks)
    k = max(pkg.k for pkg in packages)
    sizes = [pkg.n_in * width for pkg in packages] + [k * width, k * width]
    _share_out(chunks, _work_sets(sizes, dt, len(chunks)), sweep_chunk)
    return output, bases, grads


def forward_batch(packages: list[Package], inputs: list[np.ndarray], dists: np.ndarray,
                  kernel_vals: np.ndarray, bases: list[np.ndarray] | None = None) -> None:
    """A chunk's forward pass through ``packages``, the one package loop of sweep and scoring.

    Package i reads its input (n x c) from ``inputs[i]`` and writes its
    output into ``inputs[i + 1]``, so the last array holds the chunk's
    output.  The sweep gives an array per package, which keeps every input
    for the backward sweep; scoring gives two buffers that alternate, so it
    holds no input per package.  Every package takes the flat arrays
    ``dists`` and ``kernel_vals`` in turn for its k x c distances and kernel
    values.  With ``bases``, each package builds its cardinal basis over its
    kernel values right after its forward pass and copies it into its array
    of ``bases``.
    """
    c = inputs[0].shape[1]
    for i, (pkg, x, out) in enumerate(zip(packages, inputs, inputs[1:])):
        _, kv = pkg.forward(x, out=out, sq_dists=_leading(dists, pkg.k, c),
                            kernel_vals=_leading(kernel_vals, pkg.k, c))
        if bases is not None:
            bases[i][...] = pkg.cardinal_basis(kv)


def backward_quantities(packages: list[Package], inputs: list[np.ndarray],
                        grads: list[np.ndarray], dists: np.ndarray,
                        kernel_vals: np.ndarray) -> None:
    """A sweep chunk's backward sweep: the output derivative of every package into ``grads``.

    The chain starts from ``grads[-1]``, the cascade output's row of ones,
    and runs down to ``grads[0]``, the derivative at the input of the first
    of ``packages``.  Each package computes its distances again in ``dists``
    from its array of ``inputs`` (n x c), takes ``kernel_vals``, free once
    ``forward_batch`` has copied the bases out, for its k x c product, and
    writes its input derivative over its input and then into ``grads``.
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

    The panels are shared out (``_share_out``), largest first, over the
    panel sets of ``buffers``; panels write disjoint rows and their mirrored
    columns.  Every array is a view of ``buffers`` (a
    set made for this call when None), so the returned system is
    overwritten by the next step that uses the same set.
    """
    r, dt = bases[0].shape[1], bases[0].dtype
    buffers = TrainingBuffers.fitting(buffers, bases[0])
    system = _leading(buffers.systems[0], r, r)
    starts = collections.deque(reversed(range(0, r, PANEL_ROWS)))
    _share_out(starts, buffers.panel_sets,
               functools.partial(_assemble_panel, system, gram, bases, grads))
    system[np.diag_indices(r)] += dt.type(alpha)
    return system


def _assemble_panel(system: np.ndarray, gram: np.ndarray | None, bases: list[np.ndarray],
                    grads: list[np.ndarray], i0: int,
                    panel_set: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
    """Build the panel of ``assemble_system`` whose rows start at ``i0``, in ``panel_set``."""
    rows = slice(i0, min(i0 + PANEL_ROWS, system.shape[0]))
    i1 = rows.stop
    h1, g1 = bases[0], grads[0]
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

        The batch is checked once, here, and its chunks of ``chunk_rows``
        rows are shared out (``_share_out``), so the scores do not depend on
        the worker count.  Nor do they depend on how many rows the call has,
        except in the last bits of the call's final partial block of
        ``PART_ROW_MULTIPLE`` rows: the first m rows of a batch, m a multiple
        of it, score as in a call on the whole batch.

        A chunk is transposed into its working set, as ``layer1`` transposes
        a batch, and one product with the replicas' stacked layer-1
        coefficients gives every layer-1 output; each replica's packages
        2..q then run through ``forward_batch`` into two output buffers that
        alternate.  So the chunk size bounds the memory a call holds,
        whatever the depth.
        """
        x0 = as_matrix(x0, dtype=self.dtype, name="batch input")
        r = x0.shape[0]
        if x0.shape[1] != self.widths[0]:
            raise ShapeMismatchError(f"batch has shape {x0.shape}, model expects width "
                                     f"{self.widths[0]}")
        out = np.empty((r, self.d), dtype=self.dtype)
        step = self.chunk_rows
        packages = self.replicas[0].packages
        first = packages[0]
        coeffs1 = np.hstack([c.packages[0].coeffs for c in self.replicas])

        def score_chunk(lo: int, work: list[np.ndarray]) -> None:
            x_buf, dists, kernel_vals, x1_buf, *outputs = work
            rows = slice(lo, lo + step)
            n = x0[rows].shape[0]
            chunk = _leading(x_buf, first.n_in, n)
            np.copyto(chunk, x0[rows].T)
            k1 = first.kernel_values(chunk, sq_dists=_leading(dists, first.k, n),
                                     out=_leading(kernel_vals, first.k, n))
            x1 = np.matmul(coeffs1.T, k1, out=_leading(x1_buf, coeffs1.shape[1], n))
            outs = [_leading(outputs[i % 2], pkg.n_out, n) for i, pkg in enumerate(packages[1:])]
            for j, (c, y) in enumerate(zip(self.replicas, np.vsplit(x1, self.d))):
                chain = [y] + outs
                forward_batch(c.packages[1:], chain, dists, kernel_vals)
                out[rows, j] = chain[-1][0]

        starts = collections.deque(range(0, r, step))
        k = max(pkg.k for pkg in packages)
        n_out = max((pkg.n_out for pkg in packages[1:]), default=1)
        width = min(step, r)
        sizes = [width * self.widths[0], width * k, width * k, width * coeffs1.shape[1],
                 width * n_out, width * n_out]
        _share_out(starts, _work_sets(sizes, self.dtype, len(starts)), score_chunk)
        return out


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
    for d > 1, the Gram H1^T H1 every system reads.  The replicas are then
    shared out (``_share_out``) over min(workers, d) pairs of a system and
    panel sets (``TrainingBuffers.split``), and a task runs each replica's
    sweep right before its ``train_step``, so it holds one replica's
    intermediates at a time.  A lone task (d = 1, or one core) runs in the
    calling thread, outside any region, so its factor and solve keep BLAS's
    threads.  Then one product gives the layer-1 updates, and the replicas
    before the lowest failing one (all, if none failed) take their new
    values in replica order; the others are untouched, and the failing
    one's error is raised, naming it if non-SPD or non-finite.  ``buffers``
    (a new set if None) must hold r rows of the model's dtype.  Targets of
    the wrong shape raise before any update.
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

    def train_replica(j: int, task_buffers: TrainingBuffers) -> None:
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
        for j in _drain(replicas):
            train_replica(j, task_sets[0])
    else:
        _share_out(replicas, task_sets, train_replica)
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
