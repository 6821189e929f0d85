"""Closed-form vs oracle timing sweep with built-in agreement checks.

For each package width in the sweep, times the five ``Package`` operations
that use the octahedral closed form ("fast") against their
general-constellation versions in ``oracle`` ("naive"), verifies the two
agree on every trial, and reports the smallest width where the fast route's
median time wins.  Whether that crossover exists at
small widths is host-dependent: generic matrix products are heavily
optimized, so the structured route tends to win only past a few hundred
inputs.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import oracle
from .constellation import octahedral_points
from .kernel import KernelParams, phi_matrix
from .package import Package

AGREEMENT_TOL = 1e-8
OPS = ("squared_distances", "kernel_values", "coeffs_from_values", "cardinal_basis", "backward")
N_OUT = 8  # output columns of each benchmarked package
MAX_ELEMENTS = 200_000_000  # (n, r) pairs whose r x k arrays exceed this are skipped


@dataclass
class BenchRow:
    op: str
    n: int
    r: int
    fast_seconds: float
    naive_seconds: float
    max_rel_err: float


def _median_time(fn, repeats: int, *make_args) -> float:
    """Median seconds of ``fn(*args)``, each call's ``args`` made untimed by ``make_args``."""
    times = []
    for _ in range(repeats):
        args = [make() for make in make_args]
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.abs(b).max()), 1e-30)
    return float(np.abs(a - b).max()) / scale


def run_bench(widths=(16, 32, 64, 128, 256, 512, 1024, 2048), batch_rows=(64, 256),
              repeats: int = 5, seed: int = 0) -> list[BenchRow]:
    """Time closed form vs oracle for every (op, n, r); verify agreement on each trial."""
    kp = KernelParams()
    rng = np.random.default_rng(seed)
    rows: list[BenchRow] = []
    for n in widths:
        k = 2 * n + 1
        values = rng.uniform(-1, 1, (k, N_OUT))
        pkg = Package(n, kp, values)
        points = octahedral_points(n)
        u = oracle.gram_inverse(points, kp)
        for r in batch_rows:
            if r * k > MAX_ELEMENTS:
                continue
            x = rng.uniform(-1, 1, (r, n))
            xt = np.ascontiguousarray(x.T)  # Package holds a batch features x rows
            m, kv = pkg.squared_distances(xt), pkg.kernel_values(xt)
            g_next = rng.standard_normal((r, N_OUT))
            gt = np.ascontiguousarray(g_next.T)

            def fresh():
                """The batch's kernel values: cardinal_basis writes the basis over them."""
                return kv.copy()

            # each fast route takes fresh kernel values, made outside its timing; the oracle holds
            # batches rows x features, so its batch results are compared as transposed views
            pairs = {
                "squared_distances": (lambda _: pkg.squared_distances(xt),
                                      lambda: oracle.squared_distances(x, points).T),
                "kernel_values": (lambda _: pkg.kernel_values(xt),
                                  lambda: phi_matrix(oracle.squared_distances(x, points), kp).T),
                "coeffs_from_values": (lambda _: pkg.coeffs_from_values(values),
                                       lambda: oracle.coefficients(u, values)),
                "cardinal_basis": (pkg.cardinal_basis,
                                   lambda: oracle.cardinal_basis(kv.T, u).T),
                "backward": (lambda _: pkg.backward(gt, xt),
                             lambda: oracle.backward(g_next, x, m.T, points, pkg.coeffs, kp).T),
            }
            for op, (fast_fn, naive_fn) in pairs.items():
                err = _rel_err(fast_fn(fresh()), naive_fn())
                if err > AGREEMENT_TOL:
                    raise AssertionError(f"{op} n={n} r={r}: routes disagree, rel err {err:.3e}")
                rows.append(BenchRow(op, n, r, _median_time(fast_fn, repeats, fresh),
                                     _median_time(naive_fn, repeats), err))
    return rows


def crossover_widths(rows: list[BenchRow]) -> dict[str, int | None]:
    """Per op: smallest width where the fast route's median beats the naive one."""
    out: dict[str, int | None] = {}
    for op in OPS:
        wins = sorted(row.n for row in rows
                      if row.op == op and row.fast_seconds < row.naive_seconds)
        out[op] = wins[0] if wins else None
    return out


def write_csv(rows: list[BenchRow], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["op", "n", "r", "fast_seconds", "naive_seconds", "max_rel_err"])
        for row in rows:
            w.writerow([row.op, row.n, row.r, f"{row.fast_seconds:.6e}",
                        f"{row.naive_seconds:.6e}", f"{row.max_rel_err:.3e}"])
