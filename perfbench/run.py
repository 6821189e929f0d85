"""Outside-in benchmark of polycascade training and scoring.

    python3 perfbench/run.py --workload shells-deep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  With ``--trace 0`` the run repeats rounds (one training
run, then evaluations of the test split) for ``--seconds`` seconds and
reports the end-to-end metrics as medians.  With ``--trace 1`` it runs a
fixed plan (the set-ups and one round) three times, the last under
the tracer, and reports per-layer self times and call counts.  Either way
the program's scores and test score are then checked against the oracle,
and the last line of standard output is the JSON result.  Exit codes: 0
done and correct, 1 an output disagreed with the oracle, 2 no program to
measure or bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 15
ORACLE_SAMPLE_ROWS = 64
WORKLOAD_NAMES = ("shells-deep", "mnist-shape", "higgs-eval")
END_TO_END = {"train_rows_per_s": "rows/s", "eval_rows_per_s": "rows/s", "setup_s": "s",
              "peak_rss_mb": "MB", "test_score": "1"}


def host_info(dtype: str) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {"cores": os.cpu_count(), "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": BLAS_THREADS, "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "dtype": dtype}


def run_plan(wl, rounds: int | None, seconds: float = 0.0) -> dict:
    """Set up once untimed and SETUP_REPEATS times timed, then run rounds.

    Rounds run a fixed count, or until ``seconds`` have passed.  The first
    set-up in a process is slower (allocator and import warm-up), so it is
    left out of the median.
    """
    out = {"setup_s": [], "train_s": [], "eval_s": [], "score": [], "ops": 0}
    start = time.perf_counter()
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        state = wl.setup()
        if i:
            out["setup_s"].append(time.perf_counter() - t0)
    model = state.model
    t_rounds = time.perf_counter()
    done = 0
    while done < (rounds or 1) or (rounds is None and time.perf_counter() - t_rounds < seconds):
        if wl.trains:
            t0 = time.perf_counter()
            model, out["train_rows"] = wl.train(state)
            out["train_s"].append(time.perf_counter() - t0)
        for _ in range(wl.eval_repeats):
            t0 = time.perf_counter()
            scores, score = wl.evaluate(state, model)
            out["eval_s"].append(time.perf_counter() - t0)
            out["score"].append(score)
        done += 1
    out["wall_s"] = time.perf_counter() - start
    out["rounds"] = done
    out["ops"] = SETUP_REPEATS + 1 + done * (int(wl.trains) + wl.eval_repeats)
    out.update(state=state, model=model, scores=scores)
    return out


def end_to_end(wl, plan: dict) -> dict:
    if wl.trains:
        train_rows, train_s = plan["train_rows"], plan["train_s"]
    else:  # the training run that made the snapshot, in its own process
        train_rows, train_s = wl.fixture["train_rows"], wl.fixture["train_seconds"]
    values = {
        "train_rows_per_s": train_rows / statistics.median(train_s),
        "eval_rows_per_s": plan["state"].test.n_rows / statistics.median(plan["eval_s"]),
        "setup_s": statistics.median(plan["setup_s"]),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_score": statistics.median(plan["score"]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def oracle_check(wl, plan: dict, seed: int) -> dict:
    """Program scores of sampled test rows and the test score against the oracle."""
    import numpy as np

    from perfbench import oracle

    snap = oracle.read_phc1(wl.snapshot(plan["state"], plan["model"]).read_bytes())
    if snap.dtype != wl.dtype:
        raise oracle.OracleMismatch(f"snapshot holds {snap.dtype}, workload runs {wl.dtype}")
    raw, labels = wl.oracle_rows(plan["state"])
    if not np.array_equal(np.asarray(labels, dtype=np.float64),
                          np.asarray(plan["state"].test.labels, dtype=np.float64)):
        raise oracle.OracleMismatch("program's test labels differ from the oracle's")
    scores = plan["scores"]
    rows = np.random.default_rng(seed).choice(len(raw), size=ORACLE_SAMPLE_ROWS, replace=False)
    err = oracle.check_scores(scores[rows], snap, raw[rows])
    own = oracle.check_metric(plan["score"][-1], scores, labels, wl.task, wl.floor)
    return {"max_score_error": err, "oracle_test_score": own}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src" / "polycascade" / "__init__.py"
    if not source.is_file():
        print(f"perfbench: no program source at {source.parent}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads its BLAS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import polycascade

    if Path(polycascade.__file__).resolve() != source.resolve():
        print(f"perfbench: imported polycascade from {polycascade.__file__}, not {source}",
              file=sys.stderr)
        return 2

    from perfbench import oracle
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work_root))
    detail = {"workload": wl.name, "seed": args.seed, "host": host_info(wl.dtype)}
    try:
        wl.prepare(args.seed, workdir)
        if args.trace:
            run_plan(wl, rounds=1)  # warm-up
            untraced = run_plan(wl, rounds=1)
            with Tracer() as tracer:
                plan = run_plan(wl, rounds=1)
            metrics = tracer.per_layer_metrics()
            self_total = sum(v["self_s"] for v in tracer.summary().values())
            attempted = untraced["ops"] * 3
            detail.update(traced_wall_s=plan["wall_s"], untraced_wall_s=untraced["wall_s"],
                          tracing_overhead=plan["wall_s"] / untraced["wall_s"] - 1.0,
                          traced_share=self_total / plan["wall_s"], spans=len(tracer.spans),
                          missing=tracer.missing)
        else:
            plan = run_plan(wl, rounds=None, seconds=args.seconds)
            metrics = end_to_end(wl, plan)
            attempted = plan["ops"]
            detail.update(rounds=plan["rounds"], setup_samples=len(plan["setup_s"]),
                          train_samples=len(plan["train_s"]), eval_samples=len(plan["eval_s"]))
        try:
            detail["oracle"] = oracle_check(wl, plan, args.seed)
            correct = True
        except oracle.OracleMismatch as exc:
            print(f"perfbench: {wl.name}: {exc}", file=sys.stderr)
            correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
