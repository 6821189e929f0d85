"""The benchmark's own checks, at tiny shapes: oracle, tracer and result format."""

import json
import shutil
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import polycascade as pc
from perfbench import oracle, run
from perfbench.tracing import PER_LAYER, Tracer
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _trained(precision: str, d: int, tmp_path):
    """A small model trained by the program, its snapshot, and raw test rows."""
    train, test = pc.make_shell_task(n_train=80, n_test=40, dim=3, seed=5)
    raw = np.vstack([train.features, test.features]) * [2.0, 0.5, 3.0] + [1.0, -1.0, 4.0]
    labels = np.concatenate([train.labels, test.labels])
    data, spec = pc.fit_apply_transforms(pc.Dataset(raw, labels, n_train=80), pc.TransformSpec())
    task = "binary-auc" if d == 1 else "classify"
    cfg = pc.TrainConfig(widths=[3, 4, 4, d], alpha=5.0, epochs=1, batch_rows=40, seed=3,
                         precision=precision, task=task)
    model, _ = pc.run_training(cfg, data.train, data.test)
    path = tmp_path / "model.phc1"
    pc.save_snapshot(path, model, preprocessing=spec.to_dict())
    return model, data.test, path, raw[80:]


@pytest.mark.parametrize("precision,d", [("float64", 1), ("float64", 3), ("float32", 1)])
def test_oracle_agrees_with_program(tmp_path, precision, d):
    model, test, path, raw = _trained(precision, d, tmp_path)
    snap = oracle.read_phc1(path.read_bytes())
    assert (snap.d, snap.widths, snap.dtype) == (d, [3, 4, 4, 1], precision)
    for replica, stored in zip(model.replicas, snap.values):
        for pkg, values in zip(replica.packages, stored):
            assert np.array_equal(pkg.values.astype(np.float64), values)
    scores = model.scores(test.features)
    oracle.check_scores(scores, snap, raw)


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_oracle_rejects_a_perturbed_stored_value(tmp_path, precision):
    model, test, path, raw = _trained(precision, 1, tmp_path)
    buf = bytearray(path.read_bytes())
    fmt = "<d" if precision == "float64" else "<f"
    # the last package has 9 stored values; its first row is the origin point's
    offset = len(buf) - 9 * struct.calcsize(fmt)
    (value,) = struct.unpack_from(fmt, buf, offset)
    struct.pack_into(fmt, buf, offset, value + 1.0)
    with pytest.raises(oracle.OracleMismatch):
        oracle.check_scores(model.scores(test.features), oracle.read_phc1(bytes(buf)), raw)


def test_oracle_auc_matches_program_with_ties():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 5, size=300).astype(float)
    labels = rng.integers(0, 2, size=300)
    assert oracle.roc_auc(scores, labels) == pytest.approx(pc.roc_auc(scores, labels), abs=1e-12)


def test_oracle_metric_check_enforces_the_floor():
    scores = np.array([[0.1], [0.9], [0.2], [0.8]])
    labels = np.array([0, 1, 1, 0])
    assert oracle.check_metric(0.75, scores, labels, "binary-auc", floor=0.7) == 0.75
    with pytest.raises(oracle.OracleMismatch):
        oracle.check_metric(0.75, scores, labels, "binary-auc", floor=0.8)
    with pytest.raises(oracle.OracleMismatch):
        oracle.check_metric(0.5, scores, labels, "binary-auc", floor=0.4)


def test_traced_self_times_stay_within_wall_time():
    train, test = pc.make_shell_task(n_train=60, n_test=30, dim=4, seed=1)
    cfg = pc.TrainConfig(widths=[4, 5, 5, 1], alpha=5.0, epochs=2, batch_rows=20, seed=0,
                         task="binary-auc")
    original = pc.run_training
    with Tracer() as tracer:
        t0 = time.perf_counter()
        model, _ = pc.run_training(cfg, train, test)
        pc.roc_auc(model.scores(test.features)[:, 0], test.labels)
        wall = time.perf_counter() - t0
    assert pc.run_training is original
    summary = tracer.summary()
    assert tracer.missing == []
    assert all(entry["self_s"] >= -1e-9 for entry in summary.values())
    assert sum(entry["self_s"] for entry in summary.values()) <= wall
    assert summary["cascade.train_step"]["calls"] == 2 * 3
    assert summary["linalg.spd_solve"]["calls"] == 2 * 3
    # phi_matrix is bound in package.py by "from .kernel import", and is still seen
    assert summary["kernel.phi_matrix"]["calls"] > 0


def test_missing_target_reads_as_null(monkeypatch):
    monkeypatch.delattr(pc.linalg, "spd_solve")
    with Tracer() as tracer:
        pass
    assert tracer.missing == ["linalg.spd_solve"]
    metrics = tracer.per_layer_metrics()
    assert metrics["linalg.spd_solve.self_s"]["value"] is None
    assert metrics["cascade.train_step.calls"]["value"] == 0


def test_benchmark_json_matches_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_run_prints_one_result_line():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "shells-deep",
                           "--seed", "3", "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "shells-deep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
