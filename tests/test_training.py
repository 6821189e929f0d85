import csv
import itertools

import numpy as np
import pytest

from polycascade import cascade as cascade_module
from polycascade import training
from polycascade.data import DataFormatError, Dataset
from polycascade.linalg import NotSPDError
from polycascade.synthetic import make_shell_task
from polycascade.training import CSV_HEADER, EpochRecord, TrainConfig, run_training


def small_class_task(seed=0, n=240, dim=6, classes=3):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-0.7, 0.7, (classes, dim))
    labels = rng.integers(0, classes, n)
    features = centers[labels] + 0.15 * rng.standard_normal((n, dim))
    return Dataset(features, labels)


def split_class_task(seed=0, n_train=240, n_test=80, **kw):
    full = small_class_task(seed=seed, n=n_train + n_test, **kw)
    return (Dataset(full.features[:n_train], full.labels[:n_train]),
            Dataset(full.features[n_train:], full.labels[n_train:]))


def test_epochs_zero_smoke():
    train, test = split_class_task(seed=5, n_train=240, n_test=60)
    cfg = TrainConfig(widths=[6, 4, 3], alpha=3.0, epochs=0, batch_rows=50, seed=7)
    model, records = run_training(cfg, train, test)
    assert len(records) == 1
    assert records[0].epoch == 0
    assert 0.0 <= records[0].test_metric <= 1.0


def test_metrics_improve_on_learnable_task():
    train, test = split_class_task(seed=8, n_train=300, n_test=90)
    cfg = TrainConfig(widths=[6, 8, 3], alpha=2.0, epochs=4, batch_rows=75, seed=10)
    _, records = run_training(cfg, train, test)
    assert records[-1].test_metric >= 0.9
    assert records[-1].train_metric > 1.0 / 3.0 + 0.2  # well above chance


def test_run_training_deterministic():
    train, test = split_class_task(seed=11, n_train=240, n_test=60)
    cfg = TrainConfig(widths=[6, 5, 3], alpha=4.0, epochs=2, batch_rows=80, seed=13)
    _, recs_a = run_training(cfg, train, test)
    _, recs_b = run_training(cfg, train, test)
    for a, b in zip(recs_a, recs_b):
        assert a.train_metric == b.train_metric
        assert a.test_metric == b.test_metric
        assert a.residual == b.residual


def test_csv_contract(tmp_path):
    train, test = split_class_task(seed=14, n_train=240, n_test=60)
    cfg = TrainConfig(widths=[6, 4, 3], alpha=3.0, epochs=3, batch_rows=80, seed=16)
    path = tmp_path / "metrics.csv"
    run_training(cfg, train, test, csv_path=path)
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 4  # header + one row per epoch
    assert [int(r[0]) for r in rows[1:]] == [1, 2, 3]


def test_binary_auc_task():
    train, test = make_shell_task(n_train=1500, n_test=400, dim=6, seed=17)
    cfg = TrainConfig(widths=[6, 20, 20, 1], alpha=20.0, epochs=2, batch_rows=300,
                      seed=18, init_mode="identity-fragments", task="binary-auc")
    _, records = run_training(cfg, train, test)
    assert records[-1].test_metric >= 0.9


def test_alpha_zero_rejected_for_deep_cascades():
    with pytest.raises(ValueError):
        TrainConfig(widths=[6, 5, 3], alpha=0.0, epochs=1, batch_rows=10)


@pytest.mark.parametrize("override", [
    {"widths": [6]}, {"widths": [6, 0, 3]}, {"alpha": float("nan")}, {"alpha": -1.0},
    {"seed": -1}, {"sigma2": float("inf")}, {"task": "binary-auc"},
], ids=["one-width", "zero-width", "alpha-nan", "alpha-negative", "seed-negative", "sigma2-inf",
        "binary-auc-three-outputs"])
def test_train_config_rejects_invalid_fields(override):
    with pytest.raises(ValueError):
        TrainConfig(**{"widths": [6, 3], "alpha": 1.0, "epochs": 1, "batch_rows": 10, **override})


def test_epoch_record_rows_lossless():
    rec = EpochRecord(3, 1 / 3, 0.25, 1.5e-3, 2.0)
    row = rec.as_row()
    assert row[0] == 3
    assert float(row[1]) == 1 / 3  # exact round trip


def test_float32_shells_end_to_end(monkeypatch):
    reports = []
    train_multi = training.train_multi

    def recording_train_multi(*args, **kwargs):
        out = train_multi(*args, **kwargs)
        reports.extend(out)
        return out

    monkeypatch.setattr(training, "train_multi", recording_train_multi)
    train, test = make_shell_task(n_train=1500, n_test=400, dim=6, seed=17)
    cfg = TrainConfig(widths=[6, 20, 20, 1], alpha=20.0, epochs=2, batch_rows=300, seed=18,
                      init_mode="identity-fragments", task="binary-auc", precision="float32")
    model, records = run_training(cfg, train, test)
    assert model.dtype == np.float32
    assert records[-1].test_metric >= 0.95
    assert len(reports) == 2 * 5
    # float32 Cholesky on a 300 x 300 system: about 2e-6 here, 1e-14 in float64
    assert max(rep.solve_residual_inf for rep in reports) <= 1e-4


def test_not_spd_error_names_epoch_batch_and_replica(monkeypatch):
    # 3 replicas, 4 batches per epoch: solve call 20 is epoch 2, batch 3, replica 2
    calls = itertools.count()
    spd_solve = cascade_module.spd_solve

    def failing_on_call_20(system, rhs, **kwargs):
        return spd_solve(-system if next(calls) == 20 else system, rhs, **kwargs)

    monkeypatch.setattr(cascade_module, "spd_solve", failing_on_call_20)
    train, test = split_class_task(seed=19, n_train=240, n_test=60)
    cfg = TrainConfig(widths=[6, 5, 3], alpha=4.0, epochs=3, batch_rows=60, seed=20)
    with pytest.raises(NotSPDError, match="epoch 2, batch 3: replica 2: "):
        run_training(cfg, train, test)


@pytest.mark.parametrize("task,widths,train_labels,message", [
    ("binary-auc", [6, 4, 1], np.ones(40), "train labels hold one class"),
    ("binary-auc", [6, 4, 1], np.arange(40) % 3, "train labels must be 0 or 1"),
    ("classify", [6, 4, 3], np.arange(40) % 4, r"train labels must be integers in \[0, 3\)"),
    ("classify", [6, 4, 3], np.arange(40) % 3 + 0.5, "integers"),
], ids=["auc-one-class", "auc-label-2", "classify-label-3", "classify-fraction"])
def test_unusable_labels_rejected_before_the_first_batch(monkeypatch, task, widths, train_labels,
                                                         message):
    monkeypatch.setattr(training, "init_multi", lambda *a, **k: pytest.fail("model was built"))
    rng = np.random.default_rng(0)
    train = Dataset(rng.uniform(-1, 1, (40, 6)), train_labels)
    test = Dataset(rng.uniform(-1, 1, (10, 6)), np.arange(10) % 2)
    cfg = TrainConfig(widths=widths, alpha=1.0, epochs=1, batch_rows=20, task=task)
    with pytest.raises(DataFormatError, match=message):
        run_training(cfg, train, test)
    # the test split is checked too
    with pytest.raises(DataFormatError, match="test labels"):
        run_training(cfg, test, train)
