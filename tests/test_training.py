import csv
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from polycascade import cascade as cascade_module
from polycascade import training
from polycascade.cascade import init_multi
from polycascade.data import DataFormatError, Dataset
from polycascade.linalg import NonFiniteError, NotSPDError
from polycascade.metrics import accuracy, roc_auc
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


def test_train_metric_reads_the_split_itself_below_the_cap(monkeypatch):
    # at most TRAIN_EVAL_CAP rows: the per-epoch train metric scores the split's own rows,
    # not a copy of them, names them by their own numbers, and records what a copy of every
    # row gave
    train, test = split_class_task(seed=4)
    cfg = TrainConfig(widths=[6, 8, 3], alpha=1.0, epochs=2, batch_rows=80, seed=4)
    seen = []
    evaluate = training.evaluate

    def watched_evaluate(model, data, task, row_name):
        seen.append((data, row_name))
        return evaluate(model, data, task, row_name)

    monkeypatch.setattr(training, "evaluate", watched_evaluate)
    model, records = run_training(cfg, train, test)
    metric_rows = [(data, name) for data, name in seen if name(0).startswith("train")]
    assert len(metric_rows) == 2
    for data, name in metric_rows:
        assert np.shares_memory(data.features, train.features)
        assert name(7) == "train split row 8"
    every_row = np.arange(train.n_rows)
    copy = Dataset(train.features[every_row], train.labels[every_row])
    assert records[-1].train_metric == evaluate(model, copy, cfg.task, str)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("dtype,too_large", [("float64", 1e308), ("float32", 3e38)])
def test_evaluate_names_the_first_of_two_unscorable_rows_in_different_chunks(dtype, too_large,
                                                                             d):
    # at the model's own chunk size: each bad row overflows in its own row of the one call,
    # and neither is its chunk's first; 3e38 is finite in float32 until it is squared
    model = init_multi([3, 4, d], seed=30, alpha=1.0, dtype=dtype)
    step = model.chunk_rows
    rows = 2 * step + 300
    rng = np.random.default_rng(30)
    features = rng.uniform(-1, 1, (rows, 3))
    first, second = step + 7, 2 * step + 11
    features[first, 1] = too_large
    features[second, 0] = -too_large
    data = Dataset(features, np.arange(rows) % 2)
    task = "binary-auc" if d == 1 else "classify"
    with pytest.raises(NonFiniteError, match=f"^row {first + 1} has no finite score; its "
                                             f"values are too large for the model$"):
        training.evaluate(model, data, task, lambda i: f"row {i + 1}")
    data.features[[first, second]] = 0.0
    scores = model.scores(data.features)
    metric = training.evaluate(model, data, task, str)
    assert metric == (accuracy(np.argmax(scores, axis=1), data.labels) if d > 1
                      else roc_auc(scores[:, 0], data.labels))


@pytest.mark.parametrize("epochs", [0, 1])
def test_nan_feature_is_named_by_its_split_row(monkeypatch, epochs):
    # scores rejects a NaN feature where the batch enters; the row is named all the same,
    # a train row by its number in the split, not in the train metric's subsample
    train, test = split_class_task(seed=31)
    cfg = TrainConfig(widths=[6, 5, 3], alpha=2.0, epochs=epochs, batch_rows=80, seed=32)
    test.features[57, 2] = np.nan
    with pytest.raises(NonFiniteError, match="^test split row 58 has no finite score"):
        run_training(cfg, train, test)
    if epochs:
        return
    monkeypatch.setattr(training, "TRAIN_EVAL_CAP", 100)
    subsample = np.sort(np.random.default_rng(cfg.seed + 10_007).choice(
        train.n_rows, size=100, replace=False))
    bad = int(subsample[60])
    assert bad != 60
    train.features[bad, 0] = np.nan
    with pytest.raises(NonFiniteError, match=f"^train split row {bad + 1} has no finite score"):
        run_training(cfg, train, test)


def test_overflowing_training_row_names_epoch_batch_and_replica():
    # a finite feature too large for the model: its system turns NaN, raised without warnings
    train, test = split_class_task(seed=33, n_train=120, n_test=40)
    train.features[70, 1] = 1e308
    cfg = TrainConfig(widths=[6, 5, 3], alpha=2.0, epochs=2, batch_rows=40, seed=34,
                      shuffle=False)
    with pytest.raises(NonFiniteError, match="^epoch 1, batch 2: replica 0: training system"):
        run_training(cfg, train, test)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_training_buffers_live_for_one_epoch(monkeypatch, dtype):
    # 400 rows in batches of 160: two full batches of two panels each, then a short one
    train, test = make_shell_task(n_train=400, n_test=100, dim=4, seed=23)
    cfg = TrainConfig(widths=[4, 5, 5, 1], alpha=5.0, epochs=2, batch_rows=160, seed=24,
                      init_mode="identity-fragments", task="binary-auc", precision=dtype)
    r = cfg.batch_rows
    square_bytes = r * r * np.dtype(dtype).itemsize
    train_multi, train_step = training.train_multi, cascade_module.train_step
    sets, reused, peaks, systems, kept = [], [], [], [], []

    def watched_train_multi(model, x0, targets, buffers):
        reused.append(bool(sets) and sets[-1]() is buffers)
        sets.append(weakref.ref(buffers))
        return train_multi(model, x0, targets, buffers)

    def watched_train_step(*args):
        # each step works in the set its batch was given, in the arrays of the epoch's first step
        buffers = args[-1]
        if not reused[-1]:
            systems.append(weakref.ref(buffers.system))
        kept.append(buffers is sets[-1]() and systems[-1]() is buffers.system)
        # the forward pass runs inside train_multi, so only the second batch's steps are traced
        if len(sets) != 2:
            return train_step(*args)
        tracemalloc.start()
        try:
            out = train_step(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(training, "train_multi", watched_train_multi)
    monkeypatch.setattr(cascade_module, "train_step", watched_train_step)
    model, records = run_training(cfg, train, test)
    # one set per epoch, released before the next epoch's, and nothing r x r outlives the run
    assert reused == [False, True, True, False, True, True]
    assert len(kept) == 6 and all(kept)
    assert all(ref() is None for ref in sets)
    assert len(peaks) == 1 and peaks[0] < square_bytes  # a steady-state step makes no r x r array

    monkeypatch.setattr(training, "train_multi",
                        lambda model, x0, targets, buffers: train_multi(model, x0, targets))
    alone, alone_records = run_training(cfg, train, test)
    for rec, other in zip(records, alone_records):
        assert (rec.epoch, rec.train_metric, rec.test_metric, rec.residual) == (
            other.epoch, other.train_metric, other.test_metric, other.residual)
    for pa, pb in zip(model.replicas[0].packages, alone.replicas[0].packages):
        assert np.array_equal(pa.values, pb.values)


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


def test_metrics_csv_is_closed_when_a_batch_raises(monkeypatch, tmp_path):
    sinks = []

    class WatchedSink(training._CsvSink):
        def __init__(self, path):
            super().__init__(path)
            sinks.append(self)

    def failing_spd_solve(system, rhs, **kwargs):
        raise NotSPDError("leading minor 1 is not positive")

    monkeypatch.setattr(training, "_CsvSink", WatchedSink)
    monkeypatch.setattr(cascade_module, "spd_solve", failing_spd_solve)
    train, test = split_class_task(seed=21, n_train=120, n_test=40)
    cfg = TrainConfig(widths=[6, 5, 3], alpha=4.0, epochs=2, batch_rows=60, seed=22)
    path = tmp_path / "metrics.csv"
    with pytest.raises(NotSPDError, match="epoch 1, batch 1: replica 0"):
        run_training(cfg, train, test, csv_path=path)
    assert len(sinks) == 1 and sinks[0]._fh.closed
    with open(path, newline="") as f:
        assert list(csv.reader(f)) == [CSV_HEADER]


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
