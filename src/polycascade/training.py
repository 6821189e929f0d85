"""Epoch loop and per-epoch records.

The training loop is deterministic in its seed: replica initialization,
per-epoch shuffles, and the train-metric subsample all derive from it.
Each batch is one ``train_multi`` call, and each epoch's batches share one
``TrainingBuffers`` set.  Records are appended per epoch and can be streamed
to a CSV that survives interruption (one flush per epoch, closed on every
exit).  Every metric, each epoch's and ``polycascade eval``'s, comes from
``evaluate``: one ``scores`` call, the task's metric, and the first row
without a finite score named when there is one.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cascade import (INIT_MODES, MultiOutputCascade, TrainingBuffers, check_model, init_multi,
                      one_hot_pm1, train_multi)
from .data import DataFormatError, Dataset, batches
from .kernel import KernelParams
from .linalg import NonFiniteError, NotSPDError, resolve_dtype
from .metrics import accuracy, roc_auc

CSV_HEADER = ["epoch", "train_metric", "test_metric", "residual", "seconds"]

# rows used for the per-epoch training-split metric; full test split is always used
TRAIN_EVAL_CAP = 50_000


@dataclass
class TrainConfig:
    """Everything a training run needs besides the data itself."""

    widths: list[int]  # last entry = number of outputs (1 = single scalar)
    alpha: float
    epochs: int
    batch_rows: int
    seed: int = 0
    precision: str = "float64"
    init_mode: str = "random"
    shuffle: bool = True
    sigma2: float = 0.0
    kernel: KernelParams = field(default_factory=KernelParams)
    task: str = "classify"  # "classify" (accuracy) | "binary-auc" (ROC AUC)

    def __post_init__(self):
        """Reject every invalid field here, so a config fails before any data is read."""
        if len(self.widths) < 2 or min(self.widths) < 1:
            raise ValueError(f"widths needs at least two positive entries, got {self.widths}")
        check_model([*self.widths[:-1], 1], self.alpha, self.kernel, self.sigma2, self.precision)
        if self.alpha == 0 and len(self.widths) > 2:
            raise ValueError("alpha must be > 0 for multi-package cascades")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_rows < 1:
            raise ValueError(f"batch_rows must be >= 1, got {self.batch_rows}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"init mode must be one of {INIT_MODES}, got {self.init_mode!r}")
        if self.task not in ("classify", "binary-auc"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.task == "binary-auc" and self.widths[-1] != 1:
            raise ValueError(f"task binary-auc scores one output, but widths end in "
                             f"{self.widths[-1]}")


@dataclass
class EpochRecord:
    epoch: int
    train_metric: float
    test_metric: float
    residual: float
    seconds: float

    def as_row(self) -> list:
        # shortest round-trip float form keeps the CSV lossless
        return [self.epoch, repr(self.train_metric), repr(self.test_metric),
                repr(self.residual), repr(self.seconds)]


def check_labels(cfg: TrainConfig, train: Dataset, test: Dataset) -> None:
    """Reject labels the task cannot train on or score, before any output or batch."""
    for split, data in (("train", train), ("test", test)):
        check_split_labels(data.labels, cfg.task, cfg.widths[-1], split)


def check_split_labels(labels: np.ndarray, task: str, d: int, split: str) -> None:
    """Reject one split's labels that ``task`` cannot score on a model of ``d`` outputs.

    A split needs at least one row.  ``binary-auc`` needs labels 0 and 1,
    both present; ``classify`` needs integer labels in [0, d).  ``split``
    names the split in the error.
    """
    if len(labels) == 0:
        raise DataFormatError(f"{split} holds no rows")
    if task == "binary-auc":
        if not np.isin(labels, (0, 1)).all():
            raise DataFormatError(f"{split} labels must be 0 or 1 for task binary-auc")
        if np.unique(labels).size < 2:
            raise DataFormatError(f"{split} labels hold one class; task binary-auc "
                                  f"needs both 0 and 1")
    elif not np.all((labels == np.floor(labels)) & (labels >= 0) & (labels < d)):
        raise DataFormatError(f"{split} labels must be integers in [0, {d}) for task classify")


def _targets_for(cfg: TrainConfig, labels: np.ndarray, d: int, dtype) -> np.ndarray:
    if cfg.task == "classify":
        return one_hot_pm1(labels, d, dtype=dtype)
    return (2.0 * np.asarray(labels, dtype=np.float64).reshape(-1, 1) - 1.0).astype(dtype)


def evaluate(model: MultiOutputCascade, data: Dataset, task: str, row_name) -> float:
    """``task``'s metric of ``model`` on ``data``: accuracy for classify, ROC AUC for binary-auc.

    ``data`` is scored in one ``scores`` call, with numpy's overflow
    warnings silenced.  Rows score independently, so a row that overflows
    gives a NaN or Inf score in its own row alone; the first row without a
    finite score raises ``NonFiniteError`` naming it as ``row_name(i)`` of
    its 0-based index ``i``.  A NaN or Inf feature, which ``scores`` rejects
    where the batch enters, is named the same way, as a NaN or Inf feature.
    """
    reason = "its values are too large for the model"
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            scores = model.scores(data.features)
        except NonFiniteError:  # a NaN or Inf feature, in the batch as scores cast it
            scores = np.asarray(data.features, dtype=model.dtype)
            reason = f"it holds a NaN or Inf feature in {model.dtype}"
        unscorable = ~np.isfinite(scores).all(axis=1)
    if unscorable.any():
        raise NonFiniteError(f"{row_name(int(unscorable.argmax()))} has no finite score; "
                             f"{reason}")
    if task == "classify":
        return accuracy(np.argmax(scores, axis=1), data.labels)
    return roc_auc(scores[:, 0], data.labels)


def run_training(cfg: TrainConfig, train: Dataset, test: Dataset,
                 csv_path=None, on_epoch=None) -> tuple[MultiOutputCascade, list[EpochRecord]]:
    """Train a model per the config and record one metric row per epoch.

    With ``epochs == 0`` the returned records hold a single row for the
    initialized model.  ``on_epoch`` (if given) is called with each record
    and the live model as the record is produced.  Each epoch's batches share
    one ``TrainingBuffers`` set, made at the epoch's start and sized by its
    first and largest batch, and released before the epoch's evaluation.
    The CSV is closed however the run ends.  A non-SPD training system
    raises ``NotSPDError`` naming the epoch, the 1-based batch within it,
    and the replica.  An empty split and labels the task cannot use raise
    ``DataFormatError`` (``check_labels``) before the model is made.  A NaN or Inf in a training
    system raises ``NonFiniteError`` naming the epoch, batch and replica, as
    a non-SPD one does; the batches train with numpy's overflow warnings
    silenced.  A row of either split without a finite score in an epoch's
    evaluation (``evaluate``) raises ``NonFiniteError`` naming the split
    and the row's 1-based number in it.
    """
    check_labels(cfg, train, test)
    d = cfg.widths[-1]
    model = init_multi(cfg.widths, seed=cfg.seed, mode=cfg.init_mode, alpha=cfg.alpha,
                       kernel=cfg.kernel, sigma2=cfg.sigma2, dtype=cfg.precision)
    dtype = resolve_dtype(cfg.precision)

    # the train metric's rows: a subsample of a large split, else the split itself, uncopied;
    # train_rows gives the split's 0-based row of each of train_eval's
    train_rows, train_eval = range(train.n_rows), train
    if train.n_rows > TRAIN_EVAL_CAP:
        eval_rng = np.random.default_rng(cfg.seed + 10_007)
        train_rows = np.sort(eval_rng.choice(train.n_rows, size=TRAIN_EVAL_CAP, replace=False))
        train_eval = Dataset(train.features[train_rows], train.labels[train_rows])

    writer = _CsvSink(csv_path) if csv_path else None
    records: list[EpochRecord] = []

    def emit(epoch: int, residual: float, t0: float):
        """Evaluate the model on both splits and record the epoch, timed from ``t0``."""
        record = EpochRecord(
            epoch, evaluate(model, train_eval, cfg.task,
                            lambda i: f"train split row {train_rows[i] + 1}"),
            evaluate(model, test, cfg.task, lambda i: f"test split row {i + 1}"), residual,
            time.perf_counter() - t0)
        records.append(record)
        if writer:
            writer.write(record)
        if on_epoch:
            on_epoch(record, model)

    try:
        if cfg.epochs == 0:
            emit(0, float("nan"), time.perf_counter())
        for epoch in range(1, cfg.epochs + 1):
            t0 = time.perf_counter()
            residuals = []
            buffers = TrainingBuffers(min(cfg.batch_rows, train.n_rows), dtype)
            batch_iter = batches(train, cfg.batch_rows, seed=cfg.seed + epoch,
                                 shuffle=cfg.shuffle)
            # an overflow is raised as NonFiniteError where the batch enters or by train_step
            with np.errstate(over="ignore", invalid="ignore"):
                for b, batch in enumerate(batch_iter, start=1):
                    x0 = batch.features.astype(dtype, copy=False)
                    targets = _targets_for(cfg, batch.labels, d, dtype)
                    try:
                        reports = train_multi(model, x0, targets, buffers)
                    except (NotSPDError, NonFiniteError) as exc:
                        raise type(exc)(f"epoch {epoch}, batch {b}: {exc}") from exc
                    residuals.append(np.mean([rep.residual_before_rms for rep in reports]))
            # the buffers are released before scoring allocates its own arrays
            del buffers
            emit(epoch, float(np.mean(residuals)), t0)
    finally:
        if writer:
            writer.close()
    return model, records


class _CsvSink:
    """Appends one row per epoch and flushes immediately, so partial runs keep logs."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(CSV_HEADER)
        self._fh.flush()

    def write(self, record: EpochRecord):
        self._writer.writerow(record.as_row())
        self._fh.flush()

    def close(self):
        self._fh.close()
