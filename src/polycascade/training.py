"""Epoch loop and per-epoch records.

The training loop is deterministic in its seed: replica initialization,
per-epoch shuffles, and the train-metric subsample all derive from it.
Records are appended per epoch and can be streamed to a CSV that survives
interruption (one flush per epoch).
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cascade import INIT_MODES, MultiOutputCascade, init_multi, one_hot_pm1, train_multi
from .data import DataFormatError, Dataset, batches
from .kernel import KernelParams
from .linalg import NotSPDError, resolve_dtype
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
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.alpha == 0 and len(self.widths) > 2:
            raise ValueError("alpha must be > 0 for multi-package cascades")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_rows < 1:
            raise ValueError(f"batch_rows must be >= 1, got {self.batch_rows}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        resolve_dtype(self.precision)
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"init mode must be one of {INIT_MODES}, got {self.init_mode!r}")
        if not 0 <= self.sigma2 < math.inf:
            raise ValueError(f"sigma2 must be finite and >= 0, got {self.sigma2}")
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
    """Reject labels the task cannot train on or score, before any output or batch.

    ``binary-auc`` needs labels 0 and 1, both present in each split;
    ``classify`` needs integer labels in [0, d).
    """
    d = cfg.widths[-1]
    for split, labels in (("train", train.labels), ("test", test.labels)):
        if cfg.task == "binary-auc":
            if not np.isin(labels, (0, 1)).all():
                raise DataFormatError(f"{split} labels must be 0 or 1 for task binary-auc")
            if np.unique(labels).size < 2:
                raise DataFormatError(f"{split} labels hold one class; task binary-auc "
                                      f"needs both 0 and 1")
        elif not np.all((labels == np.floor(labels)) & (labels >= 0) & (labels < d)):
            raise DataFormatError(f"{split} labels must be integers in [0, {d}) for task "
                                  f"classify")


def _targets_for(cfg: TrainConfig, labels: np.ndarray, d: int, dtype) -> np.ndarray:
    if cfg.task == "classify":
        return one_hot_pm1(labels, d, dtype=dtype)
    return (2.0 * np.asarray(labels, dtype=np.float64).reshape(-1, 1) - 1.0).astype(dtype)


def _evaluate(cfg: TrainConfig, model: MultiOutputCascade, data: Dataset) -> float:
    scores = model.scores(data.features)
    if cfg.task == "classify":
        return accuracy(np.argmax(scores, axis=1), data.labels)
    return roc_auc(scores[:, 0], data.labels)


def run_training(cfg: TrainConfig, train: Dataset, test: Dataset,
                 csv_path=None, on_epoch=None) -> tuple[MultiOutputCascade, list[EpochRecord]]:
    """Train a model per the config and record one metric row per epoch.

    With ``epochs == 0`` the returned records hold a single row for the
    initialized model.  ``on_epoch`` (if given) is called with each record
    and the live model as the record is produced.  A non-SPD training system
    raises ``NotSPDError`` naming the epoch, the 1-based batch within it, and
    the replica.  Labels the task cannot use raise ``DataFormatError``
    (``check_labels``) before the first batch.
    """
    check_labels(cfg, train, test)
    d = cfg.widths[-1]
    model = init_multi(cfg.widths, seed=cfg.seed, mode=cfg.init_mode, alpha=cfg.alpha,
                       kernel=cfg.kernel, sigma2=cfg.sigma2, dtype=cfg.precision)
    dtype = resolve_dtype(cfg.precision)

    eval_rng = np.random.default_rng(cfg.seed + 10_007)
    if train.n_rows > TRAIN_EVAL_CAP:
        eval_idx = np.sort(eval_rng.choice(train.n_rows, size=TRAIN_EVAL_CAP, replace=False))
    else:
        eval_idx = np.arange(train.n_rows)
    train_eval = Dataset(train.features[eval_idx], train.labels[eval_idx])

    writer = _CsvSink(csv_path) if csv_path else None
    records: list[EpochRecord] = []

    def emit(record: EpochRecord):
        records.append(record)
        if writer:
            writer.write(record)
        if on_epoch:
            on_epoch(record, model)

    if cfg.epochs == 0:
        t0 = time.perf_counter()
        emit(EpochRecord(0, _evaluate(cfg, model, train_eval),
                         _evaluate(cfg, model, test), float("nan"),
                         time.perf_counter() - t0))
        if writer:
            writer.close()
        return model, records

    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        residuals = []
        batch_iter = batches(train, cfg.batch_rows, seed=cfg.seed + epoch, shuffle=cfg.shuffle)
        for b, batch in enumerate(batch_iter, start=1):
            x0 = batch.features.astype(dtype, copy=False)
            targets = _targets_for(cfg, batch.labels, d, dtype)
            _, workspaces = model.forward_all(x0)
            try:
                reports = train_multi(model, workspaces, targets)
            except NotSPDError as exc:
                raise NotSPDError(f"epoch {epoch}, batch {b}: {exc}") from exc
            # drop this batch's layer-1 state before the next one is built
            del workspaces
            residuals.append(np.mean([rep.residual_before_rms for rep in reports]))
        train_metric = _evaluate(cfg, model, train_eval)
        test_metric = _evaluate(cfg, model, test)
        emit(EpochRecord(epoch, train_metric, test_metric,
                         float(np.mean(residuals)), time.perf_counter() - t0))
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
