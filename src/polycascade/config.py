"""Declarative run configuration: a flat INI file with four sections.

Experiments carry a dozen-plus knobs, so runs are driven by files rather
than flag soup.  Unknown keys are rejected (typo safety) and all referenced
paths are validated before any compute starts.

Example::

    [data]
    format = idx
    train_images = data/train-images-idx3-ubyte
    train_labels = data/train-labels-idx1-ubyte
    test_images = data/t10k-images-idx3-ubyte
    test_labels = data/t10k-labels-idx1-ubyte
    normalize = true

    [model]
    widths = 784,100,20,20,10
    alpha = 200
    init = random

    [train]
    epochs = 10
    batch_rows = 2000
    seed = 0

    [output]
    dir = runs/mnist1
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, TransformSpec, fit_apply_transforms, load_delimited, load_idx
from .kernel import KernelParams
from .synthetic import make_shell_task
from .training import TrainConfig


class ConfigError(ValueError):
    """The run configuration is invalid; message names the offending key."""


_ALLOWED = {
    "data": {"format", "train_images", "train_labels", "test_images", "test_labels",
             "path", "label_column", "delimiter", "train_rows", "test_rows", "max_rows",
             "dim", "data_seed", "log_columns", "log1p_columns", "normalize", "clamp"},
    "model": {"widths", "alpha", "init", "sigma2", "kernel_b", "kernel_c", "precision"},
    "train": {"epochs", "batch_rows", "seed", "shuffle", "task"},
    "output": {"dir", "snapshot_every"},
}

_FORMATS = ("idx", "delimited", "synthetic-shells")


@dataclass
class RunConfig:
    """Fully resolved configuration for one training run."""

    data_format: str
    train_images: Path | None = None
    train_labels: Path | None = None
    test_images: Path | None = None
    test_labels: Path | None = None
    path: Path | None = None
    label_column: int = 0
    delimiter: str = ","
    train_rows: int | None = None
    test_rows: int | None = None
    max_rows: int | None = None
    dim: int = 10
    data_seed: int = 0
    log_columns: tuple[int, ...] = ()
    log1p_columns: tuple[int, ...] = ()
    normalize: bool = True
    clamp: bool = False

    widths: list[int] = field(default_factory=list)
    alpha: float = 1.0
    init: str = "random"
    sigma2: float = 0.0
    kernel_b: float = 5.0
    kernel_c: float = 400.0
    precision: str = "float64"

    epochs: int = 1
    batch_rows: int = 1000
    seed: int = 0
    shuffle: bool = True
    task: str = "classify"

    out_dir: Path = Path("runs/out")
    snapshot_every: int = 0

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            widths=self.widths, alpha=self.alpha, epochs=self.epochs,
            batch_rows=self.batch_rows, seed=self.seed, precision=self.precision,
            init_mode=self.init, shuffle=self.shuffle, sigma2=self.sigma2,
            kernel=KernelParams(b=self.kernel_b, c=self.kernel_c), task=self.task,
        )


def _get(parser, section, key, cast, default):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _int_list(raw: str) -> tuple[int, ...]:
    """Comma-separated ints; a ``VALUExCOUNT`` token repeats (deep cascades)."""
    raw = raw.strip()
    if not raw:
        return ()
    out: list[int] = []
    for tok in raw.replace(" ", "").split(","):
        if "x" in tok:
            val, count = tok.split("x", 1)
            out.extend([int(val)] * int(count))
        else:
            out.append(int(tok))
    return tuple(out)


def load_run_config(path, check_paths: bool = True) -> RunConfig:
    """Parse and validate a run file; raises ConfigError with key coordinates.

    ``check_paths=False`` skips dataset-file existence (dry runs print the
    architecture without requiring staged data).
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as f:
            parser.read_file(f)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for section in parser.sections():
        if section not in _ALLOWED:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser.options(section):
            if key not in _ALLOWED[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")

    fmt = _get(parser, "data", "format", str, None)
    if fmt not in _FORMATS:
        raise ConfigError(f"{path}: [data] format must be one of {_FORMATS}, got {fmt!r}")
    widths_raw = _get(parser, "model", "widths", _int_list, ())
    if len(widths_raw) < 2:
        raise ConfigError(f"{path}: [model] widths needs at least two entries")

    cfg = RunConfig(
        data_format=fmt,
        train_images=_get(parser, "data", "train_images", Path, None),
        train_labels=_get(parser, "data", "train_labels", Path, None),
        test_images=_get(parser, "data", "test_images", Path, None),
        test_labels=_get(parser, "data", "test_labels", Path, None),
        path=_get(parser, "data", "path", Path, None),
        label_column=_get(parser, "data", "label_column", int, 0),
        delimiter=_get(parser, "data", "delimiter", str, ","),
        train_rows=_get(parser, "data", "train_rows", int, None),
        test_rows=_get(parser, "data", "test_rows", int, None),
        max_rows=_get(parser, "data", "max_rows", int, None),
        dim=_get(parser, "data", "dim", int, 10),
        data_seed=_get(parser, "data", "data_seed", int, 0),
        log_columns=_get(parser, "data", "log_columns", _int_list, ()),
        log1p_columns=_get(parser, "data", "log1p_columns", _int_list, ()),
        normalize=_get(parser, "data", "normalize", _bool, True),
        clamp=_get(parser, "data", "clamp", _bool, False),
        widths=list(widths_raw),
        alpha=_get(parser, "model", "alpha", float, 1.0),
        init=_get(parser, "model", "init", str, "random"),
        sigma2=_get(parser, "model", "sigma2", float, 0.0),
        kernel_b=_get(parser, "model", "kernel_b", float, 5.0),
        kernel_c=_get(parser, "model", "kernel_c", float, 400.0),
        precision=_get(parser, "model", "precision", str, "float64"),
        epochs=_get(parser, "train", "epochs", int, 1),
        batch_rows=_get(parser, "train", "batch_rows", int, 1000),
        seed=_get(parser, "train", "seed", int, 0),
        shuffle=_get(parser, "train", "shuffle", _bool, True),
        task=_get(parser, "train", "task", str, "classify"),
        out_dir=_get(parser, "output", "dir", Path, Path("runs/out")),
        snapshot_every=_get(parser, "output", "snapshot_every", int, 0),
    )
    _validate_paths(cfg, path, check_exists=check_paths)
    return cfg


def missing_data_paths(cfg: RunConfig) -> list[tuple[str, Path]]:
    out = []
    for key, p in _required_paths(cfg):
        if p is not None and not Path(p).exists():
            out.append((key, p))
    return out


def _required_paths(cfg: RunConfig) -> list[tuple[str, Path | None]]:
    if cfg.data_format == "idx":
        return [("train_images", cfg.train_images), ("train_labels", cfg.train_labels),
                ("test_images", cfg.test_images), ("test_labels", cfg.test_labels)]
    if cfg.data_format == "delimited":
        return [("path", cfg.path)]
    return []


def _validate_paths(cfg: RunConfig, source: Path, check_exists: bool) -> None:
    for key, p in _required_paths(cfg):
        if p is None:
            raise ConfigError(f"{source}: [data] {key} is required for format {cfg.data_format}")
        if check_exists and not Path(p).exists():
            raise ConfigError(f"{source}: [data] {key} points to a missing file: {p}")


def load_datasets(cfg: RunConfig) -> tuple[Dataset, Dataset, TransformSpec | None]:
    """Materialize train/test datasets, fitting normalization on the train split."""
    if cfg.data_format == "idx":
        train = load_idx(cfg.train_images, cfg.train_labels)
        test = load_idx(cfg.test_images, cfg.test_labels)
        if cfg.max_rows is not None:
            train = Dataset(train.features[:cfg.max_rows], train.labels[:cfg.max_rows])
    elif cfg.data_format == "delimited":
        full = load_delimited(cfg.path, label_column=cfg.label_column,
                              delimiter=cfg.delimiter, max_rows=cfg.max_rows)
        n_train = cfg.train_rows or int(full.n_rows * 0.8)
        if n_train >= full.n_rows:
            raise ConfigError(f"train_rows={n_train} leaves no test rows of {full.n_rows}")
        split = Dataset(full.features, full.labels, n_train=n_train)
        train, test = split.train, split.test
    else:  # synthetic-shells
        train, test = make_shell_task(n_train=cfg.train_rows or 20000,
                                      n_test=cfg.test_rows or 5000, dim=cfg.dim,
                                      seed=cfg.data_seed)

    if not cfg.normalize:
        return train, test, None
    spec = TransformSpec(log_columns=cfg.log_columns, log1p_columns=cfg.log1p_columns,
                         clamp=cfg.clamp)
    joined = Dataset(
        features=np.vstack([train.features, test.features]),
        labels=np.concatenate([train.labels, test.labels]),
        n_train=train.n_rows,
    )
    transformed, fitted = fit_apply_transforms(joined, spec)
    return transformed.train, transformed.test, fitted
