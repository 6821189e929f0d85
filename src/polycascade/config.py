"""Declarative run configuration: a flat INI file with four sections.

Experiments carry a dozen-plus knobs, so runs are driven by files rather
than flag soup.  Each key is declared once, as a ``RunConfig`` field; loading
rejects unknown keys (typo safety) and invalid values, and validates all
referenced paths, before any data is read.  ``RunConfig.write_ini`` writes
every key back, so the file it writes reruns the same job.

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
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import Dataset, TransformSpec, fit_apply_transforms, load_delimited, load_idx
from .kernel import KernelParams
from .synthetic import make_shell_task
from .training import TrainConfig


class ConfigError(ValueError):
    """The run configuration is invalid; message names the offending key."""


_FORMATS = ("idx", "delimited", "synthetic-shells")


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _int_list(raw: str) -> list[int]:
    """Comma-separated ints; a ``VALUExCOUNT`` token repeats (deep cascades)."""
    raw = raw.strip()
    if not raw:
        return []
    out: list[int] = []
    for tok in raw.replace(" ", "").split(","):
        if "x" in tok:
            val, count = tok.split("x", 1)
            if int(count) < 1:
                raise ValueError(f"repeat count in {tok!r} must be >= 1")
            out.extend([int(val)] * int(count))
        else:
            out.append(int(tok))
    return out


def _delimiter(raw: str) -> str:
    """One character, or none, which reading the file refuses; ``\\t`` stands for a tab."""
    value = "\t" if raw == "\\t" else raw
    if len(value) > 1:
        raise ValueError("a delimiter is one character")
    return value


def _delimiter_text(value: str) -> str:
    return "\\t" if value == "\t" else value


def _key(section: str, parse=str, text=str, **default):
    """A RunConfig field read from ``[section]`` of the INI file through ``parse``.

    ``text`` writes a value back in the form ``parse`` reads.
    """
    return field(metadata={"section": section, "parse": parse, "text": text}, **default)


@dataclass
class RunConfig:
    """Fully resolved configuration for one training run.

    Each field is one INI key of the same name; its metadata names the
    section and the parse function, and its default is the key's default.
    """

    format: str | None = _key("data", default=None)
    train_images: Path | None = _key("data", Path, default=None)
    train_labels: Path | None = _key("data", Path, default=None)
    test_images: Path | None = _key("data", Path, default=None)
    test_labels: Path | None = _key("data", Path, default=None)
    path: Path | None = _key("data", Path, default=None)
    label_column: int = _key("data", int, default=0)
    delimiter: str = _key("data", _delimiter, _delimiter_text, default=",")
    train_rows: int | None = _key("data", int, default=None)
    test_rows: int | None = _key("data", int, default=None)
    max_rows: int | None = _key("data", int, default=None)
    dim: int = _key("data", int, default=10)
    data_seed: int = _key("data", int, default=0)
    log_columns: list[int] = _key("data", _int_list, default_factory=list)
    log1p_columns: list[int] = _key("data", _int_list, default_factory=list)
    normalize: bool = _key("data", _bool, default=True)
    clamp: bool = _key("data", _bool, default=False)

    widths: list[int] = _key("model", _int_list, default_factory=list)
    alpha: float = _key("model", float, default=1.0)
    init: str = _key("model", default="random")
    sigma2: float = _key("model", float, default=0.0)
    kernel_b: float = _key("model", float, default=5.0)
    kernel_c: float = _key("model", float, default=400.0)
    precision: str = _key("model", default="float64")

    epochs: int = _key("train", int, default=1)
    batch_rows: int = _key("train", int, default=1000)
    seed: int = _key("train", int, default=0)
    shuffle: bool = _key("train", _bool, default=True)
    task: str = _key("train", default="classify")

    dir: Path = _key("output", Path, default=Path("runs/out"))
    snapshot_every: int = _key("output", int, default=0)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            widths=self.widths, alpha=self.alpha, epochs=self.epochs,
            batch_rows=self.batch_rows, seed=self.seed, precision=self.precision,
            init_mode=self.init, shuffle=self.shuffle, sigma2=self.sigma2,
            kernel=KernelParams(b=self.kernel_b, c=self.kernel_c), task=self.task,
        )

    def transform_spec(self) -> TransformSpec:
        return TransformSpec(log_columns=tuple(self.log_columns),
                             log1p_columns=tuple(self.log1p_columns), clamp=self.clamp)

    def write_ini(self, path) -> None:
        """Write every set key; loading the file gives back an equal config."""
        lines, section = ["# resolved configuration"], None
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.metadata["section"] != section:
                section = f.metadata["section"]
                lines += ["", f"[{section}]"]
            text = (",".join(map(str, value)) if isinstance(value, list)
                    else f.metadata["text"](value))
            # no space before the value: ";" or "#" after whitespace would start a comment
            lines.append(f"{f.name}={text}")
        Path(path).write_text("\n".join(lines) + "\n")


def load_run_config(path, check_paths: bool = True) -> RunConfig:
    """Parse and validate a run file; raises ConfigError with key coordinates.

    Every value is checked here, before any data is read.  ``check_paths=False``
    skips dataset-file existence (dry runs print the architecture without
    requiring staged data).
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path) as f:
            parser.read_file(f)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    keys = {(f.metadata["section"], f.name): f.metadata["parse"] for f in fields(RunConfig)}
    sections = {section for section, _ in keys}
    values = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            parse = keys.get((section, key))
            if parse is None:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")
            try:
                values[key] = parse(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path}: [{section}] {key} = {raw!r}: {exc}") from exc
    cfg = RunConfig(**values)

    if cfg.format not in _FORMATS:
        raise ConfigError(f"{path}: [data] format must be one of {_FORMATS}, got {cfg.format!r}")
    try:
        cfg.train_config()
        cfg.transform_spec()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if cfg.snapshot_every < 0:
        raise ConfigError(f"{path}: [output] snapshot_every must be >= 0, got {cfg.snapshot_every}")
    _validate_data_values(cfg, path)
    _validate_paths(cfg, path, check_exists=check_paths)
    return cfg


def missing_data_paths(cfg: RunConfig) -> list[tuple[str, Path]]:
    out = []
    for key, p in _required_paths(cfg):
        if p is not None and not Path(p).exists():
            out.append((key, p))
    return out


def _required_paths(cfg: RunConfig) -> list[tuple[str, Path | None]]:
    if cfg.format == "idx":
        return [("train_images", cfg.train_images), ("train_labels", cfg.train_labels),
                ("test_images", cfg.test_images), ("test_labels", cfg.test_labels)]
    if cfg.format == "delimited":
        return [("path", cfg.path)]
    return []


def _validate_data_values(cfg: RunConfig, source: Path) -> None:
    for key in ("train_rows", "test_rows", "max_rows"):
        value = getattr(cfg, key)
        if value is not None and value < 1:
            raise ConfigError(f"{source}: [data] {key} must be >= 1, got {value}")
    if cfg.dim < 1:
        raise ConfigError(f"{source}: [data] dim must be >= 1, got {cfg.dim}")
    if cfg.format == "synthetic-shells" and cfg.dim != cfg.widths[0]:
        raise ConfigError(f"{source}: [data] dim = {cfg.dim} must equal the input width "
                          f"{cfg.widths[0]} for synthetic-shells")
    if cfg.data_seed < 0:
        raise ConfigError(f"{source}: [data] data_seed must be >= 0, got {cfg.data_seed}")
    # load_datasets applies the transforms only when it normalizes
    for key in ("log_columns", "log1p_columns", "clamp"):
        if getattr(cfg, key) and not cfg.normalize:
            raise ConfigError(f"{source}: [data] {key} has no effect with normalize = false")


def _validate_paths(cfg: RunConfig, source: Path, check_exists: bool) -> None:
    for key, p in _required_paths(cfg):
        if p is None:
            raise ConfigError(f"{source}: [data] {key} is required for format {cfg.format}")
        if check_exists and not Path(p).exists():
            raise ConfigError(f"{source}: [data] {key} points to a missing file: {p}")


def load_datasets(cfg: RunConfig) -> tuple[Dataset, Dataset, TransformSpec | None]:
    """Materialize train/test datasets, fitting normalization on the train split."""
    if cfg.format == "idx":
        train = load_idx(cfg.train_images, cfg.train_labels)
        test = load_idx(cfg.test_images, cfg.test_labels)
        if cfg.max_rows is not None:
            train = Dataset(train.features[:cfg.max_rows], train.labels[:cfg.max_rows])
    elif cfg.format == "delimited":
        full = load_delimited(cfg.path, label_column=cfg.label_column,
                              delimiter=cfg.delimiter, max_rows=cfg.max_rows)
        n_train = cfg.train_rows or int(full.n_rows * 0.8)
        if n_train >= full.n_rows:
            raise ConfigError(f"train_rows={n_train} leaves no test rows of {full.n_rows}")
        joined = Dataset(full.features, full.labels, n_train=n_train)
        train, test = joined.train, joined.test
    else:  # synthetic-shells
        train, test = make_shell_task(n_train=cfg.train_rows or 20000,
                                      n_test=cfg.test_rows or 5000, dim=cfg.dim,
                                      seed=cfg.data_seed)

    if not cfg.normalize:
        return train, test, None
    if cfg.format != "delimited":  # a delimited table is already one array of both splits
        joined = Dataset(
            features=np.vstack([train.features, test.features]),
            labels=np.concatenate([train.labels, test.labels]),
            n_train=train.n_rows,
        )
    transformed, fitted = fit_apply_transforms(joined, cfg.transform_spec())
    return transformed.train, transformed.test, fitted
