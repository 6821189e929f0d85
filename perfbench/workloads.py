"""The three workloads, each split into the phases the benchmark times.

``prepare`` makes the benchmark-side inputs from the seed and is never
timed.  ``setup`` is the program-side preparation reported as ``setup_s``.
``train`` (training workloads only) is one ``run_training`` call, and
``evaluate`` scores the test split and computes its metric.  ``oracle_rows``
gives the test rows in the form the oracle starts from: before the
program's normalisation and, for ``higgs-eval``, parsed from the CSV by
numpy rather than by the program.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import polycascade as pc

from . import inputs

ROOT = Path(__file__).resolve().parents[1]


@dataclass
class State:
    """What setup hands to the timed phases."""

    test: pc.Dataset
    train: pc.Dataset | None = None
    model: pc.MultiOutputCascade | None = None
    preprocessing: dict | None = None


class Workload:
    name: str
    dtype: str
    task: str  # "binary-auc" (ROC AUC) | "classify" (accuracy)
    floor: float  # lowest acceptable test score, well above chance
    eval_repeats: int  # evaluations of the test split per round
    config: dict = {}

    @property
    def trains(self) -> bool:
        return bool(self.config)

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> State:
        raise NotImplementedError

    def train(self, state: State) -> tuple[pc.MultiOutputCascade, int]:
        """One training run; returns the model and the rows it trained on."""
        cfg = pc.TrainConfig(seed=self.seed, task=self.task, precision=self.dtype, **self.config)
        model, _ = pc.run_training(cfg, state.train, state.test)
        return model, state.train.n_rows * cfg.epochs

    def evaluate(self, state: State, model) -> tuple[np.ndarray, float]:
        scores = model.scores(state.test.features)
        if self.task == "binary-auc":
            return scores, pc.roc_auc(scores[:, 0], state.test.labels)
        return scores, pc.accuracy(np.argmax(scores, axis=1), state.test.labels)

    def snapshot(self, state: State, model) -> Path:
        """The saved model the oracle reads."""
        path = self.workdir / "model.phc1"
        pc.save_snapshot(path, model, preprocessing=state.preprocessing)
        return path

    def oracle_rows(self, state: State) -> tuple[np.ndarray, np.ndarray]:
        return state.test.features, state.test.labels


class ShellsDeep(Workload):
    """Ten narrow packages, one replica: backward sweep and per-package Gram products."""

    name = "shells-deep"
    dtype = "float64"
    task = "binary-auc"
    floor = 0.9
    eval_repeats = 3
    n_train, n_test = 4000, 5000
    config = dict(widths=[10] + [50] * 9 + [1], alpha=50.0, epochs=1, batch_rows=1000,
                  init_mode="identity-fragments")

    def setup(self) -> State:
        train, test = pc.make_shell_task(n_train=self.n_train, n_test=self.n_test, dim=10,
                                         seed=self.seed)
        return State(test=test, train=train)


class MnistShape(Workload):
    """784-wide input, ten replicas: layer-1 work and ten 1000x1000 solves per batch."""

    name = "mnist-shape"
    dtype = "float64"
    task = "classify"
    floor = 0.5
    eval_repeats = 4
    n_train, n_test = 4000, 1000
    config = dict(widths=[784, 100, 20, 20, 10], alpha=200.0, epochs=1, batch_rows=1000,
                  init_mode="random")

    def prepare(self, seed: int, workdir: Path) -> None:
        super().prepare(seed, workdir)
        self.pixels, self.labels = inputs.mnist_like(self.n_train + self.n_test, seed)

    def setup(self) -> State:
        data, spec = pc.fit_apply_transforms(
            pc.Dataset(self.pixels, self.labels, n_train=self.n_train), pc.TransformSpec())
        return State(test=data.test, train=data.train, preprocessing=spec.to_dict())

    def oracle_rows(self, state: State) -> tuple[np.ndarray, np.ndarray]:
        return self.pixels[self.n_train:], self.labels[self.n_train:]


class HiggsEval(Workload):
    """The eval path: snapshot load, CSV parse, normalisation, float32 scoring."""

    name = "higgs-eval"
    dtype = "float32"
    task = "binary-auc"
    floor = 0.9
    eval_repeats = 1

    def prepare(self, seed: int, workdir: Path) -> None:
        super().prepare(seed, workdir)
        # a separate process, so its memory and time stay out of this workload's metrics
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        subprocess.run([sys.executable, "-m", "perfbench.inputs", "--seed", str(seed),
                        "--out", str(workdir)], cwd=ROOT, env=env, check=True, timeout=170)
        self.fixture = json.loads((workdir / "fixture.json").read_text())

    def setup(self) -> State:
        model, preprocessing = pc.load_snapshot(self.workdir / "model.phc1")
        data = pc.load_delimited(self.workdir / "test.csv", label_column=0)
        data, _ = pc.fit_apply_transforms(data, pc.TransformSpec.from_dict(preprocessing))
        return State(test=data, model=model)

    def snapshot(self, state: State, model) -> Path:
        return self.workdir / "model.phc1"

    def oracle_rows(self, state: State) -> tuple[np.ndarray, np.ndarray]:
        table = np.loadtxt(self.workdir / "test.csv", delimiter=",", ndmin=2)
        return table[:, 1:], table[:, 0]


WORKLOADS = {w.name: w for w in (ShellsDeep, MnistShape, HiggsEval)}
