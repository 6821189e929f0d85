"""Benchmark inputs made from a seed: MNIST-shaped images and the HIGGS-shaped eval files.

Run as a module to produce the ``higgs-eval`` CSV and snapshot again:

    PYTHONPATH=src python3 -m perfbench.inputs --seed 1 --out higgs-inputs

which writes ``test.csv``, ``model.phc1`` and ``fixture.json`` (the rows and
wall times of the training runs that made the snapshot) into ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

import polycascade as pc

SIDE = 28
N_CLASSES = 10
# The class shapes are fixed, as digit shapes are; only the rows vary with the
# seed, so the task is equally hard on every seed.
PROTOTYPE_SEED = 2024
MIX, NOISE, MAX_SHIFT = 0.5, 0.15, 2

HIGGS_DIM = 28
HIGGS_TRAIN_ROWS = 2000
HIGGS_VALID_ROWS = 1000  # run_training's per-epoch evaluation split
HIGGS_TEST_ROWS = 5000  # written to the CSV
HIGGS_TRAIN_REPEATS = 5
HIGGS_CONFIG = dict(widths=[HIGGS_DIM] + [200] * 19 + [1], alpha=1000.0, epochs=1,
                    batch_rows=1000, init_mode="identity-fragments", task="binary-auc",
                    precision="float32")


def _prototypes() -> np.ndarray:
    """One 28x28 ink image per class: three blurred strokes in the central region."""
    rng = np.random.default_rng(PROTOTYPE_SEED)
    yy, xx = np.mgrid[0:SIDE, 0:SIDE].astype(np.float64)
    protos = np.zeros((N_CLASSES, SIDE, SIDE))
    for image in protos:
        for start, stop in rng.uniform(6.0, 21.0, size=(3, 2, 2)):
            for t in np.linspace(0.0, 1.0, 12):
                cy, cx = start + t * (stop - start)
                np.maximum(image, np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / 2.0), out=image)
    return protos


def mnist_like(n_rows: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Ten classes of 784 pixel values, integers in [0, 255].

    Each row is its class prototype, shifted by up to MAX_SHIFT pixels, plus
    a shifted prototype of a random class at weight U(0, MIX), scaled by
    U(0.7, 1), plus Gaussian noise of NOISE, clipped and rounded.  The blended
    second prototype and the noise make classes overlap, so accuracy stays
    well below 1 and a change in model quality shows.
    """
    rng = np.random.default_rng(seed)
    offsets = range(-MAX_SHIFT, MAX_SHIFT + 1)
    shifted = np.stack([[np.roll(p, (dy, dx), axis=(0, 1)).ravel()
                         for dy in offsets for dx in offsets] for p in _prototypes()])
    labels = rng.integers(0, N_CLASSES, size=n_rows)
    blended = rng.integers(0, N_CLASSES, size=n_rows)
    s1, s2 = rng.integers(0, shifted.shape[1], size=(2, n_rows))
    weight = rng.uniform(0.0, MIX, size=(n_rows, 1))
    scale = rng.uniform(0.7, 1.0, size=(n_rows, 1))
    x = scale * (shifted[labels, s1] + weight * shifted[blended, s2])
    x += NOISE * rng.standard_normal(x.shape)
    return np.rint(np.clip(x, 0.0, 1.0) * 255.0), labels


def higgs_units(features: np.ndarray, seed: int) -> np.ndarray:
    """Give each column its own scale and offset, as physical features have."""
    rng = np.random.default_rng(seed + 1)
    scale = rng.uniform(0.5, 3.0, size=features.shape[1])
    offset = rng.uniform(-1.0, 2.0, size=features.shape[1])
    return features * scale + offset


def make_higgs_inputs(seed: int, out_dir) -> dict:
    """Write test.csv (label in column 0, 28 features) and a float32 model.phc1.

    The model is trained by the program on a 28-D shell task whose features
    are put in HIGGS-like units and min-max normalised; the fitted spec is
    embedded in the snapshot.  Training is repeated so its throughput has a
    median; the last model is saved.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_fit = HIGGS_TRAIN_ROWS + HIGGS_VALID_ROWS
    train, test = pc.make_shell_task(n_train=HIGGS_TRAIN_ROWS,
                                     n_test=HIGGS_VALID_ROWS + HIGGS_TEST_ROWS,
                                     dim=HIGGS_DIM, seed=seed)
    raw = higgs_units(np.vstack([train.features, test.features]), seed)
    labels = np.concatenate([train.labels, test.labels])
    data, spec = pc.fit_apply_transforms(pc.Dataset(raw, labels, n_train=HIGGS_TRAIN_ROWS),
                                         pc.TransformSpec())
    valid = pc.Dataset(data.features[HIGGS_TRAIN_ROWS:n_fit], labels[HIGGS_TRAIN_ROWS:n_fit])
    cfg = pc.TrainConfig(seed=seed, **HIGGS_CONFIG)
    seconds = []
    for _ in range(HIGGS_TRAIN_REPEATS):
        t0 = time.perf_counter()
        model, _ = pc.run_training(cfg, data.train, valid)
        seconds.append(time.perf_counter() - t0)
    pc.save_snapshot(out_dir / "model.phc1", model, preprocessing=spec.to_dict())
    table = np.column_stack([labels[n_fit:], raw[n_fit:]])
    np.savetxt(out_dir / "test.csv", table, delimiter=",", fmt="%.18e")
    info = {"train_rows": HIGGS_TRAIN_ROWS * cfg.epochs, "train_seconds": seconds}
    (out_dir / "fixture.json").write_text(json.dumps(info))
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write the higgs-eval CSV and snapshot")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    make_higgs_inputs(args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
