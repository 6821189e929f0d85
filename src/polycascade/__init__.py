"""Polyharmonic spline cascades trained by regularized linear solves.

A cascade stacks "packages" (families of polyharmonic splines over a shared
octahedral constellation) and trains them by solving one ridge-regularized
linear system per batch instead of running gradient descent.  The
general-constellation reference routes the closed forms are checked against
live in ``polycascade.oracle``, which only ``verify``, ``bench`` and the tests
import.
"""

from .cascade import (Cascade, MultiOutputCascade, TrainingBuffers, TrainStepReport, init_multi,
                      one_hot_pm1, train_multi)
from .constellation import (DegenerateKernelError, OctaCoefficients, derive_coefficients,
                            octahedral_points)
from .data import (Batch, DataFormatError, Dataset, TransformSpec, batches,
                   fit_apply_transforms, load_delimited, load_idx)
from .kernel import EPS_M, KernelParams, NegativeDistanceError, phi, phi_matrix, theta, theta_matrix
from .linalg import NonFiniteError, NotSPDError, ShapeMismatchError, as_matrix, spd_solve
from .metrics import accuracy, roc_auc
from .package import Package
from .snapshot import SnapshotFormatError, load_snapshot, save_snapshot
from .synthetic import make_shell_task
from .training import EpochRecord, TrainConfig, run_training

__version__ = "0.1.0"

__all__ = [
    "Batch", "Cascade", "DataFormatError", "Dataset", "DegenerateKernelError",
    "EPS_M", "EpochRecord", "KernelParams",
    "MultiOutputCascade", "NegativeDistanceError", "NonFiniteError", "NotSPDError",
    "OctaCoefficients", "Package", "ShapeMismatchError",
    "SnapshotFormatError", "TrainConfig", "TrainStepReport", "TrainingBuffers", "TransformSpec",
    "accuracy", "as_matrix", "batches", "derive_coefficients",
    "fit_apply_transforms", "init_multi", "load_delimited", "load_idx", "load_snapshot",
    "make_shell_task", "octahedral_points", "one_hot_pm1", "phi", "phi_matrix", "roc_auc",
    "run_training", "save_snapshot", "spd_solve", "theta", "theta_matrix", "train_multi",
]
