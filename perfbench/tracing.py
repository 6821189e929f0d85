"""Per-layer spans recorded from outside the program.

A ``Tracer`` replaces each target function or method with a wrapper that
records a span (name, start, end, enclosing span).  Module-level functions
are replaced in every ``polycascade`` module that binds them, so names taken
with ``from .kernel import phi_matrix`` are caught too.  Spans stay in memory;
``summary`` turns them into per-name self time (duration minus the time the
span's direct children cover) and call counts.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "polycascade"

# (module, attribute); a span is named "<module>.<function or method name>"
TARGETS = (
    ("linalg", "spd_solve"),
    ("kernel", "phi_matrix"),
    ("kernel", "theta_matrix"),
    ("package", "Package.squared_distances"),
    ("package", "Package.forward"),
    ("package", "Package.cardinal_basis"),
    ("package", "Package.backward"),
    ("package", "Package.set_values"),
    ("cascade", "forward_batch"),
    ("cascade", "backward_quantities"),
    ("cascade", "train_step"),
    ("cascade", "MultiOutputCascade.scores"),
    ("cascade", "init_multi"),
    ("snapshot", "load_snapshot"),
    ("data", "load_delimited"),
    ("data", "fit_apply_transforms"),
    ("training", "run_training"),
    ("metrics", "roc_auc"),
    ("metrics", "accuracy"),
    ("synthetic", "make_shell_task"),
)

SPAN_NAMES = tuple(f"{module}.{attr.rsplit('.', 1)[-1]}" for module, attr in TARGETS)

# spans whose call count is reported beside their self time
COUNTED = ("linalg.spd_solve", "package.squared_distances", "package.cardinal_basis",
           "package.set_values", "cascade.train_step")

PER_LAYER = tuple([(f"{name}.self_s", "s") for name in SPAN_NAMES]
                  + [(f"{name}.calls", "count") for name in COUNTED])


class Tracer:
    """Context manager that wraps the targets on entry and restores them on exit."""

    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, start, end, parent index)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for name, (module, attr) in zip(SPAN_NAMES, TARGETS):
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            *classes, leaf = attr.split(".")
            for part in classes:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._replace(owner, leaf, wrapper)
            else:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._replace(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _replace(self, owner, key, wrapper) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Self time in seconds and call count per span name that was entered."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            entry = out.setdefault(name, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += (end - start) - child
            entry["calls"] += 1
        return out

    def per_layer_metrics(self) -> dict[str, dict]:
        """Every per-layer metric; a target the program no longer has reads as null."""
        summary = self.summary()
        metrics = {}
        for metric, unit in PER_LAYER:
            name, field = metric.rsplit(".", 1)
            if name in self.missing:
                metrics[metric] = {"value": None, "unit": unit}
            else:
                metrics[metric] = {"value": summary.get(name, {}).get(field, 0), "unit": unit}
        return metrics
