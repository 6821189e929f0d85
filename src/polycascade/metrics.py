"""Evaluation metrics: exact-match accuracy and rank-based ROC AUC."""

from __future__ import annotations

import numpy as np


def accuracy(predicted, labels) -> float:
    """Fraction of exact matches."""
    predicted = np.asarray(predicted).ravel()
    labels = np.asarray(labels).ravel()
    if predicted.size != labels.size:
        raise ValueError(f"length mismatch: {predicted.size} predictions, {labels.size} labels")
    return float(np.mean(predicted == labels))


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array, each tie group sharing the mean of its ranks.

    A tie group sorted into 0-based positions ``start .. end - 1`` holds the
    ranks ``start + 1 .. end``, whose mean is ``(start + end + 1) / 2``: a
    half-integer, so the ranks are exact in float64.  The order within a
    tie group does not change them, so the sort need not be stable.
    """
    order = np.argsort(x)
    xs = x[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    ends = np.append(starts[1:], x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve via the rank statistic; ties contribute 1/2.

    Equivalent to the probability that a random positive outscores a random
    negative, computed in O(N log N) from average ranks.  NaN has no place in
    that order, so a NaN or Inf score (a model that overflowed) is rejected,
    naming the first one's index.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.size != labels.size:
        raise ValueError(f"length mismatch: {scores.size} scores, {labels.size} labels")
    finite = np.isfinite(scores)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"roc_auc needs finite scores; score {i} is {scores[i]}")
    positive = labels == np.max(labels)
    n_pos = int(positive.sum())
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs both classes present")
    pos_rank_sum = average_ranks(scores)[positive].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
