import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycascade.metrics import accuracy, average_ranks, roc_auc


def test_accuracy_all_correct():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0


def test_accuracy_all_wrong():
    assert accuracy([0, 0, 0], [1, 2, 3]) == 0.0


def test_accuracy_three_of_four():
    assert accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75


def test_accuracy_length_mismatch():
    with pytest.raises(ValueError):
        accuracy([1, 2], [1, 2, 3])


def test_auc_perfect_separation():
    assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0


def test_auc_inverted():
    assert roc_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0


def test_auc_all_tied_is_half():
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


def test_auc_partial_ties():
    # one tie between a positive and a negative contributes 1/2
    assert roc_auc([0.3, 0.5, 0.5], [0, 0, 1]) == pytest.approx(0.75)


def test_auc_single_class_rejected():
    with pytest.raises(ValueError):
        roc_auc([0.1, 0.2], [1, 1])


def test_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(0)
    scores = rng.choice(np.linspace(0, 1, 8), size=60)
    labels = rng.integers(0, 2, size=60)
    if labels.sum() in (0, 60):
        labels[0] = 1 - labels[0]
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    assert roc_auc(scores, labels) == pytest.approx(wins / (len(pos) * len(neg)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.1, max_value=5.0))
def test_auc_invariant_under_monotone_transforms(seed, power):
    rng = np.random.default_rng(seed)
    n = 30
    scores = rng.standard_normal(n)
    labels = rng.integers(0, 2, n)
    if labels.sum() in (0, n):
        labels[0] = 1 - labels[0]
    base = roc_auc(scores, labels)
    # any strictly increasing map preserves the ranking and hence the AUC
    warped = np.sign(scores) * np.abs(scores) ** power + 3.0
    assert roc_auc(warped, labels) == pytest.approx(base, abs=1e-12)
    assert roc_auc(np.exp(scores / 2.0), labels) == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_auc_rejects_non_finite_scores_naming_the_first(bad):
    # a sort puts NaN last, so unchecked it would count as the top score
    with pytest.raises(ValueError, match=f"score 1 is {bad}"):
        roc_auc([0.1, bad, 0.3, bad], [0, 1, 1, 0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([-2.5, -0.0, 0.0, 1.0, 3.25]), min_size=0, max_size=40))
def test_average_ranks_equal_the_counting_definition(values):
    x = np.array(values, dtype=np.float64)
    # rank = count of smaller values + (count of equal values + 1) / 2
    expected = np.array([(x < v).sum() + ((x == v).sum() + 1) / 2 for v in x])
    ranks = average_ranks(x)
    assert ranks.dtype == np.float64
    assert np.array_equal(ranks, expected)
