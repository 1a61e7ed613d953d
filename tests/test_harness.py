import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellgraph.harness import (
    HarnessError,
    case_stratified_split,
    compute_metrics,
    standardize_features,
    stratified_split,
)


# ---------------------------------------------------------------------------
# splits


def test_split_single_class_floor_rule():
    labels = np.zeros(40, dtype=int)
    masks = stratified_split(labels, seed=0)
    assert masks.train.sum() == 28
    assert masks.val.sum() == 4
    assert masks.test.sum() == 8


def test_split_two_classes_of_ten():
    labels = np.array([0] * 10 + [1] * 10)
    masks = stratified_split(labels, seed=1)
    for c in (0, 1):
        cls = labels == c
        assert (masks.train & cls).sum() == 7
        assert (masks.val & cls).sum() == 1
        assert (masks.test & cls).sum() == 2


def test_split_same_seed_identical():
    labels = np.random.default_rng(2).integers(0, 2, 50)
    a = stratified_split(labels, seed=5)
    b = stratified_split(labels, seed=5)
    np.testing.assert_array_equal(a.train, b.train)
    np.testing.assert_array_equal(a.val, b.val)
    np.testing.assert_array_equal(a.test, b.test)


@pytest.mark.parametrize("seed, problem", [(-1, "must lie in [0, inf], got -1"), (1.5, "must be an integer, got 1.5")])
def test_split_refuses_a_seed_before_it_draws(seed, problem):
    # numpy's own "expected non-negative integer" once named no seed
    labels = np.array([0, 1, 0, 1])
    for split in (lambda: stratified_split(labels, seed=seed),
                  lambda: case_stratified_split(labels, ["s1", "s1", "s2", "s2"], seed=seed)):
        with pytest.raises(HarnessError, match=f"^{re.escape(f'seed {problem}')}$"):
            split()


def test_split_excludes_unlabeled():
    labels = np.array([0, 1, -1, -1, 0, 1, 0, 1, 0, 1])
    masks = stratified_split(labels, seed=3)
    union = masks.train | masks.val | masks.test
    np.testing.assert_array_equal(union, labels >= 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(5, 60), st.integers(5, 60))
def test_split_proportions_within_one_item(seed, n0, n1):
    labels = np.array([0] * n0 + [1] * n1)
    masks = stratified_split(labels, seed=seed)
    assert not np.any(masks.train & masks.val)
    assert not np.any(masks.train & masks.test)
    assert not np.any(masks.val & masks.test)
    for c, n_c in ((0, n0), (1, n1)):
        cls = labels == c
        assert abs((masks.train & cls).sum() - 0.7 * n_c) <= 1
        assert abs((masks.val & cls).sum() - 0.1 * n_c) <= 1
        # test takes the floor remainders, so it can exceed its target by < 2
        assert abs((masks.test & cls).sum() - 0.2 * n_c) < 2


def test_case_split_keeps_samples_together():
    labels = np.array([0, 1, 0, 1, 0, 0, 1, 1, 0, 0] * 5)
    sample_ids = [f"s{i // 10}" for i in range(50)]
    masks = case_stratified_split(labels, sample_ids, seed=4)
    for s in set(sample_ids):
        rows = np.array([sid == s for sid in sample_ids])
        buckets = {
            name
            for name, mask in (("train", masks.train), ("val", masks.val), ("test", masks.test))
            if np.any(mask & rows)
        }
        assert len(buckets) <= 1


def test_case_split_rejects_ratios_not_summing_to_one():
    with pytest.raises(HarnessError, match="sum to 1"):
        case_stratified_split(np.array([0, 1, 0, 1]), ["a", "a", "b", "b"], ratios=(0.7, 0.2, 0.2))


# The splits as they were before they shared one shuffle-and-cut helper,
# frozen here so the masks can be checked bit for bit against them.


def _reference_stratified_split(labels, ratios, seed):
    labels = np.asarray(labels)
    if not math.isclose(sum(ratios), 1.0, abs_tol=1e-9):
        raise HarnessError("split ratios must sum to 1")
    n = len(labels)
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    classes = sorted(int(c) for c in np.unique(labels[labels >= 0]))
    if not classes:
        raise HarnessError("no labeled nodes to split")
    rng = np.random.default_rng(seed)
    for c in classes:
        idx = np.flatnonzero(labels == c)
        idx = idx[rng.permutation(len(idx))]
        n_train = int(math.floor(ratios[0] * len(idx)))
        n_val = int(math.floor(ratios[1] * len(idx)))
        train[idx[:n_train]] = True
        val[idx[n_train : n_train + n_val]] = True
        test[idx[n_train + n_val :]] = True
    return train, val, test


def _reference_case_split(labels, sample_ids, ratios, seed):
    labels = np.asarray(labels)
    sample_arr = np.array(sample_ids)
    samples = sorted(set(sample_ids))
    has_tumor = {s: bool(np.any(labels[sample_arr == s] == 1)) for s in samples}
    rng = np.random.default_rng(seed)
    buckets = {}
    for group in (False, True):
        members = [s for s in samples if has_tumor[s] == group]
        if not members:
            continue
        members = [members[i] for i in rng.permutation(len(members))]
        n_train = int(math.floor(ratios[0] * len(members)))
        n_val = int(math.floor(ratios[1] * len(members)))
        for s in members[:n_train]:
            buckets[s] = "train"
        for s in members[n_train : n_train + n_val]:
            buckets[s] = "val"
        for s in members[n_train + n_val :]:
            buckets[s] = "test"
    n = len(labels)
    masks = {"train": np.zeros(n, dtype=bool), "val": np.zeros(n, dtype=bool), "test": np.zeros(n, dtype=bool)}
    for i in range(n):
        if labels[i] >= 0:
            masks[buckets[sample_arr[i]]][i] = True
    return masks["train"], masks["val"], masks["test"]


@st.composite
def _split_inputs(draw):
    """Labels in {-1 (unlabeled), 0, 1, 2}, over up to 40 sample ids, with
    every sample holding one class in about half the draws."""
    n = draw(st.integers(1, 120))
    ids = draw(st.lists(st.text("abxyz_019", min_size=1, max_size=3), min_size=1, max_size=40, unique=True))
    sample_ids = draw(st.lists(st.sampled_from(ids), min_size=n, max_size=n))
    if draw(st.booleans()):
        sample_class = {s: draw(st.integers(-1, 2)) for s in ids}
        labels = np.array([sample_class[s] for s in sample_ids])
    else:
        labels = np.array(draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n)))
    n_train = draw(st.integers(0, 100))
    n_val = draw(st.integers(0, 100 - n_train))
    ratios = (n_train / 100, n_val / 100, (100 - n_train - n_val) / 100)
    return labels, sample_ids, ratios, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(_split_inputs())
def test_splits_equal_their_frozen_references(inputs):
    labels, sample_ids, ratios, seed = inputs
    masks = case_stratified_split(labels, sample_ids, ratios=ratios, seed=seed)
    for got, want in zip((masks.train, masks.val, masks.test),
                         _reference_case_split(labels, sample_ids, ratios, seed)):
        np.testing.assert_array_equal(got, want)
    if not np.any(labels >= 0):
        with pytest.raises(HarnessError, match="no labeled nodes"):
            stratified_split(labels, ratios=ratios, seed=seed)
        return
    masks = stratified_split(labels, ratios=ratios, seed=seed)
    for got, want in zip((masks.train, masks.val, masks.test), _reference_stratified_split(labels, ratios, seed)):
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# metrics


def test_metrics_hand_confusion():
    # TP=2, FP=1, FN=1, TN=6
    y_true = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    probs = np.array([0.9, 0.8, 0.1, 0.7, 0.2, 0.1, 0.2, 0.3, 0.1, 0.2])
    m = compute_metrics(y_true, probs)
    assert m.tp == 2 and m.fp == 1 and m.fn == 1 and m.tn == 6
    assert m.precision == pytest.approx(2 / 3)
    assert m.recall == pytest.approx(2 / 3)
    assert m.f1 == pytest.approx(2 / 3)
    assert m.accuracy == pytest.approx(0.8)
    assert m.tp + m.fp + m.fn + m.tn == len(y_true)


def test_metrics_perfect_ranking_auc():
    y_true = np.array([0, 0, 1, 1])
    probs = np.array([0.1, 0.2, 0.8, 0.9])
    assert compute_metrics(y_true, probs).roc_auc == 1.0


def test_metrics_chance_level_auc():
    rng = np.random.default_rng(6)
    y_true = rng.integers(0, 2, 1000)
    probs = rng.random(1000)
    auc = compute_metrics(y_true, probs).roc_auc
    assert 0.45 <= auc <= 0.55


def test_metrics_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(7)
    y_true = rng.integers(0, 2, 200)
    probs = rng.random(200)
    base = compute_metrics(y_true, probs).roc_auc
    squashed = compute_metrics(y_true, 1 / (1 + np.exp(-7 * probs))).roc_auc
    assert base == pytest.approx(squashed, abs=1e-12)


def test_metrics_auc_handles_ties_with_midranks():
    y_true = np.array([0, 1, 0, 1])
    probs = np.array([0.5, 0.5, 0.5, 0.5])
    assert compute_metrics(y_true, probs).roc_auc == pytest.approx(0.5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])), min_size=2, max_size=30))
def test_metrics_auc_matches_pairwise_oracle(pairs):
    y_true = np.array([y for y, _ in pairs])
    probs = np.array([p for _, p in pairs])
    pos, neg = probs[y_true == 1], probs[y_true == 0]
    if len(pos) == 0 or len(neg) == 0:
        return
    wins = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg)
    assert compute_metrics(y_true, probs).roc_auc == wins / (len(pos) * len(neg))


def test_metrics_single_class_auc_nan_with_warning():
    with pytest.warns(UserWarning, match="single class"):
        m = compute_metrics(np.ones(5, dtype=int), np.linspace(0, 1, 5))
    assert math.isnan(m.roc_auc)
    assert m.to_dict()["roc_auc"] is None


def test_metrics_zero_over_zero_convention():
    m = compute_metrics(np.array([0, 0, 1]), np.array([0.1, 0.2, 0.3]))
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0


# ---------------------------------------------------------------------------
# standardization


def test_standardize_uses_train_statistics_only():
    # permuting (or even rescaling) the held-out rows must not leak into
    # the scaling statistics
    rng = np.random.default_rng(8)
    X = rng.normal(size=(20, 4))
    train = np.zeros(20, dtype=bool)
    train[:10] = True
    _, mean_a, std_a = standardize_features(X, train)
    altered = X.copy()
    altered[10:] = altered[10:][::-1] * 3.0 + 100.0
    _, mean_b, std_b = standardize_features(altered, train)
    np.testing.assert_array_equal(mean_a, mean_b)
    np.testing.assert_array_equal(std_a, std_b)


def test_standardize_train_rows_are_zero_mean_unit_std():
    rng = np.random.default_rng(9)
    X = rng.normal(5.0, 3.0, size=(50, 3))
    train = rng.random(50) < 0.6
    Z, _, _ = standardize_features(X, train)
    np.testing.assert_allclose(Z[train].mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(Z[train].std(axis=0), 1.0, atol=1e-12)


def test_standardize_constant_column_guard():
    X = np.ones((10, 2))
    X[:, 1] = np.arange(10)
    Z, _, std = standardize_features(X, np.ones(10, dtype=bool))
    assert std[0] == 1.0
    assert np.all(Z[:, 0] == 0.0)


def test_standardize_imputes_nan_with_warning():
    X = np.random.default_rng(10).normal(size=(8, 2))
    X[3, 1] = np.nan
    with pytest.warns(UserWarning, match="imputed"):
        Z, _, _ = standardize_features(X, np.ones(8, dtype=bool))
    assert Z[3, 1] == 0.0
    assert np.all(np.isfinite(Z))


def test_standardize_a_column_without_a_finite_train_entry_warns_only_of_the_imputation():
    # numpy's "Mean of empty slice" and "Degrees of freedom <= 0" once came
    # with it, and raise under -W error::RuntimeWarning
    X = np.array([[np.nan, 1.0], [np.nan, 2.0], [3.0, 3.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Z, mean, std = standardize_features(X, np.array([True, True, False]))
    assert [(w.category, str(w.message)) for w in caught] == [
        (UserWarning, "standardization imputed 2 NaN feature entries with 0")]
    np.testing.assert_array_equal(mean, [0.0, 1.5])
    np.testing.assert_array_equal(std, [1.0, 0.5])
    np.testing.assert_array_equal(Z, [[0.0, -1.0], [0.0, 1.0], [3.0, 3.0]])


def test_standardize_without_train_rows_names_the_shape():
    with pytest.raises(HarnessError, match="^empty train mask for standardization of a 3x2 table$"):
        standardize_features(np.ones((3, 2)), np.zeros(3, dtype=bool))
