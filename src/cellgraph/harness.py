"""Evaluation harness: stratified and case-level splits, binary metrics, and
feature standardization with train-split statistics."""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import check_field


class HarnessError(Exception):
    pass


@dataclass
class SplitMasks:
    """Boolean train/val/test masks over nodes; unlabeled nodes are in none."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        if np.any(self.train & self.val) or np.any(self.train & self.test) or np.any(self.val & self.test):
            raise HarnessError("split masks overlap")


def _shuffle_and_cut(strata: np.ndarray, ratios, seed: int) -> np.ndarray:
    """Bucket of each item: 0 train, 1 val, 2 test, -1 none (stratum < 0).

    Strata are taken in increasing order. Each one's members are shuffled by
    one ``rng.permutation`` and cut by the floor rule: floor(r_train * m)
    train, floor(r_val * m) validation, the remainder test.
    """
    if not math.isclose(sum(ratios), 1.0, abs_tol=1e-9):
        raise HarnessError("split ratios must sum to 1")
    try:  # before numpy's own message for a seed it cannot take
        check_field("seed", seed, int, 0)
    except ValueError as exc:
        raise HarnessError(str(exc)) from None
    rng = np.random.default_rng(seed)
    bucket = np.full(len(strata), -1)
    for s in np.unique(strata[strata >= 0]):
        members = np.flatnonzero(strata == s)
        members = members[rng.permutation(len(members))]
        n_train = int(math.floor(ratios[0] * len(members)))
        n_val = int(math.floor(ratios[1] * len(members)))
        bucket[members[:n_train]] = 0
        bucket[members[n_train : n_train + n_val]] = 1
        bucket[members[n_train + n_val :]] = 2
    return bucket


def stratified_split(labels: np.ndarray, ratios=(0.7, 0.1, 0.2), seed: int = 0) -> SplitMasks:
    """Per-class shuffle-and-cut split over the labeled nodes.

    Each class contributes floor(r_train * n_c) train and floor(r_val * n_c)
    validation nodes; the remainder goes to test. Unlabeled nodes (label < 0)
    stay outside all three masks.
    """
    labels = np.asarray(labels)
    bucket = _shuffle_and_cut(np.where(labels >= 0, labels, -1), ratios, seed)
    if not np.any(labels >= 0):
        raise HarnessError("no labeled nodes to split")
    return SplitMasks(train=bucket == 0, val=bucket == 1, test=bucket == 2)


def case_stratified_split(labels, sample_ids, ratios=(0.7, 0.1, 0.2), seed: int = 0) -> SplitMasks:
    """Split whole samples (cases) instead of cells.

    Samples, in sorted order, are bucketed with the same floor rule,
    stratified by whether the sample contains any tumor cell; every labeled
    cell inherits its sample's bucket.
    """
    labels = np.asarray(labels)
    samples, cell_sample = np.unique(np.array(sample_ids), return_inverse=True)
    has_tumor = np.zeros(len(samples), dtype=np.int64)
    has_tumor[cell_sample[labels == 1]] = 1
    bucket = _shuffle_and_cut(has_tumor, ratios, seed)[cell_sample]
    bucket[labels < 0] = -1
    return SplitMasks(train=bucket == 0, val=bucket == 1, test=bucket == 2)


# ---------------------------------------------------------------------------
# metrics


# the metric fields a report cell holds and table1.csv shows, in column order
METRIC_NAMES = ("accuracy", "precision", "recall", "f1", "roc_auc")


@dataclass
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    roc_auc: float
    tp: int
    fp: int
    fn: int
    tn: int

    def to_dict(self) -> dict:
        """The fields by name; an undefined (NaN) ROC-AUC becomes None."""
        return {**asdict(self), "roc_auc": None if math.isnan(self.roc_auc) else self.roc_auc}


def compute_metrics(y_true, probabilities, threshold: float = 0.5) -> Metrics:
    """Binary metrics with tumor (class 1) as the positive class.

    ``probabilities`` is either the positive-class probability vector or an
    (n, 2) matrix. Precision/recall/F1 use the 0/0 -> 0 convention; ROC-AUC
    is the midrank statistic and is NaN (with a warning) when y_true has a
    single class.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.ndim == 2:
        probs = probs[:, 1]
    if len(y_true) == 0 or len(y_true) != len(probs):
        raise HarnessError("y_true and probabilities must be aligned and non-empty")
    pred = probs >= threshold
    pos = y_true == 1
    tp = int(np.sum(pred & pos))
    fp = int(np.sum(pred & ~pos))
    fn = int(np.sum(~pred & pos))
    tn = int(np.sum(~pred & ~pos))
    accuracy = (tp + tn) / len(y_true)
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        warnings.warn("ROC-AUC undefined: y_true contains a single class")
        auc = float("nan")
    else:
        # 1-based ranks, ties sharing their midrank
        _, inverse, counts = np.unique(probs, return_inverse=True, return_counts=True)
        ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
        auc = (np.sum(ranks[pos]) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return Metrics(
        accuracy=accuracy, precision=precision, recall=recall, f1=f1,
        roc_auc=float(auc), tp=tp, fp=fp, fn=fn, tn=tn,
    )


# ---------------------------------------------------------------------------
# feature standardization (train statistics only)


def standardize_features(X: np.ndarray, train_mask: np.ndarray):
    """Z-score all rows using mean/std of the train rows only.

    Returns (Z, mean, std). Zero-variance columns divide by 1, and a column
    with no finite train entry keeps mean 0 and std 1. NaN entries
    (degenerate feature sentinels) become 0 after standardization, with a
    warning counting them; cells are never dropped.
    """
    X = np.asarray(X, dtype=np.float64)
    train_rows = X[np.asarray(train_mask, bool)]
    if len(train_rows) == 0:
        raise HarnessError(f"empty train mask for standardization of a {X.shape[0]}x{X.shape[1]} table")
    with warnings.catch_warnings():  # an all-NaN train column: "Mean of empty slice", "Degrees of freedom <= 0"
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = np.nanmean(train_rows, axis=0)
        std = np.nanstd(train_rows, axis=0)
    mean = np.where(np.isfinite(mean), mean, 0.0)
    std = np.where(np.isfinite(std) & (std > 0), std, 1.0)
    Z = (X - mean) / std
    n_nan = int(np.isnan(Z).sum())
    if n_nan:
        warnings.warn(f"standardization imputed {n_nan} NaN feature entries with 0")
        Z = np.nan_to_num(Z, nan=0.0)
    return Z, mean, std
