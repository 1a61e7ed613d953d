"""Tabular baselines: random forest and Newton-step gradient boosting.

Both are built on one greedy CART routine with midpoint thresholds between
sorted distinct feature values (see ``_split_threshold``) and deterministic
tie-breaking (lowest feature index, then lowest threshold). The forest
averages per-tree leaf class frequencies; boosting is an additive model on
the log-odds with logistic loss, each round fitting a depth-limited
regression tree to the negative gradient and setting leaf values by a
Newton step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .dataset import Open, check_fields, class_reduce, config_from_dict, read_model_file, write_model_file
from .rng import derive_seed


class TreeError(Exception):
    pass


@dataclass
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 8
    min_leaf: int = 2
    features_per_split: int | None = None  # None: ceil(sqrt(p))
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        check_fields(self, {
            "n_trees": (int, 1),
            "max_depth": (int, 1),
            "min_leaf": (int, 1),
            "features_per_split": (int | None, 1),
            "bootstrap": (bool,),
            "seed": (int, 0),
        })

    from_dict = classmethod(config_from_dict)


@dataclass
class BoostConfig:
    n_rounds: int = 200
    max_depth: int = 3
    learning_rate: float = 0.1
    min_leaf: int = 2
    # Boosting draws no random numbers. The CLI draws its train/test split
    # from this seed and stores it in the model file, so `evaluate` replays
    # the split; the value the experiment passes goes unused.
    seed: int = 0

    def __post_init__(self):
        check_fields(self, {
            "n_rounds": (int, 1),
            "max_depth": (int, 1),
            "learning_rate": (float, Open(0.0), 1.0),
            "min_leaf": (int, 1),
            "seed": (int, 0),
        })

    from_dict = classmethod(config_from_dict)


# ---------------------------------------------------------------------------
# CART core
#
# Nodes are plain dicts: internal {"feature", "threshold", "left", "right"},
# leaves {"value": [...]}. Traversal goes left when x[feature] < threshold.


def _best_split(X, target_stats, order, features, min_leaf, cost_fn):
    """Scan candidate features for the lowest weighted impurity.

    ``target_stats`` supplies per-sample statistics whose prefix sums define
    the impurity: class one-hots for Gini, (r, r^2) columns for variance.
    ``order`` is the node's (n, k) block of row indices, column c holding
    the node's rows sorted stably by ``X[:, features[c]]`` (see
    ``_node_order``). Returns (cost, feature, threshold) with cost = inf
    when no valid split exists. All candidate features are scored in one
    pass over the block. argmin over the transposed cost returns the first
    minimum in (feature, threshold) order, which implements the
    lowest-feature / lowest-threshold tie rule.
    """
    n = len(order)
    vs = X[order, features]
    prefix = np.cumsum(target_stats[order], axis=0)
    left_n = np.arange(1, n)[:, None]
    right_n = n - left_n
    left = prefix[:-1]
    cost = cost_fn(left, prefix[-1] - left, left_n, right_n, n)
    cost[vs[:-1] == vs[1:]] = math.inf
    # cut j leaves j + 1 rows left and n - j - 1 right: both need min_leaf
    cost[: min_leaf - 1] = math.inf
    cost[max(0, n - min_leaf) :] = math.inf
    col, j = divmod(int(np.argmin(cost.T)), n - 1)
    if cost[j, col] == math.inf:
        return (math.inf, -1, 0.0)
    return (float(cost[j, col]), int(features[col]), _split_threshold(vs[j, col], vs[j + 1, col]))


def _split_threshold(lo, hi):
    """Midpoint of distinct values ``lo < hi``, or ``hi`` where the midpoint
    rounds onto ``lo`` (adjacent floats, e.g. 0 and 5e-324) or overflows to
    inf: either would send every row to one side of ``x < threshold``."""
    mid = (lo + hi) / 2.0
    return float(mid if lo < mid <= hi else hi)


def _node_order(X, idx, features):
    """Rows ``idx`` (ascending) sorted stably by each of ``features``: an (n, k) index block."""
    return idx[np.argsort(X[idx[:, None], features], axis=0, kind="stable")]


def _gini_cost(left, right, left_n, right_n, n):
    gl = 1.0 - class_reduce(np.add, (left / left_n[..., None]) ** 2)[..., 0]
    gr = 1.0 - class_reduce(np.add, (right / right_n[..., None]) ** 2)[..., 0]
    return (left_n * gl + right_n * gr) / n


def _variance_cost(left, right, left_n, right_n, n):
    # stats columns: (r, r^2); impurity = within-node sum of squared deviations
    sse_l = left[..., 1] - left[..., 0] ** 2 / left_n
    sse_r = right[..., 1] - right[..., 0] ** 2 / right_n
    return (sse_l + sse_r) / n


def _grow_tree(X, target_stats, idx, order, depth, cfg, rng, leaf_value, cost_fn):
    """Recursive greedy growth shared by classification and regression.

    ``idx`` holds the node's rows in ascending order. ``order`` is None, and
    the node sorts the features it draws, or the node's ``_node_order`` on
    every column when every column is a candidate; a child's order is then
    the parent's filtered to the child's rows, which keeps it stable.
    """
    n = len(idx)
    pure = bool(np.all(target_stats[idx] == target_stats[idx[0]]))
    if depth >= cfg["max_depth"] or n < 2 * cfg["min_leaf"] or pure:
        return {"value": leaf_value(idx)}
    p = X.shape[1]
    if order is None:
        features = np.sort(rng.choice(p, size=cfg["features_per_split"], replace=False))
        node_order = _node_order(X, idx, features)
    else:
        features = np.arange(p)
        node_order = order
    cost, feature, threshold = _best_split(X, target_stats, node_order, features, cfg["min_leaf"], cost_fn)
    if not math.isfinite(cost):
        return {"value": leaf_value(idx)}
    mask = X[idx, feature] < threshold
    left_order = right_order = None
    if order is not None:
        member = np.zeros(len(X), dtype=bool)
        member[idx[mask]] = True
        in_left = member[order.T]
        left_order = order.T[in_left].reshape(p, -1).T
        right_order = order.T[~in_left].reshape(p, -1).T
    return {
        "feature": feature,
        "threshold": threshold,
        "left": _grow_tree(X, target_stats, idx[mask], left_order, depth + 1, cfg, rng, leaf_value, cost_fn),
        "right": _grow_tree(X, target_stats, idx[~mask], right_order, depth + 1, cfg, rng, leaf_value, cost_fn),
    }


def _presort(X):
    """``_node_order`` of all rows on every column, once per fit."""
    return _node_order(X, np.arange(len(X)), np.arange(X.shape[1]))


def _tree_apply(node, X, idx, out):
    if "value" in node:
        out[idx] = node["value"]
        return
    mask = X[idx, node["feature"]] < node["threshold"]
    _tree_apply(node["left"], X, idx[mask], out)
    _tree_apply(node["right"], X, idx[~mask], out)


def train_cart(X, y, max_depth=8, min_leaf=2, features_per_split=None, rng=None, n_classes=None):
    """Plain greedy CART with Gini impurity; the forest's building block."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    C = int(n_classes if n_classes is not None else y.max() + 1)
    onehot = np.zeros((len(y), C))
    onehot[np.arange(len(y)), y] = 1.0
    cfg = {
        "max_depth": max_depth,
        "min_leaf": min_leaf,
        "features_per_split": features_per_split if features_per_split is not None else X.shape[1],
    }
    rng = rng or np.random.default_rng(0)

    def leaf_value(idx):
        counts = onehot[idx].sum(axis=0)
        return (counts / counts.sum()).tolist()

    order = _presort(X) if cfg["features_per_split"] >= X.shape[1] else None
    return _grow_tree(X, onehot, np.arange(len(y)), order, 0, cfg, rng, leaf_value, _gini_cost)


def _feature_matrix(X) -> np.ndarray:
    """``X`` as a float64 array; TreeError if it holds NaN or inf.

    In training a NaN feature gives a NaN threshold, which sends every row
    right and leaves an empty child; in prediction it sends the row right
    whatever the split.
    """
    X = np.asarray(X, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise TreeError("features contain non-finite values")
    return X


def _training_arrays(X, y):
    """(X, y) as float64 and int64 arrays, or TreeError if they cannot train a model."""
    X = _feature_matrix(X)
    y = np.asarray(y, dtype=np.int64)
    if len(X) < 2:
        raise TreeError("need at least 2 training rows")
    if len(np.unique(y)) < 2:
        raise TreeError("training labels contain a single class")
    return X, y


# ---------------------------------------------------------------------------
# random forest


@dataclass
class ForestModel:
    trees: list
    n_features: int
    n_classes: int
    config: ForestConfig


def train_random_forest(X, y, config: ForestConfig | None = None) -> ForestModel:
    """Bootstrap-aggregated CART trees with a random feature subset per split."""
    config = config or ForestConfig()
    X, y = _training_arrays(X, y)
    C = int(y.max() + 1)
    p = X.shape[1]
    k = config.features_per_split or math.ceil(math.sqrt(p))
    trees = []
    for t in range(config.n_trees):
        rng = np.random.default_rng(derive_seed(config.seed, f"tree-{t}"))
        if config.bootstrap:
            idx = rng.integers(0, len(X), size=len(X))
        else:
            idx = np.arange(len(X))
        tree = train_cart(
            X[idx], y[idx], max_depth=config.max_depth, min_leaf=config.min_leaf,
            features_per_split=k, rng=rng, n_classes=C,
        )
        trees.append(tree)
    return ForestModel(trees=trees, n_features=p, n_classes=C, config=config)


# ---------------------------------------------------------------------------
# gradient boosting


@dataclass
class BoostModel:
    trees: list
    base_score: float  # initial log-odds
    n_features: int
    config: BoostConfig
    train_loss: list  # log-loss per round, position 0 = before any round


def train_gradient_boosting(X, y, config: BoostConfig | None = None) -> BoostModel:
    """Logistic-loss boosting: each round fits a regression tree to the
    negative gradient; leaf values are Newton steps sum(y-p)/sum(p(1-p))
    scaled by the learning rate."""
    config = config or BoostConfig()
    X, y = _training_arrays(X, y)
    if not np.all((y == 0) | (y == 1)):
        raise TreeError("boosting requires binary labels {0, 1}")

    prior = y.mean()
    F = np.full(len(y), math.log(prior / (1.0 - prior)))
    base = float(F[0])
    losses = [_log_loss(y, _sigmoid(F))]
    cfg = {"max_depth": config.max_depth, "min_leaf": config.min_leaf}
    order = _presort(X)
    trees = []
    for _ in range(config.n_rounds):
        prob = _sigmoid(F)
        residual = y - prob  # negative gradient of logistic loss
        hessian = prob * (1.0 - prob)
        stats = np.stack([residual, residual * residual], axis=1)

        def leaf_value(idx):
            h = hessian[idx].sum()
            return float(residual[idx].sum() / h) if h > 0 else 0.0

        tree = _grow_tree(X, stats, np.arange(len(y)), order, 0, cfg, None, leaf_value, _variance_cost)
        step = np.zeros(len(y))
        _tree_apply(tree, X, np.arange(len(y)), step)
        F = F + config.learning_rate * step
        losses.append(_log_loss(y, _sigmoid(F)))
        trees.append(tree)
    return BoostModel(trees=trees, base_score=base, n_features=X.shape[1], config=config, train_loss=losses)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _log_loss(y, p):
    p = np.clip(p, 1e-15, 1 - 1e-15)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


# ---------------------------------------------------------------------------
# prediction and serialization


def predict_tabular(model, X) -> np.ndarray:
    """Class probabilities for a forest or boosting model; rows sum to 1."""
    X = _feature_matrix(X)
    if X.shape[1] != model.n_features:
        raise TreeError(f"feature count {X.shape[1]} does not match training ({model.n_features})")
    if isinstance(model, ForestModel):
        acc = np.zeros((len(X), model.n_classes))
        out = np.zeros((len(X), model.n_classes))
        for tree in model.trees:
            _tree_apply(tree, X, np.arange(len(X)), out)
            acc += out
        return acc / len(model.trees)
    if isinstance(model, BoostModel):
        F = np.full(len(X), model.base_score)
        step = np.zeros(len(X))
        for tree in model.trees:
            _tree_apply(tree, X, np.arange(len(X)), step)
            F += model.config.learning_rate * step
        p = _sigmoid(F)
        return np.stack([1.0 - p, p], axis=1)
    raise TreeError(f"unknown model type {type(model).__name__}")


_KINDS = {"forest": (ForestModel, ForestConfig), "boost": (BoostModel, BoostConfig)}


def save_model(path: str, model) -> None:
    kind = next((kind for kind, (cls, _) in _KINDS.items() if type(model) is cls), None)
    if kind is None:
        raise TreeError(f"cannot serialize {type(model).__name__}")
    write_model_file(path, {**vars(model), "kind": kind, "config": asdict(model.config)})


def load_model(path: str):
    return decode_model(read_model_file(path, TreeError), path)


def decode_model(payload: dict, path: str):
    """The forest or boosting model held by a model file's ``payload`` read from ``path``."""
    if payload["kind"] not in _KINDS:
        raise TreeError(f"{path}: holds a {payload['kind']!r} model, not a forest or boosting model")
    model_cls, config_cls = _KINDS[payload["kind"]]
    fields = {k: v for k, v in payload.items() if k != "kind"}
    try:
        return model_cls(**{**fields, "config": config_cls.from_dict(fields["config"])})
    except (ValueError, KeyError, TypeError) as exc:
        raise TreeError(f"{path}: malformed model payload ({type(exc).__name__}: {exc})") from None
