"""Tabular baselines: random forest and Newton-step gradient boosting.

Both grow greedy CART trees with midpoint thresholds between sorted distinct
feature values (see ``_split_threshold``) and deterministic tie-breaking
(lowest feature index, then lowest threshold). The forest grows Gini trees
in lockstep, a node of every tree per step (``_grow_gini_trees``), and
averages per-tree leaf class frequencies. Boosting is an additive model on
the log-odds with logistic loss: each round grows a depth-limited regression
tree on the negative gradient from one presort per fit (``_grow_tree``) and
sets leaf values by a Newton step.
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
# A node splits at the candidate of lowest cost, the first in (feature,
# threshold) order among equal costs; cuts between equal values are no
# candidates, and each side must keep ``min_leaf`` rows.


def _split_threshold(lo, hi):
    """Midpoint of distinct values ``lo < hi``, or ``hi`` where the midpoint
    rounds onto ``lo`` (adjacent floats, e.g. 0 and 5e-324) or overflows to
    inf: either would send every row to one side of ``x < threshold``.
    Python floats give numpy's bits, and an overflowing sum gives inf
    without numpy's warning."""
    lo, hi = float(lo), float(hi)
    mid = (lo + hi) / 2.0
    return mid if lo < mid <= hi else hi


def _gini_impurity(shares):
    """1 - the sum of squared class shares, from (C, V) shares it overwrites.
    Each class sum has ``class_reduce``'s bits over a contiguous row, as for
    a node's (n - 1, k, C) block of cuts; below 8 classes it adds the rows
    in order, which needs no contiguous (V, C) copy."""
    np.square(shares, out=shares)
    sums = class_reduce(np.add, shares.T if len(shares) < 8 else np.ascontiguousarray(shares.T))[:, 0]
    return np.subtract(1.0, sums, out=sums)


def _dense_ranks(X):
    """Each entry's index among its column's sorted distinct values (-0.0
    and 0.0 are one value): an (n, p) int32 array, a column at a time so
    that no (n, p) temporary is held."""
    ranks = np.empty(X.shape, dtype=np.int32)
    for f in range(X.shape[1]):
        ranks[:, f] = np.unique(X[:, f], return_inverse=True)[1]
    return ranks


def _gini_splits(X, ranks, y, rows, copies, sizes, counts, features, min_leaf):
    """Best Gini split of each of m nodes, searched together.

    Node i holds the next ``sizes[i]`` distinct rows of ``rows``, row
    ``rows[j]`` standing for ``copies[j]`` copies. ``counts`` holds the
    nodes' (m, C) class counts over copies and ``features`` their (m, K)
    ascending candidate features. One argsort of (node, feature, rank) keys
    puts each node's rows in value order on each of its features. A cut
    inside a run of equal keys is no candidate, so the order within a run
    does not matter. Prefix sums are exact int32 counts, so a cut's cost
    has the bits that sorting the node's copies one by one gives; the Gini
    cost keeps the float operations of that per-node search.

    Returns one item per node: None where no cut leaves ``min_leaf`` copies
    on each side, else (feature, threshold, left class counts, n_left,
    entries), where ``entries`` indexes the node's rows in ``rows`` in value
    order on ``feature`` and its first ``n_left`` go left.
    """
    m, K = features.shape
    C = counts.shape[1]
    radix = len(X)
    sizes = np.asarray(sizes)
    node = np.repeat(np.arange(m), sizes)
    key = ((node[:, None] * K + np.arange(K)) * radix + ranks[rows[:, None], features[node]]).ravel()
    entry = np.argsort(key)
    key = key[entry]
    tied = key[1:] == key[:-1]  # a cut inside a run of equal values
    del key
    entry //= K
    # rows :C hold class counts and row C copies, cumulated within each
    # feature's run of the node's rows: each run but the first starts by
    # taking off the run before it, whose total is its node's counts
    counts = np.asarray(counts, dtype=np.int32)
    totals = np.column_stack([counts, counts.sum(axis=1)]).T
    slot_sizes = np.repeat(sizes, K)
    slot_end = np.cumsum(slot_sizes)
    left = np.zeros((C + 1, len(entry)), dtype=np.int32)
    left[C] = copies[entry]
    left[y[rows[entry]], np.arange(len(entry))] = left[C]
    left[:, slot_end[:-1]] -= np.repeat(totals, K, axis=1)[:, :-1]
    np.cumsum(left, axis=1, out=left)
    node_sizes = K * sizes
    left_n = left[C]
    right_n = np.repeat(totals[C], node_sizes)
    right_n -= left_n
    # weighted Gini impurity (left_n * gl + right_n * gr) / n, in place
    right = np.repeat(counts.T, node_sizes, axis=1)
    right -= left[:C]
    with np.errstate(invalid="ignore"):  # 0 / 0 right of each run's last row, which is no cut
        gr = _gini_impurity(right / right_n)
    del right
    gr *= right_n
    cost = _gini_impurity(left[:C] / left_n)
    cost *= left_n
    cost += gr
    cost /= left_n + right_n
    cost[:-1][tied] = math.inf
    cost[slot_end - 1] = math.inf
    cost[(left_n < min_leaf) | (right_n < min_leaf)] = math.inf
    # each node's first lowest cost: the lowest feature, then the lowest threshold
    start = np.cumsum(node_sizes) - node_sizes
    low = np.minimum.reduceat(cost, start)
    hit = np.flatnonzero(cost == np.repeat(low, node_sizes))
    best = hit[np.searchsorted(hit, start)]
    col = (best - start) // sizes
    feature = features[np.arange(m), col]
    first = start + col * sizes  # the chosen feature's first entry
    lo, hi = X[rows[entry[best]], feature], X[rows[entry[best + 1]], feature]
    out = []
    for ok, f, a, b, lc, e, s, e0 in zip(
            (low < math.inf).tolist(), feature.tolist(), lo.tolist(), hi.tolist(), left[:C, best].T.tolist(),
            best.tolist(), sizes.tolist(), first.tolist()):
        out.append((f, _split_threshold(a, b), lc, e - e0 + 1, entry[e0 : e0 + s]) if ok else None)
    return out


def _grow_gini_trees(X, ranks, y, n_classes, samples, rngs, max_depth, min_leaf, features_per_split):
    """Gini trees, one per (rows, copies) sample of distinct rows, grown in lockstep.

    Each step takes the next pending node of every tree in the pre-order of
    a recursion (left child first) and searches the step's nodes together
    (``_gini_splits``). A node that may split draws
    ``np.sort(rng.choice(p, k))`` from its tree's generator, in that order,
    unless ``k >= p``; the trees are those of growing each one alone. A
    tree's rows live in one slice of a shared buffer; a split leaves the
    node's slice in value order on its feature, the left child's rows first.
    A node carries its class counts, so leaves and children need no pass
    over their rows.
    """
    p = X.shape[1]
    rows = np.concatenate([r for r, _ in samples])
    copies = np.concatenate([c for _, c in samples])
    roots = [[None] for _ in samples]
    stacks, end = [], 0
    for (r, c), root in zip(samples, roots):
        counts = np.bincount(y[r], weights=c, minlength=n_classes).astype(np.int64).tolist()
        stacks.append([(end, end + len(r), 0, counts, root, 0)])
        end += len(r)

    def leaf(counts):
        n = sum(counts)
        return {"value": [c / n for c in counts]}

    while live := [t for t, stack in enumerate(stacks) if stack]:
        grow = []
        for t in live:
            node = stacks[t].pop()
            _, _, depth, counts, parent, key = node
            if depth >= max_depth or sum(counts) < 2 * min_leaf or counts.count(0) == n_classes - 1:
                parent[key] = leaf(counts)
            else:
                grow.append((t, node))
        if not grow:
            continue
        if features_per_split < p:
            features = np.array([np.sort(rngs[t].choice(p, size=features_per_split, replace=False))
                                 for t, _ in grow])
        else:
            features = np.tile(np.arange(p), (len(grow), 1))
        spans = [(lo, hi) for _, (lo, hi, *_) in grow]
        r = np.concatenate([rows[lo:hi] for lo, hi in spans])
        c = np.concatenate([copies[lo:hi] for lo, hi in spans])
        splits = _gini_splits(X, ranks, y, r, c, [hi - lo for lo, hi in spans],
                              np.array([node[3] for _, node in grow]), features, min_leaf)
        for (t, (lo, hi, depth, counts, parent, key)), split in zip(grow, splits):
            if split is None:
                parent[key] = leaf(counts)
                continue
            feature, threshold, left, n_left, entries = split
            rows[lo:hi], copies[lo:hi] = r[entries], c[entries]
            child = {"feature": feature, "threshold": threshold, "left": None, "right": None}
            parent[key] = child
            right = [a - b for a, b in zip(counts, left)]
            mid = lo + n_left
            stacks[t] += [(mid, hi, depth + 1, right, child, "right"), (lo, mid, depth + 1, left, child, "left")]
    return [root[0] for root in roots]


def _best_split(X, stats, order, min_leaf):
    """Scan every feature for the lowest within-node sum of squared deviations.

    ``stats`` holds per-row (r, r^2) columns whose prefix sums define the
    cost. ``order`` is the node's (n, p) block of row indices, column f
    holding the node's rows sorted stably by ``X[:, f]``. Returns (cost,
    feature, threshold) with cost = inf when no valid split exists. argmin
    over the transposed cost returns the first minimum in (feature,
    threshold) order.
    """
    n = len(order)
    vs = X[order, np.arange(X.shape[1])]
    prefix = np.cumsum(stats[order], axis=0)
    left_n = np.arange(1, n)[:, None]
    right_n = n - left_n
    left = prefix[:-1]
    cost = _variance_cost(left, prefix[-1] - left, left_n, right_n, n)
    cost[vs[:-1] == vs[1:]] = math.inf
    # cut j leaves j + 1 rows left and n - j - 1 right: both need min_leaf
    cost[: min_leaf - 1] = math.inf
    cost[max(0, n - min_leaf) :] = math.inf
    col, j = divmod(int(np.argmin(cost.T)), n - 1)
    if cost[j, col] == math.inf:
        return (math.inf, -1, 0.0)
    return (float(cost[j, col]), col, _split_threshold(vs[j, col], vs[j + 1, col]))


def _variance_cost(left, right, left_n, right_n, n):
    # stats columns: (r, r^2); impurity = within-node sum of squared deviations
    sse_l = left[..., 1] - left[..., 0] ** 2 / left_n
    sse_r = right[..., 1] - right[..., 0] ** 2 / right_n
    return (sse_l + sse_r) / n


def _grow_tree(X, stats, idx, order, depth, cfg, leaf_value):
    """Recursive greedy regression tree on presorted rows.

    ``idx`` holds the node's rows in ascending order and ``order`` their
    stable sort on every column (``np.argsort(X, axis=0, kind="stable")``
    at the root); a child's order is the parent's filtered to the child's
    rows, which keeps it stable.
    """
    n = len(idx)
    pure = bool(np.all(stats[idx] == stats[idx[0]]))
    if depth >= cfg["max_depth"] or n < 2 * cfg["min_leaf"] or pure:
        return {"value": leaf_value(idx)}
    cost, feature, threshold = _best_split(X, stats, order, cfg["min_leaf"])
    if not math.isfinite(cost):
        return {"value": leaf_value(idx)}
    mask = X[idx, feature] < threshold
    member = np.zeros(len(X), dtype=bool)
    member[idx[mask]] = True
    in_left = member[order.T]
    p = X.shape[1]
    left_order = order.T[in_left].reshape(p, -1).T
    right_order = order.T[~in_left].reshape(p, -1).T
    return {
        "feature": feature,
        "threshold": threshold,
        "left": _grow_tree(X, stats, idx[mask], left_order, depth + 1, cfg, leaf_value),
        "right": _grow_tree(X, stats, idx[~mask], right_order, depth + 1, cfg, leaf_value),
    }


def _tree_apply(node, X, idx, out):
    if "value" in node:
        out[idx] = node["value"]
        return
    mask = X[idx, node["feature"]] < node["threshold"]
    _tree_apply(node["left"], X, idx[mask], out)
    _tree_apply(node["right"], X, idx[~mask], out)


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


# A lockstep group takes as many trees as keep training rows x candidate
# features within this many entries (at least one tree). A tree's distinct
# rows are at most the training rows, so this bounds each step's sort keys
# and its (classes + 1) x entries prefix block.
_LOCKSTEP_ENTRIES = 1 << 16


def train_random_forest(X, y, config: ForestConfig | None = None) -> ForestModel:
    """Bootstrap-aggregated CART trees with a random feature subset per split.

    Tree t draws its bootstrap, then its nodes' features, from the generator
    seeded by ``derive_seed(seed, f"tree-{t}")``. A tree keeps its distinct
    bootstrap rows, each with its number of copies.
    """
    config = config or ForestConfig()
    X, y = _training_arrays(X, y)
    C = int(y.max() + 1)
    n, p = X.shape
    k = config.features_per_split or math.ceil(math.sqrt(p))
    ranks = _dense_ranks(X)
    group = max(1, _LOCKSTEP_ENTRIES // (n * min(k, p)))
    trees = []
    for first in range(0, config.n_trees, group):
        rngs = [np.random.default_rng(derive_seed(config.seed, f"tree-{t}"))
                for t in range(first, min(first + group, config.n_trees))]
        samples = []
        for rng in rngs:
            copies = np.bincount(rng.integers(0, n, size=n), minlength=n) if config.bootstrap else np.ones(n, np.int64)
            rows = np.flatnonzero(copies)
            samples.append((rows, copies[rows]))
        trees += _grow_gini_trees(X, ranks, y, C, samples, rngs, config.max_depth, config.min_leaf, k)
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
    order = np.argsort(X, axis=0, kind="stable")
    trees = []
    for _ in range(config.n_rounds):
        prob = _sigmoid(F)
        residual = y - prob  # negative gradient of logistic loss
        hessian = prob * (1.0 - prob)
        stats = np.stack([residual, residual * residual], axis=1)

        def leaf_value(idx):
            h = hessian[idx].sum()
            return float(residual[idx].sum() / h) if h > 0 else 0.0

        tree = _grow_tree(X, stats, np.arange(len(y)), order, 0, cfg, leaf_value)
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
