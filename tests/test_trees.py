import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellgraph import trees
from cellgraph.rng import derive_seed
from cellgraph.trees import (
    BoostConfig,
    ForestConfig,
    TreeError,
    load_model,
    predict_tabular,
    save_model,
    train_cart,
    train_gradient_boosting,
    train_random_forest,
)


def separable_1d(n=60, margin=1.0, seed=0):
    rng = np.random.default_rng(seed)
    neg = rng.uniform(-3.0, -margin / 2, size=n // 2)
    pos = rng.uniform(margin / 2, 3.0, size=n // 2)
    X = np.concatenate([neg, pos])[:, None]
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y


# ---------------------------------------------------------------------------
# configs


@pytest.mark.parametrize(
    "cls, key, value",
    [
        (ForestConfig, "n_trees", 2.5),
        (ForestConfig, "max_depth", 0),
        (ForestConfig, "min_leaf", True),
        (ForestConfig, "features_per_split", 0),
        (ForestConfig, "features_per_split", 2.0),
        (ForestConfig, "bootstrap", 1),
        (ForestConfig, "seed", -1),
        (BoostConfig, "n_rounds", 2.5),
        (BoostConfig, "max_depth", "3"),
        (BoostConfig, "learning_rate", "0.1"),
        (BoostConfig, "learning_rate", 0.0),
        (BoostConfig, "learning_rate", 1.5),
        (BoostConfig, "seed", 1.5),
    ],
)
def test_config_rejects_bad_value_by_key_name(cls, key, value):
    with pytest.raises(ValueError, match=key):
        cls.from_dict({key: value})


def test_config_accepts_numpy_integers_and_unset_split_size():
    assert ForestConfig.from_dict({"n_trees": np.int64(3), "features_per_split": None}).n_trees == 3
    assert BoostConfig.from_dict({"n_rounds": np.int32(2), "learning_rate": 1}).learning_rate == 1


# ---------------------------------------------------------------------------
# split search


def reference_best_split(X, target_stats, idx, features, min_leaf, variance):
    """One feature at a time: sort, find value boundaries, score each with
    prefix sums and keep the first strict improvement. Features ascend and
    thresholds ascend within a feature, so ties go to the lowest feature,
    then the lowest threshold."""
    n = len(idx)
    best = (math.inf, -1, 0.0)
    for f in features:
        v = X[idx, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        stats = target_stats[idx[order]]
        boundaries = np.flatnonzero(vs[:-1] != vs[1:])
        if len(boundaries) == 0:
            continue
        prefix = np.cumsum(stats, axis=0)
        left_n = boundaries + 1
        right_n = n - left_n
        valid = (left_n >= min_leaf) & (right_n >= min_leaf)
        if not valid.any():
            continue
        left = prefix[boundaries]
        right = prefix[-1] - left
        if variance:
            cost = ((left[:, 1] - left[:, 0] ** 2 / left_n) + (right[:, 1] - right[:, 0] ** 2 / right_n)) / n
        else:
            gl = 1.0 - np.sum((left / left_n[:, None]) ** 2, axis=1)
            gr = 1.0 - np.sum((right / right_n[:, None]) ** 2, axis=1)
            cost = (left_n * gl + right_n * gr) / n
        cost[~valid] = math.inf
        j = int(np.argmin(cost))
        if cost[j] < best[0]:
            threshold = (vs[boundaries[j]] + vs[boundaries[j] + 1]) / 2.0
            best = (float(cost[j]), int(f), float(threshold))
    return best


@st.composite
def split_problems(draw):
    """Integer features in [-2, 2] (so equal costs tie exactly), some columns
    constant, a row subset, a feature subset, and Gini (2 or 3 classes) or
    variance targets."""
    n_rows = draw(st.integers(2, 24))
    p = draw(st.integers(1, 6))
    rows = st.integers(-2, 2)
    X = np.array(draw(st.lists(st.lists(rows, min_size=n_rows, max_size=n_rows), min_size=p, max_size=p)),
                 dtype=np.float64).T
    for f in draw(st.sets(st.integers(0, p - 1), max_size=p)):
        X[:, f] = draw(rows)
    idx = np.flatnonzero(draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)))
    if len(idx) < 2:
        idx = np.arange(n_rows)
    features = np.array(sorted(draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=p))))
    min_leaf = draw(st.integers(1, 5))
    n_classes = draw(st.sampled_from([0, 2, 3]))  # 0: variance cost
    if n_classes:
        y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n_rows, max_size=n_rows)))
        stats = np.eye(n_classes)[y]
    else:
        r = np.array(draw(st.lists(
            st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-1.0, 1.0)),
            min_size=n_rows, max_size=n_rows,
        )))
        stats = np.stack([r, r * r], axis=1)
    return X, stats, idx, features, min_leaf, not n_classes


@settings(max_examples=400, deadline=None)
@given(split_problems(), st.data())
def test_best_split_matches_per_feature_reference(problem, data):
    X, stats, idx, features, min_leaf, variance = problem
    if variance:
        # boosting's search scores every column of its matrix
        order = frozen_node_order(X[:, features], idx, np.arange(len(features)))
        cost, col, threshold = trees._best_split(X[:, features], stats, order, min_leaf)
        got = (cost, int(features[col]) if col >= 0 else -1, threshold)
        assert got == reference_best_split(X, stats, idx, features, min_leaf, variance)
        return
    # the forest's search: distinct rows standing for 1-3 copies each
    y = stats.argmax(axis=1)
    copies = np.array(data.draw(st.lists(st.integers(1, 3), min_size=len(idx), max_size=len(idx))))
    expanded = np.repeat(idx, copies)
    C = stats.shape[1]
    counts = np.bincount(y[idx], weights=copies, minlength=C)
    [split] = trees._gini_splits(X, trees._dense_ranks(X), y, idx, copies, [len(idx)], counts[None], features[None],
                                 min_leaf)
    _, feature, threshold = reference_best_split(X, stats, expanded, features, min_leaf, variance)
    if feature < 0:
        assert split is None
        return
    got_feature, got_threshold, left, n_left, entries = split
    assert (got_feature, got_threshold) == (feature, threshold)
    goes_left = X[idx, feature] < threshold
    assert left == np.bincount(y[idx][goes_left], weights=copies[goes_left], minlength=C).tolist()
    assert sorted(entries[:n_left].tolist()) == np.flatnonzero(goes_left).tolist()
    assert sorted(entries.tolist()) == list(range(len(idx)))


def reference_grow(X, target_stats, idx, depth, max_depth, min_leaf, leaf_value, variance):
    """Greedy growth that sorts every node's rows afresh, one feature at a
    time (``reference_best_split``), with every feature a candidate."""
    if (depth >= max_depth or len(idx) < 2 * min_leaf
            or np.all(target_stats[idx] == target_stats[idx[0]])):
        return {"value": leaf_value(idx)}
    cost, feature, threshold = reference_best_split(
        X, target_stats, idx, range(X.shape[1]), min_leaf, variance)
    if not math.isfinite(cost):
        return {"value": leaf_value(idx)}
    mask = X[idx, feature] < threshold
    left, right = (reference_grow(X, target_stats, rows, depth + 1, max_depth, min_leaf, leaf_value, variance)
                   for rows in (idx[mask], idx[~mask]))
    return {"feature": feature, "threshold": threshold, "left": left, "right": right}


@st.composite
def tied_problems(draw):
    """A matrix of values rounded to halves in [-1, 1] (many ties in every
    column), binary labels holding both classes, and tree sizes."""
    n_rows = draw(st.integers(4, 40))
    p = draw(st.integers(1, 5))
    half = st.integers(-2, 2).map(lambda v: v / 2.0)
    X = np.array(draw(st.lists(st.lists(half, min_size=p, max_size=p), min_size=n_rows, max_size=n_rows)))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows)))
    y[:2] = (0, 1)
    return X, y, draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(tied_problems())
def test_presorted_trees_equal_per_node_sort_reference(problem):
    # Boosting sorts its matrix once per fit; children filter the parent's
    # order. Each root call of _grow_tree must give the tree that sorting
    # every node gives. CART with every feature a candidate must give it too.
    X, y, max_depth, min_leaf, n_rounds = problem
    roots = []
    grow = trees._grow_tree

    def checked_grow(X, target_stats, idx, order, depth, cfg, leaf_value):
        tree = grow(X, target_stats, idx, order, depth, cfg, leaf_value)
        if depth == 0:  # boosting's leaf_value reads its round's residuals: compare now
            assert tree == reference_grow(X, target_stats, idx, 0, max_depth, min_leaf, leaf_value, True)
            roots.append(tree)
        return tree

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trees, "_grow_tree", checked_grow)
        boost = train_gradient_boosting(X, y, BoostConfig(n_rounds=n_rounds, max_depth=max_depth,
                                                          min_leaf=min_leaf))
    assert roots == boost.trees
    onehot = np.eye(2)[y]

    def leaf_value(idx):
        counts = onehot[idx].sum(axis=0)
        return (counts / counts.sum()).tolist()

    cart = train_cart(X, y, max_depth=max_depth, min_leaf=min_leaf)
    assert cart == reference_grow(X, onehot, np.arange(len(y)), 0, max_depth, min_leaf, leaf_value, False)


def test_boosting_model_bytes_on_tied_matrix_are_pinned(tmp_path):
    # Half-step values tie in every column, so the stable order of equal
    # values decides each prefix sum; no BLAS call is involved.
    rng = np.random.default_rng(12)
    X = rng.integers(0, 4, size=(80, 5)).astype(np.float64) / 2.0
    y = (X[:, 0] + X[:, 1] + rng.integers(0, 2, size=80) > 2.0).astype(int)
    model = train_gradient_boosting(X, y, BoostConfig(n_rounds=8, max_depth=3, min_leaf=2, seed=0))
    save_model(str(tmp_path / "b.bin"), model)
    digest = hashlib.sha256((tmp_path / "b.bin").read_bytes()).hexdigest()
    assert digest == "0cc53fb9c8878632ade89f0aa5716123e76d3e7847ca6f28275af4251c757fb8"


def frozen_best_split(X, target_stats, order, features, min_leaf, cost_fn):
    """``trees._best_split`` before the node made fewer numpy calls (one
    boolean mask for ties and both ``min_leaf`` bounds); kept as the reference
    its trees must equal."""
    n = len(order)
    vs = X[order, features]
    prefix = np.cumsum(target_stats[order], axis=0)
    left_n = np.arange(1, n)[:, None]
    right_n = n - left_n
    left = prefix[:-1]
    cost = cost_fn(left, prefix[-1] - left, left_n, right_n, n)
    cost[(vs[:-1] == vs[1:]) | (left_n < min_leaf) | (right_n < min_leaf)] = math.inf
    col, j = divmod(int(np.argmin(cost.T)), n - 1)
    if cost[j, col] == math.inf:
        return (math.inf, -1, 0.0)
    # the threshold rule is not part of the call count and is shared
    return (float(cost[j, col]), int(features[col]), trees._split_threshold(vs[j, col], vs[j + 1, col]))


def frozen_node_order(X, idx, features):
    return idx[np.argsort(X[np.ix_(idx, features)], axis=0, kind="stable")]


def frozen_gini_cost(left, right, left_n, right_n, n):
    gl = 1.0 - np.sum((left / left_n[..., None]) ** 2, axis=-1)
    gr = 1.0 - np.sum((right / right_n[..., None]) ** 2, axis=-1)
    return (left_n * gl + right_n * gr) / n


@st.composite
def forest_problems(draw):
    """Rows of halves in [-2, 2] (ties in every column) or of arbitrary
    floats, labels from C in {2, 3, 9} classes holding the highest class,
    and forest and boosting sizes with min_leaf in {1, 2, 5}."""
    n_rows = draw(st.integers(4, 60))
    p = draw(st.integers(1, 6))
    value = st.one_of(st.integers(-4, 4).map(lambda v: v / 2.0), st.floats(-3.0, 3.0))
    X = np.array(draw(st.lists(st.lists(value, min_size=p, max_size=p), min_size=n_rows, max_size=n_rows)))
    C = draw(st.sampled_from([2, 3, 9]))
    y = np.array(draw(st.lists(st.integers(0, C - 1), min_size=n_rows, max_size=n_rows)))
    y[:3] = (0, C - 1, 1)
    features_per_split = draw(st.one_of(st.none(), st.integers(1, p)))
    config = dict(max_depth=draw(st.integers(1, 6)), min_leaf=draw(st.sampled_from([1, 2, 5])))
    return X, y, features_per_split, config, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(forest_problems())
def test_forest_and_boosting_trees_equal_frozen_split_search(problem):
    # Every split and every tree keeps the frozen search's bits: boosting's
    # node makes fewer numpy calls, and the forest searches a step's nodes
    # together on distinct rows (the Gini class sum at C = 9 is numpy's own).
    X, y, features_per_split, config, bootstrap = problem
    min_leaf = config["min_leaf"]
    idx, features = np.arange(len(y)), np.arange(X.shape[1])
    r = X[:, 0] - y
    stats = np.stack([r, r * r], axis=1)
    got = trees._best_split(X, stats, frozen_node_order(X, idx, features), min_leaf)
    expected = frozen_best_split(X, stats, frozen_node_order(X, idx, features), features, min_leaf,
                                 trees._variance_cost)
    assert repr(got) == repr(expected)
    C = int(y.max() + 1)
    [split] = trees._gini_splits(X, trees._dense_ranks(X), y, idx, np.ones(len(y), dtype=np.int64), [len(y)],
                                 np.bincount(y, minlength=C)[None].astype(float), features[None], min_leaf)
    _, feature, threshold = frozen_best_split(X, np.eye(C)[y], frozen_node_order(X, idx, features), features,
                                              min_leaf, frozen_gini_cost)
    assert repr(split[:2] if split else (-1, 0.0)) == repr((feature, threshold))

    forest_config = ForestConfig(n_trees=3, features_per_split=features_per_split, bootstrap=bootstrap, seed=4,
                                 **config)
    assert repr(train_random_forest(X, y, forest_config).trees) == repr(reference_forest(X, y, forest_config))
    boost_config = BoostConfig(n_rounds=3, **config)
    boost = train_gradient_boosting(X, y % 2, boost_config)

    def frozen_variance_split(X, stats, order, min_leaf):
        return frozen_best_split(X, stats, order, np.arange(X.shape[1]), min_leaf, trees._variance_cost)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trees, "_best_split", frozen_variance_split)
        assert repr(train_gradient_boosting(X, y % 2, boost_config).trees) == repr(boost.trees)


def reference_cart(X, y, max_depth, min_leaf, features_per_split, rng, n_classes):
    """The forest's tree before trees grew in lockstep: a recursion that
    draws ``np.sort(rng.choice(p, k))`` at each node it may split (no draw
    when ``k >= p``), sorts the node's rows stably on those features and
    keeps the first minimum of the frozen split search."""
    onehot = np.eye(n_classes)[y]
    p = X.shape[1]

    def leaf(idx):
        counts = onehot[idx].sum(axis=0)
        return {"value": (counts / counts.sum()).tolist()}

    def grow(idx, depth):
        if depth >= max_depth or len(idx) < 2 * min_leaf or np.all(onehot[idx] == onehot[idx[0]]):
            return leaf(idx)
        if features_per_split < p:
            features = np.sort(rng.choice(p, size=features_per_split, replace=False))
        else:
            features = np.arange(p)
        cost, feature, threshold = frozen_best_split(
            X, onehot, frozen_node_order(X, idx, features), features, min_leaf, frozen_gini_cost)
        if not math.isfinite(cost):
            return leaf(idx)
        mask = X[idx, feature] < threshold
        return {"feature": feature, "threshold": threshold,
                "left": grow(idx[mask], depth + 1), "right": grow(idx[~mask], depth + 1)}

    return grow(np.arange(len(y)), 0)


def reference_forest(X, y, config):
    """Per-tree bootstrap (the tree's first draw), then ``reference_cart`` on
    the bootstrap rows with the same generator."""
    C, p = int(y.max() + 1), X.shape[1]
    k = config.features_per_split or math.ceil(math.sqrt(p))
    out = []
    for t in range(config.n_trees):
        rng = np.random.default_rng(derive_seed(config.seed, f"tree-{t}"))
        idx = rng.integers(0, len(X), size=len(X)) if config.bootstrap else np.arange(len(X))
        out.append(reference_cart(X[idx], y[idx], config.max_depth, config.min_leaf, k, rng, C))
    return out


@st.composite
def lockstep_problems(draw):
    """Halves in [-2, 2] with signed zeros (ties in every column) or
    arbitrary floats, C in {2, 3, 9} classes holding the highest class,
    min_leaf 1-5, bootstrap on or off and features_per_split below, equal
    to or above p."""
    n_rows = draw(st.integers(4, 60))
    p = draw(st.integers(1, 6))
    value = st.one_of(st.integers(-4, 4).map(lambda v: v / 2.0), st.sampled_from([0.0, -0.0]),
                      st.floats(-3.0, 3.0))
    X = np.array(draw(st.lists(st.lists(value, min_size=p, max_size=p), min_size=n_rows, max_size=n_rows)))
    C = draw(st.sampled_from([2, 3, 9]))
    y = np.array(draw(st.lists(st.integers(0, C - 1), min_size=n_rows, max_size=n_rows)))
    y[:3] = (0, C - 1, 1)
    config = ForestConfig(
        n_trees=draw(st.integers(1, 4)), max_depth=draw(st.integers(1, 6)), min_leaf=draw(st.integers(1, 5)),
        features_per_split=draw(st.one_of(st.none(), st.integers(1, p + 1))), bootstrap=draw(st.booleans()),
        seed=draw(st.integers(0, 3)),
    )
    return X, y, config, draw(st.sampled_from([1, trees._LOCKSTEP_ENTRIES]))


@settings(max_examples=300, deadline=None)
@given(lockstep_problems())
def test_forest_and_cart_equal_frozen_recursion(problem):
    # The forest grows a group of trees in lockstep on distinct bootstrap
    # rows; a group of one tree each (entries 1) must give the same trees.
    X, y, config, group_entries = problem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trees, "_LOCKSTEP_ENTRIES", group_entries)
        assert repr(train_random_forest(X, y, config).trees) == repr(reference_forest(X, y, config))
    k = config.features_per_split or X.shape[1]
    C = int(y.max() + 1)
    cart = train_cart(X, y, config.max_depth, config.min_leaf, k, np.random.default_rng(config.seed), C)
    assert repr(cart) == repr(reference_cart(X, y, config.max_depth, config.min_leaf, k,
                                             np.random.default_rng(config.seed), C))


def test_forest_model_bytes_on_tied_matrix_are_pinned(tmp_path):
    # Three classes, half-step values with signed zeros, bootstrap and two of
    # six features per split: the digest of the recursive grower's model file.
    rng = np.random.default_rng(31)
    X = rng.integers(-2, 3, size=(90, 6)).astype(np.float64) / 2.0
    X[rng.random(X.shape) < 0.1] = -0.0
    y = ((X[:, 0] + X[:, 2] > 0).astype(int) + (X[:, 1] + rng.integers(0, 2, size=90) > 0.5)).astype(int)
    model = train_random_forest(X, y, ForestConfig(n_trees=6, max_depth=5, min_leaf=2, features_per_split=2,
                                                   seed=3))
    save_model(str(tmp_path / "f.bin"), model)
    digest = hashlib.sha256((tmp_path / "f.bin").read_bytes()).hexdigest()
    assert digest == "4295892cc20438614cf470442fd8bcd810e1a5941ba249e48e1c45604f80d931"


@pytest.mark.parametrize("lo, hi", [(0.0, 5e-324), (1.0, np.nextafter(1.0, 2.0)), (1e308, 1.7e308)])
def test_split_between_adjacent_or_huge_values_separates_them(lo, hi):
    # The midpoint of adjacent floats rounds onto lo and that of huge ones
    # overflows to inf; either threshold sent every row to one child, and
    # growing the empty child failed. The overflow warns no more.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_split_between(lo, hi)


def _check_split_between(lo, hi):
    threshold = trees._split_threshold(lo, hi)
    assert lo < threshold <= hi
    X = np.array([[lo], [lo], [hi], [hi]])
    y = np.array([0, 0, 1, 1])
    cart = train_cart(X, y, max_depth=1, min_leaf=1)
    assert cart["threshold"] == threshold and cart["left"]["value"] == [1.0, 0.0]
    forest = train_random_forest(X, y, ForestConfig(n_trees=1, max_depth=1, min_leaf=1, bootstrap=False))
    assert (predict_tabular(forest, X).argmax(axis=1) == y).all()
    boost = train_gradient_boosting(X, y, BoostConfig(n_rounds=2, max_depth=1, min_leaf=1))
    assert (predict_tabular(boost, X).argmax(axis=1) == y).all()


# ---------------------------------------------------------------------------
# random forest


def test_forest_separable_training_accuracy():
    X, y = separable_1d()
    model = train_random_forest(X, y, ForestConfig(n_trees=20, seed=1))
    pred = predict_tabular(model, X).argmax(axis=1)
    assert (pred == y).mean() == 1.0


def test_forest_constant_features_predict_prior():
    X = np.ones((30, 3))
    y = np.array([0] * 20 + [1] * 10)
    model = train_random_forest(X, y, ForestConfig(n_trees=10, seed=2))
    probs = predict_tabular(model, np.ones((4, 3)))
    # every tree is a single leaf holding its bootstrap class frequencies;
    # averaged over trees this hovers near the prior
    assert np.all(np.abs(probs[:, 1] - 1.0 / 3.0) < 0.15)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_forest_same_seed_identical_bytes(tmp_path):
    X, y = separable_1d(seed=3)
    a = train_random_forest(X, y, ForestConfig(n_trees=8, seed=7))
    b = train_random_forest(X, y, ForestConfig(n_trees=8, seed=7))
    pa, pb = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_model(pa, a)
    save_model(pb, b)
    assert open(pa, "rb").read() == open(pb, "rb").read()


def test_forest_different_seed_differs(tmp_path):
    X, y = separable_1d(seed=3)
    rng = np.random.default_rng(0)
    X = np.hstack([X, rng.normal(size=(len(X), 3))])
    a = train_random_forest(X, y, ForestConfig(n_trees=8, seed=7))
    b = train_random_forest(X, y, ForestConfig(n_trees=8, seed=8))
    pa, pb = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_model(pa, a)
    save_model(pb, b)
    assert open(pa, "rb").read() != open(pb, "rb").read()


def test_forest_single_class_errors():
    X = np.random.default_rng(0).normal(size=(10, 2))
    with pytest.raises(TreeError, match="single class"):
        train_random_forest(X, np.zeros(10, dtype=int), ForestConfig(n_trees=2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_features_raise_tree_error(bad):
    X, y = separable_1d()
    X_bad = X.copy()
    X_bad[3, 0] = bad
    for train, config in (
        (train_random_forest, ForestConfig(n_trees=2, seed=0)),
        (train_gradient_boosting, BoostConfig(n_rounds=2, seed=0)),
    ):
        with pytest.raises(TreeError, match="features contain non-finite values"):
            train(X_bad, y, config)
        with pytest.raises(TreeError, match="features contain non-finite values"):
            predict_tabular(train(X, y, config), X_bad)


def test_single_tree_forest_equals_reference_cart():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] + 0.3 * X[:, 1] > 0).astype(int)
    config = ForestConfig(n_trees=1, bootstrap=False, features_per_split=3, max_depth=6, seed=0)
    forest = train_random_forest(X, y, config)
    reference = train_cart(X, y, max_depth=6, min_leaf=2, features_per_split=3, n_classes=2)
    assert forest.trees[0] == reference


def test_duplicating_rows_leaves_cart_unchanged():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(30, 2))
    y = (X[:, 0] > 0.2).astype(int)
    base = train_cart(X, y, max_depth=4, min_leaf=1, n_classes=2)
    doubled = train_cart(np.vstack([X, X]), np.concatenate([y, y]), max_depth=4, min_leaf=1, n_classes=2)

    def splits(node, acc):
        if "value" in node:
            return
        acc.append((node["feature"], node["threshold"]))
        splits(node["left"], acc)
        splits(node["right"], acc)

    a, b = [], []
    splits(base, a)
    splits(doubled, b)
    assert a == b


# ---------------------------------------------------------------------------
# gradient boosting


def test_boosting_separable_logloss():
    X, y = separable_1d(seed=7)
    model = train_gradient_boosting(X, y, BoostConfig(n_rounds=50, seed=0))
    assert model.train_loss[-1] < 0.05


def test_boosting_vanishing_lr_predicts_prior():
    X, y = separable_1d(seed=8)
    model = train_gradient_boosting(X, y, BoostConfig(n_rounds=1, learning_rate=1e-9, seed=0))
    probs = predict_tabular(model, X)
    np.testing.assert_allclose(probs[:, 1], y.mean(), atol=1e-6)


def test_boosting_loss_decreases_from_initialization():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(80, 4))
    y = (X[:, 0] + rng.normal(0, 0.5, 80) > 0).astype(int)
    model = train_gradient_boosting(X, y, BoostConfig(n_rounds=60, learning_rate=0.1, seed=1))
    losses = model.train_loss
    assert losses[-1] < losses[0]
    assert all(losses[i + 1] <= losses[i] + 1e-12 for i in range(len(losses) - 1))


def test_boosting_rejects_nonbinary():
    X = np.random.default_rng(0).normal(size=(9, 2))
    with pytest.raises(TreeError, match="binary"):
        train_gradient_boosting(X, np.array([0, 1, 2] * 3))


def test_predict_probability_simplex():
    X, y = separable_1d(seed=10)
    forest = train_random_forest(X, y, ForestConfig(n_trees=5, seed=3))
    boost = train_gradient_boosting(X, y, BoostConfig(n_rounds=10, seed=3))
    for model in (forest, boost):
        probs = predict_tabular(model, X)
        assert np.all(probs >= 0) and np.all(probs <= 1)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_predict_dimension_mismatch():
    X, y = separable_1d()
    model = train_random_forest(X, y, ForestConfig(n_trees=2, seed=0))
    with pytest.raises(TreeError, match="feature count"):
        predict_tabular(model, np.zeros((3, 4)))


def test_model_round_trip(tmp_path):
    X, y = separable_1d(seed=11)
    for model in (
        train_random_forest(X, y, ForestConfig(n_trees=3, seed=1)),
        train_gradient_boosting(X, y, BoostConfig(n_rounds=5, seed=1)),
    ):
        path = str(tmp_path / "m.bin")
        save_model(path, model)
        back = load_model(path)
        np.testing.assert_array_equal(predict_tabular(back, X), predict_tabular(model, X))


def test_truncated_or_malformed_model_raises_tree_error_naming_path(tmp_path):
    X, y = separable_1d(seed=11)
    cut = str(tmp_path / "cut.bin")
    for model in (
        train_random_forest(X, y, ForestConfig(n_trees=2, seed=1)),
        train_gradient_boosting(X, y, BoostConfig(n_rounds=2, seed=1)),
    ):
        path = str(tmp_path / "m.bin")
        save_model(path, model)
        blob = open(path, "rb").read()
        for size in range(len(blob)):
            with open(cut, "wb") as fh:
                fh.write(blob[:size])
            with pytest.raises(TreeError, match="cut.bin"):
                load_model(cut)
    for body in (b"[1, 2]", b'{"trees": []}', b"not json", "\u00e9".encode("utf-8")):
        with open(cut, "wb") as fh:
            fh.write(blob[:5] + len(body).to_bytes(8, "little") + body)
        with pytest.raises(TreeError, match="malformed"):
            load_model(cut)


def test_config_validation():
    with pytest.raises(ValueError):
        ForestConfig(n_trees=0)
    with pytest.raises(ValueError):
        BoostConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        ForestConfig.from_dict({"trees": 5})
