import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from cellgraph import grand
from cellgraph.grand import (
    GrandConfig,
    GrandError,
    GrandModel,
    _binary_f1,
    _init_params,
    apply_drop_node,
    grand_loss,
    load_checkpoint,
    mlp_forward,
    predict_grand,
    propagate,
    save_checkpoint,
    sharpen,
    train_grand,
    training_loss_and_grads,
)
from cellgraph.dataset import MODEL_MAGIC, class_reduce
from cellgraph.graphs import CellGraph, knn_feature_graph, normalize_adjacency


def small_adj(n=10, k=3, seed=0):
    X = np.random.default_rng(seed).normal(size=(n, 3))
    return normalize_adjacency(knn_feature_graph(X, k)), X


# ---------------------------------------------------------------------------
# DropNode


def test_drop_node_zero_rate_is_identity():
    X = np.random.default_rng(1).normal(size=(8, 4))
    out = apply_drop_node(X, 0.0, np.ones(len(X)))
    np.testing.assert_array_equal(out, X)


def test_drop_node_fixed_mask_example():
    X = np.array([[2.0], [4.0]])
    out = apply_drop_node(X, 0.5, np.array([1.0, 0.0]))
    np.testing.assert_array_equal(out, [[4.0], [0.0]])


def test_drop_node_monte_carlo_expectation():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(5, 3))
    delta = 0.5
    draws = 10_000
    acc = np.zeros_like(X)
    for _ in range(draws):
        # the keep mask is drawn by train_grand's rule
        acc += apply_drop_node(X, delta, (rng.random(len(X)) < 1.0 - delta).astype(np.float64))
    mean = acc / draws
    std_err = np.abs(X) * math.sqrt(delta / (1 - delta)) / math.sqrt(draws)
    assert np.all(np.abs(mean - X) <= 3 * std_err + 1e-12)


# ---------------------------------------------------------------------------
# propagate


def test_propagate_k0_identity():
    adj, X = small_adj()
    np.testing.assert_array_equal(propagate(adj, X, 0), X)


def test_propagate_two_node_hand_example():
    g = CellGraph(n_nodes=2, edges=np.array([[0, 1]]))
    adj = normalize_adjacency(g)  # [[.5,.5],[.5,.5]]
    X = np.array([[1.0], [0.0]])
    out = propagate(adj, X, 1)
    np.testing.assert_allclose(out, [[0.75], [0.25]], atol=1e-15)


def test_propagate_matches_dense_power_oracle():
    adj, _ = small_adj(n=30, k=4, seed=3)
    X = np.random.default_rng(4).normal(size=(30, 5))
    dense = adj.toarray()
    expected = np.zeros_like(X)
    power = np.eye(30)
    for k in range(9):
        expected += power @ X
        power = dense @ power
    expected /= 9
    np.testing.assert_allclose(propagate(adj, X, 8), expected, atol=1e-10)


def test_propagate_linearity():
    adj, _ = small_adj(n=12, k=3, seed=5)
    rng = np.random.default_rng(6)
    X, Y = rng.normal(size=(12, 4)), rng.normal(size=(12, 4))
    a, b = 2.5, -1.25
    left = propagate(adj, a * X + b * Y, 6)
    right = a * propagate(adj, X, 6) + b * propagate(adj, Y, 6)
    np.testing.assert_allclose(left, right, atol=1e-10)


# ---------------------------------------------------------------------------
# MLP forward / sharpen


def zero_model(n_in=4, hidden=3, n_classes=2):
    return GrandModel(
        W1=np.zeros((n_in, hidden)),
        b1=np.zeros(hidden),
        W2=np.zeros((hidden, n_classes)),
        b2=np.zeros(n_classes),
        config=GrandConfig(),
    )


def test_mlp_zero_weights_uniform():
    model = zero_model()
    probs = mlp_forward(model, np.random.default_rng(0).normal(size=(5, 4)))
    np.testing.assert_allclose(probs, 0.5, atol=1e-15)


def test_mlp_rows_sum_to_one():
    rng = np.random.default_rng(1)
    model = GrandModel(
        W1=rng.normal(size=(4, 6)), b1=rng.normal(size=6),
        W2=rng.normal(size=(6, 3)), b2=rng.normal(size=3), config=GrandConfig(),
    )
    probs = mlp_forward(model, rng.normal(size=(20, 4)) * 10)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_mlp_matches_direct_formula():
    rng = np.random.default_rng(2)
    model = GrandModel(
        W1=rng.normal(size=(3, 5)), b1=rng.normal(size=5),
        W2=rng.normal(size=(5, 2)), b2=rng.normal(size=2), config=GrandConfig(),
    )
    X = rng.normal(size=(7, 3))
    probs = mlp_forward(model, X)
    for i in range(7):
        h = np.maximum(X[i] @ model.W1 + model.b1, 0.0)
        z = h @ model.W2 + model.b2
        expected = np.exp(z) / np.exp(z).sum()
        np.testing.assert_allclose(probs[i], expected, atol=1e-12)


def test_sharpen_t1_identity():
    p = np.array([0.3, 0.7])
    np.testing.assert_allclose(sharpen(p, 1.0), p, atol=1e-15)


def test_sharpen_uniform_fixed_point():
    p = np.full(4, 0.25)
    for T in (0.2, 0.5, 2.0):
        np.testing.assert_allclose(sharpen(p, T), p, atol=1e-15)


def test_sharpen_hand_example():
    out = sharpen(np.array([0.8, 0.2]), 0.5)
    np.testing.assert_allclose(out, [0.9412, 0.0588], atol=1e-4)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(0.01, 10.0), min_size=2, max_size=5),
    st.floats(0.05, 5.0),
)
def test_sharpen_preserves_argmax(weights, T):
    p = np.array(weights) / sum(weights)
    assert np.argmax(sharpen(p, T)) == np.argmax(p)


# ---------------------------------------------------------------------------
# loss


def test_grand_loss_identical_outputs_zero_consistency():
    # at T=1 sharpening is the identity, so identical augmentations are a
    # consistency fixed point
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    labels = np.array([0, 1])
    mask = np.array([True, True])
    total, sup, con = grand_loss([P, P.copy()], labels, mask, lam=1.0, T=1.0)
    assert con == 0.0
    assert total == sup


def test_grand_loss_uniform_outputs_log2():
    P = np.full((4, 2), 0.5)
    labels = np.array([0, 1, 0, 1])
    mask = np.ones(4, dtype=bool)
    _, sup, _ = grand_loss([P], labels, mask, lam=0.0, T=1.0)
    assert sup == pytest.approx(math.log(2.0), rel=1e-12)


def test_grand_loss_hand_computed_two_augmentations():
    P1 = np.array([[0.6, 0.4], [0.3, 0.7]])
    P2 = np.array([[0.8, 0.2], [0.5, 0.5]])
    labels = np.array([0, 1])
    mask = np.array([True, False])
    lam, T = 2.0, 0.5
    total, sup, con = grand_loss([P1, P2], labels, mask, lam, T)

    sup_hand = 0.5 * (-math.log(0.6) + -math.log(0.8))
    p_bar = (P1 + P2) / 2
    q = np.empty_like(p_bar)
    for i in range(2):
        u = p_bar[i] ** 2  # 1/T = 2
        q[i] = u / u.sum()
    con_hand = 0.0
    for P in (P1, P2):
        con_hand += np.sum((q - P) ** 2)
    con_hand /= 2 * 2  # S * n
    assert sup == pytest.approx(sup_hand, abs=1e-10)
    assert con == pytest.approx(con_hand, abs=1e-10)
    assert total == pytest.approx(sup_hand + lam * con_hand, abs=1e-10)


def test_grand_loss_empty_train_mask_errors():
    P = np.full((2, 2), 0.5)
    with pytest.raises(GrandError, match="train mask"):
        grand_loss([P], np.array([0, 1]), np.zeros(2, dtype=bool), 1.0, 0.5)


# ---------------------------------------------------------------------------
# gradients


def test_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    adj, X = small_adj(n=10, k=3, seed=11)
    labels = rng.integers(0, 2, size=10)
    train_mask = np.zeros(10, dtype=bool)
    train_mask[:4] = True
    config = GrandConfig(
        drop_rate=0.5, prop_order=3, n_augmentations=2, temperature=0.5,
        consistency_weight=1.0, hidden_dim=4, input_dropout=0.3, seed=0,
    )
    node_masks = [(rng.random(10) < 0.5).astype(float) for _ in range(2)]
    input_masks = [(rng.random((10, 3)) < 0.7).astype(float) for _ in range(2)]
    params = {
        "W1": rng.normal(scale=0.5, size=(3, 4)),
        "b1": rng.normal(scale=0.1, size=4),
        "W2": rng.normal(scale=0.5, size=(4, 2)),
        "b2": rng.normal(scale=0.1, size=2),
    }

    _, _, _, grads = training_loss_and_grads(
        params, adj, X, node_masks, input_masks, labels, train_mask, config
    )

    def loss_at(theta):
        total, _, _, _ = training_loss_and_grads(
            theta, adj, X, node_masks, input_masks, labels, train_mask, config
        )
        return total

    eps = 1e-5
    max_rel = 0.0
    for key in params:
        flat = params[key].ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = loss_at(params)
            flat[j] = orig - eps
            down = loss_at(params)
            flat[j] = orig
            numeric = (up - down) / (2 * eps)
            analytic = grads[key].ravel()[j]
            rel = abs(analytic - numeric) / max(abs(numeric), abs(analytic), 1e-8)
            max_rel = max(max_rel, rel)
    assert max_rel < 1e-5


# ---------------------------------------------------------------------------
# config


@pytest.mark.parametrize(
    "key, value",
    [
        ("prop_order", 2.5),
        ("n_augmentations", 2.0),
        ("hidden_dim", 0),
        ("hidden_dim", True),
        ("max_epochs", 10.0),
        ("patience", "5"),
        ("seed", 1.5),
        ("seed", -1),
        ("learning_rate", float("inf")),
        # a rate <= 0 climbs the loss or never moves; 0 epochs returns the untrained weights
        ("learning_rate", 0.0),
        ("learning_rate", -1.0),
        ("max_epochs", 0),
    ],
)
def test_config_rejects_bad_value_by_key_name(key, value):
    with pytest.raises(ValueError, match=key):
        GrandConfig.from_dict({key: value})


def test_config_accepts_numpy_integers_and_integral_rates():
    config = GrandConfig.from_dict({"hidden_dim": np.int64(8), "learning_rate": 1, "drop_rate": 0})
    assert config.hidden_dim == 8


# ---------------------------------------------------------------------------
# training / prediction


def two_cluster_problem(seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(-2, 0.5, (50, 4)), rng.normal(2, 0.5, (50, 4))])
    y = np.array([0] * 50 + [1] * 50)
    adj = normalize_adjacency(knn_feature_graph(X, 5))
    train = np.zeros(100, dtype=bool)
    train[:5] = True
    train[50:55] = True
    val = np.zeros(100, dtype=bool)
    val[5:10] = True
    val[55:60] = True
    return adj, X, y, train, val


def test_train_two_cluster_accuracy():
    adj, X, y, train, val = two_cluster_problem()
    config = GrandConfig(max_epochs=150, patience=30, hidden_dim=16, seed=1)
    model = train_grand(adj, X, y, (train, val), config)
    _, pred = predict_grand(model, adj, X)
    test = ~(train | val)
    assert (pred[test] == y[test]).mean() >= 0.9
    assert (pred[train] == y[train]).mean() >= 0.95


def test_train_reduces_to_plain_mlp_path():
    """With lam=0, S=1, delta=0 and no dropout the trainer must equal an
    independently coded propagated-feature MLP trained with the same
    optimizer; losses match epoch by epoch."""
    adj, X, y, train, val = two_cluster_problem(seed=5)
    config = GrandConfig(
        drop_rate=0.0, n_augmentations=1, consistency_weight=0.0, input_dropout=0.0,
        prop_order=4, hidden_dim=8, learning_rate=1e-2, max_epochs=50, patience=1000, seed=9,
    )
    model = train_grand(adj, X, y, (train, val), config, n_classes=2)
    grand_losses = [row["supervised"] for row in model.history]

    # reference path: plain MLP on propagated features, hand-rolled Adam
    X_bar = propagate(adj, X, 4)
    rng = np.random.default_rng(9)
    lim1 = np.sqrt(6.0 / (X.shape[1] + 8))
    lim2 = np.sqrt(6.0 / (8 + 2))
    W1 = rng.uniform(-lim1, lim1, size=(X.shape[1], 8))
    b1 = np.zeros(8)
    W2 = rng.uniform(-lim2, lim2, size=(8, 2))
    b2 = np.zeros(2)
    params = [W1, b1, W2, b2]
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    idx = np.flatnonzero(train)
    ref_losses = []
    for epoch in range(1, 51):
        Z1 = X_bar @ params[0] + params[1]
        A1 = np.maximum(Z1, 0)
        Z2 = A1 @ params[2] + params[3]
        Z2 = Z2 - Z2.max(axis=1, keepdims=True)
        P = np.exp(Z2)
        P /= P.sum(axis=1, keepdims=True)
        ref_losses.append(float(np.mean(-np.log(P[idx, y[idx]]))))
        dP = np.zeros_like(P)
        dP[idx, y[idx]] = -1.0 / (len(idx) * P[idx, y[idx]])
        dZ2 = P * (dP - np.sum(dP * P, axis=1, keepdims=True))
        gW2 = A1.T @ dZ2
        gb2 = dZ2.sum(axis=0)
        dZ1 = (dZ2 @ params[2].T) * (Z1 > 0)
        gW1 = X_bar.T @ dZ1
        gb1 = dZ1.sum(axis=0)
        for p, m, v, g in zip(params, ms, vs, [gW1, gb1, gW2, gb2]):
            m[:] = 0.9 * m + 0.1 * g
            v[:] = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9**epoch)
            v_hat = v / (1 - 0.999**epoch)
            p -= 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)

    np.testing.assert_allclose(grand_losses, ref_losses, atol=1e-10)


def test_train_deterministic_bytes():
    adj, X, y, train, val = two_cluster_problem(seed=2)
    config = GrandConfig(max_epochs=30, patience=10, hidden_dim=8, seed=4)
    m1 = train_grand(adj, X, y, (train, val), config)
    m2 = train_grand(adj, X, y, (train, val), config)
    for k in ("W1", "b1", "W2", "b2"):
        assert m1.params()[k].tobytes() == m2.params()[k].tobytes()


def test_train_rejects_overlapping_masks():
    adj, X, y, train, val = two_cluster_problem()
    with pytest.raises(GrandError, match="overlap"):
        train_grand(adj, X, y, (train, train), GrandConfig(max_epochs=1))


def test_train_without_validation_tracks_best_loss():
    adj, X, y, train, _ = two_cluster_problem(seed=6)
    no_val = np.zeros(len(y), dtype=bool)
    config = GrandConfig(max_epochs=20, patience=50, hidden_dim=8, seed=1)
    model = train_grand(adj, X, y, (train, no_val), config)
    assert model.best_epoch >= 1  # snapshot tracked by training loss
    assert math.isnan(model.history[0]["val_f1"])


def test_train_divergence_reports_epoch():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 3)) * 100
    adj = normalize_adjacency(knn_feature_graph(X, 3))
    y = rng.integers(0, 2, 20)
    train = np.zeros(20, dtype=bool)
    train[:8] = True
    val = np.zeros(20, dtype=bool)
    val[8:12] = True
    config = GrandConfig(learning_rate=1e12, max_epochs=50, patience=50, seed=1)
    with np.errstate(all="ignore"), pytest.raises(GrandError, match="epoch"):
        train_grand(adj, X, y, (train, val), config)


def test_train_rejects_non_finite_features():
    adj, X, y, train, val = two_cluster_problem()
    X[3, 1] = np.nan
    with pytest.raises(GrandError, match="^features contain non-finite values$"):
        train_grand(adj, X, y, (train, val), GrandConfig(max_epochs=5))


def test_predict_rejects_non_finite_features():
    adj, X, y, train, val = two_cluster_problem()
    model = train_grand(adj, X, y, (train, val), GrandConfig(max_epochs=5))
    for bad in (np.nan, np.inf):
        X_bad = X.copy()
        X_bad[7, 2] = bad
        with pytest.raises(GrandError, match="^features contain non-finite values$"):
            predict_grand(model, adj, X_bad)


def test_adjacency_of_another_size_raises_grand_error():
    adj, X, y, train, val = two_cluster_problem()
    model = train_grand(adj, X, y, (train, val), GrandConfig(max_epochs=5))
    small = adj[:90, :90]
    with pytest.raises(GrandError, match="^adjacency is 90 x 90, features have 100 rows$"):
        train_grand(small, X, y, (train, val), GrandConfig(max_epochs=5))
    with pytest.raises(GrandError, match="^adjacency is 90 x 90, features have 100 rows$"):
        predict_grand(model, small, X)
    with pytest.raises(GrandError, match="^adjacency is 100 x 90, features have 100 rows$"):
        predict_grand(model, adj[:, :90], X)


@pytest.mark.parametrize("which", ["labels", "train mask", "validation mask"])
def test_train_rejects_labels_or_masks_of_another_length(which):
    adj, X, y, train, val = two_cluster_problem()
    args = {"labels": y, "train mask": train, "validation mask": val}
    args[which] = args[which][:-3]
    with pytest.raises(GrandError, match=f"^{which} has 97 entries, features have 100 rows$"):
        train_grand(adj, X, args["labels"], (args["train mask"], args["validation mask"]), GrandConfig(max_epochs=5))


def test_train_overflow_diverges_at_first_epoch():
    adj, X, y, train, val = two_cluster_problem()
    config = GrandConfig(learning_rate=1e3, max_epochs=5)
    with np.errstate(all="ignore"), pytest.raises(GrandError, match="^training diverged at epoch 1: "):
        train_grand(adj, X * 1e3, y, (train, val), config)


def test_diverging_fit_raises_without_numpy_warning():
    # Unscaled features saturate the softmax, so a train label's probability
    # is 0 and its log -inf: the loss check reports it, numpy does not.
    adj, X, y, train, val = two_cluster_problem()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GrandError, match="^training diverged at epoch 1: non-finite loss$"):
            train_grand(adj, X * 1e4, y, (train, val), GrandConfig(learning_rate=0.01, max_epochs=2))


def test_predict_deterministic_and_normalized():
    adj, X, y, train, val = two_cluster_problem(seed=3)
    model = train_grand(adj, X, y, (train, val), GrandConfig(max_epochs=20, patience=5, seed=0))
    p1, l1 = predict_grand(model, adj, X)
    p2, l2 = predict_grand(model, adj, X)
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(l1, l2)
    np.testing.assert_allclose(p1.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("max_epochs, patience, with_val, stop", [
    (40, 3, True, "patience"),
    (4, 30, True, "max_epochs"),
    # patience 0 stops at the first epoch without a better score, and a first epoch always scores better
    (1, 0, True, "max_epochs"),
    (40, 0, True, "patience"),
    # without validation nodes the score is the negated training loss
    (6, 30, False, "max_epochs"),
    (40, 1, False, "patience"),
])
def test_train_grand_records_why_training_stopped(max_epochs, patience, with_val, stop):
    adj, X, y, train, val = two_cluster_problem(seed=5)
    val = val if with_val else np.zeros_like(val)
    model = train_grand(adj, X, y, (train, val), GrandConfig(max_epochs=max_epochs, patience=patience, seed=1))
    epochs = len(model.history)
    assert model.stop_reason == stop
    if stop == "patience":
        assert epochs - model.best_epoch == max(patience, 1) and epochs <= max_epochs
    else:
        assert epochs == max_epochs


def test_predict_dimension_mismatch():
    adj, X, y, train, val = two_cluster_problem()
    model = train_grand(adj, X, y, (train, val), GrandConfig(max_epochs=5, patience=2))
    with pytest.raises(GrandError, match="dimension"):
        predict_grand(model, adj, X[:, :2])


def test_checkpoint_round_trip(tmp_path):
    adj, X, y, train, val = two_cluster_problem(seed=8)
    model = train_grand(adj, X, y, (train, val), GrandConfig(max_epochs=10, patience=5, seed=2))
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model)
    back = load_checkpoint(path)
    for k in ("W1", "b1", "W2", "b2"):
        assert back.params()[k].tobytes() == model.params()[k].tobytes()
    assert back.config == model.config
    # the file holds the weights and the config, not how training went
    assert model.stop_reason is not None and back.stop_reason is None
    assert open(path, "rb").read()[:5] == MODEL_MAGIC


def test_truncated_checkpoint_raises_grand_error_naming_path(tmp_path):
    adj, X, y, train, val = two_cluster_problem(seed=8)
    model = train_grand(adj, X, y, (train, val), GrandConfig(max_epochs=2, patience=2, seed=2))
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model)
    blob = open(path, "rb").read()
    cut = str(tmp_path / "cut.ckpt")
    for size in range(len(blob)):
        with open(cut, "wb") as fh:
            fh.write(blob[:size])
        with pytest.raises(GrandError, match="cut.ckpt"):
            load_checkpoint(cut)
    with open(cut, "wb") as fh:
        fh.write(blob + b"\0")
    with pytest.raises(GrandError, match="size mismatch"):
        load_checkpoint(cut)


def test_history_csv(tmp_path):
    adj, X, y, train, val = two_cluster_problem(seed=8)
    model = train_grand(adj, X, y, (train, val), GrandConfig(max_epochs=5, patience=5, seed=2))
    path = str(tmp_path / "h.csv")
    from cellgraph.grand import save_history_csv

    save_history_csv(path, model)
    lines = open(path).read().splitlines()
    assert lines[0] == "epoch,total,supervised,consistency,val_f1"
    assert len(lines) == len(model.history) + 1


# ---------------------------------------------------------------------------
# bit equality with the per-augmentation epoch
#
# Frozen copies of the epoch as it ran one augmentation at a time, before the
# augmentations were stacked. The stacked epoch must reproduce their bits.


def _ref_propagate(adj, X, K):
    acc = X.astype(np.float64).copy()
    cur = acc.copy()
    for _ in range(K):
        cur = adj @ cur
        acc += cur
    return acc / (K + 1)


def _ref_forward(params, H):
    Z1 = H @ params["W1"] + params["b1"]
    A1 = np.maximum(Z1, 0.0)
    Z2 = A1 @ params["W2"] + params["b2"]
    Z2 = Z2 - Z2.max(axis=1, keepdims=True)
    expz = np.exp(Z2)
    return Z1, A1, expz / expz.sum(axis=1, keepdims=True)


def _ref_sharpen(p, T):
    u = p ** (1.0 / T)
    return u / u.sum(axis=1, keepdims=True)


def _ref_loss(outputs, labels, train_mask, lam, T):
    S, n = len(outputs), outputs[0].shape[0]
    train_idx = np.flatnonzero(train_mask)
    sup = 0.0
    for P in outputs:
        sup += float(np.mean(-np.log(P[train_idx, labels[train_idx]])))
    sup /= S
    q = _ref_sharpen(sum(outputs) / S, T)
    con = 0.0
    for P in outputs:
        con += float(np.sum((q - P) ** 2))
    con /= S * n
    return sup + lam * con, sup, con


def _ref_loss_and_grads(params, adj, X, node_masks, input_masks, labels, train_mask, config):
    S, n = config.n_augmentations, X.shape[0]
    lam, T = config.consistency_weight, config.temperature
    train_idx = np.flatnonzero(train_mask)
    keep_in = 1.0 - config.input_dropout
    caches, outputs = [], []
    for s in range(S):
        X_tilde = X * (node_masks[s] / (1.0 - config.drop_rate))[:, None]
        H = _ref_propagate(adj, X_tilde, config.prop_order) * (input_masks[s] / keep_in)
        Z1, A1, P = _ref_forward(params, H)
        caches.append((H, Z1, A1))
        outputs.append(P)
    total, sup, con = _ref_loss(outputs, labels, train_mask, lam, T)
    p_bar = sum(outputs) / S
    q = _ref_sharpen(p_bar, T)
    G = (2.0 * lam / n) * (q - p_bar)
    with np.errstate(divide="ignore", invalid="ignore"):
        u_prime = p_bar ** (1.0 / T - 1.0)
    u_prime[~np.isfinite(u_prime)] = 0.0
    Z_row = (p_bar ** (1.0 / T)).sum(axis=1, keepdims=True)
    gq = (G - np.sum(G * q, axis=1, keepdims=True)) * u_prime / (T * Z_row)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    for s in range(S):
        H, Z1, A1 = caches[s]
        P = outputs[s]
        dP = np.zeros_like(P)
        dP[train_idx, labels[train_idx]] = -1.0 / (S * len(train_idx) * P[train_idx, labels[train_idx]])
        dP += (2.0 * lam / (n * S)) * (P - q)
        dP += gq / S
        dZ2 = P * (dP - np.sum(dP * P, axis=1, keepdims=True))
        grads["W2"] += A1.T @ dZ2
        grads["b2"] += dZ2.sum(axis=0)
        dZ1 = (dZ2 @ params["W2"].T) * (Z1 > 0)
        grads["W1"] += H.T @ dZ1
        grads["b1"] += dZ1.sum(axis=0)
    return total, sup, con, grads


def _ref_train(adj, X, labels, train_mask, val_mask, config, C):
    n, p = X.shape
    rng = np.random.default_rng(config.seed)
    params = _init_params(rng, p, config.hidden_dim, C)
    adam_m = {k: np.zeros_like(v) for k, v in params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in params.items()}
    X_bar_eval = _ref_propagate(adj, X, config.prop_order)
    has_val = bool(val_mask.any())
    best_f1, best_epoch, since_best, history = -np.inf, 0, 0, []
    best_params = {k: v.copy() for k, v in params.items()}
    S, keep_in = config.n_augmentations, 1.0 - config.input_dropout
    for epoch in range(1, config.max_epochs + 1):
        node_masks = [(rng.random(n) < 1.0 - config.drop_rate).astype(np.float64) for _ in range(S)]
        input_masks = [(rng.random((n, p)) < keep_in).astype(np.float64) for _ in range(S)]
        total, sup, con, grads = _ref_loss_and_grads(
            params, adj, X, node_masks, input_masks, labels, train_mask, config
        )
        for key in ("W1", "b1", "W2", "b2"):
            g = grads[key]
            adam_m[key] = 0.9 * adam_m[key] + (1 - 0.9) * g
            adam_v[key] = 0.999 * adam_v[key] + (1 - 0.999) * g * g
            m_hat = adam_m[key] / (1 - 0.9**epoch)
            v_hat = adam_v[key] / (1 - 0.999**epoch)
            params[key] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        preds = np.argmax(_ref_forward(params, X_bar_eval)[2], axis=1)
        val_f1 = _binary_f1(labels[val_mask], preds[val_mask]) if has_val else float("nan")
        history.append({"epoch": epoch, "total": total, "supervised": sup, "consistency": con, "val_f1": val_f1})
        score = val_f1 if has_val else -total
        if score > best_f1:
            best_f1, best_epoch, since_best = score, epoch, 0
            best_params = {k: v.copy() for k, v in params.items()}
        else:
            since_best += 1
            if since_best >= config.patience:
                break
    return best_params, history, best_epoch


def random_weighted_graph(rng, n):
    """D^-1/2 (W + I) D^-1/2 in CSR layout for a random symmetric W with
    arbitrary positive values (repeated draws summed); some nodes may stay
    isolated. Unlike a cell graph's adjacency, its entries take any value
    in (0, 1], not only those of unit edges."""
    m = int(rng.integers(0, 3 * n + 1))
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    W = sp.coo_matrix((rng.uniform(0.1, 3.0, m), (src, dst)), shape=(n, n)).tocsr()
    W = (W + W.T + sp.identity(n, format="csr")).tocsr()
    scale = sp.diags(1.0 / np.sqrt(np.asarray(W.sum(axis=1)).ravel()))
    adj = (scale @ W @ scale).tocsr()
    adj.sort_indices()
    return adj


def as_given(masks, as_list):
    return list(masks) if as_list else masks


# 1/(1-delta) is not a power of two for any of these drop rates
NON_DYADIC_DROPS = [0.1, 0.3, 0.6, 0.7]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 24), p=st.integers(1, 5), S=st.integers(1, 5), K=st.integers(0, 4),
    C=st.sampled_from([2, 3]), delta=st.sampled_from(NON_DYADIC_DROPS), input_dropout=st.sampled_from([0.0, 0.4]),
    as_list=st.booleans(), views=st.sampled_from(["all", "one", "split"]), seed=st.integers(0, 2**16),
)
def test_stacked_loss_and_grads_match_per_augmentation_bits(n, p, S, K, C, delta, input_dropout, as_list, views, seed):
    rng = np.random.default_rng(seed)
    adj = random_weighted_graph(rng, n)
    X = rng.normal(size=(n, p))
    labels = rng.integers(0, C, n)
    train_mask = rng.random(n) < 0.5
    train_mask[0] = True
    config = GrandConfig(
        drop_rate=delta, prop_order=K, n_augmentations=S, hidden_dim=int(rng.integers(1, 6)),
        input_dropout=input_dropout, temperature=0.5, consistency_weight=0.7,
    )
    params = _init_params(rng, p, config.hidden_dim, C)
    node_masks = (rng.random((S, n)) < 1.0 - delta).astype(np.float64)
    input_masks = (rng.random((S, n, p)) < 1.0 - input_dropout).astype(np.float64)

    expected = _ref_loss_and_grads(params, adj, X, list(node_masks), list(input_masks), labels, train_mask, config)
    # the column budget puts all S views in one product, one view in each,
    # or ceil(S / 2) views in each of two products
    block = {"all": S * p, "one": p, "split": (S + 1) // 2 * p}[views]
    with mock.patch.object(grand, "_BLOCK_COLUMNS", block):
        got = training_loss_and_grads(
            params, adj, X, as_given(node_masks, as_list), as_given(input_masks, as_list), labels, train_mask, config
        )
    assert got[:3] == expected[:3]
    for key in ("W1", "b1", "W2", "b2"):
        assert got[3][key].tobytes() == expected[3][key].tobytes(), key

    # grand_loss takes the outputs as a list or as one stack
    outputs = [rng.dirichlet(np.ones(C), size=n) for _ in range(S)]
    ref = _ref_loss(outputs, labels, train_mask, 0.7, 0.5)
    assert grand_loss(outputs, labels, train_mask, 0.7, 0.5) == ref
    assert grand_loss(np.stack(outputs), labels, train_mask, 0.7, 0.5) == ref


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(4, 24), p=st.integers(1, 5), S=st.integers(1, 5), K=st.integers(0, 4),
    C=st.sampled_from([2, 3]), delta=st.sampled_from(NON_DYADIC_DROPS), input_dropout=st.sampled_from([0.0, 0.4]),
    epochs=st.integers(1, 6), patience=st.integers(1, 6), with_val=st.booleans(), seed=st.integers(0, 2**16),
)
def test_train_grand_matches_per_augmentation_bits(
    n, p, S, K, C, delta, input_dropout, epochs, patience, with_val, seed
):
    rng = np.random.default_rng(seed)
    adj = random_weighted_graph(rng, n)
    X = rng.normal(size=(n, p))
    labels = rng.integers(0, C, n)
    split = rng.integers(0, 3, n)
    train_mask, val_mask = split == 0, (split == 1) & with_val
    train_mask[0], val_mask[0] = True, False
    config = GrandConfig(
        drop_rate=delta, prop_order=K, n_augmentations=S, hidden_dim=int(rng.integers(1, 6)),
        input_dropout=input_dropout, max_epochs=epochs, patience=patience, seed=seed,
    )
    best, history, best_epoch = _ref_train(adj, X, labels, train_mask, val_mask, config, C)
    model = train_grand(adj, X, labels, (train_mask, val_mask), config, n_classes=C)
    for key in ("W1", "b1", "W2", "b2"):
        assert model.params()[key].tobytes() == best[key].tobytes(), key
    assert repr(model.history) == repr(history)
    assert model.best_epoch == best_epoch
    assert model.stop_reason == ("patience" if len(history) - best_epoch >= patience else "max_epochs")


def test_train_grand_matches_per_augmentation_bits_at_defaults():
    # GrandConfig() defaults, early stopping included, on the two-cluster graph
    adj, X, y, train, val = two_cluster_problem(seed=3)
    config = GrandConfig(seed=6)
    best, history, best_epoch = _ref_train(adj, X, y, train, val, config, 2)
    model = train_grand(adj, X, y, (train, val), config)
    for key in ("W1", "b1", "W2", "b2"):
        assert model.params()[key].tobytes() == best[key].tobytes(), key
    assert repr(model.history) == repr(history) and model.best_epoch == best_epoch
    assert len(history) < config.max_epochs


@settings(max_examples=100, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 40), st.integers(1, 12)),
    ufunc=st.sampled_from([np.add, np.maximum]),
    seed=st.integers(0, 2**16),
)
def test_class_reduce_matches_numpy_row_reduction(shape, ufunc, seed):
    rng = np.random.default_rng(seed)
    x = rng.random(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    assert class_reduce(ufunc, x).tobytes() == ufunc.reduce(x, axis=-1, keepdims=True).tobytes()
    for s in range(shape[0]):
        assert class_reduce(ufunc, x[s]).tobytes() == ufunc.reduce(x[s], axis=1, keepdims=True).tobytes()
