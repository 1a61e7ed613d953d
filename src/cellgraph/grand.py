"""Semi-supervised node classifier with random propagation (GRAND, Feng et
al. 2020).

Each epoch draws S stochastic augmentations: node features are randomly
zeroed row-wise (DropNode) with compensation 1/(1-delta), diffused over the
normalized adjacency by mixed-order propagation, and classified by a 2-layer
MLP. The loss couples supervised cross-entropy on labeled nodes with a
consistency term that pulls every augmentation toward the sharpened mean
prediction. Gradients are computed manually for the fixed architecture
(including the path through the sharpened mean), which keeps them checkable
against finite differences.

An epoch runs the S augmentations together: the DropNode views sit side by
side in (n, b*p) blocks of at most 64 columns (b = max(1, min(S, 64 // p))
views of p features), each propagated by one chain of sparse products, and
the MLP, the loss and the backward pass work on (S, n, .) stacks. The
consensus, the picked label probabilities and P - q are computed once and
serve both the loss and the backward pass. Every output keeps the bits of
running the augmentations one at a time: a sparse product and the
per-slice matrix products compute each augmentation on its own, class sums
add their columns in numpy's order, and the weight gradients are summed
over the augmentations in order.
Adam steps one flat buffer whose views are the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np
import scipy.sparse as sp

from .dataset import (
    Open, check_fields, class_reduce, config_from_dict, format_float, read_model_file, write_lines, write_model_file,
)

# DropNode views propagated together hold at most this many feature columns
# side by side: b = max(1, min(S, 64 // p)) views of width p share one chain
# of sparse products. Measured inside 10-epoch train_grand fits (S = 4, k = 5
# feature graph) on a 2-core Xeon: against the former 128 KB cap, which gave
# one view per chain from n * p > 4,096, the rule was 14-18% faster at
# n = 1,200 with p = 12 or 16 and 12% faster at 1,800 x 16 (8 products an
# epoch instead of 32). All four views in one chain were 32% slower at
# 1,800 x 223 and 9% slower at 1,200 x 48. At 100 x 115 they were 30-40%
# slower only in a fresh process, through page faults (4,300-5,000 a fit:
# temporaries past glibc's 128 KB mmap threshold were freed and faulted back
# every epoch); after a large free lifts that threshold, as the kNN chunk
# does (graphs._CHUNK_ROWS), they tie (within 7% either way in three
# processes, no faults).
_BLOCK_COLUMNS = 64


class GrandError(Exception):
    pass


@dataclass
class GrandConfig:
    drop_rate: float = 0.5  # DropNode probability delta
    prop_order: int = 8  # K: number of propagation hops averaged
    n_augmentations: int = 4  # S
    temperature: float = 0.5  # T: sharpening temperature
    consistency_weight: float = 1.0  # lambda
    hidden_dim: int = 32
    input_dropout: float = 0.5
    learning_rate: float = 1e-2
    max_epochs: int = 300
    patience: int = 30
    seed: int = 0

    def __post_init__(self):
        check_fields(self, {
            "drop_rate": (float, 0.0, Open(1.0)),
            "prop_order": (int, 0),
            "n_augmentations": (int, 1),
            "temperature": (float, Open(0.0)),
            "consistency_weight": (float, 0.0),
            "hidden_dim": (int, 1),
            "input_dropout": (float, 0.0, Open(1.0)),
            "learning_rate": (float, Open(0.0)),
            "max_epochs": (int, 1),
            "patience": (int, 0),
            "seed": (int, 0),
        })

    from_dict = classmethod(config_from_dict)


@dataclass
class GrandModel:
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    config: GrandConfig
    history: list = field(default_factory=list)
    best_epoch: int = 0
    stop_reason: str | None = None  # "patience" or "max_epochs"; None for a loaded checkpoint

    def params(self) -> dict:
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}


def apply_drop_node(X: np.ndarray, delta: float, mask: np.ndarray) -> np.ndarray:
    """DropNode with a pre-drawn {0,1} keep mask: zero the dropped rows and
    rescale the kept ones by 1/(1-delta). When each row is kept with
    probability 1-delta, the expectation equals X.

    An (n, b) mask with X of shape (n, 1, p) gives b views side by side,
    (n, b, p)."""
    return X * (mask / (1.0 - delta))[..., None]


def propagate(adj: sp.csr_matrix, X: np.ndarray, K: int) -> np.ndarray:
    """Mixed-order propagation: average of adj^k X for k = 0..K, computed
    by running power accumulation without densifying any matrix power."""
    if K < 0:
        raise GrandError("K must be >= 0")
    return _hop_average(adj, np.array(X, dtype=np.float64), K)


def _hop_average(adj: sp.csr_matrix, acc: np.ndarray, K: int) -> np.ndarray:
    """``propagate`` accumulated in ``acc``, which holds X and is overwritten."""
    cur = acc
    for _ in range(K):
        cur = adj @ cur
        acc += cur
    acc /= K + 1
    return acc


def mlp_forward(model: GrandModel, X_bar: np.ndarray) -> np.ndarray:
    """ReLU hidden layer followed by softmax; rows sum to 1."""
    _, probs = _mlp_forward_parts(model.params(), X_bar)
    return probs


def _mlp_forward_parts(params: dict, H: np.ndarray):
    """(hidden activations, probabilities) for the rows of ``H``, or of each
    (n, p) slice of an (S, n, p) stack; every slice gets the bits of its own
    pass. Biases and the ReLU are applied in place on each product."""
    A1 = H @ params["W1"]
    A1 += params["b1"]
    np.maximum(A1, 0.0, out=A1)
    Z2 = A1 @ params["W2"]
    Z2 += params["b2"]
    Z2 -= class_reduce(np.maximum, Z2)
    probs = np.exp(Z2, out=Z2)
    probs /= class_reduce(np.add, probs)
    return A1, probs


def sharpen(p: np.ndarray, T: float) -> np.ndarray:
    """Temperature power transform p^(1/T), renormalized row-wise."""
    if T <= 0:
        raise GrandError("temperature must be > 0")
    p = np.asarray(p, dtype=np.float64)
    u = p ** (1.0 / T)
    if u.ndim == 1:
        return u / u.sum()
    return u / class_reduce(np.add, u)


def _consensus(P: np.ndarray, T: float):
    """(mean over the augmentations of the (S, n, C) stack ``P``, summed in
    augmentation order, and its sharpened form)."""
    total = P[0]
    for s in range(1, len(P)):
        total = total + P[s]
    p_bar = total / len(P)
    return p_bar, sharpen(p_bar, T)


def grand_loss(outputs, labels: np.ndarray, train_mask: np.ndarray, lam: float, T: float):
    """(total, supervised, consistency) for S probability matrices, given as
    a list of (n, C) arrays or as one (S, n, C) stack.

    supervised: mean cross-entropy over train nodes, averaged over
    augmentations. consistency: mean over all nodes of the mean squared
    distance between each augmentation and the sharpened mean prediction.
    Per-augmentation terms are summed in augmentation order.
    """
    P = np.asarray(outputs, dtype=np.float64)
    if P.ndim != 3 or len(P) < 1:
        raise GrandError("need at least one augmentation output")
    train_idx = np.flatnonzero(train_mask)
    if len(train_idx) == 0:
        raise GrandError("empty train mask")
    _, q = _consensus(P, T)
    return _loss_terms(_picked(P, train_idx, labels), P - q, lam)


def _picked(P: np.ndarray, train_idx: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The (S, m) probabilities of the train nodes' labels, row-major, so
    that each row's mean sums in the order of a 1-D mean; the fancy index
    alone may lay the block out column-major."""
    return np.ascontiguousarray(P[:, train_idx, labels[train_idx]])


def _loss_terms(picked: np.ndarray, diff: np.ndarray, lam: float):
    """``grand_loss`` from the picked label probabilities and the (S, n, C)
    distances ``diff`` = P - q to the sharpened mean."""
    S, n = diff.shape[:2]
    sup = 0.0
    with np.errstate(divide="ignore"):  # log(0) = -inf: the caller refuses the non-finite loss
        per_view = np.mean(-np.log(picked), axis=1).tolist()
    for value in per_view:
        sup += value
    sup /= S
    con = 0.0
    for value in (diff**2).reshape(S, -1).sum(axis=1).tolist():
        con += value
    con /= S * n
    return sup + lam * con, sup, con


def training_loss_and_grads(
    params: dict,
    adj: sp.csr_matrix,
    X: np.ndarray,
    node_masks: list,
    input_masks: list,
    labels: np.ndarray,
    train_mask: np.ndarray,
    config: GrandConfig,
):
    """Full training loss for pre-drawn DropNode / input-dropout masks, with
    analytic gradients for every parameter.

    The loss is a deterministic function of ``params`` given the masks, so
    central finite differences of this same function validate the gradients.
    Consistency gradients flow through the sharpened mean (no stop-gradient).
    """
    S = config.n_augmentations
    n, p = X.shape
    lam, T = config.consistency_weight, config.temperature
    train_idx = np.flatnonzero(train_mask)
    if len(train_idx) == 0:
        raise GrandError("empty train mask")
    node_masks = np.asarray(node_masks, dtype=np.float64)
    input_masks = np.asarray(input_masks, dtype=np.float64)
    if len(node_masks) != S or len(input_masks) != S:
        raise GrandError(f"need {S} node and input masks, got {len(node_masks)} and {len(input_masks)}")

    # DropNode views side by side, (n, b, p) for b augmentations at a time:
    # one sparse product propagates every column on its own
    H = input_masks / (1.0 - config.input_dropout)
    b = max(1, min(S, _BLOCK_COLUMNS // max(1, p)))
    for start in range(0, S, b):
        X_tilde = apply_drop_node(X[:, None, :], config.drop_rate, node_masks[start : start + b].T)
        width = X_tilde.shape[1] * p
        X_bar = _hop_average(adj, X_tilde.reshape(n, width), config.prop_order).reshape(X_tilde.shape)
        H[start : start + b] *= X_bar.transpose(1, 0, 2)
    A1, P = _mlp_forward_parts(params, H)

    # the consensus, the picked probabilities and P - q feed both the loss
    # and the backward pass
    p_bar, q = _consensus(P, T)
    picked = _picked(P, train_idx, labels)
    diff = P - q
    total, sup, con = _loss_terms(picked, diff, lam)
    if not np.isfinite(total):
        raise GrandError("non-finite loss")

    # dL/dq from the consistency term, then pulled back through sharpening
    G = (2.0 * lam / n) * (q - p_bar)
    with np.errstate(divide="ignore", invalid="ignore"):
        u_prime = p_bar ** (1.0 / T - 1.0)
    u_prime[~np.isfinite(u_prime)] = 0.0
    Z_row = class_reduce(np.add, p_bar ** (1.0 / T))
    # pull back through q = u / sum(u), u = p_bar^(1/T):
    # dL/dp_bar_d = (1/T) p_bar_d^(1/T-1) / Z * (G_d - sum_c G_c q_c)
    gq = (G - class_reduce(np.add, G * q)) * u_prime / (T * Z_row)

    dP = np.zeros_like(P)
    dP[:, train_idx, labels[train_idx]] = -1.0 / (S * len(train_idx) * picked)
    diff *= 2.0 * lam / (n * S)
    dP += diff
    dP += gq / S
    dZ2 = P * (dP - class_reduce(np.add, dP * P))

    # weight gradients summed over the augmentations in order
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    for s in range(S):
        grads["W2"] += A1[s].T @ dZ2[s]
        grads["b2"] += dZ2[s].sum(axis=0)
    dZ1 = dZ2 @ params["W2"].T
    # the ReLU passes a gradient where its input was > 0, which is where
    # its output is: A1 becomes that 0/1 mask in place
    dZ1 *= np.greater(A1, 0.0, out=A1)
    for s in range(S):
        grads["W1"] += H[s].T @ dZ1[s]
        grads["b1"] += dZ1[s].sum(axis=0)

    return total, sup, con, grads


_PARAM_KEYS = ("W1", "b1", "W2", "b2")


def _param_views(flat: np.ndarray, shapes: dict) -> dict:
    """W1, b1, W2 and b2 of the given shapes as views of ``flat``, laid out
    in that order."""
    views, start = {}, 0
    for key in _PARAM_KEYS:
        size = int(np.prod(shapes[key]))
        views[key] = flat[start : start + size].reshape(shapes[key])
        start += size
    return views


def _init_params(rng: np.random.Generator, n_in: int, hidden: int, n_classes: int) -> dict:
    lim1 = np.sqrt(6.0 / (n_in + hidden))
    lim2 = np.sqrt(6.0 / (hidden + n_classes))
    return {
        "W1": rng.uniform(-lim1, lim1, size=(n_in, hidden)),
        "b1": np.zeros(hidden),
        "W2": rng.uniform(-lim2, lim2, size=(hidden, n_classes)),
        "b2": np.zeros(n_classes),
    }


def _binary_f1(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    tp = int(np.sum((y_pred == 1) & (y_true == 1)))
    fp = int(np.sum((y_pred == 1) & (y_true != 1)))
    fn = int(np.sum((y_pred != 1) & (y_true == 1)))
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom > 0 else 0.0


def _check_graph_inputs(adj: sp.csr_matrix, X: np.ndarray) -> np.ndarray:
    """``X`` as float64, once it is finite and ``adj`` is n x n for its n rows."""
    X = np.asarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise GrandError("features contain non-finite values")
    if adj.shape != (len(X), len(X)):
        raise GrandError(f"adjacency is {adj.shape[0]} x {adj.shape[1]}, features have {len(X)} rows")
    return X


def train_grand(
    adj: sp.csr_matrix,
    X: np.ndarray,
    labels: np.ndarray,
    masks: tuple,
    config: GrandConfig | None = None,
    n_classes: int | None = None,
) -> GrandModel:
    """Train on one transductive graph; returns the best-validation snapshot.

    ``masks`` is (train_mask, val_mask); both boolean over nodes and
    disjoint. Each epoch draws S DropNode masks and input-dropout masks,
    takes one adaptive-moment step on the full loss, and scores validation
    F1 with a deterministic no-dropout forward pass. Training stops after
    ``patience`` epochs (at least one) without improvement or at ``max_epochs``,
    as ``stop_reason`` records. Deterministic given the seed.
    """
    config = config or GrandConfig()
    X = _check_graph_inputs(adj, X)
    labels = np.asarray(labels)
    train_mask, val_mask = np.asarray(masks[0], bool), np.asarray(masks[1], bool)
    for name, values in (("labels", labels), ("train mask", train_mask), ("validation mask", val_mask)):
        if len(values) != len(X):
            raise GrandError(f"{name} has {len(values)} entries, features have {len(X)} rows")
    if np.any(train_mask & val_mask):
        raise GrandError("train and validation masks overlap")
    if not train_mask.any():
        raise GrandError("no labeled training nodes")
    n, p = X.shape
    C = int(n_classes if n_classes is not None else labels[train_mask | val_mask].max() + 1)
    if C < 2:
        C = 2

    rng = np.random.default_rng(config.seed)
    init = _init_params(rng, p, config.hidden_dim, C)
    shapes = {k: v.shape for k, v in init.items()}
    # one flat buffer for the parameters and each Adam moment; params are views
    theta = np.concatenate([init[k].ravel() for k in _PARAM_KEYS])
    params = _param_views(theta, shapes)
    adam_m = np.zeros_like(theta)
    adam_v = np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    X_bar_eval = propagate(adj, X, config.prop_order)
    has_val = bool(val_mask.any())

    best_f1 = -np.inf
    best_theta = theta.copy()
    best_epoch = 0
    since_best = 0
    history = []
    stop_reason = "max_epochs"
    S = config.n_augmentations

    for epoch in range(1, config.max_epochs + 1):
        # one draw per mask kind consumes the stream as S draws of each would
        node_masks = (rng.random((S, n)) < 1.0 - config.drop_rate).astype(np.float64)
        input_masks = (rng.random((S, n, p)) < 1.0 - config.input_dropout).astype(np.float64)
        try:
            total, sup, con, grads = training_loss_and_grads(
                params, adj, X, node_masks, input_masks, labels, train_mask, config
            )
        except GrandError as exc:
            # the masks are checked above and the config at construction, so a loss error is divergence
            raise GrandError(f"training diverged at epoch {epoch}: {exc}") from exc

        g = np.concatenate([grads[k].ravel() for k in _PARAM_KEYS])
        adam_m = beta1 * adam_m + (1 - beta1) * g
        adam_v = beta2 * adam_v + (1 - beta2) * g * g
        m_hat = adam_m / (1 - beta1**epoch)
        v_hat = adam_v / (1 - beta2**epoch)
        theta -= config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)

        _, probs = _mlp_forward_parts(params, X_bar_eval)
        preds = np.argmax(probs, axis=1)
        val_f1 = _binary_f1(labels[val_mask], preds[val_mask]) if has_val else float("nan")
        history.append(
            {"epoch": epoch, "total": total, "supervised": sup, "consistency": con, "val_f1": val_f1}
        )

        score = val_f1 if has_val else -total
        if score > best_f1:
            best_f1 = score
            best_theta = theta.copy()
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                stop_reason = "patience"
                break

    return GrandModel(
        **_param_views(best_theta, shapes), config=config, history=history, best_epoch=best_epoch,
        stop_reason=stop_reason,
    )


def predict_grand(model: GrandModel, adj: sp.csr_matrix, X: np.ndarray):
    """Deterministic inference: no DropNode, single propagation pass.

    Returns (probabilities, hard labels); argmax ties resolve to the lower
    class index.
    """
    X = _check_graph_inputs(adj, X)
    if X.shape[1] != model.W1.shape[0]:
        raise GrandError(
            f"feature dimension {X.shape[1]} does not match model input {model.W1.shape[0]}"
        )
    X_bar = propagate(adj, X, model.config.prop_order)
    probs = mlp_forward(model, X_bar)
    return probs, np.argmax(probs, axis=1)


# ---------------------------------------------------------------------------
# checkpoint serialization


def save_checkpoint(path: str, model: GrandModel) -> None:
    params = {k: v.tolist() for k, v in model.params().items()}
    write_model_file(path, {"kind": "grand", "config": asdict(model.config), "params": params})


def load_checkpoint(path: str) -> GrandModel:
    return decode_checkpoint(read_model_file(path, GrandError), path)


def decode_checkpoint(payload: dict, path: str) -> GrandModel:
    """The GRAND model held by a model file's ``payload`` read from ``path``."""
    if payload["kind"] != "grand":
        raise GrandError(f"{path}: holds a {payload['kind']!r} model, not a GRAND checkpoint")
    try:
        config = GrandConfig.from_dict(payload["config"])
        W1, b1, W2, b2 = (np.array(payload["params"][k], dtype=np.float64) for k in ("W1", "b1", "W2", "b2"))
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise GrandError(f"{path}: malformed model payload ({type(exc).__name__}: {exc})") from None
    if W1.ndim != 2 or W2.ndim != 2 or not b1.shape == W1.shape[1:] == W2.shape[:1] or b2.shape != W2.shape[1:]:
        raise GrandError(f"{path}: malformed model payload (inconsistent weight shapes)")
    return GrandModel(W1=W1, b1=b1, W2=W2, b2=b2, config=config)


def save_history_csv(path: str, model: GrandModel) -> None:
    lines = ["epoch,total,supervised,consistency,val_f1"]
    for row in model.history:
        lines.append(
            f"{row['epoch']},{format_float(row['total'])},{format_float(row['supervised'])},"
            f"{format_float(row['consistency'])},{format_float(row['val_f1'])}"
        )
    write_lines(path, lines)
