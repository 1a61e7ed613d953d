"""Semi-supervised node classifier with random propagation.

Training alternates S stochastic augmentations per epoch: node features are
randomly zeroed row-wise (DropNode) with compensation 1/(1-delta), diffused
over the normalized adjacency by mixed-order propagation, and classified by
a 2-layer MLP. The loss couples supervised cross-entropy on labeled nodes
with a consistency term that pulls every augmentation toward the sharpened
mean prediction. Gradients are computed manually for the fixed architecture
(including the path through the sharpened mean), which keeps them checkable
against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np
import scipy.sparse as sp

from .dataset import _atomic_write, check_field, config_from_dict, read_model_file, write_model_file


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
        for key in ("prop_order", "max_epochs", "patience", "seed"):
            check_field(key, getattr(self, key), int, lo=0)
        for key in ("n_augmentations", "hidden_dim"):
            check_field(key, getattr(self, key), int, lo=1)
        for key in ("drop_rate", "temperature", "input_dropout", "learning_rate"):
            check_field(key, getattr(self, key), float)
        check_field("consistency_weight", self.consistency_weight, float, lo=0.0)
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError("drop_rate must lie in [0, 1)")
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if not 0.0 <= self.input_dropout < 1.0:
            raise ValueError("input_dropout must lie in [0, 1)")

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

    def params(self) -> dict:
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}


def apply_drop_node(X: np.ndarray, delta: float, mask: np.ndarray) -> np.ndarray:
    """DropNode with a pre-drawn {0,1} keep mask: zero the dropped rows and
    rescale the kept ones by 1/(1-delta). When each row is kept with
    probability 1-delta, the expectation equals X."""
    return X * (mask / (1.0 - delta))[:, None]


def propagate(adj: sp.csr_matrix, X: np.ndarray, K: int) -> np.ndarray:
    """Mixed-order propagation: average of adj^k X for k = 0..K, computed
    by running power accumulation without densifying any matrix power."""
    if K < 0:
        raise GrandError("K must be >= 0")
    acc = X.astype(np.float64).copy()
    cur = acc.copy()
    for _ in range(K):
        cur = adj @ cur
        acc += cur
    return acc / (K + 1)


def mlp_forward(model: GrandModel, X_bar: np.ndarray) -> np.ndarray:
    """ReLU hidden layer followed by softmax; rows sum to 1."""
    _, _, probs = _mlp_forward_parts(model.params(), X_bar)
    return probs


def _mlp_forward_parts(params: dict, H: np.ndarray):
    Z1 = H @ params["W1"] + params["b1"]
    A1 = np.maximum(Z1, 0.0)
    Z2 = A1 @ params["W2"] + params["b2"]
    Z2 = Z2 - Z2.max(axis=1, keepdims=True)
    expz = np.exp(Z2)
    probs = expz / expz.sum(axis=1, keepdims=True)
    return Z1, A1, probs


def sharpen(p: np.ndarray, T: float) -> np.ndarray:
    """Temperature power transform p^(1/T), renormalized row-wise."""
    if T <= 0:
        raise GrandError("temperature must be > 0")
    p = np.asarray(p, dtype=np.float64)
    u = p ** (1.0 / T)
    if u.ndim == 1:
        return u / u.sum()
    return u / u.sum(axis=1, keepdims=True)


def grand_loss(outputs: list, labels: np.ndarray, train_mask: np.ndarray, lam: float, T: float):
    """(total, supervised, consistency) for S probability matrices.

    supervised: mean cross-entropy over train nodes, averaged over
    augmentations. consistency: mean over all nodes of the mean squared
    distance between each augmentation and the sharpened mean prediction.
    """
    S = len(outputs)
    if S < 1:
        raise GrandError("need at least one augmentation output")
    n = outputs[0].shape[0]
    train_idx = np.flatnonzero(train_mask)
    if len(train_idx) == 0:
        raise GrandError("empty train mask")
    sup = 0.0
    for P in outputs:
        picked = P[train_idx, labels[train_idx]]
        sup += float(np.mean(-np.log(picked)))
    sup /= S
    p_bar = sum(outputs) / S
    q = sharpen(p_bar, T)
    con = 0.0
    for P in outputs:
        con += float(np.sum((q - P) ** 2))
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
    n = X.shape[0]
    lam, T = config.consistency_weight, config.temperature
    train_idx = np.flatnonzero(train_mask)
    if len(train_idx) == 0:
        raise GrandError("empty train mask")
    keep_in = 1.0 - config.input_dropout

    caches = []
    outputs = []
    for s in range(S):
        X_tilde = apply_drop_node(X, config.drop_rate, node_masks[s])
        X_bar = propagate(adj, X_tilde, config.prop_order)
        H = X_bar * (input_masks[s] / keep_in)
        Z1, A1, P = _mlp_forward_parts(params, H)
        caches.append((H, Z1, A1))
        outputs.append(P)

    total, sup, con = grand_loss(outputs, labels, train_mask, lam, T)
    if not np.isfinite(total):
        raise GrandError("non-finite loss")

    p_bar = sum(outputs) / S
    q = sharpen(p_bar, T)
    # dL/dq from the consistency term, then pulled back through sharpening
    G = (2.0 * lam / n) * (q - p_bar)
    with np.errstate(divide="ignore", invalid="ignore"):
        u_prime = p_bar ** (1.0 / T - 1.0)
    u_prime[~np.isfinite(u_prime)] = 0.0
    Z_row = (p_bar ** (1.0 / T)).sum(axis=1, keepdims=True)
    # pull back through q = u / sum(u), u = p_bar^(1/T):
    # dL/dp_bar_d = (1/T) p_bar_d^(1/T-1) / Z * (G_d - sum_c G_c q_c)
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
        dA1 = dZ2 @ params["W2"].T
        dZ1 = dA1 * (Z1 > 0)
        grads["W1"] += H.T @ dZ1
        grads["b1"] += dZ1.sum(axis=0)

    return total, sup, con, grads


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
    ``patience`` epochs without improvement. Deterministic given the seed.
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
    params = _init_params(rng, p, config.hidden_dim, C)
    adam_m = {k: np.zeros_like(v) for k, v in params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    X_bar_eval = propagate(adj, X, config.prop_order)
    has_val = bool(val_mask.any())

    best_f1 = -np.inf
    best_params = {k: v.copy() for k, v in params.items()}
    best_epoch = 0
    since_best = 0
    history = []
    keep_in = 1.0 - config.input_dropout

    for epoch in range(1, config.max_epochs + 1):
        node_masks = [
            (rng.random(n) < 1.0 - config.drop_rate).astype(np.float64)
            for _ in range(config.n_augmentations)
        ]
        input_masks = [
            (rng.random((n, p)) < keep_in).astype(np.float64)
            for _ in range(config.n_augmentations)
        ]
        try:
            total, sup, con, grads = training_loss_and_grads(
                params, adj, X, node_masks, input_masks, labels, train_mask, config
            )
        except GrandError as exc:
            # the masks are checked above and the config at construction, so a loss error is divergence
            raise GrandError(f"training diverged at epoch {epoch}: {exc}") from exc

        for key in ("W1", "b1", "W2", "b2"):
            g = grads[key]
            adam_m[key] = beta1 * adam_m[key] + (1 - beta1) * g
            adam_v[key] = beta2 * adam_v[key] + (1 - beta2) * g * g
            m_hat = adam_m[key] / (1 - beta1**epoch)
            v_hat = adam_v[key] / (1 - beta2**epoch)
            params[key] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)

        _, _, probs = _mlp_forward_parts(params, X_bar_eval)
        preds = np.argmax(probs, axis=1)
        val_f1 = _binary_f1(labels[val_mask], preds[val_mask]) if has_val else float("nan")
        history.append(
            {"epoch": epoch, "total": total, "supervised": sup, "consistency": con, "val_f1": val_f1}
        )

        score = val_f1 if has_val else -total
        if score > best_f1:
            best_f1 = score
            best_params = {k: v.copy() for k, v in params.items()}
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break

    return GrandModel(
        W1=best_params["W1"],
        b1=best_params["b1"],
        W2=best_params["W2"],
        b2=best_params["b2"],
        config=config,
        history=history,
        best_epoch=best_epoch,
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
            f"{row['epoch']},{format(row['total'], '.17g')},{format(row['supervised'], '.17g')},"
            f"{format(row['consistency'], '.17g')},{format(row['val_f1'], '.17g')}"
        )
    _atomic_write(path, ("\n".join(lines) + "\n").encode("ascii"))
