"""Dimensionality reduction for node features: PCA, exact t-SNE, and UMAP.

Both nonlinear methods are exact desk-scale implementations (no tree or
interpolation approximations) so their internal quantities are testable:
t-SNE exposes the realized perplexity of every conditional distribution and
the KL objective per iteration; UMAP exposes the calibrated fuzzy membership
graph. Both initialize from PCA, which makes embeddings a deterministic
function of (input, parameters, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import curve_fit

from .graphs import knn, sq_distances


class DimRedError(Exception):
    pass


@dataclass
class Embedding:
    """Reduced coordinates plus the method's diagnostics."""

    Y: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimRedError("expected a 2-D matrix")
    if not np.all(np.isfinite(X)):
        raise DimRedError("input contains non-finite values")
    return X


# ---------------------------------------------------------------------------
# PCA


def pca(X, d: int):
    """Project onto the top-d principal components.

    Returns (embedding, components, explained_variance_ratio). Components
    are orthonormal rows with a deterministic sign (largest-magnitude entry
    positive); the ratio is non-increasing and sums to at most 1.
    """
    X = _as_matrix(X)
    n, p = X.shape
    if n < 2:
        raise DimRedError("PCA needs at least 2 rows")
    if not 1 <= d <= min(n, p):
        raise DimRedError(f"d={d} out of range for {n}x{p} input")
    Xc = X - X.mean(axis=0)
    _, S, Vt = np.linalg.svd(Xc, full_matrices=False)
    components = Vt[:d].copy()
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    variances = S**2 / n
    total = variances.sum()
    ratio = variances[:d] / total if total > 0 else np.zeros(d)
    Y = Xc @ components.T
    emb = Embedding(Y=Y)
    return emb, components, ratio


def _pca_init(X: np.ndarray, d: int, scale: float, seed: int) -> np.ndarray:
    """PCA start coordinates rescaled to a target std; rank-deficient
    directions are padded with tiny seeded noise to break symmetry."""
    n, p = X.shape
    d_eff = min(d, p, n - 1) if n > 1 else 0
    Y = np.zeros((n, d))
    if d_eff >= 1:
        emb, _, _ = pca(X, d_eff)
        Y[:, :d_eff] = emb.Y
    rng = np.random.default_rng(seed)
    if d_eff < d:
        Y[:, d_eff:] = rng.normal(0.0, 1.0, size=(n, d - d_eff))
    std = Y.std()
    if std == 0:
        Y = rng.normal(0.0, 1.0, size=(n, d))
        std = Y.std()
    return Y * (scale / std)


# ---------------------------------------------------------------------------
# t-SNE


def tsne_conditional_probabilities(D2: np.ndarray, perplexity: float, tol: float = 1e-3):
    """Per-point Gaussian calibration by binary search on the precision.

    Each row i of the returned matrix is P(j|i) with bandwidth chosen so
    that 2^H(P_i) matches ``perplexity`` within ``tol``. Also returns the
    realized perplexities.
    """
    n = D2.shape[0]
    P = np.zeros((n, n))
    realized = np.zeros(n)
    for i in range(n):
        d2 = np.delete(D2[i], i)
        beta_lo, beta_hi = 0.0, np.inf
        beta = 1.0
        row = None
        for _ in range(200):
            w = np.exp(-(d2 - d2.min()) * beta)
            total = w.sum()
            row = w / total
            nz = row[row > 0]
            entropy = -np.sum(nz * np.log2(nz))
            perp = 2.0**entropy
            if abs(perp - perplexity) <= tol:
                break
            if perp > perplexity:  # too flat: raise precision
                beta_lo = beta
                beta = beta * 2.0 if beta_hi == np.inf else (beta + beta_hi) / 2.0
            else:
                beta_hi = beta
                beta = (beta_lo + beta) / 2.0
        else:
            raise DimRedError(
                f"perplexity {perplexity} infeasible for point {i} "
                f"(realized {perp:.6f})"
            )
        realized[i] = perp
        P[i, :i] = row[:i]
        P[i, i + 1 :] = row[i:]
    return P, realized


def _kl_divergence(P: np.ndarray, Q: np.ndarray) -> float:
    mask = P > 0
    return float(np.sum(P[mask] * np.log(P[mask] / Q[mask])))


def tsne(
    X,
    d: int = 2,
    perplexity: float = 30.0,
    n_iters: int = 500,
    seed: int = 0,
    learning_rate: float | None = None,
    early_exaggeration: float = 12.0,
) -> Embedding:
    """Exact t-SNE: gradient descent on KL(P || Q) with a Student-t kernel.

    The joint P is the symmetrized, normalized conditional matrix; the first
    250 iterations run with the early-exaggeration factor applied; the
    embedding starts from PCA scaled to std 1e-4. Gradient descent uses the
    standard momentum schedule (0.5 then 0.8) with per-parameter gains; the
    default step size is the max(n / exaggeration, 50) heuristic.
    """
    X = _as_matrix(X)
    n = X.shape[0]
    if n < 4:
        raise DimRedError("t-SNE needs at least 4 points")
    if not 1.0 <= perplexity < n / 3:
        raise DimRedError(f"perplexity must lie in [1, n/3); got {perplexity} for n={n}")
    if learning_rate is None:
        learning_rate = max(n / early_exaggeration, 50.0)
    D2 = sq_distances(X, X)
    P_cond, realized = tsne_conditional_probabilities(D2, perplexity)
    P = (P_cond + P_cond.T) / (2.0 * n)

    Y = _pca_init(X, d, scale=1e-4, seed=seed)
    velocity = np.zeros_like(Y)
    gains = np.ones_like(Y)
    kl_curve = []
    for it in range(n_iters):
        exaggeration = early_exaggeration if it < 250 else 1.0
        momentum = 0.5 if it < 250 else 0.8

        num = 1.0 / (1.0 + sq_distances(Y, Y))
        np.fill_diagonal(num, 0.0)
        Q = num / num.sum()
        kl_curve.append(_kl_divergence(P, Q))

        PQ = (exaggeration * P - Q) * num
        grad = 4.0 * (Y * PQ.sum(axis=1)[:, None] - PQ @ Y)

        agree = np.sign(grad) == np.sign(velocity)
        gains = np.where(agree, gains * 0.8, gains + 0.2)
        np.maximum(gains, 0.01, out=gains)
        velocity = momentum * velocity - learning_rate * gains * grad
        Y = Y + velocity
        Y -= Y.mean(axis=0)

    num = 1.0 / (1.0 + sq_distances(Y, Y))
    np.fill_diagonal(num, 0.0)
    kl_curve.append(_kl_divergence(P, num / num.sum()))
    return Embedding(
        Y=Y,
        diagnostics={"kl_curve": np.array(kl_curve), "realized_perplexity": realized, "P": P},
    )


# ---------------------------------------------------------------------------
# UMAP


def smooth_knn_calibration(knn_dists: np.ndarray, n_neighbors: int, n_iter: int = 100):
    """Find per-point (rho, sigma) for the fuzzy membership kernel.

    rho_i is the distance to the nearest neighbor. sigma_i solves
    sum_j exp(-max(0, d_ij - rho_i) / sigma_i) = log2(n_neighbors) by binary
    search (the sum is monotone in sigma; when the target is below the
    count of zero-offset neighbors, sigma collapses and those memberships
    saturate at 1).
    """
    n = knn_dists.shape[0]
    target = np.log2(n_neighbors) if n_neighbors > 1 else 1.0
    rho = knn_dists[:, 0].copy()
    sigma = np.zeros(n)
    for i in range(n):
        offsets = np.maximum(knn_dists[i] - rho[i], 0.0)
        lo, hi = 0.0, 1.0
        for _ in range(64):
            if np.sum(np.exp(-offsets / hi)) >= target:
                break
            hi *= 2.0
        s = hi
        for _ in range(n_iter):
            s = (lo + hi) / 2.0
            val = np.sum(np.exp(-offsets / s)) if s > 0 else float(np.sum(offsets == 0))
            if abs(val - target) < 1e-5:
                break
            if val > target:
                hi = s
            else:
                lo = s
        sigma[i] = max(s, 1e-12)
    return rho, sigma


def fuzzy_memberships(X, n_neighbors: int):
    """Directed fuzzy membership weights to each point's nearest neighbors.

    Returns (W sparse n x n, knn_indices, knn_dists). Weights lie in (0, 1]
    with the nearest neighbor always at weight 1.
    """
    X = _as_matrix(X)
    n = X.shape[0]
    if not 1 <= n_neighbors < n:
        raise DimRedError(f"n_neighbors must lie in [1, n); got {n_neighbors} for n={n}")
    if np.all(X == X[0]):
        raise DimRedError("all points identical; fuzzy graph undefined")
    idx, d2 = knn(X, n_neighbors)
    dists = np.sqrt(d2)
    rho, sigma = smooth_knn_calibration(dists, n_neighbors)
    weights = np.exp(-np.maximum(dists - rho[:, None], 0.0) / sigma[:, None])
    rows = np.repeat(np.arange(n), n_neighbors)
    W = sp.coo_matrix((weights.ravel(), (rows, idx.ravel())), shape=(n, n)).tocsr()
    return W, idx, dists


def symmetrize_memberships(W: sp.spmatrix) -> sp.csr_matrix:
    """Fuzzy union a + b - a*b of the directed membership matrix and its
    transpose; the result is exactly symmetric."""
    W = W.tocsr()
    Wt = W.T.tocsr()
    return (W + Wt - W.multiply(Wt)).tocsr()


def fit_attraction_curve(min_dist: float, spread: float = 1.0):
    """Least-squares (a, b) so that 1/(1 + a d^{2b}) approximates the target
    membership curve: 1 below min_dist, exponential decay beyond it."""

    def curve(x, a, b):
        return 1.0 / (1.0 + a * x ** (2.0 * b))

    xs = np.linspace(0.0, spread * 3.0, 300)
    ys = np.where(xs < min_dist, 1.0, np.exp(-(xs - min_dist) / spread))
    (a, b), _ = curve_fit(curve, xs, ys)
    return float(a), float(b)


def umap(
    X,
    d: int = 2,
    n_neighbors: int = 15,
    min_dist: float = 0.1,
    n_epochs: int = 200,
    seed: int = 0,
    learning_rate: float = 1.0,
    negative_sample_rate: int = 5,
) -> Embedding:
    """UMAP embedding by negative-sampling SGD on the fuzzy cross-entropy.

    Edges of the symmetrized membership graph are sampled in proportion to
    their weight; each sampled edge attracts its endpoints along the fitted
    1/(1 + a d^{2b}) curve and pushes the head away from
    ``negative_sample_rate`` uniformly drawn points. Gradient components
    are clipped to [-4, 4] and the step size decays linearly to 0.
    """
    X = _as_matrix(X)
    n = X.shape[0]
    W, _, _ = fuzzy_memberships(X, n_neighbors)
    S = symmetrize_memberships(W).tocoo()
    a, b = fit_attraction_curve(min_dist)

    head = S.row.astype(np.int64)
    tail = S.col.astype(np.int64)
    weights = S.data.astype(np.float64)
    keep = weights >= weights.max() / n_epochs
    head, tail, weights = head[keep], tail[keep], weights[keep]
    epochs_per_sample = n_epochs / (weights / weights.max())

    Y = _pca_init(X, d, scale=1.0, seed=seed)
    Y *= 10.0 / max(np.abs(Y).max(), 1e-12)
    rng = np.random.default_rng(seed)
    epoch_of_next_sample = epochs_per_sample.copy()

    for epoch in range(1, n_epochs + 1):
        alpha = learning_rate * (1.0 - (epoch - 1) / n_epochs)
        due = epoch_of_next_sample <= epoch
        if due.any():
            h, t = head[due], tail[due]
            diff = Y[h] - Y[t]
            d2 = np.sum(diff * diff, axis=1)
            coef = np.zeros_like(d2)
            pos = d2 > 0
            coef[pos] = (-2.0 * a * b * d2[pos] ** (b - 1.0)) / (1.0 + a * d2[pos] ** b)
            grad = np.clip(coef[:, None] * diff, -4.0, 4.0)
            np.add.at(Y, h, alpha * grad)
            np.add.at(Y, t, -alpha * grad)

            for _ in range(negative_sample_rate):
                neg = rng.integers(0, n, size=len(h))
                valid = neg != h
                diff_n = Y[h] - Y[neg]
                d2n = np.sum(diff_n * diff_n, axis=1)
                coef_n = 2.0 * b / ((0.001 + d2n) * (1.0 + a * d2n**b))
                grad_n = np.clip(coef_n[:, None] * diff_n, -4.0, 4.0)
                grad_n[~valid] = 0.0
                np.add.at(Y, h, alpha * grad_n)

            epoch_of_next_sample[due] += epochs_per_sample[due]

    return Embedding(Y=Y, diagnostics={"a": a, "b": b})


def reduce_features(X, method: str, d: int, seed: int = 0, **kwargs):
    """Dispatch helper used by the harness and CLI; 'none' passes through."""
    if method == "none":
        return Embedding(Y=np.asarray(X, dtype=np.float64).copy())
    if method == "pca":
        emb, _, _ = pca(X, d)
        return emb
    if method == "tsne":
        return tsne(X, d=d, seed=seed, **kwargs)
    if method == "umap":
        return umap(X, d=d, seed=seed, **kwargs)
    raise DimRedError(f"unknown reduction method {method!r}")
