"""Dimensionality reduction for node features: PCA, exact t-SNE, and UMAP.

Both nonlinear methods are exact desk-scale implementations (no tree or
interpolation approximations) so their internal quantities are testable:
t-SNE exposes the realized perplexity of every conditional distribution and
the KL objective per iteration; UMAP exposes the calibrated fuzzy membership
graph. Both initialize from PCA. t-SNE draws nothing, so its embedding is
a deterministic function of (input, parameters); UMAP's negative sampling
adds its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .dataset import Open, check_field, check_fields, config_from_dict
from .graphs import check_distance_range, knn, sq_distances


class DimRedError(Exception):
    pass


@dataclass
class TsneConfig:
    """The keyword arguments of ``tsne`` beside ``X`` and ``d``."""

    perplexity: float = 30.0
    n_iters: int = 500
    learning_rate: float | None = None  # None: max(n / early_exaggeration, 50)
    early_exaggeration: float = 12.0

    def __post_init__(self):
        check_fields(self, {
            "perplexity": (float, 1.0),
            "n_iters": (int, 1),
            "learning_rate": (float | None, Open(0.0)),
            "early_exaggeration": (float, Open(0.0)),
        })


@dataclass
class UmapConfig:
    """The keyword arguments of ``umap`` beside ``X``, ``d`` and ``seed``."""

    n_neighbors: int = 15
    min_dist: float = 0.1
    n_epochs: int = 200
    learning_rate: float = 1.0
    negative_sample_rate: int = 5

    def __post_init__(self):
        check_fields(self, {
            "n_neighbors": (int, 1),
            "min_dist": (float, 0.0),
            "n_epochs": (int, 1),
            "learning_rate": (float, Open(0.0)),
            "negative_sample_rate": (int, 0),
        })


@dataclass
class Embedding:
    """Reduced coordinates plus the method's diagnostics."""

    Y: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _as_matrix(X, d: int | None = None) -> np.ndarray:
    """``X`` as a finite float64 matrix; with ``d``, refuse an embedding width
    outside [1, min(p, n - 1)], the ranks a centred n x p table can hold."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimRedError("expected a 2-D matrix")
    n, p = X.shape
    if d is not None and not 1 <= d <= min(p, n - 1):
        raise DimRedError(f"d={d} out of range for {n}x{p} input")
    if not np.all(np.isfinite(X)):
        raise DimRedError("input contains non-finite values")
    return X


# ---------------------------------------------------------------------------
# PCA


def pca(X, d: int) -> Embedding:
    """Project onto the top-d principal components.

    The diagnostics hold ``components`` and ``explained_variance_ratio``.
    Components are orthonormal rows with a deterministic sign
    (largest-magnitude entry positive); the ratio is non-increasing and sums
    to at most 1.
    """
    X = _as_matrix(X, d)
    Xc = X - X.mean(axis=0)
    _, S, Vt = np.linalg.svd(Xc, full_matrices=False)
    components = Vt[:d].copy()
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    variances = S**2 / len(X)
    total = variances.sum()
    ratio = variances[:d] / total if total > 0 else np.zeros(d)
    return Embedding(Y=Xc @ components.T, diagnostics={"components": components, "explained_variance_ratio": ratio})


def _pca_init(X: np.ndarray, d: int, scale: float) -> np.ndarray:
    """PCA start coordinates rescaled to std ``scale``. Distinct rows can
    still project to a spread whose squares underflow to 0 (entries near
    1e-300): such a start is refused, not divided by 0."""
    Y = pca(X, d).Y
    std = Y.std()
    if std == 0:
        raise DimRedError(f"PCA start of the {X.shape[0]}x{X.shape[1]} input has zero spread in float64")
    return Y * (scale / std)


# ---------------------------------------------------------------------------
# t-SNE


# rows of the conditional matrix calibrated at once: a block's (rows, n)
# temporaries stay small beside the n x n distances and P
_SEARCH_ROWS = 64


def tsne_conditional_probabilities(D2: np.ndarray, perplexity: float, tol: float = 1e-3):
    """Per-point Gaussian calibration by binary search on the precision.

    Each row i of the returned matrix is P(j|i) with bandwidth chosen so
    that 2^H(P_i) matches ``perplexity`` within ``tol``. Also returns the
    realized perplexities. Rows are searched ``_SEARCH_ROWS`` at a time,
    each block to completion and in row order; within a block each row
    keeps its own bracket and leaves the search at its own step, so every
    row has the bits of a search on that row alone.
    """
    n = D2.shape[0]
    P = np.zeros((n, n))
    realized = np.zeros(n)
    for start in range(0, n, _SEARCH_ROWS):
        block = P[start : start + _SEARCH_ROWS]
        rows = np.arange(len(block))
        # True off the diagonal: a block row without its own entry
        keep = np.ones(block.shape, dtype=bool)
        keep[rows, start + rows] = False
        off = D2[start : start + len(block)][keep].reshape(len(block), n - 1)
        block[keep] = _calibrate_rows(off, perplexity, tol, start, realized[start : start + len(block)]).ravel()
    return P, realized


def _calibrate_rows(off: np.ndarray, perplexity: float, tol: float, first: int, realized: np.ndarray):
    """The search of ``tsne_conditional_probabilities`` on the off-diagonal
    distances of the rows ``first``, ``first + 1``, ...; fills ``realized``
    and returns the (rows, n-1) probabilities, written over ``off``."""
    # -(off - row min), in place; a row that is done keeps its probabilities here
    neg = off
    neg -= neg.min(axis=1, keepdims=True)
    np.negative(neg, out=neg)
    m = len(neg)
    beta = np.ones(m)
    beta_lo = np.zeros(m)
    beta_hi = np.full(m, np.inf)
    rows = np.arange(m)
    for _ in range(200):
        w = neg[rows]
        w *= beta[rows, None]
        np.exp(w, out=w)
        w /= w.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.log2(w)
            terms *= w
        entropy = -terms.sum(axis=1)
        del terms
        # 0 * log2(0) made the sum NaN: such a row sums its non-zero terms
        # alone, as the grouping of numpy's pairwise sum depends on length
        for j in np.flatnonzero(np.isnan(entropy)):
            nz = w[j][w[j] > 0]
            entropy[j] = -np.sum(nz * np.log2(nz))
        # a scalar pow per row: the array power can differ in the last bit
        perp = np.array([2.0**h for h in entropy])
        done = np.abs(perp - perplexity) <= tol
        neg[rows[done]] = w[done]
        realized[rows[done]] = perp[done]
        rows, perp = rows[~done], perp[~done]
        if not rows.size:
            return neg
        b, lo, hi = beta[rows], beta_lo[rows], beta_hi[rows]
        flat = perp > perplexity  # too flat: raise precision
        beta_lo[rows] = np.where(flat, b, lo)
        beta_hi[rows] = np.where(flat, hi, b)
        beta[rows] = np.where(flat, np.where(hi == np.inf, b * 2.0, (b + hi) / 2.0), (lo + b) / 2.0)
    raise DimRedError(
        f"perplexity {perplexity} infeasible for point {first + rows[0]} "
        f"(realized {perp[0]:.6f})"
    )


def _joint_probabilities(X: np.ndarray, perplexity: float):
    """Symmetrized, normalized P and the realized conditional perplexities.

    The distances are freed before P is symmetrized, so at most two n x n
    arrays are alive at once. Distinct rows whose squared distances all
    underflow to 0 (entries near 1e-300) are refused before the search,
    which would blame the perplexity.
    """
    D2 = sq_distances(X, X)
    if not D2.any() and np.ptp(X, axis=0).any():
        raise DimRedError(f"squared distances underflow float64: the largest absolute entry is {np.abs(X).max():g}")
    P_cond, realized = tsne_conditional_probabilities(D2, perplexity)
    del D2
    P = P_cond + P_cond.T
    del P_cond
    P /= 2.0 * len(X)
    return P, realized


def tsne(X, d: int = 2, **params) -> Embedding:
    """Exact t-SNE: gradient descent on KL(P || Q) with a Student-t kernel.

    ``params`` are ``TsneConfig`` fields. The joint P is the symmetrized,
    normalized conditional matrix; the first 250 iterations run with the
    early-exaggeration factor applied; the embedding starts from PCA scaled
    to std 1e-4. Gradient descent uses the standard momentum schedule (0.5
    then 0.8) with per-parameter gains; the default step size is the
    max(n / exaggeration, 50) heuristic.
    """
    config = config_from_dict(TsneConfig, params, DimRedError)
    X = _as_matrix(X, d)
    check_distance_range(X, DimRedError)
    n = X.shape[0]
    if n < 4:
        raise DimRedError("t-SNE needs at least 4 points")
    if not 1.0 <= config.perplexity < n / 3:
        raise DimRedError(f"perplexity must lie in [1, n/3); got {config.perplexity} for n={n}")
    learning_rate = config.learning_rate
    if learning_rate is None:
        learning_rate = max(n / config.early_exaggeration, 50.0)
    P, realized = _joint_probabilities(X, config.perplexity)
    support = P[P > 0]
    p_log_p = np.sum(support * np.log(support))
    p_total = support.sum()
    del support
    exaggerated = config.early_exaggeration * P

    # n x n work buffers, allocated once per call and reused every iteration
    num = np.empty((n, n))
    buf = np.empty((n, n))
    diagonal = num.reshape(-1)[:: n + 1]

    def student_t(Y):
        """num = 1/(1 + |y_i - y_j|^2) with a zero diagonal; returns (sum of num,
        KL(P || num / sum)), the KL as sum P log P - <P, log num> + log(sum) sum P."""
        sq_distances(Y, Y, out=num)
        np.add(num, 1.0, out=num)
        np.divide(1.0, num, out=num)
        np.log(num, out=buf)  # finite: the diagonal is still about 1 here
        cross = np.vdot(P, buf)
        diagonal[:] = 0.0
        total = num.sum()
        return total, float(p_log_p - cross + np.log(total) * p_total)

    Y = _pca_init(X, d, scale=1e-4)
    velocity = np.zeros_like(Y)
    gains = np.ones_like(Y)
    kl_curve = []
    for it in range(config.n_iters):
        momentum = 0.5 if it < 250 else 0.8

        total, kl = student_t(Y)
        kl_curve.append(kl)

        # PQ = (exaggeration * P - num / total) * num
        np.divide(num, total, out=buf)
        np.subtract(exaggerated if it < 250 else P, buf, out=buf)
        buf *= num
        grad = 4.0 * (Y * buf.sum(axis=1)[:, None] - buf @ Y)

        agree = np.sign(grad) == np.sign(velocity)
        gains = np.where(agree, gains * 0.8, gains + 0.2)
        np.maximum(gains, 0.01, out=gains)
        velocity = momentum * velocity - learning_rate * gains * grad
        Y = Y + velocity
        Y -= Y.mean(axis=0)

    kl_curve.append(student_t(Y)[1])
    return Embedding(
        Y=Y,
        diagnostics={
            "kl_curve": np.array(kl_curve),
            "n_iters": config.n_iters,
            "realized_perplexity": realized,
            "perplexity_error": float(np.abs(realized - config.perplexity).max()),
            "P": P,
        },
    )


# ---------------------------------------------------------------------------
# UMAP


def smooth_knn_calibration(knn_dists: np.ndarray, n_neighbors: int, n_iter: int = 100):
    """Find per-point (rho, sigma) for the fuzzy membership kernel.

    rho_i is the distance to the nearest neighbor. sigma_i solves
    sum_j exp(-max(0, d_ij - rho_i) / sigma_i) = log2(n_neighbors) by binary
    search (the sum is monotone in sigma; when the target is below the
    count of zero-offset neighbors, sigma collapses and those memberships
    saturate at 1). All rows are searched at once, each leaving the search
    at its own step, with the bits of a search on that row alone.
    """
    n = knn_dists.shape[0]
    target = np.log2(n_neighbors) if n_neighbors > 1 else 1.0
    rho = knn_dists[:, 0].copy()
    neg = -np.maximum(knn_dists - rho[:, None], 0.0)

    def membership_sums(rows, scale):
        return np.exp(neg[rows] / scale[:, None]).sum(axis=1)

    lo, hi = np.zeros(n), np.ones(n)
    rows = np.arange(n)
    for _ in range(64):
        rows = rows[membership_sums(rows, hi[rows]) < target]
        if not rows.size:
            break
        hi[rows] *= 2.0
    s = hi.copy()
    rows = np.arange(n)
    for _ in range(n_iter):
        if not rows.size:
            break
        mid = (lo[rows] + hi[rows]) / 2.0
        s[rows] = mid
        with np.errstate(all="ignore"):  # a tiny or zero sigma; exp(-inf) is 0
            val = membership_sums(rows, mid)
        collapsed = mid == 0  # only zero offsets count
        val[collapsed] = np.sum(neg[rows[collapsed]] == 0, axis=1)
        searching = np.abs(val - target) >= 1e-5
        rows, mid, above = rows[searching], mid[searching], val[searching] > target
        hi[rows[above]] = mid[above]
        lo[rows[~above]] = mid[~above]
    return rho, np.maximum(s, 1e-12)


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


# (a, b) is a pure function of its arguments, and importing scipy.optimize
# at module load cost about 27 MB RSS and 0.25 s of start-up (scipy 1.17,
# 2-core x86-64): the fit for the defaults is kept as the exact floats
# curve_fit returns for them
_ATTRACTION_CURVES = {
    (0.1, 1.0): (float.fromhex("0x1.93b2910d7fed7p+0"), float.fromhex("0x1.ca456b5c9a65dp-1")),
}


def fit_attraction_curve(min_dist: float, spread: float = 1.0):
    """Least-squares (a, b) so that 1/(1 + a d^{2b}) approximates the target
    membership curve: 1 below min_dist, exponential decay beyond it."""
    if (min_dist, spread) in _ATTRACTION_CURVES:
        return _ATTRACTION_CURVES[min_dist, spread]
    from scipy.optimize import curve_fit

    def curve(x, a, b):
        return 1.0 / (1.0 + a * x ** (2.0 * b))

    xs = np.linspace(0.0, spread * 3.0, 300)
    ys = np.where(xs < min_dist, 1.0, np.exp(-(xs - min_dist) / spread))
    (a, b), _ = curve_fit(curve, xs, ys)
    return float(a), float(b)


def umap(X, d: int = 2, seed: int = 0, **params) -> Embedding:
    """UMAP embedding by negative-sampling SGD on the fuzzy cross-entropy.

    ``params`` are ``UmapConfig`` fields. Edges of the symmetrized
    membership graph are sampled in proportion to their weight; each sampled
    edge attracts its endpoints along the fitted 1/(1 + a d^{2b}) curve and
    pushes the head away from ``negative_sample_rate`` uniformly drawn
    points. Gradient components are clipped to [-4, 4] and the step size
    decays linearly to 0.
    """
    config = config_from_dict(UmapConfig, params, DimRedError)
    X = _as_matrix(X, d)
    n = X.shape[0]
    W, _, _ = fuzzy_memberships(X, config.n_neighbors)
    S = symmetrize_memberships(W).tocoo()
    a, b = fit_attraction_curve(config.min_dist)

    head = S.row.astype(np.int64)
    tail = S.col.astype(np.int64)
    weights = S.data.astype(np.float64)
    keep = weights >= weights.max() / config.n_epochs
    head, tail, weights = head[keep], tail[keep], weights[keep]
    epochs_per_sample = config.n_epochs / (weights / weights.max())

    Y = _pca_init(X, d, scale=1.0)
    Y *= 10.0 / max(np.abs(Y).max(), 1e-12)
    rng = np.random.default_rng(seed)
    epoch_of_next_sample = epochs_per_sample.copy()

    for epoch in range(1, config.n_epochs + 1):
        alpha = config.learning_rate * (1.0 - (epoch - 1) / config.n_epochs)
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

            for _ in range(config.negative_sample_rate):
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
    """Dispatch helper used by the experiment and the CLI: 'none' passes ``X``
    through, every other method embeds an n x p ``X`` in min(d, p, n - 1)
    dimensions. Only UMAP reads ``seed``; it is checked for every method."""
    try:
        check_field("seed", seed, int, 0)
    except ValueError as exc:
        raise DimRedError(str(exc)) from None
    if method in ("none", "pca") and kwargs:
        raise DimRedError(f"reduction {method!r} takes no keyword arguments, got {', '.join(sorted(kwargs))}")
    if method == "none":
        return Embedding(Y=np.asarray(X, dtype=np.float64).copy())
    if method not in ("pca", "tsne", "umap"):
        raise DimRedError(f"unknown reduction method {method!r}")
    X = _as_matrix(X)
    n, p = X.shape
    if min(p, n - 1) < 1:
        raise DimRedError(f"{method} cannot embed a {n}x{p} table in d={d}: it needs at least 2 rows and 1 column")
    d = min(d, p, n - 1)
    if method == "pca":
        return pca(X, d)
    if method == "tsne":
        return tsne(X, d=d, **kwargs)
    return umap(X, d=d, seed=seed, **kwargs)
