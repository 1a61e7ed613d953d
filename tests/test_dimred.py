import numpy as np
import pytest

from cellgraph.dimred import (
    DimRedError,
    fit_attraction_curve,
    fuzzy_memberships,
    pca,
    symmetrize_memberships,
    tsne,
    tsne_conditional_probabilities,
    umap,
)
from conftest import knn_purity


# ---------------------------------------------------------------------------
# PCA


def test_pca_collinear_explains_everything():
    t = np.linspace(0, 1, 10)
    X = np.stack([t, 3 * t], axis=1)
    _, _, ratio = pca(X, 1)
    assert ratio[0] == pytest.approx(1.0, abs=1e-12)


def test_pca_identical_rows_zero_embedding():
    X = np.tile([2.0, -1.0, 5.0], (6, 1))
    emb, _, ratio = pca(X, 2)
    np.testing.assert_allclose(emb.Y, 0.0, atol=1e-12)
    assert np.all(ratio == 0.0)


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 5))
    emb, components, _ = pca(X, 5)
    reconstructed = emb.Y @ components + X.mean(axis=0)
    assert np.abs(reconstructed - X).max() < 1e-9


def test_pca_components_orthonormal():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 8))
    _, components, ratio = pca(X, 4)
    gram = components @ components.T
    assert np.abs(gram - np.eye(4)).max() < 1e-9
    assert np.all(np.diff(ratio) <= 1e-12)


def test_pca_d_out_of_range():
    with pytest.raises(DimRedError):
        pca(np.zeros((4, 2)), 3)


# ---------------------------------------------------------------------------
# t-SNE


def test_tsne_conditional_rows_sum_to_one():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 4))
    D2 = ((X[:, None] - X[None, :]) ** 2).sum(-1)
    P, realized = tsne_conditional_probabilities(D2, perplexity=5.0)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)
    assert np.abs(realized - 5.0).max() <= 1e-3
    assert np.all(np.diag(P) == 0.0)


def test_tsne_joint_p_properties(three_cluster_benchmark):
    X, _ = three_cluster_benchmark
    emb = tsne(X, 2, perplexity=10, n_iters=5, seed=0)
    P = emb.diagnostics["P"]
    assert np.all(P >= 0)
    np.testing.assert_allclose(P, P.T, atol=1e-15)
    assert abs(P.sum() - 1.0) < 1e-9


def test_tsne_three_cluster_purity(three_cluster_benchmark):
    X, labels = three_cluster_benchmark
    emb = tsne(X, 2, perplexity=10, n_iters=500, seed=0)
    assert knn_purity(emb.Y, labels, k=10) >= 0.9


def test_tsne_kl_decreases():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 6))
    emb = tsne(X, 2, perplexity=8, n_iters=400, seed=1)
    kl = emb.diagnostics["kl_curve"]
    assert len(kl) == 401  # logged every iteration plus the final state
    assert kl[-1] < kl[0]


def test_tsne_deterministic():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(25, 5))
    a = tsne(X, 2, perplexity=6, n_iters=100, seed=9)
    b = tsne(X, 2, perplexity=6, n_iters=100, seed=9)
    assert a.Y.tobytes() == b.Y.tobytes()


def test_tsne_rejects_bad_inputs():
    with pytest.raises(DimRedError):
        tsne(np.zeros((3, 2)), 2, perplexity=1.0)
    X = np.random.default_rng(0).normal(size=(12, 3))
    with pytest.raises(DimRedError):
        tsne(X, 2, perplexity=4.5)  # >= n/3
    X[0, 0] = np.nan
    with pytest.raises(DimRedError):
        tsne(X, 2, perplexity=3)


def test_tsne_infeasible_perplexity_on_identical_points():
    X = np.tile([1.0, 2.0], (12, 1))
    with pytest.raises(DimRedError, match="infeasible"):
        tsne(X, 2, perplexity=3)


# ---------------------------------------------------------------------------
# UMAP


def test_umap_two_point_membership_is_one():
    X = np.array([[0.0, 0.0], [3.0, 4.0]])
    W, idx, dists = fuzzy_memberships(X, n_neighbors=1)
    assert W[0, 1] == 1.0  # exp(0): distance equals rho
    assert W[1, 0] == 1.0


def test_fuzzy_membership_neighbors_are_the_shared_knn(three_cluster_benchmark):
    from cellgraph.graphs import knn

    X, _ = three_cluster_benchmark
    X = np.round(X, 1)  # coarse grid: many exactly tied distances
    _, idx, dists = fuzzy_memberships(X, n_neighbors=10)
    knn_idx, knn_d2 = knn(X, 10)
    np.testing.assert_array_equal(idx, knn_idx)
    assert dists.tobytes() == np.sqrt(knn_d2).tobytes()


def test_symmetrization_formula():
    import scipy.sparse as sp

    W = sp.csr_matrix(np.array([[0.0, 0.5], [0.5, 0.0]]))
    S = symmetrize_memberships(W)
    assert S[0, 1] == pytest.approx(0.75)  # 0.5 + 0.5 - 0.25
    asym = sp.csr_matrix(np.array([[0.0, 0.8], [0.0, 0.0]]))
    S2 = symmetrize_memberships(asym)
    assert S2[0, 1] == pytest.approx(0.8)
    assert S2[1, 0] == pytest.approx(0.8)


def test_memberships_in_unit_interval(three_cluster_benchmark):
    X, _ = three_cluster_benchmark
    W, _, _ = fuzzy_memberships(X, n_neighbors=10)
    values = W.data
    assert np.all(values > 0) and np.all(values <= 1.0)
    S = symmetrize_memberships(W)
    assert (S != S.T).nnz == 0  # exactly symmetric


def test_smooth_knn_target_hit():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(50, 10))
    W, idx, dists = fuzzy_memberships(X, n_neighbors=12)
    from cellgraph.dimred import smooth_knn_calibration

    rho, sigma = smooth_knn_calibration(dists, 12)
    sums = np.sum(np.exp(-np.maximum(dists - rho[:, None], 0.0) / sigma[:, None]), axis=1)
    assert np.abs(sums - np.log2(12)).max() < 1e-3


def test_attraction_curve_matches_reference_shape():
    a, b = fit_attraction_curve(min_dist=0.1)
    # published reference fit for min_dist 0.1, spread 1.0
    assert a == pytest.approx(1.577, abs=0.05)
    assert b == pytest.approx(0.895, abs=0.05)


def test_umap_three_cluster_purity(three_cluster_benchmark):
    X, labels = three_cluster_benchmark
    emb = umap(X, 2, n_neighbors=10, n_epochs=150, seed=0)
    assert knn_purity(emb.Y, labels, k=10) >= 0.9


def test_umap_deterministic(three_cluster_benchmark):
    X, _ = three_cluster_benchmark
    a = umap(X, 2, n_neighbors=8, n_epochs=50, seed=3)
    b = umap(X, 2, n_neighbors=8, n_epochs=50, seed=3)
    assert a.Y.tobytes() == b.Y.tobytes()


def test_umap_rejects_degenerate_input():
    X = np.ones((10, 3))
    with pytest.raises(DimRedError, match="identical"):
        umap(X, 2, n_neighbors=3, n_epochs=10, seed=0)
