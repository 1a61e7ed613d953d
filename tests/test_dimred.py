import hashlib
import inspect
import os
import re
import subprocess
import sys
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellgraph import dimred
from cellgraph.dimred import (
    DimRedError,
    TsneConfig,
    UmapConfig,
    fit_attraction_curve,
    fuzzy_memberships,
    pca,
    reduce_features,
    smooth_knn_calibration,
    symmetrize_memberships,
    tsne,
    tsne_conditional_probabilities,
    umap,
)
from cellgraph.graphs import GraphError, sq_distances
from conftest import knn_purity


# ---------------------------------------------------------------------------
# PCA


def test_pca_collinear_explains_everything():
    t = np.linspace(0, 1, 10)
    X = np.stack([t, 3 * t], axis=1)
    ratio = pca(X, 1).diagnostics["explained_variance_ratio"]
    assert ratio[0] == pytest.approx(1.0, abs=1e-12)


def test_pca_identical_rows_zero_embedding():
    X = np.tile([2.0, -1.0, 5.0], (6, 1))
    emb = pca(X, 2)
    np.testing.assert_allclose(emb.Y, 0.0, atol=1e-12)
    assert np.all(emb.diagnostics["explained_variance_ratio"] == 0.0)


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 5))
    emb = pca(X, 5)
    reconstructed = emb.Y @ emb.diagnostics["components"] + X.mean(axis=0)
    assert np.abs(reconstructed - X).max() < 1e-9


def test_pca_components_orthonormal():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 8))
    diagnostics = pca(X, 4).diagnostics
    components = diagnostics["components"]
    gram = components @ components.T
    assert np.abs(gram - np.eye(4)).max() < 1e-9
    assert np.all(np.diff(diagnostics["explained_variance_ratio"]) <= 1e-12)


def test_pca_d_out_of_range():
    with pytest.raises(DimRedError):
        pca(np.zeros((4, 2)), 3)


def _refuses_before_pairwise_work(method, shape, d):
    X = np.random.default_rng(0).normal(size=shape)
    pairwise = AssertionError("pairwise work before the d check")
    with mock.patch.object(dimred, "sq_distances", side_effect=pairwise), \
            mock.patch.object(dimred, "knn", side_effect=pairwise), \
            pytest.raises(DimRedError, match=f"^d={d} out of range for {shape[0]}x{shape[1]} input$"):
        method(X, d)


@pytest.mark.parametrize("method", [pca, tsne, umap])
@pytest.mark.parametrize("d", [0, -2])
def test_every_method_refuses_d_below_1_before_pairwise_work(method, d):
    # t-SNE once returned an (n, 0) embedding and UMAP failed with numpy's
    # bare "zero-size array" ValueError
    _refuses_before_pairwise_work(method, (20, 3), d)


@pytest.mark.parametrize("method", [pca, tsne, umap])
@pytest.mark.parametrize("shape", [(20, 3), (3, 10)])
def test_every_method_refuses_d_above_min_p_n_minus_1_before_pairwise_work(method, shape):
    # t-SNE and UMAP once padded their start with seeded noise past the
    # table's rank, and PCA kept an n-th component that explained nothing
    _refuses_before_pairwise_work(method, shape, min(shape[1], shape[0] - 1) + 1)


def test_pca_start_is_the_scaled_projection_and_draws_nothing():
    # the start once padded widths past the table's rank with seeded noise
    X = np.random.default_rng(4).normal(size=(20, 6))
    with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("a generator for the start")):
        start = dimred._pca_init(X, 6, scale=1e-4)
    Y = pca(X, 6).Y
    assert start.tobytes() == (Y * (1e-4 / Y.std())).tobytes()


def test_umap_refuses_a_start_whose_spread_underflows():
    # the rows differ, so UMAP's identical-points check passes, but the
    # squares of the projection underflow to 0; the start once fell back to
    # seeded noise there
    X = np.random.default_rng(0).normal(size=(20, 3)) * 1e-300
    with pytest.raises(DimRedError, match="^PCA start of the 20x3 input has zero spread in float64$"):
        umap(X, 2, n_neighbors=5, n_epochs=5)


def test_tsne_refuses_distinct_rows_whose_squared_distances_underflow():
    # every squared distance rounds to 0, so the perplexity search found
    # each point's n - 1 neighbors equally near and blamed the perplexity
    X = np.random.default_rng(0).normal(size=(20, 3)) * 1e-300
    message = f"^squared distances underflow float64: the largest absolute entry is {np.abs(X).max():g}$"
    with pytest.raises(DimRedError, match=message):
        tsne(X, 2, perplexity=3)
    # identical rows have no distance to lose; the perplexity is what fails
    with pytest.raises(DimRedError, match="^perplexity 3 infeasible for point 0"):
        tsne(np.ones((20, 3)), 2, perplexity=3)


def test_tsne_takes_no_seed_and_reduce_features_gives_it_none():
    assert "seed" not in inspect.signature(tsne).parameters
    X = np.random.default_rng(5).normal(size=(20, 6))
    a, b = (reduce_features(X, "tsne", 2, seed=seed, perplexity=3.0, n_iters=30).Y for seed in (3, 4))
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n, width", [(10, 9), (40, 12)])
@pytest.mark.parametrize("method, kwargs", [
    ("pca", {}),
    ("tsne", {"perplexity": 3.0, "n_iters": 30}),
    ("umap", {"n_neighbors": 5, "n_epochs": 20}),
])
def test_reduce_features_caps_d_at_the_columns_and_n_minus_1(n, width, method, kwargs):
    X = np.random.default_rng(n).normal(size=(n, 12))
    got = reduce_features(X, method, 16, seed=3, **kwargs).Y
    if method == "umap":
        want = umap(X, width, seed=3, **kwargs).Y
    else:
        want = getattr(dimred, method)(X, width, **kwargs).Y
    assert got.shape == (n, width) and got.tobytes() == want.tobytes()
    # no cap on the pass-through
    assert reduce_features(X, "none", 4).Y.tobytes() == X.tobytes()


@pytest.mark.parametrize("method", ["pca", "tsne", "umap"])
@pytest.mark.parametrize("shape", [(1, 12), (5, 0)])
def test_reduce_features_refuses_a_table_with_no_width_to_embed(method, shape):
    # min(d, p, n - 1) < 1: the method's own check once said "d=0 out of
    # range for 1x12 input", naming neither the requested d nor the cause
    n, p = shape
    message = f"^{method} cannot embed a {n}x{p} table in d=16: it needs at least 2 rows and 1 column$"
    with pytest.raises(DimRedError, match=message):
        reduce_features(np.ones(shape), method, 16)


def test_reduce_features_none_refuses_a_table_with_no_columns():
    with pytest.raises(DimRedError, match=r"^none cannot pass on a 5x0 table: it needs at least 1 column$"):
        reduce_features(np.ones((5, 0)), "none", 16)


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
    emb = tsne(X, 2, perplexity=10, n_iters=5)
    P = emb.diagnostics["P"]
    assert np.all(P >= 0)
    np.testing.assert_allclose(P, P.T, atol=1e-15)
    assert abs(P.sum() - 1.0) < 1e-9


def test_tsne_three_cluster_purity(three_cluster_benchmark):
    X, labels = three_cluster_benchmark
    emb = tsne(X, 2, perplexity=10, n_iters=500)
    assert knn_purity(emb.Y, labels, k=10) >= 0.9


def test_tsne_kl_decreases():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 6))
    emb = tsne(X, 2, perplexity=8, n_iters=400)
    kl = emb.diagnostics["kl_curve"]
    assert len(kl) == 401  # logged every iteration plus the final state
    assert emb.diagnostics["n_iters"] == len(kl) - 1 == 400
    assert kl[-1] < kl[0]


def test_tsne_kl_curve_is_the_kl_of_each_iterate():
    # the curve is computed as sum P log P - <P, log num> + log(sum num) sum P;
    # the direct masked sum differs from it in the last bits only
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 5))
    emb = tsne(X, 2, perplexity=8, n_iters=30)
    P = emb.diagnostics["P"]
    num = 1.0 / (1.0 + sq_distances(emb.Y, emb.Y))
    np.fill_diagonal(num, 0.0)
    Q = num / num.sum()
    mask = P > 0
    direct = np.sum(P[mask] * np.log(P[mask] / Q[mask]))
    assert len(emb.diagnostics["kl_curve"]) == 31
    assert emb.diagnostics["kl_curve"][-1] == pytest.approx(direct, rel=1e-12, abs=1e-14)
    realized = emb.diagnostics["realized_perplexity"]
    assert emb.diagnostics["perplexity_error"] == np.abs(realized - 8).max()


def test_tsne_deterministic():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(25, 5))
    a = tsne(X, 2, perplexity=6, n_iters=100)
    b = tsne(X, 2, perplexity=6, n_iters=100)
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


@pytest.mark.parametrize("method, kwargs, message", [
    (tsne, {"perplexity": "5"}, "perplexity must be a finite number"),
    (tsne, {"early_exaggeration": 0.0}, "early_exaggeration must be > 0.0"),
    (tsne, {"learning_rate": -1.0}, "learning_rate must lie in"),
    (tsne, {"n_iters": 2.0}, "n_iters must be an integer"),
    (umap, {"n_neighbors": True}, "n_neighbors must be an integer"),
    (umap, {"learning_rate": 0}, "learning_rate must be > 0.0"),
    (umap, {"negative_sample_rate": -1}, "negative_sample_rate must lie in"),
])
def test_reduction_rejects_bad_argument_by_key_name(method, kwargs, message):
    X = np.random.default_rng(0).normal(size=(20, 3))
    with pytest.raises(DimRedError, match=message):
        method(X, 2, **kwargs)


def test_reduction_configs_default_to_the_former_keyword_defaults():
    assert asdict(TsneConfig()) == {"perplexity": 30.0, "n_iters": 500, "learning_rate": None,
                                    "early_exaggeration": 12.0}
    assert asdict(UmapConfig()) == {"n_neighbors": 15, "min_dist": 0.1, "n_epochs": 200, "learning_rate": 1.0,
                                    "negative_sample_rate": 5}


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


def curve_fit_reference(min_dist, spread=1.0):
    """The attraction-curve fit as scipy's curve_fit gives it."""
    from scipy.optimize import curve_fit

    xs = np.linspace(0.0, spread * 3.0, 300)
    ys = np.where(xs < min_dist, 1.0, np.exp(-(xs - min_dist) / spread))
    (a, b), _ = curve_fit(lambda x, a, b: 1.0 / (1.0 + a * x ** (2.0 * b)), xs, ys)
    return float(a), float(b)


def test_attraction_curve_memo_equals_curve_fit_bits():
    # a scipy whose fit drifts fails here instead of silently moving UMAP
    # embeddings and report bytes
    assert dimred._ATTRACTION_CURVES
    for (min_dist, spread), (a, b) in dimred._ATTRACTION_CURVES.items():
        ref_a, ref_b = curve_fit_reference(min_dist, spread)
        assert (a.hex(), b.hex()) == (ref_a.hex(), ref_b.hex())
    assert fit_attraction_curve(0.1) == fit_attraction_curve(0.1, 1.0) == dimred._ATTRACTION_CURVES[0.1, 1.0]


def test_attraction_curve_fits_a_non_default_min_dist():
    a, b = fit_attraction_curve(min_dist=0.25)
    ref_a, ref_b = curve_fit_reference(0.25)
    assert (a.hex(), b.hex()) == (ref_a.hex(), ref_b.hex())
    assert (a, b) != fit_attraction_curve(min_dist=0.1)


def test_default_umap_does_not_import_scipy_optimize():
    # a fresh interpreter: other tests may already have loaded the module
    code = (
        "import sys, numpy as np, cellgraph, cellgraph.cli\n"
        "from cellgraph.dimred import umap\n"
        "umap(np.random.default_rng(0).normal(size=(30, 3)), 2, n_neighbors=5, n_epochs=5)\n"
        "sys.exit('scipy.optimize' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(dimred.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


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


# ---------------------------------------------------------------------------
# same bits: per-row reference loops and pinned digests


def reference_conditional_probabilities(D2, perplexity, tol=1e-3):
    """One row at a time: bisect the precision of row i until 2^H(P_i) is
    within ``tol`` of ``perplexity``; the entropy sums the non-zero terms."""
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
            if perp > perplexity:
                beta_lo = beta
                beta = beta * 2.0 if beta_hi == np.inf else (beta + beta_hi) / 2.0
            else:
                beta_hi = beta
                beta = (beta_lo + beta) / 2.0
        else:
            raise DimRedError(f"perplexity {perplexity} infeasible for point {i} (realized {perp:.6f})")
        realized[i] = perp
        P[i, :i] = row[:i]
        P[i, i + 1 :] = row[i:]
    return P, realized


def reference_smooth_knn_calibration(knn_dists, n_neighbors, n_iter=100):
    """One row at a time: double sigma until the membership sum reaches the
    target, then bisect it."""
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


@st.composite
def point_sets(draw, max_n=30):
    """Small-integer points (exact ties and duplicates), some moved far out
    so that their conditional probabilities underflow to 0 in other rows."""
    n = draw(st.integers(4, max_n))
    dim = draw(st.integers(1, 4))
    X = np.array(draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
                               min_size=n, max_size=n)), dtype=np.float64)
    scale = draw(st.sampled_from([1.0, 0.01, 7.3]))
    for i in draw(st.sets(st.integers(0, n - 1), max_size=3)):
        X[i] += draw(st.sampled_from([40.0, 300.0, -1000.0]))
    return X * scale


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DimRedError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(point_sets(), st.floats(0.0, 1.0), st.sampled_from([1, 3, 7, 64]))
def test_conditional_probabilities_match_per_row_reference(X, frac, search_rows):
    # blocks of 1, 3 and 7 rows split the search into several blocks
    n = X.shape[0]
    perplexity = 1.0 + frac * (n / 3.0 - 1.0)
    D2 = sq_distances(X, X)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dimred, "_SEARCH_ROWS", search_rows)
        got = _outcome(tsne_conditional_probabilities, D2, perplexity)
    expected = _outcome(reference_conditional_probabilities, D2, perplexity)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()


@st.composite
def knn_distance_rows(draw):
    """Ascending non-negative rows: exact zeros, repeated values, long rows
    (pairwise-sum unrolling starts at 8) and very large offsets."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 40))
    values = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.0, 3.0, 1e3, 1e12]), st.floats(0.0, 50.0))
    rows = draw(st.lists(st.lists(values, min_size=k, max_size=k), min_size=n, max_size=n))
    return np.sort(np.array(rows, dtype=np.float64), axis=1), k


@settings(max_examples=150, deadline=None)
@given(knn_distance_rows(), st.sampled_from([100, 3, 0]))
def test_smooth_knn_calibration_matches_per_row_reference(rows, n_iter):
    dists, k = rows
    rho, sigma = smooth_knn_calibration(dists, k, n_iter)
    ref_rho, ref_sigma = reference_smooth_knn_calibration(dists, k, n_iter)
    assert rho.tobytes() == ref_rho.tobytes()
    assert sigma.tobytes() == ref_sigma.tobytes()


@pytest.mark.parametrize("perplexity", [2.5, 30.0, 90.0])
def test_conditional_probabilities_match_reference_on_long_rows(perplexity):
    # rows longer than numpy's 128-element pairwise-sum block, with ties and
    # far points whose probabilities underflow to 0
    rng = np.random.default_rng(103)
    X = np.round(rng.normal(size=(300, 3)), 2)
    X[:4] += 500.0
    D2 = sq_distances(X, X)
    got = tsne_conditional_probabilities(D2, perplexity)
    expected = reference_conditional_probabilities(D2, perplexity)
    assert (got[0] == 0).any()
    assert got[0].tobytes() == expected[0].tobytes()
    assert got[1].tobytes() == expected[1].tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the reference
def test_smooth_knn_calibration_collapsed_sigma_matches_reference():
    # four zero offsets against a target of 2: sigma halves until it is 0,
    # after which only the zero offsets are counted
    dists = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 2.0], [0.5, 1.0, 1.5, 2.0]])
    rho, sigma = smooth_knn_calibration(dists, 4, n_iter=1100)
    ref_rho, ref_sigma = reference_smooth_knn_calibration(dists, 4, n_iter=1100)
    assert rho.tobytes() == ref_rho.tobytes() and sigma.tobytes() == ref_sigma.tobytes()
    assert sigma[0] == 1e-12


def test_infeasible_perplexity_names_lowest_failing_point():
    # rows 0-9 calibrate; rows 10-12 are one point three times, whose two
    # zero-distance neighbours keep the perplexity at or above 2
    X = np.vstack([np.arange(10.0)[:, None] ** 1.5, np.full((3, 1), 50.0)])
    D2 = sq_distances(X, X)
    message = "perplexity 1.5 infeasible for point 10 (realized 2.000000)"
    with pytest.raises(DimRedError) as exc:
        tsne_conditional_probabilities(D2, 1.5)
    assert str(exc.value) == message
    assert _outcome(reference_conditional_probabilities, D2, 1.5) == message


@pytest.mark.parametrize("search_rows", [1, 4, 11, 64])
def test_infeasible_perplexity_names_lowest_failing_point_in_any_block(search_rows):
    # rows 10-12 fail: in the block after rows that calibrate, alone in a
    # block, or at the end of the first block
    X = np.vstack([np.arange(10.0)[:, None] ** 1.5, np.full((3, 1), 50.0)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dimred, "_SEARCH_ROWS", search_rows)
        message = _outcome(tsne_conditional_probabilities, sq_distances(X, X), 1.5)
    assert message == "perplexity 1.5 infeasible for point 10 (realized 2.000000)"


def _traced_peak(fn, *args, **kwargs):
    """Peak bytes traced while ``fn`` runs, beyond what was allocated before."""
    import tracemalloc

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_joint_probabilities_hold_two_square_arrays():
    # the distances and the conditional P during the search, then the
    # conditional P and its symmetrized copy; the search adds a few
    # (_SEARCH_ROWS, n) temporaries
    n = 600
    X = np.random.default_rng(104).normal(size=(n, 16))
    peak = _traced_peak(dimred._joint_probabilities, X, 30.0)
    assert peak < (2 * n * n + 4 * dimred._SEARCH_ROWS * n) * 8


def test_tsne_peaks_at_its_iteration_floor():
    # P, the exaggerated P and the two work buffers
    n = 600
    X = np.random.default_rng(105).normal(size=(n, 16))
    peak = _traced_peak(tsne, X, 2, perplexity=30.0, n_iters=2)
    assert peak < 4.3 * n * n * 8


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _outlier_points():
    """60 points in a 5-D cloud and three far outliers: every cloud row of
    the conditional matrix has exact zeros in the outlier columns."""
    rng = np.random.default_rng(101)
    X = rng.normal(size=(63, 5))
    X[60:] += np.array([[800.0, 0, 0, 0, 0], [0, -900.0, 0, 0, 0], [0, 0, 0, 1000.0, 0]])
    return X


def _large_points():
    """n > 1,024 (one more than graphs.knn's row block)."""
    return np.random.default_rng(102).normal(size=(1100, 8))


def _grid_points():
    """The grid bench's t-SNE shape: 100 cells, 16 columns, d = 16. At this
    n, numpy's symmetric ``Y @ Y.T`` and a general product such as
    ``(2Y) @ Y.T`` give different bits."""
    return np.random.default_rng(103).normal(size=(100, 16))


# Digests of the per-row implementations, recorded with numpy 2.4.6 and
# scipy-openblas 0.3.31 on x86-64 (AVX-512). Distances go through BLAS, so
# another BLAS or CPU may give other bits; the reference tests above do not
# depend on BLAS.
TSNE_PINS = {
    "outliers": (
        "053515f13e2fa6c962ca00ab957e362d8a5937809f73c5c46794c99d3ed1194b",
        "ffd03b5ac0b0aeb861339bc028cfdf2b24253e0e77e2e7f0d4f146b7c9be39d0",
        "b549f16345c75f8d3c80fa0fa755c1dd0ea0a6c0c962f47a4c3ee9ba06d39ab3",
    ),
    "large": (
        "6ab4b4f77392b6af25257d23bc594a379267fd71014b37ddb937de63869e872e",
        "172ff1af4773808ee0bc5713316552702f641c344f8ec18220ba66be4217617c",
        "cc99e4182726cc19ed45d586522009051fb7a20e793e54b6fc905185eda9cea7",
    ),
    "grid": (
        "c59d183818c8c1bc9e1af6b16b24e6b02172df6f061aea8b72a480616824cbf4",
        "86db12c95aef7451e986a8fa458220a21a582553c5c273c667c2c8dba7b08472",
        "b6637399da30e5807755eec6011f90fd5f24db118940b7dac62467fafc71e73b",
    ),
}
UMAP_PINS = {
    "outliers": "b6bd62f50770def00e2266017c3c7c15baa58e706bca18d0cb6ad974c3bd6ecb",
    "large": "e8fee0bbc7fb17e88320c8fe8b56d3f8adf7277d94254da1bbf993e8817265d8",
}


def test_outlier_rows_have_underflowed_probabilities():
    X = _outlier_points()
    P, _ = tsne_conditional_probabilities(sq_distances(X, X), 8.0)
    off = P[~np.eye(len(X), dtype=bool)].reshape(len(X), -1)
    assert (off[:60] == 0).any(axis=1).all()


@pytest.mark.parametrize("name", sorted(TSNE_PINS))
def test_tsne_bits_are_pinned(name):
    if name == "outliers":
        emb = tsne(_outlier_points(), 2, perplexity=8.0, n_iters=260)
    elif name == "grid":  # past iteration 250, where the exaggeration ends
        emb = tsne(_grid_points(), 16, perplexity=30.0, n_iters=260)
    else:
        emb = tsne(_large_points(), 3, perplexity=30.0, n_iters=4)
    got = (_sha(emb.Y), _sha(emb.diagnostics["P"]), _sha(emb.diagnostics["realized_perplexity"]))
    assert got == TSNE_PINS[name]


@pytest.mark.parametrize("name", sorted(UMAP_PINS))
def test_umap_bits_are_pinned(name):
    if name == "outliers":
        emb = umap(_outlier_points(), 2, n_neighbors=8, n_epochs=60, seed=5)
    else:
        emb = umap(_large_points(), 3, n_neighbors=15, n_epochs=20, seed=6)
    assert _sha(emb.Y) == UMAP_PINS[name]


def test_embeddings_refuse_a_table_whose_distances_overflow():
    # t-SNE said "perplexity 5.0 infeasible for point 0" and UMAP raised a
    # bare "zero-size array" ValueError for a row of 1e200 entries
    X = np.random.default_rng(0).normal(size=(20, 3))
    X[0] = 1e200
    message = re.escape("squared distances overflow float64: the largest absolute entry is 1e+200")
    with pytest.raises(DimRedError, match=message):
        tsne(X, 2, perplexity=5)
    with pytest.raises(GraphError, match=message):
        umap(X, 2, n_neighbors=5)


@pytest.mark.parametrize("method", ["none", "pca", "tsne", "umap"])
@pytest.mark.parametrize("seed, problem", [(-1, "must lie in [0, inf], got -1"), (1.5, "must be an integer, got 1.5"),
                                           (True, "must be an integer, got True")])
def test_reduce_features_checks_the_seed_for_every_method(method, seed, problem):
    # UMAP failed with numpy's "expected non-negative integer", PCA took -1 silently
    X = np.random.default_rng(1).normal(size=(20, 3))
    with pytest.raises(DimRedError, match=re.escape(f"seed {problem}")):
        reduce_features(X, method, 2, seed=seed)
