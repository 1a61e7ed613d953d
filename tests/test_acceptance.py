"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import math
import time

import numpy as np

from conftest import knn_purity, make_stack


def report(criterion, text):
    print(f"[criterion {criterion}] PASS: {text}")


# ---------------------------------------------------------------------------
# 1. radiomics oracle equivalence


def test_criterion_01_radiomics_oracle_equivalence():
    from cellgraph.radiomics import glcm, glcm_features, glrlm, glrlm_features, quantize
    from test_radiomics import (
        glcm_feature_oracle,
        glcm_oracle,
        glrlm_feature_oracle,
        glrlm_oracle,
    )

    offsets = ((0, 1), (1, 0), (1, 1), (1, -1))
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for trial in range(200):
        values = rng.integers(0, 65536, (8, 8))
        mask_values = (rng.random((8, 8)) < 0.8).astype(np.uint32)
        mask_values[rng.integers(0, 8), rng.integers(0, 8)] = 1
        stack = make_stack([values])
        rows, cols = np.nonzero(mask_values)
        if len(rows) < 2:
            continue
        q = quantize(stack.channels[0][1], (rows, cols), 16)
        grid, _, _ = q.grid()

        m = glcm(q, offsets, symmetric=True)
        np.testing.assert_array_equal(m.P, glcm_oracle(grid, offsets, True, 16))
        got = glcm_features(m)
        expected = glcm_feature_oracle(m.P)
        for name in expected:
            assert math.isclose(got[name], expected[name], rel_tol=1e-12, abs_tol=1e-12), name

        r = glrlm(q, offsets)
        runs = glrlm_oracle(grid, offsets, 16)
        expected_R = np.zeros_like(r.R)
        for (g, length), count in runs.items():
            expected_R[g, length - 1] = count
        np.testing.assert_array_equal(r.R, expected_R)
        got_r = glrlm_features(r, len(rows))
        expected_r = glrlm_feature_oracle(r.R, len(rows))
        for name in expected_r:
            assert math.isclose(got_r[name], expected_r[name], rel_tol=1e-12, abs_tol=1e-12), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, f"GLCM/GLRLM equal brute-force oracles on 200 random regions in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. gradient correctness


def test_criterion_02_gradient_correctness():
    from cellgraph.grand import GrandConfig, training_loss_and_grads
    from cellgraph.graphs import knn_feature_graph, normalize_adjacency

    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    X = rng.normal(size=(10, 3))
    adj = normalize_adjacency(knn_feature_graph(X, 3))
    labels = rng.integers(0, 2, size=10)
    train_mask = np.zeros(10, dtype=bool)
    train_mask[:5] = True
    config = GrandConfig(
        drop_rate=0.5, prop_order=4, n_augmentations=2, temperature=0.5,
        consistency_weight=1.0, hidden_dim=4, input_dropout=0.4,
    )
    node_masks = [(rng.random(10) < 0.5).astype(float) for _ in range(2)]
    input_masks = [(rng.random((10, 3)) < 0.6).astype(float) for _ in range(2)]
    params = {
        "W1": rng.normal(scale=0.4, size=(3, 4)),
        "b1": rng.normal(scale=0.1, size=4),
        "W2": rng.normal(scale=0.4, size=(4, 2)),
        "b2": rng.normal(scale=0.1, size=2),
    }
    _, _, _, grads = training_loss_and_grads(
        params, adj, X, node_masks, input_masks, labels, train_mask, config
    )
    eps = 1e-5
    max_rel = 0.0
    for key in params:
        flat = params[key].ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up, _, _, _ = training_loss_and_grads(
                params, adj, X, node_masks, input_masks, labels, train_mask, config
            )
            flat[j] = orig - eps
            down, _, _, _ = training_loss_and_grads(
                params, adj, X, node_masks, input_masks, labels, train_mask, config
            )
            flat[j] = orig
            numeric = (up - down) / (2 * eps)
            rel = abs(grads[key].ravel()[j] - numeric) / max(abs(numeric), abs(grads[key].ravel()[j]), 1e-8)
            max_rel = max(max_rel, rel)
    elapsed = time.perf_counter() - t0
    assert max_rel < 1e-5
    assert elapsed < 5.0
    report(2, f"max relative gradient error {max_rel:.2e} vs finite differences in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. propagation oracle


def test_criterion_03_propagation_oracle():
    from cellgraph.grand import propagate
    from cellgraph.graphs import knn_feature_graph, normalize_adjacency

    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        X = rng.normal(size=(30, 6))
        adj = normalize_adjacency(knn_feature_graph(rng.normal(size=(30, 4)), 4))
        dense = adj.toarray()
        expected = np.zeros_like(X)
        power = np.eye(30)
        for _ in range(9):
            expected += power @ X
            power = dense @ power
        expected /= 9
        got = propagate(adj, X, 8)
        worst = max(worst, float(np.abs(got - expected).max()))
    assert worst < 1e-10
    report(3, f"K=8 propagation matches dense power oracle, max abs dev {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. edge-budget reproduction


def test_criterion_04_edge_budget():
    from cellgraph.graphs import knn_feature_graph

    rng = np.random.default_rng(404)
    X = rng.normal(size=(40_500, 8))
    t0 = time.perf_counter()
    g = knn_feature_graph(X, 5)
    elapsed = time.perf_counter() - t0
    assert g.n_edges == 202_500
    out_deg = np.bincount(g.edges[:, 0], minlength=40_500)
    assert np.all(out_deg == 5)
    assert elapsed < 120.0
    report(4, f"40,500 nodes at k=5 give exactly 202,500 directed edges in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. end-to-end learning


def test_criterion_05_end_to_end_learning(tmp_path):
    from cellgraph.experiment import ExperimentConfig, run_experiment
    from cellgraph.synth import SynthConfig, generate_synthetic_dataset

    t0 = time.perf_counter()
    data_dir = str(tmp_path / "data")
    generate_synthetic_dataset(SynthConfig(seed=7), data_dir)  # 6 samples x 300 cells, 12 channels
    config = ExperimentConfig(
        data_dir=data_dir,
        feature_types=("radiomics", "expression"),
        reductions=("umap", "none"),
        models=("grand_feature_graph", "random_forest"),
        seed=17,
    )
    out = run_experiment(config, str(tmp_path / "out"))
    elapsed = time.perf_counter() - t0
    f1_grand = out.cells["radiomics|umap|grand_feature_graph"]["metrics"]["f1"]
    f1_forest = out.cells["expression|none|random_forest"]["metrics"]["f1"]
    assert out.cells["radiomics|umap|grand_feature_graph"]["status"] == "ok"
    assert out.cells["expression|none|random_forest"]["status"] == "ok"
    assert f1_grand >= 0.85
    assert f1_forest >= 0.85
    assert elapsed < 300.0
    report(5, f"radiomics+UMAP+GRAND F1 {f1_grand:.3f}, expression+RF F1 {f1_forest:.3f} in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. DropNode expectation


def test_criterion_06_dropnode_expectation():
    from cellgraph.grand import apply_drop_node

    rng = np.random.default_rng(606)
    X = rng.normal(size=(6, 4))
    delta = 0.5
    draws = 10_000
    acc = np.zeros_like(X)
    for _ in range(draws):
        # the keep mask is drawn by train_grand's rule
        acc += apply_drop_node(X, delta, (rng.random(len(X)) < 1.0 - delta).astype(np.float64))
    mean = acc / draws
    std_err = np.abs(X) * math.sqrt(delta / (1 - delta)) / math.sqrt(draws)
    deviation = np.abs(mean - X)
    assert np.all(deviation <= 3 * std_err + 1e-12)
    report(6, f"Monte-Carlo mean of 10,000 DropNode draws within 3 SE entrywise")


# ---------------------------------------------------------------------------
# 7. dimensionality-reduction quality


def test_criterion_07_reduction_quality(three_cluster_benchmark):
    from cellgraph.dimred import tsne, umap

    X, labels = three_cluster_benchmark
    emb_t = tsne(X, 2, perplexity=10, n_iters=500)
    purity_t = knn_purity(emb_t.Y, labels, k=10)
    realized = emb_t.diagnostics["realized_perplexity"]
    max_perp_err = float(np.abs(realized - 10.0).max())
    emb_u = umap(X, 2, n_neighbors=10, n_epochs=150, seed=0)
    purity_u = knn_purity(emb_u.Y, labels, k=10)
    assert purity_t >= 0.9
    assert purity_u >= 0.9
    assert max_perp_err <= 1e-3
    report(7, f"10-NN purity tsne {purity_t:.3f} / umap {purity_u:.3f}; perplexity err {max_perp_err:.1e}")


# ---------------------------------------------------------------------------
# 8. determinism


def test_criterion_08_experiment_determinism(tmp_path):
    from cellgraph.experiment import ExperimentConfig, run_experiment
    from cellgraph.synth import SynthConfig, generate_synthetic_dataset

    data_dir = str(tmp_path / "data")
    generate_synthetic_dataset(
        SynthConfig(n_samples=3, n_melanoma=2, cells_per_sample=50, image_size=96, n_channels=4, seed=88),
        data_dir,
    )
    base = dict(
        data_dir=data_dir,
        feature_types=("expression", "radiomics"),
        reductions=("none", "pca"),
        models=("random_forest", "grand_feature_graph"),
        seed=23,
        grand={"max_epochs": 40, "patience": 10},
    )
    outputs = {}
    for threads in (1, 2):
        for run in ("a", "b"):
            out = tmp_path / f"t{threads}{run}"
            run_experiment(ExperimentConfig(**base, threads=threads), str(out))
            outputs[(threads, run)] = (out / "report.json").read_bytes()
    assert outputs[(1, "a")] == outputs[(1, "b")]
    assert outputs[(2, "a")] == outputs[(2, "b")]
    assert outputs[(1, "a")] == outputs[(2, "a")]  # thread count cannot shift results
    report(8, "report.json byte-identical across reruns at threads=1 and threads=2")


# ---------------------------------------------------------------------------
# 9. splits


def test_criterion_09_split_rules():
    from cellgraph.harness import stratified_split

    masks = stratified_split(np.zeros(40, dtype=int), seed=1)
    assert (masks.train.sum(), masks.val.sum(), masks.test.sum()) == (28, 4, 8)

    labels = np.array([0] * 10 + [1] * 10)
    masks = stratified_split(labels, seed=2)
    for c in (0, 1):
        cls = labels == c
        assert ((masks.train & cls).sum(), (masks.val & cls).sum(), (masks.test & cls).sum()) == (7, 1, 2)

    rng = np.random.default_rng(909)
    for _ in range(20):
        n0, n1 = rng.integers(5, 80, size=2)
        labels = np.array([0] * n0 + [1] * n1)
        masks = stratified_split(labels, seed=int(rng.integers(0, 1 << 31)))
        for c, n_c in ((0, n0), (1, n1)):
            cls = labels == c
            assert abs((masks.train & cls).sum() - 0.7 * n_c) <= 1
            assert abs((masks.val & cls).sum() - 0.1 * n_c) <= 1
    report(9, "70/10/20 floor-rule sizes hold with per-class balance within 1 item")


# ---------------------------------------------------------------------------
# 10. baseline sanity


def test_criterion_10_baseline_sanity():
    from cellgraph.trees import (
        BoostConfig,
        ForestConfig,
        predict_tabular,
        train_gradient_boosting,
        train_random_forest,
    )

    rng = np.random.default_rng(1010)
    n = 100
    neg = rng.uniform(-3.0, -0.5, size=(n // 2, 3))
    pos = rng.uniform(0.5, 3.0, size=(n // 2, 3))
    X = np.vstack([neg, pos])
    y = np.array([0] * (n // 2) + [1] * (n // 2))

    forest = train_random_forest(X, y, ForestConfig(n_trees=50, seed=0))
    acc_f = float(((predict_tabular(forest, X)[:, 1] >= 0.5).astype(int) == y).mean())
    boost = train_gradient_boosting(X, y, BoostConfig(n_rounds=100, seed=0))
    acc_b = float(((predict_tabular(boost, X)[:, 1] >= 0.5).astype(int) == y).mean())
    assert acc_f == 1.0
    assert acc_b == 1.0
    assert boost.train_loss[-1] < boost.train_loss[0]
    assert all(b < a for a, b in zip(boost.train_loss[:-1], boost.train_loss[1:]))
    report(10, f"margin-separated accuracy 1.0 for both baselines; boosting loss strictly decreasing")
