import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellgraph import graphs
from cellgraph.dataset import CellTable, pool_tables
from cellgraph.graphs import (
    CellGraph,
    GraphError,
    build_cell_graph,
    knn,
    knn_feature_graph,
    normalize_adjacency,
    read_edge_list,
    spatial_knn_graph,
    write_edge_list,
)


def edges_as_set(g):
    return {(int(s), int(d)) for s, d in g.edges}


def test_knn_line_example():
    X = np.array([[0.0], [1.0], [10.0]])
    g = knn_feature_graph(X, k=1)
    assert edges_as_set(g) == {(0, 1), (1, 0), (2, 1)}


def test_knn_edge_count_exact():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 4))
    for k in (1, 3, 7, 50):
        g = knn_feature_graph(X, k)
        take = min(k, 39)
        assert g.n_edges == take * 40
        out_degrees = np.bincount(g.edges[:, 0], minlength=40)
        assert np.all(out_degrees == take)


def test_knn_duplicate_points_tie_break():
    X = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    g = knn_feature_graph(X, k=1)
    # all distances tie at 0; lower index wins
    assert edges_as_set(g) == {(0, 1), (1, 0), (2, 0)}


def test_knn_tie_break_at_boundary():
    # node 0 equidistant to 1, 2, 3; k=2 must pick the two lowest indices
    X = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    g = knn_feature_graph(X, k=2)
    nbrs0 = sorted(d for s, d in edges_as_set(g) if s == 0)
    assert nbrs0 == [1, 2]


def test_knn_cosine_metric():
    X = np.array([[1.0, 0.0], [2.0, 0.001], [0.0, 1.0]])
    g = knn_feature_graph(X, k=1, metric="cosine")
    assert (0, 1) in edges_as_set(g)


def test_knn_errors():
    with pytest.raises(GraphError):
        knn_feature_graph(np.zeros((1, 2)), 1)
    with pytest.raises(GraphError):
        knn_feature_graph(np.zeros((3, 2)), 0)


def test_spatial_two_samples_no_cross_edges():
    centroids = np.array([[0, 0], [1, 0], [2, 0], [0, 5], [1, 5], [2, 5]], dtype=float)
    sample_ids = ["a", "a", "a", "b", "b", "b"]
    g = spatial_knn_graph(centroids, sample_ids, k=1)
    assert g.n_edges == 6
    for s, d in edges_as_set(g):
        assert sample_ids[s] == sample_ids[d]


def test_spatial_single_cell_sample_warns():
    centroids = np.array([[0, 0], [0, 1], [9, 9]], dtype=float)
    sample_ids = ["a", "a", "b"]
    with pytest.warns(UserWarning, match="no spatial edges"):
        g = spatial_knn_graph(centroids, sample_ids, k=1)
    assert g.n_edges == 2


def test_spatial_duplicate_centroids_deterministic():
    centroids = np.zeros((3, 2))
    g1 = spatial_knn_graph(centroids, ["a"] * 3, k=1)
    g2 = spatial_knn_graph(centroids, ["a"] * 3, k=1)
    assert edges_as_set(g1) == edges_as_set(g2)


def test_normalize_two_nodes():
    g = CellGraph(
        n_nodes=2,
        edges=np.array([[0, 1]]),
        weights=np.ones(1),
        node_keys=[("", 0), ("", 1)],
    )
    dense = normalize_adjacency(g).toarray()
    np.testing.assert_allclose(dense, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_normalize_triangle():
    g = CellGraph(
        n_nodes=3,
        edges=np.array([[0, 1], [1, 2], [2, 0]]),
        weights=np.ones(3),
        node_keys=[("", i) for i in range(3)],
    )
    dense = normalize_adjacency(g).toarray()
    np.testing.assert_allclose(dense, np.full((3, 3), 1.0 / 3.0), atol=1e-15)


def test_normalize_isolated_node():
    g = CellGraph(n_nodes=1, edges=np.zeros((0, 2), dtype=np.int64), weights=np.zeros(0), node_keys=[("", 0)])
    dense = normalize_adjacency(g).toarray()
    assert dense[0, 0] == 1.0


def test_normalized_adjacency_exactly_symmetric():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(30, 3))
    adj = normalize_adjacency(knn_feature_graph(X, 4))
    dense = adj.toarray()
    assert np.max(np.abs(dense - dense.T)) == 0.0
    assert np.all(dense[dense > 0] <= 1.0)
    degrees = (dense > 0).sum(axis=1)
    assert np.all(dense.sum(axis=1) <= degrees.max())


def test_spectral_radius_at_most_one():
    rng = np.random.default_rng(9)
    for seed in range(3):
        X = np.random.default_rng(seed).normal(size=(25, 4))
        adj = normalize_adjacency(knn_feature_graph(X, 3))
        v = rng.normal(size=25)
        v /= np.linalg.norm(v)
        csr = adj
        for _ in range(200):
            w = csr @ v
            norm = np.linalg.norm(w)
            v = w / norm
        assert norm <= 1.0 + 1e-9


def make_table(sample_id, ids, features, labels=None, centroids=None):
    n = len(ids)
    return CellTable(
        cell_ids=np.asarray(ids, dtype=np.int64),
        sample_ids=[sample_id] * n,
        centroids=np.asarray(centroids if centroids is not None else np.zeros((n, 2)), dtype=float),
        labels=np.asarray(labels if labels is not None else np.zeros(n), dtype=np.int64),
        features=np.asarray(features, dtype=float),
        feature_names=[f"f{j}" for j in range(np.asarray(features).shape[1])],
    )


def assert_samples_disjoint(graph):
    samples = [sid for sid, _ in graph.node_keys]
    assert all(samples[src] == samples[dst] for src, dst in graph.edges.tolist())


def test_assemble_spatial_components_lower_bound():
    tables = [
        make_table(f"s{i}", [1, 2, 3], np.zeros((3, 1)), centroids=[[0, 0], [1, 0], [2, 0]])
        for i in range(3)
    ]
    table = pool_tables(tables)
    graph = build_cell_graph("spatial", table.features, table, k=1)
    assert graph.node_keys == table.keys() and graph.n_edges == 9
    assert_samples_disjoint(graph)


def test_assemble_pools_every_cell():
    rng = np.random.default_rng(17)
    tables = [
        make_table(
            f"s{i:02d}", range(1, 16), rng.normal(size=(15, 2)), centroids=rng.uniform(0, 50, (15, 2))
        )
        for i in range(20)
    ]
    table = pool_tables(tables)
    graph = build_cell_graph("spatial", table.features, table, k=3)
    assert graph.n_nodes == 20 * 15
    assert graph.node_keys == table.keys()
    assert_samples_disjoint(graph)


def test_assemble_single_sample_matches_direct():
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(6, 2))
    t = make_table("s01", range(1, 7), feats)
    for metric in ("euclidean", "cosine"):
        graph = build_cell_graph("feature", feats, t, k=2, metric=metric)
        direct = knn_feature_graph(feats, 2, metric=metric)
        np.testing.assert_array_equal(graph.edges, direct.edges)
        assert graph.node_keys == t.keys()


def test_build_cell_graph_spatial_matches_spatial_knn_graph():
    rng = np.random.default_rng(12)
    table = pool_tables([
        make_table(sid, range(1, 9), rng.normal(size=(8, 2)), centroids=rng.uniform(0, 20, (8, 2)))
        for sid in ("s01", "s02")
    ])
    graph = build_cell_graph("spatial", table.features, table, k=3)
    direct = spatial_knn_graph(table.centroids, table.sample_ids, 3)
    np.testing.assert_array_equal(graph.edges, direct.edges)
    assert graph.node_keys == table.keys()


def test_build_cell_graph_unknown_kind_errors():
    t = make_table("s01", [1, 2], [[0.0], [1.0]])
    with pytest.raises(GraphError, match="unknown graph kind"):
        build_cell_graph("radius", t.features, t, k=1)


def test_edge_list_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    g = knn_feature_graph(rng.normal(size=(10, 2)), 3)
    path = str(tmp_path / "g.edges")
    write_edge_list(path, g)
    back = read_edge_list(path)
    assert back.n_nodes == g.n_nodes
    np.testing.assert_array_equal(back.edges, g.edges)
    np.testing.assert_array_equal(back.weights, g.weights)
    header = open(path).readline().strip()
    assert header == "# nodes 10"


def test_edge_budget_scaled_down():
    # same edge/node ratio as the production graph at desk scale
    rng = np.random.default_rng(15)
    X = rng.normal(size=(4050, 8))
    g = knn_feature_graph(X, 5)
    assert g.n_edges == 4050 * 5


@pytest.mark.parametrize(
    "text, where",
    [
        ("# nodes 2\n0 1 1\n0 one 1\n", 3),
        ("# nodes 2\n\n0 1\n", 3),
        ("# nodes two\n", 1),
        ("# nodes 2\n0 1 nan\n", "weights must be positive"),
        ("# nodes 2\n0 1 0\n", "weights must be positive"),
        ("# nodes 2\n0 1 -1\n", "weights must be positive"),
        ("# nodes 2\n0 1 inf\n", "weights must be positive"),
        ("# nodes -1\n", "node count"),
        ("# nodes 2\n0 2 1\n", "out of range"),
        ("# nodes 2\n1 1 1\n", "self-loops"),
        ("# nodes 2\n0 99999999999999999999 1\n", 2),
    ],
)
def test_read_edge_list_malformed_line_names_path_and_line(tmp_path, text, where):
    # ``where`` is the line a parse error names, or the message of a
    # CellGraph check, which names the path only.
    path = tmp_path / "g.edges"
    path.write_text(text)
    match = f"{path}:{where}:" if isinstance(where, int) else f"^{path}: .*{where}"
    with pytest.raises(GraphError, match=match):
        read_edge_list(str(path))


def test_read_edge_list_does_not_allocate_per_declared_node(tmp_path):
    # the header's node count is not bounded by anything in the file
    import tracemalloc

    peaks = {}
    for n in (10, 1_000_000):
        path = tmp_path / f"g{n}.edges"
        path.write_text(f"# nodes {n}\n0 1 1\n")
        tracemalloc.start()
        try:
            graph = read_edge_list(str(path))
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.n_nodes == n and graph.node_keys is None
    assert peaks[1_000_000] - peaks[10] < 4096


def test_read_edge_list_non_utf8_names_path(tmp_path):
    path = tmp_path / "g.edges"
    path.write_bytes(b"# nodes 2\n0 1 \xff\n")
    with pytest.raises(GraphError, match=f"^{path}: "):
        read_edge_list(str(path))


def test_knn_rejects_non_finite_features():
    X = np.array([[0.0, 1.0], [np.nan, 2.0], [3.0, 4.0]])
    with pytest.raises(GraphError, match="non-finite"):
        knn(X, 1)
    with pytest.raises(GraphError, match="non-finite"):
        knn_feature_graph(np.array([[0.0], [np.inf], [1.0]]), 1)
    with pytest.raises(GraphError, match="centroids contain non-finite values"):
        spatial_knn_graph(X, ["s01"] * 3, 1)


@settings(max_examples=60, deadline=None)
@given(
    points=st.integers(2, 23).flatmap(
        lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2), min_size=n, max_size=n)
    ),
    k=st.integers(1, 25),
    chunk=st.integers(1, 7),
)
def test_knn_matches_dense_stable_argsort(points, k, chunk):
    # Integer coordinates make every squared distance exact, so the oracle's
    # ties are real ties; small blocks exercise multi-block and one-row tails.
    X = np.array(points, dtype=np.float64)
    D = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(D, np.inf)
    take = min(k, len(X) - 1)
    expected = np.argsort(D, axis=1, kind="stable")[:, :take]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_CHUNK_ROWS", chunk)
        indices, distances = knn(X, k)
    np.testing.assert_array_equal(indices, expected)
    np.testing.assert_array_equal(distances, np.take_along_axis(D, expected, axis=1))
