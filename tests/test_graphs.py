import hashlib
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from cellgraph import graphs
from cellgraph.dataset import CellTable, keys_digest, pool_tables
from cellgraph.graphs import (
    CellGraph,
    GraphError,
    build_cell_graph,
    edge_homophily,
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


def test_knn_cosine_zero_rows_are_nearest_to_each_other():
    # a zero row stays zero on the unit sphere: distance 0 to another zero
    # row, 1/2 (half of |u|^2) to every unit row
    X = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 0.0], [-1.0, 0.0]])
    indices, distances = knn(X, 3, "cosine")
    np.testing.assert_array_equal(indices[0], [2, 1, 3])
    np.testing.assert_array_equal(distances[0], [0.0, 0.5, 0.5])
    np.testing.assert_array_equal(indices[2], [0, 1, 3])
    # between unit rows: 1 - cos, up to rounding
    np.testing.assert_array_equal(indices[1], [0, 2, 3])
    np.testing.assert_allclose(distances[1], [0.5, 0.5, 1.6], rtol=1e-12)


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


def test_edge_homophily_hand_computed():
    # undirected edges: 0-1 (stored both ways), 1-2, 2-3, 3-4, 0-4; node 4
    # is outside the mask, so 0-1 (same), 1-2 (differ) and 2-3 (same) count
    g = CellGraph(5, np.array([[0, 1], [1, 0], [1, 2], [2, 3], [3, 4], [4, 0]]))
    labels = np.array([0, 0, 1, 1, 0])
    mask = np.array([True, True, True, True, False])
    assert edge_homophily(g, labels, mask) == (5, 2 / 3)
    assert np.isnan(edge_homophily(g, labels, np.eye(5, dtype=bool)[0])[1])


@pytest.mark.parametrize("n, m", [(1, 0), (6, 0), (6, 40), (30, 20), (200, 1000)])
@pytest.mark.parametrize("seed", [0, 1])
def test_edge_codes_match_the_np_unique_oracle(n, m, seed):
    # edge_homophily's undirected codes once came from np.unique; the sort
    # and mask must give the same codes and so the same homophily
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    g = CellGraph(n, edges[edges[:, 0] != edges[:, 1]])
    codes = g.edges.min(axis=1) * n + g.edges.max(axis=1)
    got, want = graphs._sorted_distinct(codes), np.unique(codes)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    labels, mask = rng.integers(0, 2, size=n), rng.random(n) < 0.7
    a, b = np.divmod(want, n)
    inside = mask[a] & mask[b]
    same = labels[a[inside]] == labels[b[inside]]
    count, share = edge_homophily(g, labels, mask)
    assert count == len(want)
    np.testing.assert_equal(share, same.mean() if len(same) else np.nan)


def test_normalize_two_nodes():
    g = CellGraph(n_nodes=2, edges=np.array([[0, 1]]))
    dense = normalize_adjacency(g).toarray()
    np.testing.assert_allclose(dense, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_normalize_triangle():
    g = CellGraph(n_nodes=3, edges=np.array([[0, 1], [1, 2], [2, 0]]))
    dense = normalize_adjacency(g).toarray()
    np.testing.assert_allclose(dense, np.full((3, 3), 1.0 / 3.0), atol=1e-15)


def test_normalize_isolated_node():
    g = CellGraph(n_nodes=1, edges=np.zeros((0, 2), dtype=np.int64))
    dense = normalize_adjacency(g).toarray()
    assert dense[0, 0] == 1.0


def pin_graph():
    """Duplicate directed edges, edges stored in one direction only, a hub
    whose row holds 12 entries (past numpy's 8-term sequential sums) and an
    isolated node 13."""
    edges = [(0, j) for j in range(1, 12)] + [
        (3, 0), (0, 1), (5, 0), (1, 2), (2, 1), (2, 1), (4, 6), (12, 4), (7, 8), (8, 7),
    ]
    return CellGraph(n_nodes=14, edges=np.array(edges, dtype=np.int64))


def test_normalize_adjacency_bytes_are_pinned():
    # any change to the duplicate rule, the symmetrization, the degree sum
    # order, the product order or the index dtype moves these
    adj = normalize_adjacency(pin_graph())
    expected = {
        "data": "1119bcd66a8dfd3de609884b22e2965bb3f2fbff11fab0e677058f53e612daad",
        "indices": "32d93b5473fed81a44a0682747fc2e4237762603fbd5dd2bf80f59f80a74192f",
        "indptr": "9d694beee6dee84ec50809b5a7e44a6891a92fb4af95e1bc578a044e8cbf6f4a",
    }
    for name, digest in expected.items():
        assert hashlib.sha256(getattr(adj, name).tobytes()).hexdigest() == digest, name
    assert isinstance(adj, sp.csr_matrix) and adj.has_sorted_indices


def scipy_normalize_adjacency(g):
    """Frozen copy of the scipy build of D^-1/2 (A + I) D^-1/2 that
    ``normalize_adjacency`` replaced; it must keep these bits."""
    n = g.n_nodes
    if len(g.edges):
        codes = np.unique(g.edges[:, 0] * n + g.edges[:, 1])
        A = sp.coo_matrix((np.ones(len(codes)), (codes // n, codes % n)), shape=(n, n)).tocsr()
        A = A.maximum(A.T)
    else:
        A = sp.csr_matrix((n, n))
    A_tilde = (A + sp.identity(n, format="csr")).tocsr()
    D = sp.diags(1.0 / np.sqrt(np.asarray(A_tilde.sum(axis=1)).ravel()))
    A_hat = (D @ A_tilde @ D).tocsr()
    A_hat.sort_indices()
    return A_hat


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 40),
    m=st.integers(0, 150),
    seed=st.integers(0, 2**16),
)
@example(n=0, m=0, seed=0)
@example(n=0, m=5, seed=0)
def test_normalize_adjacency_matches_scipy_build_bits(n, m, seed):
    # duplicate edges, one-way edges, isolated nodes and hubs past 8 entries
    rng = np.random.default_rng(seed)
    src, dst = rng.integers(0, max(n, 1), m), rng.integers(0, max(n, 1), m)
    keep = src != dst
    edges = np.stack([src[keep], dst[keep]], axis=1).astype(np.int64)
    g = CellGraph(n_nodes=n, edges=edges)
    got, expected = normalize_adjacency(g), scipy_normalize_adjacency(g)
    assert got.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


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


def assert_samples_disjoint(graph, table):
    assert all(table.sample_ids[src] == table.sample_ids[dst] for src, dst in graph.edges.tolist())


def test_assemble_spatial_components_lower_bound():
    tables = [
        make_table(f"s{i}", [1, 2, 3], np.zeros((3, 1)), centroids=[[0, 0], [1, 0], [2, 0]])
        for i in range(3)
    ]
    table = pool_tables(tables)
    graph = build_cell_graph("spatial", table.features, table, k=1)
    assert graph.keys_sha256 == keys_digest(table.keys()) and graph.n_edges == 9
    assert_samples_disjoint(graph, table)


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
    assert graph.keys_sha256 == keys_digest(table.keys())
    assert_samples_disjoint(graph, table)


def test_assemble_single_sample_matches_direct():
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(6, 2))
    t = make_table("s01", range(1, 7), feats)
    for metric in ("euclidean", "cosine"):
        graph = build_cell_graph("feature", feats, t, k=2, metric=metric)
        direct = knn_feature_graph(feats, 2, metric=metric)
        np.testing.assert_array_equal(graph.edges, direct.edges)
        assert graph.keys_sha256 == keys_digest(t.keys()) and direct.keys_sha256 is None


def test_build_cell_graph_spatial_matches_spatial_knn_graph():
    rng = np.random.default_rng(12)
    table = pool_tables([
        make_table(sid, range(1, 9), rng.normal(size=(8, 2)), centroids=rng.uniform(0, 20, (8, 2)))
        for sid in ("s01", "s02")
    ])
    graph = build_cell_graph("spatial", table.features, table, k=3)
    direct = spatial_knn_graph(table.centroids, table.sample_ids, 3)
    np.testing.assert_array_equal(graph.edges, direct.edges)
    assert graph.keys_sha256 == keys_digest(table.keys()) and direct.keys_sha256 is None


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
    assert back.keys_sha256 is None
    lines = open(path).read().splitlines()
    assert lines[0] == "# nodes 10" and lines[1] == " ".join(map(str, g.edges[0]))
    assert len(lines) == 1 + g.n_edges


def test_edge_list_records_the_digest_of_its_table_keys(tmp_path):
    rng = np.random.default_rng(14)
    table = pool_tables([make_table(sid, [1, 2, 3, 4], rng.normal(size=(4, 2)), centroids=rng.normal(size=(4, 2)))
                         for sid in ("s01", "s02")])
    g = build_cell_graph("spatial", table.features, table, k=2)
    path, again = tmp_path / "g.edges", tmp_path / "again.edges"
    write_edge_list(str(path), g)
    digest = hashlib.sha256("".join(f"{sid},{cid}\n" for sid, cid in table.keys()).encode()).hexdigest()
    assert keys_digest(table.keys()) == digest
    assert path.read_text().splitlines()[:2] == ["# nodes 8", f"# keys {digest}"]
    back = read_edge_list(str(path))
    assert back.keys_sha256 == digest
    write_edge_list(str(again), back)
    assert again.read_bytes() == path.read_bytes()
    path.write_text("# nodes 2\n# keys abc\n0 1\n")
    with pytest.raises(GraphError, match=re.escape(f"{path}:2: malformed keys line '# keys abc'")):
        read_edge_list(str(path))


def test_edge_budget_scaled_down():
    # same edge/node ratio as the production graph at desk scale
    rng = np.random.default_rng(15)
    X = rng.normal(size=(4050, 8))
    g = knn_feature_graph(X, 5)
    assert g.n_edges == 4050 * 5


@pytest.mark.parametrize(
    "text, where",
    [
        ("# nodes 2\n0 1\n0 one\n", 3),
        ("# nodes 2\n\n1 0\n0 1 1\n", 4),  # a weight column, as older edge lists had
        (f"# nodes 2\n# keys {'0' * 64}\n0 1 1\n", 3),
        ("# nodes 2\n0\n", 2),
        ("# nodes two\n", 1),
        ("# nodes -1\n", "node count"),
        ("# nodes 2\n0 2\n", "out of range"),
        ("# nodes 2\n1 1\n", "self-loops"),
        ("# nodes 2\n0 99999999999999999999\n", 2),
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
        path.write_text(f"# nodes {n}\n0 1\n")
        tracemalloc.start()
        try:
            graph = read_edge_list(str(path))
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.n_nodes == n and graph.keys_sha256 is None
    assert peaks[1_000_000] - peaks[10] < 4096


def test_read_edge_list_non_utf8_names_path(tmp_path):
    path = tmp_path / "g.edges"
    path.write_bytes(b"# nodes 2\n0 \xff\n")
    with pytest.raises(GraphError, match=f"^{path}: "):
        read_edge_list(str(path))


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_read_edge_list_splits_universal_newlines_only(tmp_path, end):
    # "\r\n" and "\r" end a line as "\n" does; other characters that
    # str.splitlines() breaks at (here \x0c) do not
    lines = ["# nodes 3", "0 1", "1 2"]
    path = tmp_path / "g.edges"
    path.write_bytes(end.join(lines).encode("ascii") + end.encode("ascii"))
    back = read_edge_list(str(path))
    np.testing.assert_array_equal(back.edges, [[0, 1], [1, 2]])
    path.write_bytes(end.join(["# nodes 3", "0 1\x0c1 2"]).encode("ascii"))
    with pytest.raises(GraphError, match=re.escape(f"{path}:2: malformed edge line")):
        read_edge_list(str(path))


def test_knn_rejects_non_finite_features():
    X = np.array([[0.0, 1.0], [np.nan, 2.0], [3.0, 4.0]])
    with pytest.raises(GraphError, match="non-finite"):
        knn(X, 1)
    with pytest.raises(GraphError, match="non-finite"):
        knn_feature_graph(np.array([[0.0], [np.inf], [1.0]]), 1)
    with pytest.raises(GraphError, match="centroids contain non-finite values"):
        spatial_knn_graph(X, ["s01"] * 3, 1)


@st.composite
def knn_points(draw):
    """Integer points in [-2, 2]^2 (every squared distance exact, so ties are
    real ties) or real points in [-3, 3]^3 with some rows copied onto others."""
    n = draw(st.integers(2, 23))
    if draw(st.booleans()):
        cell = st.integers(-2, 2)
        return np.array(draw(st.lists(st.lists(cell, min_size=2, max_size=2), min_size=n, max_size=n)),
                        dtype=np.float64)
    real = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)
    X = np.array(draw(st.lists(st.lists(real, min_size=3, max_size=3), min_size=n, max_size=n)))
    for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        X[dst] = X[src]
    return X


@settings(max_examples=150, deadline=None)
@given(
    X=knn_points(),
    k=st.integers(1, 25),
    metric=st.sampled_from(["euclidean", "cosine"]),
    chunk=st.integers(1, 7),
    sub=st.integers(1, 7),
)
def test_knn_matches_dense_stable_argsort(X, k, metric, chunk, sub):
    # The oracle sorts each row of the distance matrix knn sees (the same
    # chunked products, so the same bits) with a stable argsort; small chunks
    # and partition blocks exercise multi-block and one-row tails. Cosine is
    # the Euclidean kernel on unit rows (zero rows stay zero), halved.
    U = X
    if metric == "cosine":
        norms = np.linalg.norm(X, axis=1)
        U = X / np.where(norms == 0, 1.0, norms)[:, None]
    D = np.vstack([graphs.sq_distances(U[s : s + chunk], U) for s in range(0, len(X), chunk)])
    if metric == "cosine":
        D *= 0.5
    np.fill_diagonal(D, np.inf)
    if metric == "euclidean" and np.array_equal(X, np.round(X)):
        # integer coordinates: the kernel's squared distances are exact
        exact = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(exact, np.inf)
        np.testing.assert_array_equal(D, exact)
    take = min(k, len(X) - 1)
    expected = np.argsort(D, axis=1, kind="stable")[:, :take]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_CHUNK_ROWS", chunk)
        mp.setattr(graphs, "_PARTITION_ROWS", sub)
        indices, distances = knn(X, k, metric)
    np.testing.assert_array_equal(indices, expected)
    np.testing.assert_array_equal(distances, np.take_along_axis(D, expected, axis=1))


def one_expression_sq_distances(Q, X):
    """Frozen copy of the one-expression ``sq_distances``: three (len(Q),
    len(X)) temporaries, the bits the in-place version must keep."""
    sq = (Q * Q).sum(axis=1)[:, None] + (X * X).sum(axis=1)[None, :] - 2.0 * (Q @ X.T)
    np.maximum(sq, 0.0, out=sq)
    return sq


@st.composite
def distance_points(draw):
    """Normal points in d = 2, 12, 40 or 115 at one of three scales, some
    rows copied onto others and some moved far out."""
    n = draw(st.integers(2, 40))
    d = draw(st.sampled_from([2, 12, 40, 115]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        X[dst] = X[src]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=3)):
        X[i, draw(st.integers(0, d - 1))] += draw(st.sampled_from([1e3, -1e6, 3e7]))
    return X


@settings(max_examples=150, deadline=None)
@given(X=distance_points(), start=st.integers(0, 39), rows=st.integers(1, 40), block=st.integers(1, 7))
def test_sq_distances_match_one_expression_bits(X, start, rows, block):
    # Q is a run of X's rows, as in a knn chunk; small blocks exercise the
    # in-place pass over several blocks and a one-row tail
    Q = X[start % len(X) :][:rows]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_PARTITION_ROWS", block)
        got = graphs.sq_distances(Q, X)
    assert got.tobytes() == one_expression_sq_distances(Q, X).tobytes()
    assert graphs.sq_distances(X, X).tobytes() == one_expression_sq_distances(X, X).tobytes()


@pytest.mark.parametrize("n", [5, 100, 129, 1100])
@pytest.mark.parametrize("d", [2, 16])
@pytest.mark.parametrize("query", ["itself", "row slice"])
def test_sq_distances_into_out_match_the_allocating_call(n, d, query):
    # t-SNE writes each iterate's distances into one n x n buffer
    X = np.random.default_rng(n + d).normal(size=(n, d))
    Q = X if query == "itself" else X[n // 3 : n // 3 + n // 2]
    buf = np.empty((len(Q), n))
    got = graphs.sq_distances(Q, X, out=buf)
    assert got is buf
    assert got.tobytes() == graphs.sq_distances(Q, X).tobytes()


@settings(max_examples=100, deadline=None)
@given(X=distance_points(), k=st.integers(1, 12), chunk=st.integers(1, 9), block=st.integers(1, 7))
def test_knn_matches_one_expression_distances(X, k, chunk, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_CHUNK_ROWS", chunk)
        mp.setattr(graphs, "_PARTITION_ROWS", block)
        got = knn(X, k)
        mp.setattr(graphs, "sq_distances", one_expression_sq_distances)
        expected = knn(X, k)
    assert got[0].tobytes() == expected[0].tobytes()
    assert got[1].tobytes() == expected[1].tobytes()


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_knn_holds_one_distance_chunk(metric):
    # 1,200 rows make a 1,024-row chunk and a 176-row one; each is freed
    # before the next, and the in-place and partition temporaries are
    # _PARTITION_ROWS rows each
    import tracemalloc

    X = np.random.default_rng(7).normal(size=(1200, 12))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        knn(X, 15, metric)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * graphs._CHUNK_ROWS * 1200 * 8


_OVERFLOW = np.array([[1e200, 1e200], [1.0, 1.0], [0.0, 0.0], [-1.0, 2.0]])
_OVERFLOW_MESSAGE = "squared distances overflow float64: the largest absolute entry is 1e+200"


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_knn_refuses_a_table_whose_distances_overflow(metric):
    # Row 0's squared norm overflows: the Euclidean kNN returned it as its
    # own neighbour (a self-loop to knn_feature_graph), and the cosine kNN
    # scaled it to the zero row, nearest to row 2 instead of row 1.
    with pytest.raises(GraphError, match=re.escape(_OVERFLOW_MESSAGE)):
        knn(_OVERFLOW, 1, metric)
    with pytest.raises(GraphError, match=re.escape(_OVERFLOW_MESSAGE)):
        knn_feature_graph(_OVERFLOW, 1, metric)
    # a quarter of the float64 maximum still fits: every distance is finite
    X = np.array([[6e153, 0.0], [1.0, 1.0], [0.0, 0.0]])
    indices, distances = knn(X, 1, metric)
    assert indices[0, 0] == 1
    assert np.all(np.isfinite(distances))
