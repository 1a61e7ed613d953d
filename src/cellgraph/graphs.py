"""Cell graphs: feature-similarity kNN, spatial-proximity kNN, and the
degree-normalized adjacency used for feature propagation."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dataset import CellTable, _atomic_write

_CHUNK_ROWS = 1024


class GraphError(Exception):
    pass


@dataclass
class CellGraph:
    """Directed weighted edge list over cells.

    ``node_keys[i]`` is the (sample_id, cell_id) behind node i; it is None
    for a graph read from an edge list, which stores no keys. Self-loops
    are never stored; normalization adds them.
    """

    n_nodes: int
    edges: np.ndarray  # (m, 2) int64 (src, dst)
    weights: np.ndarray  # (m,) float64, all finite and > 0
    node_keys: list | None  # of (sample_id, cell_id)

    def __post_init__(self):
        if self.n_nodes < 0:
            raise GraphError("node count must be >= 0")
        if len(self.edges) != len(self.weights):
            raise GraphError("edge and weight counts differ")
        if len(self.edges) and (self.edges.min() < 0 or self.edges.max() >= self.n_nodes):
            raise GraphError("edge endpoint out of range")
        if len(self.edges) and np.any(self.edges[:, 0] == self.edges[:, 1]):
            raise GraphError("self-loops are not stored in a CellGraph")
        if np.any(~((self.weights > 0) & (self.weights < np.inf))):
            raise GraphError("edge weights must be positive and finite")

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def sq_distances(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of Q and of X, clipped at 0."""
    sq = (Q * Q).sum(axis=1)[:, None] + (X * X).sum(axis=1)[None, :] - 2.0 * (Q @ X.T)
    np.maximum(sq, 0.0, out=sq)
    return sq


def _pairwise_cosine(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    qn = np.linalg.norm(Q, axis=1)
    xn = np.linalg.norm(X, axis=1)
    qn[qn == 0] = 1.0
    xn = np.where(xn == 0, 1.0, xn)
    return 1.0 - (Q / qn[:, None]) @ (X / xn[:, None]).T


def knn(X: np.ndarray, k: int, metric: str = "euclidean"):
    """Exact k nearest neighbors of every row of X, itself excluded.

    Returns (indices, distances) of shape (n, min(k, n-1)), each row sorted
    by distance, ties by lower index; Euclidean distances are squared.
    Distances are computed ``_CHUNK_ROWS`` query rows at a time.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise GraphError("need at least 2 points")
    if k < 1:
        raise GraphError("k must be >= 1")
    if metric not in ("euclidean", "cosine"):
        raise GraphError(f"unknown metric {metric!r}")
    if not np.all(np.isfinite(X)):
        raise GraphError("features contain non-finite values")
    n = X.shape[0]
    take = min(k, n - 1)
    indices = np.empty((n, take), dtype=np.int64)
    distances = np.empty((n, take))
    for start in range(0, n, _CHUNK_ROWS):
        Q = X[start : start + _CHUNK_ROWS]
        D = sq_distances(Q, X) if metric == "euclidean" else _pairwise_cosine(Q, X)
        for i, drow in enumerate(D, start=start):
            drow[i] = np.inf
            # argpartition gives candidates; widen deterministically on boundary ties
            cand = np.argpartition(drow, take - 1)[:take]
            thresh = drow[cand].max()
            if np.count_nonzero(drow <= thresh) > take:
                closer = np.flatnonzero(drow < thresh)
                at = np.flatnonzero(drow == thresh)
                cand = np.concatenate((closer, at[: take - len(closer)]))
            chosen = cand[np.lexsort((cand, drow[cand]))]
            indices[i] = chosen
            distances[i] = drow[chosen]
    return indices, distances


def knn_feature_graph(X: np.ndarray, k: int, metric: str = "euclidean", node_keys: list | None = None) -> CellGraph:
    """Directed kNN graph in feature space; each node points to its
    min(k, n-1) nearest neighbors with weight 1, ties broken by lower index."""
    indices, _ = knn(X, k, metric)
    n, take = indices.shape
    edges = np.stack([np.repeat(np.arange(n, dtype=np.int64), take), indices.ravel()], axis=1)
    keys = node_keys if node_keys is not None else [("", i) for i in range(n)]
    return CellGraph(n_nodes=n, edges=edges, weights=np.ones(len(edges)), node_keys=keys)


def spatial_knn_graph(centroids: np.ndarray, sample_ids: list, k: int, node_keys: list | None = None) -> CellGraph:
    """Per-sample kNN graph on 2-D centroids; samples stay disjoint.

    A sample with fewer than 2 cells contributes no edges (with a warning).
    """
    centroids = np.asarray(centroids, dtype=np.float64)
    n = centroids.shape[0]
    if n < 1:
        raise GraphError("empty centroid set")
    if k < 1:
        raise GraphError("k must be >= 1")
    if len(sample_ids) != n:
        raise GraphError("sample_ids length does not match centroids")
    if not np.all(np.isfinite(centroids)):
        raise GraphError("centroids contain non-finite values")
    sample_arr = np.array(sample_ids)
    edges = []
    for sid in sorted(set(sample_ids)):
        idx = np.flatnonzero(sample_arr == sid)
        if len(idx) < 2:
            warnings.warn(f"sample {sid} has {len(idx)} cell(s); no spatial edges")
            continue
        local, _ = knn(centroids[idx], k)
        edges.append(np.stack([np.repeat(idx, local.shape[1]), idx[local.ravel()]], axis=1))
    all_edges = np.concatenate(edges) if edges else np.zeros((0, 2), dtype=np.int64)
    keys = node_keys if node_keys is not None else [("", i) for i in range(n)]
    return CellGraph(n_nodes=n, edges=all_edges, weights=np.ones(len(all_edges)), node_keys=keys)


def normalize_adjacency(g: CellGraph) -> sp.csr_matrix:
    """Symmetrize, add unit self-loops, and degree-normalize.

    Returns D^{-1/2} (A + I) D^{-1/2} in CSR layout with sorted indices,
    where D holds the row sums of A + I. An undirected edge exists where
    either direction is present; its weight is the max of the stored
    directions. All entries lie in (0, 1] and the spectral radius is at
    most 1.
    """
    n = g.n_nodes
    if len(g.edges):
        # collapse duplicate (src, dst) pairs by max weight, then symmetrize by max
        codes = g.edges[:, 0] * n + g.edges[:, 1]
        order = np.lexsort((g.weights, codes))
        codes, weights = codes[order], g.weights[order]
        last = np.concatenate((codes[1:] != codes[:-1], [True]))
        codes, weights = codes[last], weights[last]
        A = sp.coo_matrix((weights, (codes // n, codes % n)), shape=(n, n)).tocsr()
        A = A.maximum(A.T)
    else:
        A = sp.csr_matrix((n, n))
    A_tilde = (A + sp.identity(n, format="csr")).tocsr()
    deg = np.asarray(A_tilde.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    D = sp.diags(inv_sqrt)
    A_hat = (D @ A_tilde @ D).tocsr()
    A_hat.sort_indices()
    return A_hat


def build_cell_graph(kind: str, X: np.ndarray, table: CellTable, k: int, metric: str = "euclidean") -> CellGraph:
    """The ``kind`` graph over the rows of a pooled cell table.

    "feature" is the kNN graph of ``X`` (one row per table row) under
    ``metric``; "spatial" is the per-sample kNN graph of the table's
    centroids, which ignores ``X`` and ``metric``. Nodes carry the table keys.
    """
    if kind == "feature":
        return knn_feature_graph(X, k, metric=metric, node_keys=table.keys())
    if kind == "spatial":
        return spatial_knn_graph(table.centroids, table.sample_ids, k, node_keys=table.keys())
    raise GraphError(f"unknown graph kind {kind!r}")


def write_edge_list(path: str, g: CellGraph) -> None:
    lines = [f"# nodes {g.n_nodes}"]
    for (src, dst), w in zip(g.edges.tolist(), g.weights.tolist()):
        lines.append(f"{src} {dst} {format(w, '.17g')}")
    _atomic_write(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_edge_list(path: str) -> CellGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(lineno, ln.strip()) for lineno, ln in enumerate(fh, start=1) if ln.strip()]
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: not a UTF-8 text edge list") from exc
    if not lines or not lines[0][1].startswith("# nodes "):
        raise GraphError(f"{path}: expected '# nodes N' header")
    edges = np.zeros((len(lines) - 1, 2), dtype=np.int64)
    weights = np.zeros(len(lines) - 1)
    lineno, ln = lines[0]
    try:
        n = int(ln[len("# nodes ") :])
        for i, (lineno, ln) in enumerate(lines[1:]):
            src, dst, weight = ln.split()
            edges[i] = (int(src), int(dst))
            weights[i] = float(weight)
    except (ValueError, OverflowError) as exc:
        raise GraphError(f"{path}:{lineno}: malformed edge line {ln!r}") from exc
    try:
        return CellGraph(n_nodes=n, edges=edges, weights=weights, node_keys=None)
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from exc

