"""Cell graphs: feature-similarity kNN, spatial-proximity kNN, and the
degree-normalized adjacency used for feature propagation."""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dataset import CellTable, format_float, keys_digest, read_lines, write_lines

# query rows of one distance chunk. Smaller chunks keep every bit but cost
# time: in scale-workload jobs (bench seed 77, 2-core Xeon, six a side) 128
# rows cut peak RSS from 70.5 to 65 MB and took 0.86-1.09 s against
# 0.67-0.88 s. Freeing one 1,024 x 1,200 chunk (9.8 MB) lifts glibc's mmap
# and trim thresholds past the fit loops' temporaries; without it a job
# took about 86,000 minor page faults instead of 0-4,000.
_CHUNK_ROWS = 1024
# rows of a distance chunk finished or partitioned at once: the (rows, n)
# temporaries of both steps stay an eighth of the chunk, so peak memory
# does not grow
_PARTITION_ROWS = 128


class GraphError(Exception):
    pass


@dataclass
class CellGraph:
    """Directed weighted edge list over cells.

    ``node_keys[i]`` is the (sample_id, cell_id) behind node i; it is None
    for a graph read from an edge list, which stores only ``keys_sha256``,
    the ``keys_digest`` of the keys (None when the file records none).
    Self-loops are never stored; normalization adds them.
    """

    n_nodes: int
    edges: np.ndarray  # (m, 2) int64 (src, dst)
    weights: np.ndarray  # (m,) float64, all finite and > 0
    node_keys: list | None  # of (sample_id, cell_id)
    keys_sha256: str | None = None

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


def sq_distances(Q: np.ndarray, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between the rows of Q and of X, clipped at 0.

    Each entry is ``(|q|^2 + |x|^2) - 2 q.x`` with q.x from one product
    ``Q @ X.T`` (into ``out`` if given; norms taken once if ``X is Q``); the
    rest is done in place on that product, ``_PARTITION_ROWS`` rows at a
    time, so the result is the only (len(Q), len(X)) array.
    """
    sq_q = (Q * Q).sum(axis=1)
    sq_x = sq_q if X is Q else (X * X).sum(axis=1)
    D = np.matmul(Q, X.T, out=out)
    norms = np.empty((min(len(Q), _PARTITION_ROWS), len(X)))
    for start in range(0, len(Q), _PARTITION_ROWS):
        B = D[start : start + _PARTITION_ROWS]
        S = norms[: len(B)]
        np.add(sq_q[start : start + len(B), None], sq_x[None, :], out=S)
        B *= 2.0
        np.subtract(S, B, out=B)
        np.maximum(B, 0.0, out=B)
    return D


def check_distance_range(X: np.ndarray, error: type = GraphError) -> None:
    """Raise ``error`` when a squared distance between two rows of ``X`` can
    overflow float64, which ``sq_distances`` would return as inf or NaN: a
    squared distance is at most four times the largest squared row norm."""
    with np.errstate(over="ignore"):
        largest = (X * X).sum(axis=1).max(initial=0.0)
    if not np.isfinite(4.0 * largest):
        raise error(f"squared distances overflow float64: the largest absolute entry is {np.abs(X).max():g}")


def knn(X: np.ndarray, k: int, metric: str = "euclidean"):
    """Exact k nearest neighbors of every row of X, itself excluded.

    Returns (indices, distances) of shape (n, min(k, n-1)), each row sorted
    by distance, ties by lower index; Euclidean distances are squared.
    Distances are computed ``_CHUNK_ROWS`` query rows at a time and
    partitioned ``_PARTITION_ROWS`` rows at a time. A table whose distances
    can overflow is refused (``check_distance_range``), under either metric.
    "cosine" ranks the rows scaled to unit length by half their squared
    distance, 1 - cos up to rounding, so a near-tie may break otherwise than
    in 1 - cos; a zero row stays zero and is nearest to other zero rows.
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
    check_distance_range(X)
    if metric == "cosine":
        norms = np.linalg.norm(X, axis=1)
        X = X / np.where(norms == 0, 1.0, norms)[:, None]
    n = X.shape[0]
    take = min(k, n - 1)
    indices = np.empty((n, take), dtype=np.int64)
    distances = np.empty((n, take))
    for start in range(0, n, _CHUNK_ROWS):
        Q = X[start : start + _CHUNK_ROWS]
        D = sq_distances(Q, X)
        for sub in range(0, len(D), _PARTITION_ROWS):
            B = D[sub : sub + _PARTITION_ROWS]
            rows = np.arange(len(B))
            B[rows, start + sub + rows] = np.inf
            # argpartition gives candidates; the take-th smallest distance is
            # the threshold, and a row with more points at or below it keeps
            # the lowest indices at the threshold; the copy frees the (rows, n)
            # partition before the next block makes its own
            cand = np.argpartition(B, take - 1, axis=1)[:, :take].copy()
            thresh = np.take_along_axis(B, cand, axis=1).max(axis=1)
            ties = np.flatnonzero(np.count_nonzero(B <= thresh[:, None], axis=1) > take)
            if ties.size:
                T, at = B[ties], thresh[ties, None]
                # 0 below the threshold, 1 at it, 2 above; a stable sort keeps index order
                rank = (T > at).astype(np.int8) + (T >= at)
                cand[ties] = np.argsort(rank, axis=1, kind="stable")[:, :take]
            dist = np.take_along_axis(B, cand, axis=1)
            order = np.lexsort((cand, dist), axis=-1)
            indices[start + sub : start + sub + len(B)] = np.take_along_axis(cand, order, axis=1)
            distances[start + sub : start + sub + len(B)] = np.take_along_axis(dist, order, axis=1)
        del D, B  # free this chunk before the next one is computed
    if metric == "cosine":
        distances *= 0.5
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


def edge_homophily(g: CellGraph, labels: np.ndarray, mask: np.ndarray) -> tuple:
    """(undirected edge count, share of the undirected edges with both ends
    in ``mask`` that join nodes of equal ``labels``; nan without such edges).

    An undirected edge is a node pair joined in either direction.
    """
    codes = np.unique(g.edges.min(axis=1) * g.n_nodes + g.edges.max(axis=1))
    a, b = np.divmod(codes, g.n_nodes)
    inside = mask[a] & mask[b]
    same = labels[a[inside]] == labels[b[inside]]
    return len(codes), float(same.mean()) if len(same) else float("nan")


def normalize_adjacency(g: CellGraph) -> sp.csr_matrix:
    """Symmetrize, add unit self-loops, and degree-normalize.

    Returns D^{-1/2} (A + I) D^{-1/2} in CSR layout with sorted indices,
    where D holds the row sums of A + I. An undirected edge exists where
    either direction is present; its weight is the max of the stored
    directions. All entries lie in (0, 1] and the spectral radius is at
    most 1.
    """
    n = g.n_nodes
    src, dst = g.edges[:, 0], g.edges[:, 1]
    loops = np.arange(n, dtype=np.int64)
    # each stored direction, its reverse and a unit self-loop as (row * n + col)
    # codes; one sort by code, then weight, keeps the max of each entry last
    codes = np.concatenate((src * n + dst, dst * n + src, loops * (n + 1)))
    weights = np.concatenate((g.weights, g.weights, np.ones(n)))
    order = np.lexsort((weights, codes))
    codes, weights = codes[order], weights[order]
    last = np.ones(len(codes), dtype=bool)
    last[:-1] = codes[1:] != codes[:-1]
    rows, cols = np.divmod(codes[last], n)
    values = weights[last]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    # row sums as scipy's CSR sum takes them: one reduceat over each row's
    # entries in column order (every row holds its self-loop)
    inv_sqrt = 1.0 / np.sqrt(np.add.reduceat(values, indptr[:-1]))
    # (D^-1/2 A) D^-1/2: the product order of two sparse diagonal scalings
    data = inv_sqrt[rows] * values * inv_sqrt[cols]
    return sp.csr_matrix((data, cols, indptr), shape=(n, n))


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
    """A ``# nodes N`` header, a ``# keys <sha256>`` line when the graph's
    node keys are known, and one ``src dst weight`` line per edge."""
    lines = [f"# nodes {g.n_nodes}"]
    digest = keys_digest(g.node_keys) if g.node_keys is not None else g.keys_sha256
    if digest is not None:
        lines.append(f"# keys {digest}")
    for (src, dst), w in zip(g.edges.tolist(), g.weights.tolist()):
        lines.append(f"{src} {dst} {format_float(w)}")
    write_lines(path, lines)


def read_edge_list(path: str) -> CellGraph:
    lines = [(lineno, ln.strip()) for lineno, ln in enumerate(read_lines(path, "edge list", GraphError), start=1)
             if ln.strip()]
    if not lines or not lines[0][1].startswith("# nodes "):
        raise GraphError(f"{path}: expected '# nodes N' header")
    digest = None
    body = lines[1:]
    if body and body[0][1].startswith("# keys "):
        lineno, ln = body.pop(0)
        digest = ln[len("# keys ") :]
        if not re.fullmatch("[0-9a-f]{64}", digest):
            raise GraphError(f"{path}:{lineno}: malformed keys line {ln!r}")
    edges = np.zeros((len(body), 2), dtype=np.int64)
    weights = np.zeros(len(body))
    lineno, ln = lines[0]
    try:
        n = int(ln[len("# nodes ") :])
        for i, (lineno, ln) in enumerate(body):
            src, dst, weight = ln.split()
            edges[i] = (int(src), int(dst))
            weights[i] = float(weight)
    except (ValueError, OverflowError) as exc:
        raise GraphError(f"{path}:{lineno}: malformed edge line {ln!r}") from exc
    try:
        return CellGraph(n_nodes=n, edges=edges, weights=weights, node_keys=None, keys_sha256=digest)
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from exc

