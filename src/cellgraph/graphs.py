"""Cell graphs: feature-similarity kNN, spatial-proximity kNN, and the
degree-normalized adjacency used for feature propagation."""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dataset import CellTable, keys_digest, read_lines, write_lines

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
    """Directed unweighted edge list over cells.

    ``keys_sha256`` is the ``keys_digest`` of the (sample_id, cell_id) keys
    behind the nodes, in order; None when they are unknown (a graph built
    without a table, or read from an edge list that records none).
    Self-loops are never stored; normalization adds them.
    """

    n_nodes: int
    edges: np.ndarray  # (m, 2) int64 (src, dst)
    keys_sha256: str | None = None

    def __post_init__(self):
        if self.n_nodes < 0:
            raise GraphError("node count must be >= 0")
        if len(self.edges) and (self.edges.min() < 0 or self.edges.max() >= self.n_nodes):
            raise GraphError("edge endpoint out of range")
        if len(self.edges) and np.any(self.edges[:, 0] == self.edges[:, 1]):
            raise GraphError("self-loops are not stored in a CellGraph")

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


def knn_feature_graph(X: np.ndarray, k: int, metric: str = "euclidean") -> CellGraph:
    """Directed kNN graph in feature space; each node points to its
    min(k, n-1) nearest neighbors, ties broken by lower index."""
    indices, _ = knn(X, k, metric)
    n, take = indices.shape
    edges = np.stack([np.repeat(np.arange(n, dtype=np.int64), take), indices.ravel()], axis=1)
    return CellGraph(n_nodes=n, edges=edges)


def spatial_knn_graph(centroids: np.ndarray, sample_ids: list, k: int) -> CellGraph:
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
    return CellGraph(n_nodes=n, edges=np.concatenate(edges) if edges else np.zeros((0, 2), dtype=np.int64))


def _sorted_distinct(codes: np.ndarray) -> np.ndarray:
    """``codes`` sorted with repeats dropped: ``np.unique`` by one sort and a mask."""
    codes = np.sort(codes)
    first = np.ones(len(codes), dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    return codes[first]


def edge_homophily(g: CellGraph, labels: np.ndarray, mask: np.ndarray) -> tuple:
    """(undirected edge count, share of the undirected edges with both ends
    in ``mask`` that join nodes of equal ``labels``; nan without such edges).

    An undirected edge is a node pair joined in either direction.
    """
    codes = _sorted_distinct(g.edges.min(axis=1) * g.n_nodes + g.edges.max(axis=1))
    a, b = np.divmod(codes, g.n_nodes)
    inside = mask[a] & mask[b]
    same = labels[a[inside]] == labels[b[inside]]
    return len(codes), float(same.mean()) if len(same) else float("nan")


def normalize_adjacency(g: CellGraph) -> sp.csr_matrix:
    """Symmetrize, add self-loops, and degree-normalize.

    Returns D^{-1/2} (A + I) D^{-1/2} in CSR layout with sorted indices,
    where A holds 1 wherever either direction of an edge is stored and D
    holds the row sums of A + I. All entries lie in (0, 1] and the spectral
    radius is at most 1.
    """
    n = g.n_nodes
    src, dst = g.edges[:, 0], g.edges[:, 1]
    loops = np.arange(n, dtype=np.int64)
    # each stored direction, its reverse and a self-loop as (row * n + col)
    # codes, sorted once with repeats dropped
    codes = _sorted_distinct(np.concatenate((src * n + dst, dst * n + src, loops * (n + 1))))
    rows, cols = np.divmod(codes, n)
    # the row sums of A + I are entry counts, exact in any summation order
    degrees = np.bincount(rows, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    inv_sqrt = 1.0 / np.sqrt(degrees)
    # (D^-1/2 A) D^-1/2: the product order of two sparse diagonal scalings
    data = inv_sqrt[rows] * inv_sqrt[cols]
    return sp.csr_matrix((data, cols, indptr), shape=(n, n))


def build_cell_graph(kind: str, X: np.ndarray, table: CellTable, k: int, metric: str = "euclidean") -> CellGraph:
    """The ``kind`` graph over the rows of a pooled cell table.

    "feature" is the kNN graph of ``X`` (one row per table row) under
    ``metric``; "spatial" is the per-sample kNN graph of the table's
    centroids, which ignores ``X`` and ``metric``. The graph records the
    digest of the table keys.
    """
    if kind == "feature":
        graph = knn_feature_graph(X, k, metric=metric)
    elif kind == "spatial":
        graph = spatial_knn_graph(table.centroids, table.sample_ids, k)
    else:
        raise GraphError(f"unknown graph kind {kind!r}")
    graph.keys_sha256 = keys_digest(table.keys())
    return graph


def write_edge_list(path: str, g: CellGraph) -> None:
    """A ``# nodes N`` header, a ``# keys <sha256>`` line when the graph's
    keys digest is known, and one ``src dst`` line per edge."""
    lines = [f"# nodes {g.n_nodes}"]
    if g.keys_sha256 is not None:
        lines.append(f"# keys {g.keys_sha256}")
    lines.extend(f"{src} {dst}" for src, dst in g.edges.tolist())
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
    lineno, ln = lines[0]
    try:
        n = int(ln[len("# nodes ") :])
        for i, (lineno, ln) in enumerate(body):
            src, dst = ln.split()
            edges[i] = (int(src), int(dst))
    except (ValueError, OverflowError) as exc:
        raise GraphError(f"{path}:{lineno}: malformed edge line {ln!r}") from exc
    try:
        return CellGraph(n_nodes=n, edges=edges, keys_sha256=digest)
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from exc
