"""Per-cell expression profiles: one pooled intensity per antigen channel."""

from __future__ import annotations

import numpy as np

from .dataset import CLASS_UNLABELED, CellTable, LabelMask, StainStack, cell_pixels


class ExpressionError(Exception):
    pass


def expression_profile(
    stack: StainStack,
    mask: LabelMask,
    labels: dict | None = None,
    aggregator: str = "mean",
) -> CellTable:
    """Pool each channel over each cell's pixel set.

    Feature k of cell c is the mean (or, behind the flag, median) intensity
    of channel k over the pixels with mask value c, accumulated in float64
    in row-major pixel order. Cells are ordered by ascending cell_id and the
    centroid is the mean (x=column, y=row) of the cell's pixels.

    ``labels`` maps cell_id -> class label; absent cells are unlabeled.
    """
    if (mask.width, mask.height) != (stack.width, stack.height):
        raise ExpressionError(
            f"sample {stack.sample_id}: mask {mask.width}x{mask.height} does not "
            f"match channels {stack.width}x{stack.height}"
        )
    if aggregator not in ("mean", "median"):
        raise ExpressionError(f"unknown aggregator {aggregator!r}")
    ids, rows, cols, bounds = cell_pixels(mask)
    if len(ids) == 0:
        raise ExpressionError(f"sample {stack.sample_id}: mask contains no cells")

    n = len(ids)
    features = np.zeros((n, len(stack.channels)))
    centroids = np.zeros((n, 2))
    for i in range(n):
        lo, hi = bounds[i], bounds[i + 1]
        r, c = rows[lo:hi], cols[lo:hi]
        centroids[i] = (c.mean(), r.mean())
        for k, (_, image) in enumerate(stack.channels):
            values = image.values[r, c].astype(np.float64)
            features[i, k] = np.median(values) if aggregator == "median" else values.mean()

    label_map = labels or {}
    out_labels = np.array([label_map.get(int(c), CLASS_UNLABELED) for c in ids], dtype=np.int64)
    return CellTable(
        cell_ids=ids.astype(np.int64),
        sample_ids=[stack.sample_id] * n,
        centroids=centroids,
        labels=out_labels,
        features=features,
        feature_names=list(stack.antigen_names),
    )
