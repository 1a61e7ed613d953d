"""Per-cell expression profiles: one pooled intensity per antigen channel."""

from __future__ import annotations

import numpy as np

from .dataset import CLASS_UNLABELED, CellTable, LabelMask, StainStack, cell_means, cell_pixels


class ExpressionError(Exception):
    pass


def expression_profile(
    stack: StainStack,
    mask: LabelMask,
    labels: dict | None = None,
) -> CellTable:
    """Pool each channel over each cell's pixel set.

    Feature k of cell c is the mean intensity of channel k over the pixels
    with mask value c, summed exactly in float64. Cells are ordered by
    ascending cell_id and the centroid is the mean (x=column, y=row) of the
    cell's pixels.

    ``labels`` maps cell_id -> class label; absent cells are unlabeled.
    """
    if (mask.width, mask.height) != (stack.width, stack.height):
        raise ExpressionError(
            f"sample {stack.sample_id}: mask {mask.width}x{mask.height} does not "
            f"match channels {stack.width}x{stack.height}"
        )
    ids, rows, cols, bounds = cell_pixels(mask)
    if len(ids) == 0:
        raise ExpressionError(f"sample {stack.sample_id}: mask contains no cells")

    features = cell_means(np.column_stack([image.values[rows, cols] for _, image in stack.channels]), bounds)

    label_map = labels or {}
    out_labels = np.array([label_map.get(int(c), CLASS_UNLABELED) for c in ids], dtype=np.int64)
    return CellTable(
        cell_ids=ids.astype(np.int64),
        sample_ids=[stack.sample_id] * len(ids),
        centroids=cell_means(np.column_stack([cols, rows]), bounds),
        labels=out_labels,
        features=features,
        feature_names=list(stack.antigen_names),
    )
