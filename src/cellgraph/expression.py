"""Per-cell expression profiles: one pooled intensity per antigen channel."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .dataset import CellTable, Sample, cell_means, cell_pixels


def expression_profile(sample: Sample) -> CellTable:
    """Pool each channel over each cell's pixel set.

    Feature k of cell c is the mean intensity of channel k over the pixels
    with mask value c, summed exactly in float64. Rows are ``sample.cells``.
    """
    _, rows, cols, bounds = cell_pixels(sample.mask)
    features = cell_means(np.column_stack([image.values[rows, cols] for _, image in sample.stack.channels]), bounds)
    return replace(sample.cells, features=features, feature_names=list(sample.stack.antigen_names))
