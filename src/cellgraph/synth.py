"""Deterministic synthetic dataset generator.

Mirrors the production dataset's statistics at desk scale: a configurable
number of cases with a fixed melanoma/healthy split, a dozen antigen
channels per sample, and a few hundred elliptical cells per image. The
class signal is injected twice so both feature families carry it: tumor
cells draw elevated mean intensity on marker channels (expression
profiles) and higher per-pixel noise variance (texture features).

Cells are laid out on a jittered grid. Grid spacing bounds jitter and
radii so non-overlap is guaranteed geometrically whenever the requested
density is feasible; infeasible densities fail with the achieved count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import (
    ChannelImage,
    Dataset,
    LabelMask,
    Sample,
    StainStack,
    check_fields,
    config_from_dict,
    pool_tables,
    save_dataset,
)
from .rng import Xoshiro256StarStar

BACKGROUND_VALUE = 300
CELL_MEAN_SIGMA = 600.0
SAMPLE_WOBBLE_SIGMA = 150.0  # per-sample staining variation around the channel base
PIXEL_NOISE_SIGMA = 500.0
MAX_PLACEMENT_RETRIES = 20


class SynthesisError(Exception):
    """Raised when the requested cell density cannot be realized."""


@dataclass
class SynthConfig:
    n_samples: int = 6
    n_melanoma: int = 3
    image_size: int = 256
    n_channels: int = 12
    cells_per_sample: int = 300
    tumor_fraction: float = 0.4
    marker_channel_fraction: float = 0.5
    intensity_separation: float = 3.0
    texture_contrast_separation: float = 1.0
    pixel_spacing_um: float = 0.45
    seed: int = 7

    def __post_init__(self):
        check_fields(self, {
            "n_samples": (int, 1),
            "n_melanoma": (int, 0),
            "image_size": (int, 32),
            "n_channels": (int, 2),
            "cells_per_sample": (int, 1),
            "tumor_fraction": (float, 0.0, 1.0),
            "marker_channel_fraction": (float, 0.0, 1.0),
            "intensity_separation": (float,),
            "texture_contrast_separation": (float,),
            "pixel_spacing_um": (float,),
            "seed": (int,),
        })
        if self.n_melanoma > self.n_samples:
            raise ValueError("n_melanoma must not exceed n_samples")

    from_dict = classmethod(config_from_dict)

    @property
    def n_marker_channels(self) -> int:
        return max(1, math.ceil(self.marker_channel_fraction * self.n_channels))


def generate_synthetic_dataset(config: SynthConfig, out_dir: str | None = None):
    """Generate the dataset; optionally serialize it to ``out_dir``.

    Returns ``(dataset, truth)`` where ``truth`` is the pooled ground-truth
    cell table (ids, centroids, class labels) across all samples. Output is
    a pure function of the config: the root seed expands through splitmix64
    into one xoshiro256** stream per sample (stream 0 is reserved for
    dataset-level draws such as the per-channel intensity baselines).
    """
    base_stream = Xoshiro256StarStar.stream_for(config.seed, 0)
    channel_bases = [base_stream.uniform_in(14000.0, 18000.0) for _ in range(config.n_channels)]
    samples = []
    for idx in range(config.n_samples):
        stream = Xoshiro256StarStar.stream_for(config.seed, idx + 1)
        diagnosis = "melanoma" if idx < config.n_melanoma else "healthy"
        samples.append(_generate_sample(config, idx, diagnosis, stream, channel_bases))
    dataset = Dataset(samples=samples, pixel_spacing_um=config.pixel_spacing_um)
    if out_dir is not None:
        save_dataset(dataset, out_dir)
    truth = pool_tables([s.cells for s in dataset.samples])
    return dataset, truth


def _generate_sample(config: SynthConfig, index: int, diagnosis: str, stream, channel_bases: list) -> Sample:
    sid = f"s{index + 1:02d}"
    size = config.image_size
    target = config.cells_per_sample

    ellipses = _place_cells(stream, size, target, sid)
    n_cells = len(ellipses)

    rows, cols, counts = _ellipse_pixels(ellipses, size)
    cell_of = np.repeat(np.arange(n_cells), counts)
    mask = np.zeros((size, size), dtype=np.uint32)
    mask[rows, cols] = cell_of + 1

    labels = np.zeros(n_cells, dtype=np.int64)
    if diagnosis == "melanoma" and config.tumor_fraction > 0:
        n_tumor = int(round(config.tumor_fraction * n_cells))
        order = list(range(n_cells))
        stream.shuffle(order)
        for i in order[:n_tumor]:
            labels[i] = 1

    n_markers = config.n_marker_channels
    n_channels = config.n_channels
    sample_bases = np.array([base + stream.normal(0.0, SAMPLE_WOBBLE_SIGMA) for base in channel_bases])
    tumor_noise = PIXEL_NOISE_SIGMA * (1.0 + config.texture_contrast_separation)

    # One draw per sample, in the scalar order: for each cell and channel, the
    # cell's mean normal and then one normal per pixel.
    block = 1 + counts  # draws per cell and channel
    cell_start = n_channels * (np.cumsum(block) - block)
    sigma_px = np.where(labels == 1, tumor_noise, PIXEL_NOISE_SIGMA)
    sigma = np.repeat(np.repeat(sigma_px, n_channels), np.repeat(block, n_channels))
    mean_at = cell_start[:, None] + np.arange(n_channels) * block[:, None]
    sigma[mean_at.ravel()] = CELL_MEAN_SIGMA
    z = stream.normals(sigma)

    means = sample_bases + z[mean_at]
    means[labels == 1, :n_markers] += config.intensity_separation * CELL_MEAN_SIGMA
    pixel_offset = np.arange(len(rows)) - (np.cumsum(counts) - counts)[cell_of]
    channels = []
    for k in range(n_channels):
        plane = np.full((size, size), BACKGROUND_VALUE, dtype=np.float64)
        plane[rows, cols] = means[cell_of, k] + z[mean_at[cell_of, k] + 1 + pixel_offset]
        values = np.clip(np.rint(plane), 0, 65535).astype(np.uint16)
        channels.append((f"ag{k + 1:02d}", ChannelImage(width=size, height=size, values=values)))

    return Sample(
        stack=StainStack(sample_id=sid, channels=tuple(channels), pixel_spacing_um=config.pixel_spacing_um),
        mask=LabelMask(width=size, height=size, labels=mask),
        labels=dict(zip(range(1, n_cells + 1), labels.tolist())),
        diagnosis=diagnosis,
    )


def _place_cells(stream, size: int, target: int, sid: str) -> list:
    """Jittered-grid ellipse parameters (cx, cy, a, b, theta) for each cell.

    Radii <= 0.30 * spacing and jitter <= 0.15 * spacing keep any two cells
    (and the image border) from touching. Spacings too small to fit a
    minimal ellipse exhaust their retries and abort with the achieved count.
    """
    side = math.ceil(math.sqrt(target))
    spacing = size / side
    sites = [(r, c) for r in range(side) for c in range(side)]
    if len(sites) > target:
        stream.shuffle(sites)
        sites = sites[:target]
        sites.sort()

    ellipses = []
    for r, c in sites:
        placed = False
        for _ in range(MAX_PLACEMENT_RETRIES):
            cx = (c + 0.5) * spacing + stream.uniform_in(-0.15, 0.15) * spacing
            cy = (r + 0.5) * spacing + stream.uniform_in(-0.15, 0.15) * spacing
            a = stream.uniform_in(0.22, 0.30) * spacing
            b = stream.uniform_in(0.18, 0.26) * spacing
            if b > a:
                a, b = b, a
            theta = stream.uniform_in(0.0, math.pi)
            if b < 1.2:
                continue  # too thin to rasterize a connected region
            ellipses.append((cx, cy, a, b, theta))
            placed = True
            break
        if not placed:
            raise SynthesisError(
                f"sample {sid}: cell placement failed at density "
                f"{target}/{size}x{size} (achieved {len(ellipses)} cells); "
                f"increase image_size or lower cells_per_sample"
            )
    return ellipses


def _ellipse_pixels(ellipses: list, size: int):
    """Pixels inside each ellipse: ``(rows, cols, counts)``, cell after cell.

    Each cell's pixels are row-major within its bounding box of half-width
    ``a``. The boxes are padded to one shape so that all cells are tested
    at once, with the same elementwise arithmetic as one cell at a time.
    """
    cx, cy, a, b, theta = (col[:, None, None] for col in np.array(ellipses, dtype=np.float64).reshape(-1, 5).T)
    r0 = np.maximum(0, np.floor(cy - a)).astype(np.int64)
    r1 = np.minimum(size - 1, np.ceil(cy + a)).astype(np.int64)
    c0 = np.maximum(0, np.floor(cx - a)).astype(np.int64)
    c1 = np.minimum(size - 1, np.ceil(cx + a)).astype(np.int64)
    rr = r0 + np.arange((r1 - r0).max(initial=0) + 1)[:, None]
    cc = c0 + np.arange((c1 - c0).max(initial=0) + 1)
    dx = cc - cx
    dy = rr - cy
    ct = np.array([math.cos(t) for t in theta.ravel()])[:, None, None]
    st = np.array([math.sin(t) for t in theta.ravel()])[:, None, None]
    u = (dx * ct + dy * st) / a
    v = (-dx * st + dy * ct) / b
    inside = (u * u + v * v <= 1.0) & (rr <= r1) & (cc <= c1)
    rows = np.broadcast_to(rr, inside.shape)[inside]
    cols = np.broadcast_to(cc, inside.shape)[inside]
    return rows, cols, inside.sum(axis=(1, 2))
