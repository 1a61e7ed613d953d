"""Per-cell radiomic features: first-order statistics, shape descriptors,
and GLCM / GLRLM texture features.

All texture computation happens on a per-cell quantized copy of the cell's
pixels: intensities are rebinned into ``levels`` equal-width bins spanning
the cell's own [min, max] range, which makes every texture feature invariant
under global intensity shifts. Pair counting (GLCM) and run counting (GLRLM)
are restricted to pixels inside the cell; a pair or run never crosses the
cell boundary.

Feature families and their canonical column order:

* shape (7): area_um2, perimeter_um, major_axis_um, minor_axis_um,
  elongation, compactness, equiv_diameter_um
* first-order (8): mean, variance, skewness, kurtosis, energy, entropy,
  min, max
* GLCM (5): contrast, correlation, angular second moment, inverse
  difference moment, entropy
* GLRLM (5): short/long run emphasis, gray-level and run-length
  non-uniformity, run percentage
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import CLASS_UNLABELED, CellTable, ChannelImage, LabelMask, StainStack, cell_pixels

DEFAULT_LEVELS = 16
DEFAULT_OFFSETS = ((0, 1), (1, 0), (1, 1), (1, -1))

FIRST_ORDER_NAMES = ("mean", "variance", "skewness", "kurtosis", "energy", "entropy", "min", "max")
SHAPE_NAMES = (
    "area_um2",
    "perimeter_um",
    "major_axis_um",
    "minor_axis_um",
    "elongation",
    "compactness",
    "equiv_diameter_um",
)
GLCM_NAMES = ("glcm_contrast", "glcm_correlation", "glcm_asm", "glcm_idm", "glcm_entropy")
GLRLM_NAMES = ("glrlm_sre", "glrlm_lre", "glrlm_gln", "glrlm_rln", "glrlm_rp")


class RadiomicsError(Exception):
    pass


class DegenerateRegionError(RadiomicsError):
    """A cell/channel region admits no valid texture statistic (e.g. no pixel pairs)."""


@dataclass(frozen=True)
class QuantizedRegion:
    """A cell's pixels with intensities rebinned to [0, levels-1]."""

    rows: np.ndarray
    cols: np.ndarray
    bins: np.ndarray
    levels: int

    def __post_init__(self):
        if len(self.rows) == 0:
            raise RadiomicsError("quantized region must be non-empty")
        if self.bins.min() < 0 or self.bins.max() >= self.levels:
            raise RadiomicsError("bin indices out of range")

    def grid(self) -> tuple[np.ndarray, int, int]:
        """Bounding-box grid of bin indices, -1 outside the cell."""
        r0, c0 = int(self.rows.min()), int(self.cols.min())
        h = int(self.rows.max()) - r0 + 1
        w = int(self.cols.max()) - c0 + 1
        grid = np.full((h, w), -1, dtype=np.int64)
        grid[self.rows - r0, self.cols - c0] = self.bins
        return grid, r0, c0


@dataclass(frozen=True)
class GlcmMatrix:
    """Normalized co-occurrence matrix P (levels x levels)."""

    P: np.ndarray
    offsets: tuple
    symmetric: bool


@dataclass(frozen=True)
class GlrlmMatrix:
    """Run-length count matrix R: R[g, l-1] = number of runs of gray g, length l."""

    R: np.ndarray
    directions: tuple
    n_runs: int


@dataclass
class RadiomicsConfig:
    levels: int = DEFAULT_LEVELS
    offsets: tuple = DEFAULT_OFFSETS
    symmetric: bool = True
    channels: list | None = None  # antigen names to texture-analyze; None = all
    shape: bool = True

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError("levels must be >= 2")
        self.offsets = tuple((int(dr), int(dc)) for dr, dc in self.offsets)
        if any(o == (0, 0) for o in self.offsets):
            raise ValueError("offsets must be non-zero")

    @classmethod
    def from_dict(cls, raw: dict) -> "RadiomicsConfig":
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown radiomics config keys: {sorted(unknown)}")
        if "offsets" in raw:
            raw = dict(raw)
            raw["offsets"] = tuple(tuple(o) for o in raw["offsets"])
        return cls(**raw)


def quantize(image: ChannelImage, pixels: tuple, levels: int) -> QuantizedRegion:
    """Rebin a cell's intensities into ``levels`` equal-width bins.

    Bins span the cell's own [min, max]: bin = floor((v - min) * L / (max - min)),
    with the maximum value assigned to bin L-1 and a constant region mapping
    wholly to bin 0.
    """
    if levels < 2:
        raise RadiomicsError("levels must be >= 2")
    rows, cols = pixels
    if len(rows) == 0:
        raise RadiomicsError("cell pixel set is empty")
    values = image.values[rows, cols].astype(np.float64)
    vmin, vmax = values.min(), values.max()
    if vmax == vmin:
        bins = np.zeros(len(values), dtype=np.int64)
    else:
        bins = np.floor((values - vmin) * levels / (vmax - vmin)).astype(np.int64)
        np.minimum(bins, levels - 1, out=bins)
    return QuantizedRegion(rows=np.asarray(rows), cols=np.asarray(cols), bins=bins, levels=levels)


def first_order_features(image: ChannelImage, pixels: tuple) -> dict:
    """Intensity statistics over the cell's pixels.

    Variance is the population variance; skewness and excess kurtosis are
    guarded to 0 for constant regions; energy is the sum of squared
    intensities; entropy is Shannon entropy in bits over a 16-level
    quantized histogram.
    """
    rows, cols = pixels
    if len(rows) == 0:
        raise RadiomicsError("cell pixel set is empty")
    values = image.values[rows, cols].astype(np.float64)
    n = len(values)
    mean = values.sum() / n
    centered = values - mean
    m2 = np.sum(centered**2) / n
    if m2 > 0:
        m3 = np.sum(centered**3) / n
        m4 = np.sum(centered**4) / n
        skewness = m3 / m2**1.5
        kurtosis = m4 / m2**2 - 3.0
    else:
        skewness = 0.0
        kurtosis = 0.0
    q = quantize(image, pixels, DEFAULT_LEVELS)
    counts = np.bincount(q.bins, minlength=DEFAULT_LEVELS).astype(np.float64)
    p = counts[counts > 0] / n
    entropy = float(-np.sum(p * np.log2(p)))
    return {
        "mean": float(mean),
        "variance": float(m2),
        "skewness": float(skewness),
        "kurtosis": float(kurtosis),
        "energy": float(np.sum(values**2)),
        "entropy": entropy,
        "min": float(values.min()),
        "max": float(values.max()),
    }


def shape_features(mask: LabelMask, cell_id: int, pixel_spacing_um: float) -> dict:
    """Geometry of one cell from the instance mask.

    Area is pixel count scaled by spacing squared; perimeter counts
    4-neighbor edges between the cell and anything that is not the cell
    (background, other cells, or the image border), scaled by spacing.
    Axis lengths are 4*sqrt(lambda) for the eigenvalues of the second
    central moment matrix of the pixel coordinates, so a solid ellipse
    recovers its full axis lengths. A single-pixel cell has zero axes and
    elongation defined as 1.
    """
    inside = mask.labels == np.uint32(cell_id)
    n = int(inside.sum())
    if n == 0:
        raise RadiomicsError(f"cell {cell_id} has no pixels")
    rows, cols = np.nonzero(inside)

    edges = 0
    for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        nr, nc = rows + dr, cols + dc
        off_image = (nr < 0) | (nr >= mask.height) | (nc < 0) | (nc >= mask.width)
        neighbor_outside = off_image.copy()
        ok = ~off_image
        neighbor_outside[ok] = ~inside[nr[ok], nc[ok]]
        edges += int(neighbor_outside.sum())

    cx, cy = cols.mean(), rows.mean()
    dx, dy = cols - cx, rows - cy
    mxx = np.sum(dx * dx) / n
    myy = np.sum(dy * dy) / n
    mxy = np.sum(dx * dy) / n
    trace_half = (mxx + myy) / 2.0
    det = mxx * myy - mxy * mxy
    disc = max(trace_half * trace_half - det, 0.0)
    lam1 = trace_half + math.sqrt(disc)
    lam2 = max(trace_half - math.sqrt(disc), 0.0)

    s = pixel_spacing_um
    area = n * s * s
    perimeter = edges * s
    major = 4.0 * math.sqrt(lam1) * s
    minor = 4.0 * math.sqrt(lam2) * s
    elongation = minor / major if major > 0 else 1.0
    return {
        "area_um2": area,
        "perimeter_um": perimeter,
        "major_axis_um": major,
        "minor_axis_um": minor,
        "elongation": elongation,
        "compactness": 4.0 * math.pi * area / (perimeter * perimeter),
        "equiv_diameter_um": 2.0 * math.sqrt(area / math.pi),
        "centroid": (float(cx), float(cy)),
    }


def glcm(q: QuantizedRegion, offsets: tuple = DEFAULT_OFFSETS, symmetric: bool = True) -> GlcmMatrix:
    """Gray-level co-occurrence matrix over the given pixel offsets.

    A pair is counted only when both pixels lie inside the cell. Counts
    accumulate over all offsets; with ``symmetric`` the transpose is added
    before normalizing by the total pair count.
    """
    grid, _, _ = q.grid()
    levels = q.levels
    counts = np.zeros((levels, levels), dtype=np.float64)
    h, w = grid.shape
    for dr, dc in offsets:
        r_lo, r_hi = max(0, -dr), min(h, h - dr)
        c_lo, c_hi = max(0, -dc), min(w, w - dc)
        if r_lo >= r_hi or c_lo >= c_hi:
            continue
        a = grid[r_lo:r_hi, c_lo:c_hi]
        b = grid[r_lo + dr : r_hi + dr, c_lo + dc : c_hi + dc]
        valid = (a >= 0) & (b >= 0)
        if not valid.any():
            continue
        pair_codes = a[valid] * levels + b[valid]
        counts += np.bincount(pair_codes, minlength=levels * levels).reshape(levels, levels)
    if symmetric:
        counts = counts + counts.T
    total = counts.sum()
    if total == 0:
        raise DegenerateRegionError("no valid pixel pairs for GLCM")
    return GlcmMatrix(P=counts / total, offsets=tuple(offsets), symmetric=symmetric)


def glcm_features(m: GlcmMatrix) -> dict:
    """Contrast, correlation, ASM, IDM and entropy of a normalized GLCM.

    Correlation is guarded to 0 when either marginal has zero standard
    deviation; entropy is in bits with 0*log(0) = 0.
    """
    P = m.P
    levels = P.shape[0]
    i = np.arange(levels, dtype=np.float64)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    px = P.sum(axis=1)
    py = P.sum(axis=0)
    mu_x = np.sum(i * px)
    mu_y = np.sum(i * py)
    var_x = np.sum((i - mu_x) ** 2 * px)
    var_y = np.sum((i - mu_y) ** 2 * py)
    if var_x > 0 and var_y > 0:
        correlation = float((np.sum(ii * jj * P) - mu_x * mu_y) / math.sqrt(var_x * var_y))
    else:
        correlation = 0.0
    nz = P[P > 0]
    return {
        "glcm_contrast": float(np.sum(P * (ii - jj) ** 2)),
        "glcm_correlation": correlation,
        "glcm_asm": float(np.sum(P * P)),
        "glcm_idm": float(np.sum(P / (1.0 + (ii - jj) ** 2))),
        "glcm_entropy": float(-np.sum(nz * np.log2(nz))),
    }


def glrlm(q: QuantizedRegion, directions: tuple = DEFAULT_OFFSETS) -> GlrlmMatrix:
    """Gray-level run-length matrix over the given directions.

    A run is a maximal sequence of in-cell pixels with equal bin index along
    a direction; runs break at the cell boundary. Counts accumulate over all
    given directions; pass a single direction for a per-direction matrix.
    """
    grid, _, _ = q.grid()
    h, w = grid.shape
    max_len = max(h, w)
    R = np.zeros((q.levels, max_len), dtype=np.float64)
    for direction in directions:
        for line in _lines(grid, direction):
            _count_runs(line, R)
    longest = int(np.max(np.nonzero(R.sum(axis=0))[0])) + 1 if R.any() else 1
    R = R[:, :longest]
    return GlrlmMatrix(R=R, directions=tuple(directions), n_runs=int(R.sum()))


def _lines(grid: np.ndarray, direction: tuple):
    """Yield the 1-D scan lines of a bbox grid along one direction.

    Opposite directions scan the same runs, so each direction is reduced to
    its canonical orientation: rows, columns, diagonals, anti-diagonals.
    """
    dr, dc = direction
    if dr < 0 or (dr == 0 and dc < 0):
        dr, dc = -dr, -dc
    h, w = grid.shape
    if (dr, dc) == (0, 1):
        for r in range(h):
            yield grid[r]
    elif (dr, dc) == (1, 0):
        for c in range(w):
            yield grid[:, c]
    elif (dr, dc) == (1, 1):
        for off in range(-(h - 1), w):
            yield np.diagonal(grid, offset=off)
    elif (dr, dc) == (1, -1):
        flipped = grid[:, ::-1]
        for off in range(-(h - 1), w):
            yield np.diagonal(flipped, offset=off)
    else:
        raise RadiomicsError(f"unsupported run direction {direction}; use unit steps")


def _count_runs(line: np.ndarray, R: np.ndarray) -> None:
    n = len(line)
    if n == 0:
        return
    change = np.flatnonzero(np.diff(line) != 0)
    starts = np.concatenate(([0], change + 1))
    ends = np.concatenate((change + 1, [n]))
    for s, e in zip(starts, ends):
        g = line[s]
        if g >= 0:
            R[g, e - s - 1] += 1


def glrlm_features(m: GlrlmMatrix, n_pixels: int) -> dict:
    """Run-emphasis and non-uniformity statistics of a run-length matrix."""
    if m.n_runs < 1:
        raise DegenerateRegionError("no runs in GLRLM")
    R = m.R
    nr = float(m.n_runs)
    lengths = np.arange(1, R.shape[1] + 1, dtype=np.float64)
    by_length = R.sum(axis=0)
    by_gray = R.sum(axis=1)
    return {
        "glrlm_sre": float(np.sum(by_length / lengths**2) / nr),
        "glrlm_lre": float(np.sum(by_length * lengths**2) / nr),
        "glrlm_gln": float(np.sum(by_gray**2) / nr),
        "glrlm_rln": float(np.sum(by_length**2) / nr),
        "glrlm_rp": float(nr / n_pixels),
    }


def radiomic_feature_table(
    stack: StainStack,
    mask: LabelMask,
    config: RadiomicsConfig | None = None,
    labels: dict | None = None,
) -> CellTable:
    """Full radiomic feature table for one sample.

    Columns are ``shape__<name>`` once, then ``<antigen>__<name>`` per
    selected channel in stack order; rows are cells in ascending cell_id.
    GLCM features come from one matrix accumulated over all offsets; GLRLM
    features are averaged over per-direction matrices, which keeps run
    percentage within [0, 1]. A cell/channel whose texture is degenerate
    (e.g. a single-pixel cell has no pixel pairs) gets NaN for that feature
    family plus a warning; cells are never dropped.
    """
    config = config or RadiomicsConfig()
    if (mask.width, mask.height) != (stack.width, stack.height):
        raise RadiomicsError(
            f"sample {stack.sample_id}: mask {mask.width}x{mask.height} does not "
            f"match channels {stack.width}x{stack.height}"
        )
    ids, rows_all, cols_all, bounds = cell_pixels(mask)
    if len(ids) == 0:
        raise RadiomicsError(f"sample {stack.sample_id}: mask contains no cells")

    if config.channels is None:
        selected = list(stack.antigen_names)
    else:
        missing = [c for c in config.channels if c not in stack.antigen_names]
        if missing:
            raise RadiomicsError(f"sample {stack.sample_id}: unknown channels {missing}")
        selected = [name for name in stack.antigen_names if name in config.channels]
    channel_images = dict(stack.channels)

    names = []
    if config.shape:
        names += [f"shape__{s}" for s in SHAPE_NAMES]
    for antigen in selected:
        names += [f"{antigen}__{s}" for s in FIRST_ORDER_NAMES]
        names += [f"{antigen}__{s}" for s in GLCM_NAMES]
        names += [f"{antigen}__{s}" for s in GLRLM_NAMES]

    n = len(ids)
    features = np.zeros((n, len(names)))
    centroids = np.zeros((n, 2))
    for idx in range(n):
        cid = int(ids[idx])
        lo, hi = bounds[idx], bounds[idx + 1]
        pixels = (rows_all[lo:hi], cols_all[lo:hi])
        row = []
        shape = shape_features(mask, cid, stack.pixel_spacing_um)
        centroids[idx] = shape["centroid"]
        if config.shape:
            row += [shape[s] for s in SHAPE_NAMES]
        for antigen in selected:
            image = channel_images[antigen]
            fo = first_order_features(image, pixels)
            row += [fo[s] for s in FIRST_ORDER_NAMES]
            q = quantize(image, pixels, config.levels)
            try:
                gf = glcm_features(glcm(q, config.offsets, config.symmetric))
                row += [gf[s] for s in GLCM_NAMES]
            except DegenerateRegionError:
                warnings.warn(
                    f"sample {stack.sample_id} cell {cid} channel {antigen}: "
                    f"no valid pixel pairs, GLCM features set to NaN"
                )
                row += [math.nan] * len(GLCM_NAMES)
            try:
                per_dir = [
                    glrlm_features(glrlm(q, (direction,)), len(pixels[0]))
                    for direction in config.offsets
                ]
                row += [
                    sum(d[s] for d in per_dir) / len(per_dir) for s in GLRLM_NAMES
                ]
            except DegenerateRegionError:
                warnings.warn(
                    f"sample {stack.sample_id} cell {cid} channel {antigen}: "
                    f"no runs, GLRLM features set to NaN"
                )
                row += [math.nan] * len(GLRLM_NAMES)
        features[idx] = row

    label_map = labels or {}
    out_labels = np.array([label_map.get(int(c), CLASS_UNLABELED) for c in ids], dtype=np.int64)
    return CellTable(
        cell_ids=ids.astype(np.int64),
        sample_ids=[stack.sample_id] * n,
        centroids=centroids,
        labels=out_labels,
        features=features,
        feature_names=names,
    )
