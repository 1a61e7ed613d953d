"""Per-cell radiomic features: first-order statistics, shape descriptors,
and GLCM / GLRLM texture features.

All texture computation happens on a per-cell quantized copy of the cell's
pixels: intensities are rebinned into ``levels`` equal-width bins spanning
the cell's own [min, max] range, which makes every texture feature invariant
under global intensity shifts. Pair counting (GLCM) and run counting (GLRLM)
are restricted to pixels inside the cell; a pair or run never crosses the
cell boundary.

The feature table does the pixel work for every cell of a sample at once.
What depends only on the cell map is found once per sample: the index pairs
of same-cell pixels at each offset (``_pairs``), and for each run direction
the in-cell pixels in scan order with the places where the scan line breaks
(``_scan_lines``, which lays columns and diagonals out as the rows of a
sheared copy). Each channel then gives every in-cell pixel a key,
``key = cell_rank * levels + bin``, so a key encodes the cell and runs and
pairs cannot cross from one cell into a touching one, nor into the
background. A channel's pair counts are one gather and one ``bincount``,
and its runs are where the key changes along the scan (``_runs``): each
run's end is the next run's start, so no sort is needed. Of the run counts
the table keeps the two marginals its formulas read, each counted by one
``bincount``. The per-cell ``glcm`` and ``glrlm`` run the same kernels on
the cell's bounding-box grid as a one-cell sample.

The feature formulas also run for all cells at once (``_first_order_block``,
``_glcm_block``, ``_glrlm_block``), and the public one-cell
``first_order_features``, ``glcm_features`` and ``glrlm_features`` call them
with a single cell. Every sum over a cell's pixels, histogram bins or run
lengths has a length that varies by cell, so cells are grouped by that
length and each group is summed as one C-contiguous (cells, length) block:
numpy then sums each row in the same pairwise order as a one-cell 1-D sum,
and the features keep their bits.

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
from dataclasses import dataclass, replace

import numpy as np

from .dataset import CellTable, ChannelImage, LabelMask, Sample, cell_pixels
from .dataset import check_field, check_fields, config_from_dict

DEFAULT_LEVELS = 16
DEFAULT_OFFSETS = ((0, 1), (1, 0), (1, 1), (1, -1))
RUN_DIRECTIONS = ((0, 1), (1, 0), (1, 1), (1, -1))  # rows, columns, diagonals, anti-diagonals

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
        check_fields(self, {"levels": (int, 2), "symmetric": (bool,), "shape": (bool,)})
        if self.channels is not None and not (
            isinstance(self.channels, list) and all(isinstance(c, str) for c in self.channels)
        ):
            raise ValueError(f"channels must be null or a list of antigen names, got {self.channels!r}")
        if self.channels == [] and not self.shape:
            raise ValueError("channels is empty and shape is false: the table would have no columns")
        pairs = self.offsets if isinstance(self.offsets, (list, tuple)) else [self.offsets]
        for pair in pairs:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ValueError(f"offsets must be a list of [dr, dc] pairs, got {self.offsets!r}")
            for step in pair:
                check_field("offsets", step, int)
        self.offsets = tuple((int(dr), int(dc)) for dr, dc in pairs)
        if not self.offsets:
            raise ValueError("offsets must hold at least one [dr, dc] pair: texture features average over them")
        if any(o == (0, 0) for o in self.offsets):
            raise ValueError("offsets must be non-zero")
        if any(max(abs(dr), abs(dc)) > 1 for dr, dc in self.offsets):
            raise ValueError("offsets must be unit steps: GLRLM runs are scanned along them")

    from_dict = classmethod(config_from_dict)


def _bins(values: np.ndarray, vmin, vmax, levels: int) -> np.ndarray:
    """bin = floor((v - vmin) * L / (vmax - vmin)), clipped to L-1; 0 where vmax == vmin.

    ``vmin`` and ``vmax`` are scalars or per-value arrays.
    """
    span = vmax - vmin
    bins = np.floor((values - vmin) * levels / np.where(span > 0, span, 1.0)).astype(np.int64)
    np.minimum(bins, levels - 1, out=bins)
    return bins


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
    bins = _bins(values, values.min(), values.max(), levels)
    return QuantizedRegion(rows=np.asarray(rows), cols=np.asarray(cols), bins=bins, levels=levels)


def first_order_features(image: ChannelImage, pixels: tuple) -> dict:
    """Intensity statistics over the cell's pixels (see ``_first_order_block``)."""
    rows, cols = pixels
    if len(rows) == 0:
        raise RadiomicsError("cell pixel set is empty")
    values = image.values[rows, cols].astype(np.float64)
    row = _first_order_block(values[None], np.array([0, len(values)]))[0, 0]
    return dict(zip(FIRST_ORDER_NAMES, row.tolist()))


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """Per row of ``p``, -sum(p * log2 p) over the row's nonzero entries.

    Rows are grouped by their number of nonzero entries, and each group's
    entries are gathered into one contiguous (rows, count) block.
    """
    nonzero = p > 0
    counts = nonzero.sum(axis=1)
    out = np.empty(len(p))
    for width in np.unique(counts).tolist():
        rows = counts == width
        q = p[rows][nonzero[rows]].reshape(int(rows.sum()), width)
        out[rows] = -(q * np.log2(q)).sum(axis=1)
    return out


def _first_order_block(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """First-order features, (C, n, 8) in ``FIRST_ORDER_NAMES`` order.

    ``values`` is (C, N) float64, one row per channel, with pixels in
    ``cell_pixels`` order; cell i owns ``values[:, bounds[i]:bounds[i + 1]]``.
    Variance is the population variance; skewness and excess kurtosis are
    guarded to 0 for constant cells; energy is the sum of squared
    intensities; entropy is Shannon entropy in bits over a 16-level
    quantized histogram.
    """
    n_channels = len(values)
    sizes = np.diff(bounds)
    n = len(sizes)
    out = np.empty((n_channels, n, len(FIRST_ORDER_NAMES)))
    for size in np.unique(sizes).tolist():
        cells = np.flatnonzero(sizes == size)
        # A fancy-index gather is not C-contiguous; summing it would change the grouping.
        block = np.ascontiguousarray(values[:, bounds[cells, None] + np.arange(size)])
        mean = block.sum(axis=2) / size
        centered = block - mean[..., None]
        out[:, cells, 0] = mean
        out[:, cells, 1] = (centered**2).sum(axis=2) / size
        out[:, cells, 2] = (centered**3).sum(axis=2) / size
        out[:, cells, 3] = (centered**4).sum(axis=2) / size
        out[:, cells, 4] = (block**2).sum(axis=2)
    m2 = out[..., 1]
    varying = m2 > 0
    # Scalar powers, one cell at a time: numpy's array power can round
    # differently from the scalar pow in the last bit.
    m2_varying = m2[varying]
    skewness, kurtosis = np.zeros_like(m2), np.zeros_like(m2)
    skewness[varying] = out[..., 2][varying] / np.array([m**1.5 for m in m2_varying])
    kurtosis[varying] = out[..., 3][varying] / np.array([m**2 for m in m2_varying]) - 3.0
    out[..., 2], out[..., 3] = skewness, kurtosis
    out[..., 6] = np.minimum.reduceat(values, bounds[:-1], axis=1)
    out[..., 7] = np.maximum.reduceat(values, bounds[:-1], axis=1)
    rank = np.repeat(np.arange(n), sizes)
    keys = (np.arange(n_channels)[:, None] * n + rank) * DEFAULT_LEVELS
    keys += _bins(values, out[:, rank, 6], out[:, rank, 7], DEFAULT_LEVELS)
    counts = np.bincount(keys.ravel(), minlength=n_channels * n * DEFAULT_LEVELS)
    p = counts.reshape(n_channels * n, DEFAULT_LEVELS) / np.tile(sizes, n_channels)[:, None]
    out[..., 5] = _entropy_bits(p).reshape(n_channels, n)
    return out


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
    rows, cols = np.nonzero(inside)
    if len(rows) == 0:
        raise RadiomicsError(f"cell {cell_id} has no pixels")
    edges = int(_boundary_edges(np.where(inside, 0, -1), 1)[0])
    return _shape(rows, cols, edges, pixel_spacing_um)


def _shape(rows: np.ndarray, cols: np.ndarray, edges: int, pixel_spacing_um: float) -> dict:
    """Shape features of one cell from its pixels and its boundary edge count."""
    n = len(rows)
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


def _neighbor(keys: np.ndarray, dr: int, dc: int) -> np.ndarray:
    """Map holding each pixel's neighbour at offset (dr, dc); -1 off the image."""
    h, w = keys.shape
    out = np.full_like(keys, -1)
    r0, r1 = max(0, -dr), min(h, h - dr)
    c0, c1 = max(0, -dc), min(w, w - dc)
    if r0 < r1 and c0 < c1:
        out[r0:r1, c0:c1] = keys[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
    return out


def _boundary_edges(cells: np.ndarray, n_cells: int) -> np.ndarray:
    """Per cell, the 4-neighbour edges to anything that is not the cell.

    ``cells`` holds a cell rank inside cells and -1 outside.
    """
    inside = cells >= 0
    edges = np.zeros(n_cells, dtype=np.int64)
    for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        edges += np.bincount(cells[inside & (cells != _neighbor(cells, dr, dc))], minlength=n_cells)
    return edges


def _pairs(cells: np.ndarray, pixel: np.ndarray, offsets: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Pixel indices (first, second) of every pair of pixels in one cell, over all offsets.

    ``cells`` holds a cell rank inside cells and -1 outside, ``pixel`` each
    in-cell pixel's index into the per-pixel arrays. The second pixel of a
    pair lies at offset (dr, dc) from the first; offsets are concatenated
    in order, so a repeated offset counts its pairs twice.
    """
    inside = cells >= 0
    first, second = [], []
    for dr, dc in offsets:
        same = inside & (cells == _neighbor(cells, dr, dc))
        first.append(pixel[same])
        second.append(_neighbor(pixel, dr, dc)[same])
    return np.concatenate(first), np.concatenate(second)


def _pair_counts(keys: np.ndarray, pairs: tuple, n_rows: int, levels: int) -> np.ndarray:
    """Co-occurrence counts, shape (n_rows, levels, levels), of the pixel pairs ``pairs``.

    ``keys`` holds each pixel's ``row * levels + bin``; both pixels of a pair
    lie in one cell, so a pair counts towards the first pixel's row.
    """
    first, second = pairs
    codes = keys[first] * levels + keys[second] % levels
    return np.bincount(codes, minlength=n_rows * levels * levels).reshape(n_rows, levels, levels)


def _scan_lines(pixel: np.ndarray, direction: tuple) -> tuple[np.ndarray, np.ndarray]:
    """In-cell pixel indices in the order a scan along ``direction`` meets
    them, and for each whether it begins a stretch: the pixel before it on
    its scan line is outside every cell or off the image.

    Opposite directions scan the same lines, so each direction is reduced to
    its canonical orientation. Rows are scanned on ``pixel`` itself; columns
    and diagonals on a copy sheared so each line is one of its rows (for
    columns, the transpose). Each line is led by a -1, which begins a
    stretch at every line start.
    """
    dr, dc = direction
    if dr < 0 or (dr == 0 and dc < 0):
        dr, dc = -dr, -dc
    if (dr, dc) not in RUN_DIRECTIONS:
        raise RadiomicsError(f"unsupported run direction {direction}; use unit steps")
    h, w = pixel.shape
    if dr == 0:
        lines = np.full((h, w + 1), -1)
        lines[:, 1:] = pixel
    else:
        # Line c - dc * r, shifted to start at 0, holds pixel (r, c) at position r + 1.
        r, c = np.ogrid[:h, :w]
        lines = np.full((w + (h - 1) * abs(dc), h + 1), -1)
        lines[c - dc * r + (h - 1) * (dc > 0), r + 1] = pixel
    flat = lines.ravel()
    at = np.flatnonzero(flat >= 0)
    return flat[at], flat[at - 1] < 0


def _scan(pixel: np.ndarray, directions: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``_scan_lines`` of every direction, concatenated in order."""
    lines = [_scan_lines(pixel, d) for d in directions] or [(np.empty(0, np.int64), np.empty(0, bool))]
    return np.concatenate([order for order, _ in lines]), np.concatenate([begins for _, begins in lines])


def _runs(keys: np.ndarray, begins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(key, length) of every run of ``keys`` (pixels in scan order), in order.

    A run is a maximal stretch of equal keys, so it ends at a gray-level
    change and at the cell boundary; ``begins`` marks where the scan itself
    breaks, its first pixel included. A run's end is the next run's start,
    so no sort is needed.
    """
    start = begins.copy()
    start[1:] |= keys[1:] != keys[:-1]
    at = np.flatnonzero(start)
    return keys[at], np.diff(at, append=len(keys))


def _grid_maps(q: QuantizedRegion) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cell map, pixel map, keys) of a quantized cell as a one-cell sample on its bounding-box grid."""
    grid, _, _ = q.grid()
    inside = grid >= 0
    pixel = np.full(grid.shape, -1)
    pixel[inside] = np.arange(int(inside.sum()))
    return np.where(inside, 0, -1), pixel, grid[inside]


def _glcm_probabilities(counts: np.ndarray, symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's normalized co-occurrence matrix, and its pair total (0: no pairs, P is NaN)."""
    counts = counts.astype(np.float64)
    if symmetric:
        counts = counts + counts.transpose(0, 2, 1)
    total = counts.sum(axis=(1, 2))
    with np.errstate(invalid="ignore"):
        return counts / total[:, None, None], total


def glcm(q: QuantizedRegion, offsets: tuple = DEFAULT_OFFSETS, symmetric: bool = True) -> GlcmMatrix:
    """Gray-level co-occurrence matrix over the given pixel offsets.

    A pair is counted only when both pixels lie inside the cell. Counts
    accumulate over all offsets; with ``symmetric`` the transpose is added
    before normalizing by the total pair count.
    """
    cells, pixel, keys = _grid_maps(q)
    P, total = _glcm_probabilities(_pair_counts(keys, _pairs(cells, pixel, offsets), 1, q.levels), symmetric)
    if total[0] == 0:
        raise DegenerateRegionError("no valid pixel pairs for GLCM")
    return GlcmMatrix(P=P[0], offsets=tuple(offsets), symmetric=symmetric)


def glcm_features(m: GlcmMatrix) -> dict:
    """Contrast, correlation, ASM, IDM and entropy of a normalized GLCM (see ``_glcm_block``)."""
    return dict(zip(GLCM_NAMES, _glcm_block(m.P[None])[0].tolist()))


def _glcm_block(P: np.ndarray) -> np.ndarray:
    """GLCM features, (n, 5) in ``GLCM_NAMES`` order, of normalized matrices P (n, L, L).

    Correlation is guarded to 0 when either marginal has zero standard
    deviation; entropy is in bits with 0*log(0) = 0.
    """
    n, levels = len(P), P.shape[1]
    i = np.arange(levels, dtype=np.float64)
    ii, jj = np.ix_(i, i)
    d2 = (ii - jj) ** 2
    px = P.sum(axis=2)
    py = P.sum(axis=1)
    mu_x = (i * px).sum(axis=1)
    mu_y = (i * py).sum(axis=1)
    var_x = ((i - mu_x[:, None]) ** 2 * px).sum(axis=1)
    var_y = ((i - mu_y[:, None]) ** 2 * py).sum(axis=1)

    def total(a):  # each matrix summed as one row of L*L values, as a whole-matrix sum is
        return a.reshape(n, levels * levels).sum(axis=1)

    varies = (var_x > 0) & (var_y > 0)
    correlation = np.zeros(n)
    correlation[varies] = ((total(ii * jj * P) - mu_x * mu_y)[varies]) / np.sqrt((var_x * var_y)[varies])
    return np.stack(
        [
            total(P * d2),
            correlation,
            total(P * P),
            total(P / (1.0 + d2)),
            _entropy_bits(P.reshape(n, levels * levels)),
        ],
        axis=1,
    )


def glrlm(q: QuantizedRegion, directions: tuple = DEFAULT_OFFSETS) -> GlrlmMatrix:
    """Gray-level run-length matrix over the given directions.

    A run is a maximal sequence of in-cell pixels with equal bin index along
    a direction; runs break at the cell boundary. Counts accumulate over all
    given directions; pass a single direction for a per-direction matrix.
    The length axis ends at the longest run.
    """
    _, pixel, keys = _grid_maps(q)
    order, begins = _scan(pixel, directions)
    # Every direction's scan begins a run, so runs of all directions are found at once.
    grays, lengths = _runs(keys[order], begins)
    longest = int(lengths.max()) if len(lengths) else 1
    R = np.bincount(grays * longest + lengths - 1, minlength=q.levels * longest).reshape(q.levels, longest)
    return GlrlmMatrix(R=R.astype(np.float64), directions=tuple(directions), n_runs=int(R.sum()))


def glrlm_features(m: GlrlmMatrix, n_pixels: int) -> dict:
    """Run-emphasis and non-uniformity statistics of a run-length matrix (see ``_glrlm_block``)."""
    if m.n_runs < 1:
        raise DegenerateRegionError("no runs in GLRLM")
    R = m.R
    row = _glrlm_block(
        R.sum(axis=0)[None], R.sum(axis=1)[None], np.array([R.shape[1]]), np.array([m.n_runs]), np.array([n_pixels])
    )[0]
    return dict(zip(GLRLM_NAMES, row.tolist()))


def _glrlm_block(
    by_length: np.ndarray, by_gray: np.ndarray, longest: np.ndarray, n_runs: np.ndarray, n_pixels: np.ndarray
) -> np.ndarray:
    """GLRLM features, (n, 5) in ``GLRLM_NAMES`` order, from run-length matrix marginals.

    Row i describes one cell's matrix R: ``by_length[i, l - 1]`` counts its
    runs of length l (R summed over gray levels), ``by_gray[i]`` its runs per
    gray level, and the matrix ends at length ``longest[i]``; it holds
    ``n_runs[i]`` runs over ``n_pixels[i]`` pixels. Rows are grouped by
    ``longest``, so each sum over run lengths ends at the row's own longest run.
    """
    by_length, by_gray = np.asarray(by_length, np.float64), np.asarray(by_gray, np.float64)
    nr = n_runs.astype(np.float64)
    out = np.empty((len(longest), len(GLRLM_NAMES)))
    out[:, 2] = (by_gray**2).sum(axis=1) / nr
    out[:, 4] = nr / n_pixels
    for width in np.unique(longest).tolist():
        rows = np.flatnonzero(longest == width)
        lengths = np.ascontiguousarray(by_length[rows, :width])
        squared_lengths = np.arange(1, width + 1, dtype=np.float64) ** 2
        out[rows, 0] = (lengths / squared_lengths).sum(axis=1) / nr[rows]
        out[rows, 1] = (lengths * squared_lengths).sum(axis=1) / nr[rows]
        out[rows, 3] = (lengths**2).sum(axis=1) / nr[rows]
    return out


def radiomic_feature_table(sample: Sample, config: RadiomicsConfig | None = None) -> CellTable:
    """Full radiomic feature table for one sample.

    Columns are ``shape__<name>`` once, then ``<antigen>__<name>`` per
    selected channel in stack order; rows are ``sample.cells``.
    GLCM features come from one matrix accumulated over all offsets; GLRLM
    features are averaged over per-direction matrices, which keeps run
    percentage within [0, 1]. A cell/channel whose texture is degenerate
    (e.g. a single-pixel cell has no pixel pairs) gets NaN for that feature
    family plus a warning; cells are never dropped. Pixel pairs and runs are
    counted, and the texture formulas run, for all cells of a channel at
    once, first-order for all selected channels together (see the module
    docstring); each cell's GLRLM is cut after its own longest run.
    """
    config = config or RadiomicsConfig()
    stack, mask = sample.stack, sample.mask
    ids, rows_all, cols_all, bounds = cell_pixels(mask)

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
    sizes = np.diff(bounds)
    rank = np.repeat(np.arange(n), sizes)
    cells = np.full((mask.height, mask.width), -1, dtype=np.int64)
    cells[rows_all, cols_all] = rank

    features = np.zeros((n, len(names)))
    if config.shape:
        edges = _boundary_edges(cells, n)
        for idx in range(n):
            b0, b1 = bounds[idx], bounds[idx + 1]
            shape = _shape(rows_all[b0:b1], cols_all[b0:b1], int(edges[idx]), stack.pixel_spacing_um)
            features[idx, : len(SHAPE_NAMES)] = [shape[s] for s in SHAPE_NAMES]

    values = np.empty((len(selected), len(rows_all)))
    for c, antigen in enumerate(selected):
        values[c] = channel_images[antigen].values[rows_all, cols_all]
    first_order = _first_order_block(values, bounds)
    min_col, max_col = FIRST_ORDER_NAMES.index("min"), FIRST_ORDER_NAMES.index("max")

    # The same-cell pixel pairs and the scan order depend only on the cell
    # map, so they are found once for the sample. Pairs and runs are counted
    # and the texture formulas run one channel at a time, so one channel's
    # (cells, L, L) matrices and run marginals are alive at once; all
    # channels together raised the cli_chain benchmark's peak RSS. Of the run
    # counts only the two marginals the formulas read are counted.
    levels, offsets = config.levels, config.offsets
    pixel = np.full_like(cells, -1)
    pixel[rows_all, cols_all] = np.arange(len(rows_all))
    pairs = _pairs(cells, pixel, offsets)
    order, begins = _scan(pixel, offsets)
    rows = len(offsets) * n
    texture = np.full((len(selected), n, len(GLCM_NAMES)), math.nan)
    runs = np.empty((len(selected), n, len(GLRLM_NAMES)))
    for c, antigen in enumerate(selected):
        keys = rank * levels + _bins(
            values[c], first_order[c, rank, min_col], first_order[c, rank, max_col], levels
        )
        P, pair_totals = _glcm_probabilities(_pair_counts(keys, pairs, n, levels), config.symmetric)
        paired = pair_totals > 0
        for idx in np.flatnonzero(~paired).tolist():
            warnings.warn(
                f"sample {stack.sample_id} cell {int(ids[idx])} channel {antigen}: "
                f"no valid pixel pairs, GLCM features set to NaN"
            )
        texture[c, paired] = _glcm_block(P[paired])
        # Direction d's runs count towards row d * n + cell, so directions never share a row.
        scanned = keys[order].reshape(len(offsets), -1)
        scanned += np.arange(len(offsets))[:, None] * (n * levels)
        grays, lengths = _runs(scanned.ravel(), begins)
        width = int(lengths.max())
        by_length = np.bincount(grays // levels * width + lengths - 1, minlength=rows * width).reshape(rows, width)
        by_gray = np.bincount(grays, minlength=rows * levels).reshape(rows, levels)
        # Each cell's run-length axis ends at its own longest run.
        longest = width - np.argmax(by_length[:, ::-1] > 0, axis=1)
        per_direction = _glrlm_block(by_length, by_gray, longest, by_gray.sum(axis=1), np.tile(sizes, len(offsets)))
        # Directions are added in order, as the one-cell average over directions adds them.
        runs[c] = sum(per_direction.reshape(len(offsets), n, -1)) / len(offsets)

    block = np.concatenate([first_order, texture, runs], axis=2)
    features[:, len(SHAPE_NAMES) if config.shape else 0 :] = block.transpose(1, 0, 2).reshape(n, -1)
    return replace(sample.cells, features=features, feature_names=names)
