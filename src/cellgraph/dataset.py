"""Dataset contract: on-disk formats and validated in-memory representations.

A dataset directory is described by a JSON manifest listing, per sample, the
antigen channel images, the cell label mask, the per-cell class labels, and
the case diagnosis. Formats are chosen to round-trip bit-exactly:

* channels: binary 16-bit grayscale PGM (``P5``, maxval 65535, big-endian
  samples per the PGM standard),
* masks: ``CGMK`` header (magic + u16 width + u16 height, little-endian)
  followed by row-major u32 little-endian labels (0 = background),
* labels: CSV ``cell_id,class_label`` with class_label in {0, 1, -1},
  -1 marking unlabeled cells for the semi-supervised setting.

Trained models (GRAND, random forest, gradient boosting) share one model
file: the magic ``CGMD1``, a u64 little-endian body length, and an ASCII
JSON body (sorted keys) holding the model ``kind``, its config and its
parameters. Floats are written by ``repr``, so weights round-trip exactly.

Every file the package reads or writes goes through this module:
``read_bytes``, ``read_lines`` and ``read_json`` raise the caller's error type
naming the path, and ``write_bytes`` replaces a file atomically.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import numbers
import os
import struct
import types
import typing
from dataclasses import dataclass, field

import numpy as np

CLASS_HEALTHY = 0
CLASS_TUMOR = 1
CLASS_UNLABELED = -1

DIAGNOSES = ("melanoma", "healthy")

_MANIFEST_KEYS = {"pixel_spacing_um", "samples"}
_SAMPLE_KEYS = {"sample_id", "diagnosis", "channels", "mask_path", "labels_path"}
_CHANNEL_KEYS = {"antigen", "path"}


class DatasetError(Exception):
    """Raised when a dataset file is missing, malformed, or inconsistent."""


class Open(float):
    """A ``check_field`` bound that the value itself may not take."""


def check_field(key: str, value, kind, lo=-math.inf, hi=math.inf) -> None:
    """Raise ValueError naming config ``key`` unless ``value`` is a ``kind`` in [lo, hi].

    ``kind`` is ``bool``, ``int`` (integers only) or ``float`` (any finite
    real), or one of them ``| None`` to take None too; a bool is only a
    ``bool``. A bound given as ``Open(x)`` excludes x itself.
    """
    if isinstance(kind, types.UnionType):
        if value is None:
            return
        kind = typing.get_args(kind)[0]
    if kind is bool:
        ok, wanted = True, "true or false"
    elif kind is int:
        ok, wanted = isinstance(value, numbers.Integral), "an integer"
    else:
        ok, wanted = isinstance(value, numbers.Real) and math.isfinite(value), "a finite number"
    if isinstance(value, bool) != (kind is bool) or not ok:
        raise ValueError(f"{key} must be {wanted}, got {value!r}")
    if isinstance(lo, Open) and value == lo:
        raise ValueError(f"{key} must be > {lo}, got {value!r}")
    if isinstance(hi, Open) and value == hi:
        raise ValueError(f"{key} must be < {hi}, got {value!r}")
    if not lo <= value <= hi:
        left, right = "(" if isinstance(lo, Open) else "[", ")" if isinstance(hi, Open) else "]"
        raise ValueError(f"{key} must lie in {left}{lo}, {hi}{right}, got {value!r}")


def check_fields(config, rules: dict) -> None:
    """Check each field of ``config`` that ``rules`` names: ``rules`` maps a
    field to the ``(kind[, lo[, hi]])`` that ``check_field`` takes."""
    for key, rule in rules.items():
        check_field(key, getattr(config, key), *rule)


def config_from_dict(cls, raw: dict, error: type = ValueError):
    """``cls(**raw)`` for a config dataclass. A ``raw`` that is not a dict, a
    key that is not a field and a value the config refuses raise ``error``."""
    name = cls.__name__.removesuffix("Config").lower()
    if not isinstance(raw, dict):
        raise error(f"expected a dict of {name} arguments, got {raw!r}")
    unknown = set(raw) - set(cls.__dataclass_fields__)
    if unknown:
        raise error(f"unknown {name} config keys: {sorted(unknown)}")
    try:
        return cls(**raw)
    except ValueError as exc:
        raise error(str(exc)) from None


@dataclass(frozen=True)
class ChannelImage:
    """One grayscale antigen response image; ``values`` is (height, width) u16."""

    width: int
    height: int
    values: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise DatasetError(f"image dimensions must be >= 1, got {self.width}x{self.height}")
        if self.values.shape != (self.height, self.width):
            raise DatasetError(
                f"value buffer shape {self.values.shape} does not match "
                f"{self.height}x{self.width}"
            )
        if self.values.dtype != np.uint16:
            raise DatasetError(f"channel values must be uint16, got {self.values.dtype}")


@dataclass(frozen=True)
class StainStack:
    """All antigen channels of one sample plus the pixel spacing in um/pixel."""

    sample_id: str
    channels: tuple  # of (antigen_name, ChannelImage)
    pixel_spacing_um: float

    def __post_init__(self):
        if len(self.channels) < 1:
            raise DatasetError(f"sample {self.sample_id}: at least one channel required")
        if self.pixel_spacing_um <= 0:
            raise DatasetError(f"sample {self.sample_id}: pixel_spacing_um must be > 0")
        names = [name for name, _ in self.channels]
        if len(set(names)) != len(names):
            raise DatasetError(f"sample {self.sample_id}: duplicate antigen names")
        w, h = self.width, self.height
        for name, img in self.channels:
            if (img.width, img.height) != (w, h):
                raise DatasetError(
                    f"sample {self.sample_id}: channel {name} is "
                    f"{img.width}x{img.height}, expected {w}x{h}"
                )

    @property
    def width(self) -> int:
        return self.channels[0][1].width

    @property
    def height(self) -> int:
        return self.channels[0][1].height

    @property
    def antigen_names(self) -> list:
        return [name for name, _ in self.channels]


@dataclass(frozen=True)
class LabelMask:
    """Cell instance mask; ``labels`` is (height, width) u32, 0 = background."""

    width: int
    height: int
    labels: np.ndarray

    def __post_init__(self):
        if self.labels.shape != (self.height, self.width):
            raise DatasetError(
                f"mask buffer shape {self.labels.shape} does not match "
                f"{self.height}x{self.width}"
            )
        if self.labels.dtype != np.uint32:
            raise DatasetError(f"mask labels must be uint32, got {self.labels.dtype}")


@dataclass
class CellTable:
    """Per-cell records: ids, sample, centroid (x, y in pixels), label, features.

    Centroid x is the column coordinate and y the row coordinate. Feature
    vectors have uniform length equal to ``len(feature_names)``.
    """

    cell_ids: np.ndarray
    sample_ids: list
    centroids: np.ndarray  # (n, 2) float64, columns (cx, cy)
    labels: np.ndarray  # int64, {0, 1, -1}
    features: np.ndarray  # (n, p) float64
    feature_names: list = field(default_factory=list)

    def __post_init__(self):
        n = len(self.cell_ids)
        if not (len(self.sample_ids) == n and self.centroids.shape == (n, 2) and len(self.labels) == n):
            raise DatasetError("cell table columns have inconsistent lengths")
        if self.features.shape != (n, len(self.feature_names)):
            raise DatasetError(
                f"feature matrix shape {self.features.shape} does not match "
                f"{n} cells x {len(self.feature_names)} names"
            )
        keys = self.keys()
        if len(set(keys)) != len(keys):
            raise DatasetError("(sample_id, cell_id) pairs must be unique")

    def __len__(self) -> int:
        return len(self.cell_ids)

    def keys(self) -> list:
        """The (sample_id, cell_id) pair of each row."""
        return list(zip(self.sample_ids, self.cell_ids.tolist()))


def keys_digest(keys) -> str:
    """SHA-256 (hex) of (sample_id, cell_id) pairs in order, one
    ``sample_id,cell_id`` line each: what ties an edge list to its table."""
    return hashlib.sha256("".join(f"{sid},{cid}\n" for sid, cid in keys).encode("utf-8")).hexdigest()


@dataclass
class Sample:
    """One sample: image stack, instance mask, ``{cell_id: class}`` labels and
    the case diagnosis.

    ``cells`` is derived here and nowhere else: one row per mask cell in
    ascending id, its pixel-mean centroid (x=column, y=row), its label (-1
    when ``labels`` has none) and no features yet. Raises DatasetError when
    the mask and channels differ in size, the mask holds no cell, or
    ``labels`` names a cell the mask does not hold.
    """

    stack: StainStack
    mask: LabelMask
    labels: dict
    diagnosis: str
    cells: CellTable = field(init=False)

    def __post_init__(self):
        sid, stack, mask = self.stack.sample_id, self.stack, self.mask
        if (mask.width, mask.height) != (stack.width, stack.height):
            raise DatasetError(
                f"sample {sid}: mask is {mask.width}x{mask.height}, channels are {stack.width}x{stack.height}"
            )
        ids, rows, cols, bounds = cell_pixels(mask)
        if len(ids) == 0:
            raise DatasetError(f"sample {sid}: mask contains no cells")
        ids = ids.astype(np.int64)
        orphans = sorted(set(self.labels) - set(ids.tolist()))
        if orphans:
            raise DatasetError(f"sample {sid}: labels name cells the mask does not hold: {orphans}")
        self.cells = CellTable(
            cell_ids=ids,
            sample_ids=[sid] * len(ids),
            centroids=cell_means(np.column_stack([cols, rows]), bounds),
            labels=np.array([self.labels.get(cid, CLASS_UNLABELED) for cid in ids.tolist()], dtype=np.int64),
            features=np.zeros((len(ids), 0)),
        )


@dataclass
class Dataset:
    samples: list
    pixel_spacing_um: float


# ---------------------------------------------------------------------------
# file formats


def write_pgm(path: str, image: ChannelImage) -> None:
    """Write a binary 16-bit PGM (P5, maxval 65535, big-endian samples)."""
    header = f"P5\n{image.width} {image.height}\n65535\n".encode("ascii")
    write_bytes(path, header + image.values.astype(">u2").tobytes())


def read_pgm(path: str) -> ChannelImage:
    data = read_bytes(path, "channel file")
    magic, pos = _pgm_token(data, 0, path)
    if magic != b"P5":
        raise DatasetError(f"{path}: not a binary PGM (magic {magic!r})")
    fields = []
    for _ in range(3):
        tok, pos = _pgm_token(data, pos, path)
        fields.append(tok)
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError as exc:
        raise DatasetError(f"{path}: malformed PGM header") from exc
    if maxval != 65535:
        raise DatasetError(f"{path}: expected maxval 65535, got {maxval}")
    if width < 1 or height < 1:
        raise DatasetError(f"{path}: image dimensions must be >= 1, got {width}x{height}")
    expected = width * height * 2
    body = data[pos : pos + expected]
    if len(body) != expected:
        raise DatasetError(f"{path}: truncated pixel data ({len(body)} of {expected} bytes)")
    values = np.frombuffer(body, dtype=">u2").reshape(height, width).astype(np.uint16)
    return ChannelImage(width=width, height=height, values=values)


def _pgm_token(data: bytes, pos: int, path: str) -> tuple[bytes, int]:
    # Skips whitespace and '#' comment lines; a single whitespace byte ends
    # the maxval token and precedes the raster.
    n = len(data)
    while pos < n:
        byte = data[pos : pos + 1]
        if byte == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif byte.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise DatasetError(f"{path}: malformed PGM header (unexpected end of file)")
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos + 1


_MASK_MAGIC = b"CGMK"


def write_mask(path: str, mask: LabelMask) -> None:
    header = _MASK_MAGIC + struct.pack("<HH", mask.width, mask.height)
    write_bytes(path, header + mask.labels.astype("<u4").tobytes())


def read_mask(path: str) -> LabelMask:
    data = read_bytes(path, "mask file")
    if len(data) < 8 or data[:4] != _MASK_MAGIC:
        raise DatasetError(f"{path}: bad mask header (expected magic {_MASK_MAGIC!r})")
    width, height = struct.unpack("<HH", data[4:8])
    expected = width * height * 4
    body = data[8 : 8 + expected]
    if len(body) != expected:
        raise DatasetError(f"{path}: truncated mask data ({len(body)} of {expected} bytes)")
    labels = np.frombuffer(body, dtype="<u4").reshape(height, width).astype(np.uint32)
    return LabelMask(width=width, height=height, labels=labels)


def write_labels_csv(path: str, cell_ids, class_labels) -> None:
    lines = ["cell_id,class_label"]
    for cid, lab in zip(cell_ids, class_labels):
        lines.append(f"{int(cid)},{int(lab)}")
    write_lines(path, lines)


def _read_csv(path: str, what: str) -> list:
    """Every row of the CSV file at ``path``; a defect raises DatasetError
    naming the path and, for an unreadable file, ``what`` it should hold."""
    try:
        return list(csv.reader(read_lines(path, what)))
    except csv.Error as exc:
        raise DatasetError(f"{path}: malformed CSV ({exc})") from None


def read_labels_csv(path: str) -> dict:
    """Read ``cell_id,class_label`` rows into an ordered {cell_id: label} map."""
    rows = _read_csv(path, "labels file")
    if not rows or rows[0] != ["cell_id", "class_label"]:
        raise DatasetError(f"{path}: expected header 'cell_id,class_label'")
    labels = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            cid, lab = int(row[0]), int(row[1])
        except (ValueError, IndexError) as exc:
            raise DatasetError(f"{path}:{lineno}: malformed label row {row!r}") from exc
        if lab not in (CLASS_HEALTHY, CLASS_TUMOR, CLASS_UNLABELED):
            raise DatasetError(f"{path}:{lineno}: class_label must be 0, 1 or -1, got {lab}")
        if cid in labels:
            raise DatasetError(f"{path}:{lineno}: duplicate cell_id {cid}")
        labels[cid] = lab
    return labels


# ---------------------------------------------------------------------------
# manifest / dataset


def load_manifest(manifest_path: str) -> dict:
    manifest = read_json(manifest_path, "manifest")
    _require_keys(manifest, _MANIFEST_KEYS, f"{manifest_path}: manifest")
    if not isinstance(manifest["samples"], list) or not manifest["samples"]:
        raise DatasetError(f"{manifest_path}: manifest must list at least one sample")
    spacing = manifest["pixel_spacing_um"]
    if isinstance(spacing, bool) or not (isinstance(spacing, (int, float)) and 0 < spacing < math.inf):
        raise DatasetError(f"{manifest_path}: pixel_spacing_um must be a positive finite number")
    for entry in manifest["samples"]:
        _require_keys(entry, _SAMPLE_KEYS, f"{manifest_path}: sample entry")
        where = f"{manifest_path}: sample {entry['sample_id']!r}"
        _check_csv_name(entry["sample_id"], "sample_id", where)
        if entry["diagnosis"] not in DIAGNOSES:
            raise DatasetError(
                f"{manifest_path}: sample {entry['sample_id']}: diagnosis must be one of {DIAGNOSES}"
            )
        if not entry["channels"]:
            raise DatasetError(f"{manifest_path}: sample {entry['sample_id']}: no channels listed")
        for ch in entry["channels"]:
            _require_keys(ch, _CHANNEL_KEYS, f"{manifest_path}: channel entry")
            _check_csv_name(ch["antigen"], "antigen", where)
    return manifest


def _check_csv_name(name, what: str, where: str) -> None:
    """Refuse a name that a feature CSV field cannot hold: the CSV is written
    unquoted and read as CSV, so a comma, quote or line break changes its fields."""
    if not isinstance(name, str) or not name or any(c in name for c in ',"\r\n'):
        raise DatasetError(
            f"{where}: {what} {name!r} must be a non-empty string without commas, double quotes or line breaks"
        )


def _require_keys(obj: dict, allowed: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise DatasetError(f"{where}: expected a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise DatasetError(f"{where}: unknown keys {sorted(unknown)}")
    missing = allowed - set(obj)
    if missing:
        raise DatasetError(f"{where}: missing keys {sorted(missing)}")


def load_dataset(manifest_path: str) -> Dataset:
    """Load every sample referenced by the manifest.

    Unreadable or malformed files and samples that ``Sample`` rejects (a
    mask/channel size mismatch, an empty mask, a labels row naming a cell the
    mask does not hold) raise DatasetError naming the sample_id and paths.
    """
    manifest = load_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    spacing = float(manifest["pixel_spacing_um"])
    samples = []
    for entry in manifest["samples"]:
        sid = entry["sample_id"]
        mask_path = os.path.join(base, entry["mask_path"])
        labels_path = os.path.join(base, entry["labels_path"])
        try:
            channels = tuple((ch["antigen"], read_pgm(os.path.join(base, ch["path"]))) for ch in entry["channels"])
            mask = read_mask(mask_path)
            label_map = read_labels_csv(labels_path)
            stack = StainStack(sample_id=sid, channels=channels, pixel_spacing_um=spacing)
        except DatasetError as exc:
            raise DatasetError(f"sample {sid}: {exc}") from exc
        try:
            samples.append(Sample(stack=stack, mask=mask, labels=label_map, diagnosis=entry["diagnosis"]))
        except DatasetError as exc:
            raise DatasetError(f"{exc} (mask {mask_path}, labels {labels_path})") from None
    return Dataset(samples=samples, pixel_spacing_um=spacing)


def cell_pixels(mask: LabelMask):
    """Group the mask's foreground pixels by cell.

    Returns ``(ids, rows, cols, bounds)``: the cell ids in ascending order,
    the pixel coordinates sorted by cell id (row-major within each cell),
    and ``bounds`` of length ``len(ids) + 1`` such that cell ``ids[i]`` owns
    ``rows[bounds[i]:bounds[i + 1]]``.
    """
    rows, cols = np.nonzero(mask.labels)
    labels = mask.labels[rows, cols]
    order = np.argsort(labels, kind="stable")
    ids, starts = np.unique(labels[order], return_index=True)
    return ids, rows[order], cols[order], np.append(starts, len(order))


def cell_means(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Row i is the float64 mean of ``values[bounds[i]:bounds[i + 1]]`` along axis 0.

    ``values`` is (pixels, k) in ``cell_pixels`` order. For integer inputs
    the sums are exact, so they equal a per-cell ``mean()`` bit for bit.
    """
    return np.add.reduceat(values.astype(np.float64), bounds[:-1], axis=0) / np.diff(bounds)[:, None]


def class_reduce(ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc`` (np.add or np.maximum) over the class axis, the last, kept
    as a length-1 axis, with the bits of ``ufunc.reduce(x, axis=-1)``.

    Below 8 classes numpy's own row reduction combines the columns in
    order, so doing that one column at a time gives its bits in a few
    whole-array calls instead of one short inner loop per row.
    """
    C = x.shape[-1]
    if not 2 <= C < 8:
        return ufunc.reduce(x, axis=-1, keepdims=True)
    out = ufunc(x[..., :1], x[..., 1:2])
    for c in range(2, C):
        ufunc(out, x[..., c : c + 1], out=out)
    return out


def pool_tables(tables: list) -> CellTable:
    """Concatenate cell tables with rows sorted by (sample_id, cell_id)."""
    if not tables:
        raise DatasetError("no cell tables to pool")
    names = tables[0].feature_names
    if any(t.feature_names != names for t in tables):
        raise DatasetError("feature names differ across cell tables")
    sample_ids = [sid for t in tables for sid in t.sample_ids]
    cell_ids = np.concatenate([t.cell_ids for t in tables])
    order = np.lexsort((cell_ids, np.array(sample_ids)))
    return CellTable(
        cell_ids=cell_ids[order],
        sample_ids=[sample_ids[i] for i in order],
        centroids=np.concatenate([t.centroids for t in tables])[order],
        labels=np.concatenate([t.labels for t in tables])[order],
        features=np.concatenate([t.features for t in tables])[order],
        feature_names=list(names),
    )


def save_dataset(dataset: Dataset, out_dir: str) -> str:
    """Serialize a dataset to a fresh directory tree; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for sample in dataset.samples:
        sid = sample.stack.sample_id
        sample_dir = os.path.join(out_dir, sid)
        os.makedirs(sample_dir, exist_ok=True)
        channels = []
        for antigen, image in sample.stack.channels:
            rel = f"{sid}/{antigen}.pgm"
            write_pgm(os.path.join(out_dir, rel), image)
            channels.append({"antigen": antigen, "path": rel})
        mask_rel = f"{sid}/mask.cgmk"
        write_mask(os.path.join(out_dir, mask_rel), sample.mask)
        labels_rel = f"{sid}/labels.csv"
        write_labels_csv(os.path.join(out_dir, labels_rel), sample.cells.cell_ids, sample.cells.labels)
        entries.append(
            {
                "sample_id": sid,
                "diagnosis": sample.diagnosis,
                "channels": channels,
                "mask_path": mask_rel,
                "labels_path": labels_rel,
            }
        )
    manifest = {"pixel_spacing_um": dataset.pixel_spacing_um, "samples": entries}
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_json(manifest_path, manifest)
    return manifest_path


# ---------------------------------------------------------------------------
# feature table CSV (shared by the expression and radiomics extractors)


def format_float(x: float) -> str:
    """``x`` as text with 17 significant digits: an exact float64 round trip."""
    return format(float(x), ".17g")


def write_feature_csv(path: str, table: CellTable) -> None:
    lines = ["cell_id,sample_id,cx,cy,label," + ",".join(table.feature_names)]
    if not table.feature_names:
        lines[0] = lines[0].rstrip(",")
    # "%.17g" % x is format_float(x): one format string per row, not one call
    # per value. Features are listed a row at a time; the whole table as
    # Python floats would hold about 32 bytes per value at once.
    row = "%d,%s,%.17g,%.17g,%d" + ",%.17g" * len(table.feature_names)
    columns = zip(table.cell_ids.tolist(), table.sample_ids, table.centroids.tolist(), table.labels.tolist(),
                  table.features)
    lines += [row % (cell_id, sample_id, *centroid, label, *features.tolist())
              for cell_id, sample_id, centroid, label, features in columns]
    write_lines(path, lines)


def _feature_csv_body(path: str) -> tuple:
    """(feature names, [(line number, row), ...]) of a feature table CSV,
    blank lines skipped, after checking the header."""
    rows = _read_csv(path, "feature table")
    if not rows or rows[0][:5] != ["cell_id", "sample_id", "cx", "cy", "label"]:
        raise DatasetError(f"{path}:1: expected feature table header")
    return rows[0][5:], [(lineno, row) for lineno, row in enumerate(rows[1:], start=2) if row]


def _row_id_and_label(path: str, lineno: int, row: list, width: int) -> tuple:
    """(cell_id, label) of a feature table row of ``width`` fields, checked."""
    if len(row) != width:
        raise DatasetError(f"{path}:{lineno}: row has {len(row)} fields, expected {width}")
    try:
        cell_id, label = int(row[0]), int(row[4])
        np.int64(cell_id)  # an id must fit the int64 cell_ids column
    except (ValueError, OverflowError) as exc:
        raise DatasetError(f"{path}:{lineno}: malformed feature row: {exc}") from exc
    if label not in (CLASS_HEALTHY, CLASS_TUMOR, CLASS_UNLABELED):
        raise DatasetError(f"{path}:{lineno}: label must be 0, 1 or -1, got {label}")
    return cell_id, label


def read_feature_csv(path: str) -> CellTable:
    names, body = _feature_csv_body(path)
    n = len(body)
    cell_ids = np.zeros(n, dtype=np.int64)
    sample_ids = []
    centroids = np.zeros((n, 2))
    labels = np.zeros(n, dtype=np.int64)
    features = np.zeros((n, len(names)))
    for i, (lineno, row) in enumerate(body):
        cell_ids[i], labels[i] = _row_id_and_label(path, lineno, row, 5 + len(names))
        try:
            centroids[i] = (float(row[2]), float(row[3]))
            features[i] = [float(v) for v in row[5:]]
        except ValueError as exc:
            raise DatasetError(f"{path}:{lineno}: malformed feature row: {exc}") from exc
        sample_ids.append(row[1])
    try:
        return CellTable(
            cell_ids=cell_ids,
            sample_ids=sample_ids,
            centroids=centroids,
            labels=labels,
            features=features,
            feature_names=names,
        )
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def read_feature_labels(path: str) -> dict:
    """The label column of a feature table as {(sample_id, cell_id): label}.

    Checks the header, each row's field count, cell ids and labels as
    ``read_feature_csv`` does, and that keys are unique; centroids and
    feature values are not parsed.
    """
    names, body = _feature_csv_body(path)
    labels = {}
    for lineno, row in body:
        cell_id, label = _row_id_and_label(path, lineno, row, 5 + len(names))
        key = (row[1], cell_id)
        if key in labels:
            raise DatasetError(f"{path}:{lineno}: duplicate (sample_id, cell_id) {key}")
        labels[key] = label
    return labels


# ---------------------------------------------------------------------------
# model file (GRAND checkpoints, forests and boosting models)

MODEL_MAGIC = b"CGMD1"


def write_model_file(path: str, payload: dict) -> None:
    """Write ``payload``, a JSON object with a ``kind`` key, as a model file."""
    body = json.dumps(payload, sort_keys=True).encode("ascii")
    write_bytes(path, MODEL_MAGIC + len(body).to_bytes(8, "little") + body)


def read_model_file(path: str, error: type) -> dict:
    """The JSON body of a model file; any defect raises ``error`` naming the path."""
    blob = read_bytes(path, "model file", error)
    if blob[:5] != MODEL_MAGIC:
        raise error(f"{path}: not a model file")
    # a header cut short declares at least 13 bytes, so the size check covers it
    expected = 13 + int.from_bytes(blob[5:13], "little")
    if expected != len(blob):
        raise error(f"{path}: model size mismatch ({len(blob)} bytes, header declares {expected})")
    try:
        payload = json.loads(blob[13:].decode("ascii"))
    except (ValueError, RecursionError) as exc:  # JSON and ASCII decode errors are ValueErrors
        raise error(f"{path}: malformed model payload ({type(exc).__name__}: {exc})") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("kind"), str):
        raise error(f"{path}: malformed model payload (no model kind)")
    return payload


# ---------------------------------------------------------------------------
# file access: every read and write of the package goes through these


def read_bytes(path: str, what: str, error: type = DatasetError) -> bytes:
    """The bytes of the file at ``path``; an unreadable file (missing, a
    directory, no permission) raises ``error`` naming ``what`` it should hold
    and the path."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def read_lines(path: str, what: str, error: type = DatasetError):
    """Yield the lines of the UTF-8 text file at ``path`` with their line ends
    as stored, split where a file opened with ``newline=""`` splits them (LF,
    CRLF, CR). Bytes that are not UTF-8 raise ``error`` naming the path.
    Lines are decoded as they are read, so only the bytes are held whole.
    """
    data = read_bytes(path, what, error)
    try:
        yield from io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from None


def read_json(path: str, what: str, error: type = DatasetError):
    """The JSON value in the UTF-8 file at ``path``; invalid JSON raises
    ``error`` naming the path."""
    text = "".join(read_lines(path, what, error))
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and the int-digit limit are ValueErrors
        raise error(f"{path}: invalid JSON: {exc}") from exc


def write_bytes(path: str, data: bytes) -> None:
    """Replace the file at ``path`` with ``data`` atomically, through ``path.tmp``."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def write_lines(path: str, lines: list) -> None:
    """Write ASCII ``lines``, each ended by a newline."""
    write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))


def write_json(path: str, value) -> None:
    """Write ``value`` as ASCII JSON with sorted keys, a two-space indent and
    a final newline."""
    write_bytes(path, (json.dumps(value, indent=2, sort_keys=True) + "\n").encode("ascii"))
