import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellgraph.cli import StageError, _load_json
from cellgraph.dataset import (
    ChannelImage,
    DatasetError,
    Open,
    cell_pixels,
    check_field,
    format_float,
    load_dataset,
    load_manifest,
    pool_tables,
    read_feature_csv,
    read_feature_labels,
    read_labels_csv,
    read_mask,
    read_pgm,
    save_dataset,
    write_feature_csv,
    write_json,
    write_labels_csv,
    write_mask,
    write_pgm,
    CellTable,
)
from cellgraph.experiment import ExperimentError, load_report
from cellgraph.graphs import CellGraph, GraphError, read_edge_list, write_edge_list
from cellgraph.trees import TreeError, load_model
from conftest import make_mask, make_sample


def write_minimal_dataset(root, mask_values=None, skip_mask=False):
    """One sample, two 4x4 channels, labels for both cells."""
    os.makedirs(root / "s01", exist_ok=True)
    rng = np.random.default_rng(3)
    for name in ("agA", "agB"):
        img = ChannelImage(width=4, height=4, values=rng.integers(0, 65536, (4, 4)).astype(np.uint16))
        write_pgm(str(root / "s01" / f"{name}.pgm"), img)
    if mask_values is None:
        mask_values = np.array(
            [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 2], [0, 0, 2, 2]], dtype=np.uint32
        )
    if not skip_mask:
        write_mask(str(root / "s01" / "mask.cgmk"), make_mask(mask_values))
    write_labels_csv(str(root / "s01" / "labels.csv"), [1, 2], [0, 1])
    manifest = {
        "pixel_spacing_um": 0.45,
        "samples": [
            {
                "sample_id": "s01",
                "diagnosis": "melanoma",
                "channels": [
                    {"antigen": "agA", "path": "s01/agA.pgm"},
                    {"antigen": "agB", "path": "s01/agB.pgm"},
                ],
                "mask_path": "s01/mask.cgmk",
                "labels_path": "s01/labels.csv",
            }
        ],
    }
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest))
    return str(path)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = ChannelImage(width=7, height=5, values=rng.integers(0, 65536, (5, 7)).astype(np.uint16))
    path = str(tmp_path / "x.pgm")
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.width == 7 and back.height == 5
    np.testing.assert_array_equal(back.values, img.values)


def test_pgm_accepts_full_size(tmp_path):
    # production images are 2018x2018; the format must take them
    values = np.zeros((2018, 2018), dtype=np.uint16)
    values[0, 0] = 65535
    path = str(tmp_path / "big.pgm")
    write_pgm(path, ChannelImage(width=2018, height=2018, values=values))
    back = read_pgm(path)
    assert back.values.shape == (2018, 2018)
    assert back.values[0, 0] == 65535


def test_pgm_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n4 4\n65535\n" + b"\x00" * 32)
    with pytest.raises(DatasetError, match="not a binary PGM"):
        read_pgm(str(path))
    path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 16)
    with pytest.raises(DatasetError, match="maxval"):
        read_pgm(str(path))


@pytest.mark.parametrize("header, pixels", [(b"P5\n-1 -2\n65535\n", 4), (b"P5\n0 2\n65535\n", 0)])
def test_pgm_rejects_non_positive_dimensions_naming_path(tmp_path, header, pixels):
    path = tmp_path / "bad.pgm"
    path.write_bytes(header + b"\x00" * pixels)
    with pytest.raises(DatasetError, match=re.escape(f"{path}: image dimensions must be >= 1")):
        read_pgm(str(path))


def test_mask_round_trip(tmp_path):
    mask = make_mask([[0, 1], [2, 2]])
    path = str(tmp_path / "m.cgmk")
    write_mask(path, mask)
    back = read_mask(path)
    np.testing.assert_array_equal(back.labels, mask.labels)


def test_mask_rejects_truncation(tmp_path):
    path = tmp_path / "m.cgmk"
    write_mask(str(path), make_mask([[0, 1], [2, 2]]))
    data = path.read_bytes()
    path.write_bytes(data[:-4])
    with pytest.raises(DatasetError, match="truncated"):
        read_mask(str(path))


def test_load_minimal_manifest(tmp_path):
    manifest = write_minimal_dataset(tmp_path)
    data = load_dataset(manifest)
    assert len(data.samples) == 1
    sample = data.samples[0]
    assert len(sample.stack.channels) == 2
    assert sample.stack.antigen_names == ["agA", "agB"]
    assert list(sample.cells.cell_ids) == [1, 2]
    assert list(sample.cells.labels) == [0, 1]


def test_load_missing_mask_names_path(tmp_path):
    manifest = write_minimal_dataset(tmp_path, skip_mask=True)
    with pytest.raises(DatasetError, match="mask.cgmk"):
        load_dataset(manifest)


def test_manifest_rejects_unknown_keys(tmp_path):
    manifest = write_minimal_dataset(tmp_path)
    raw = json.loads(open(manifest).read())
    raw["exttra"] = 1
    open(manifest, "w").write(json.dumps(raw))
    with pytest.raises(DatasetError, match="unknown keys"):
        load_dataset(manifest)
    open(manifest, "wb").write(b'{"pixel_spacing_um": \xff}')
    with pytest.raises(DatasetError, match=re.escape(f"{manifest}: not UTF-8")):
        load_dataset(manifest)


@pytest.mark.parametrize("spacing", [True, False, 0, -0.5, float("inf"), float("nan"), "0.45", None])
def test_manifest_rejects_bad_pixel_spacing_naming_path(tmp_path, spacing):
    manifest = write_minimal_dataset(tmp_path)
    raw = json.loads(open(manifest).read())
    raw["pixel_spacing_um"] = spacing
    open(manifest, "w").write(json.dumps(raw))
    with pytest.raises(DatasetError, match=re.escape(f"{manifest}: pixel_spacing_um must be a positive finite number")):
        load_dataset(manifest)


@pytest.mark.parametrize("where", ["sample_id", "antigen"])
@pytest.mark.parametrize("name", [7, None, "", "CD3,CD4", 'CD"3', "CD3\r", "CD3\nCD4"])
def test_manifest_rejects_names_a_feature_csv_cannot_hold(tmp_path, where, name):
    # an antigen "CD3,CD4" once gave a header one field longer than its rows,
    # and an integer sample_id a bare "expected str instance, int found"
    manifest = write_minimal_dataset(tmp_path)
    raw = json.loads(open(manifest).read())
    entry = raw["samples"][0]
    if where == "sample_id":
        entry["sample_id"] = name
    else:
        entry["channels"][1]["antigen"] = name
    open(manifest, "w").write(json.dumps(raw))
    message = (f"{manifest}: sample {entry['sample_id']!r}: {where} {name!r} must be a non-empty string "
               "without commas, double quotes or line breaks")
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        load_dataset(manifest)


def test_synthetic_dataset_preserves_diagnosis_split(tmp_path):
    # production cohort statistics: 27 cases, 20 melanoma
    from cellgraph.synth import SynthConfig, generate_synthetic_dataset

    config = SynthConfig(
        n_samples=27, n_melanoma=20, cells_per_sample=12, image_size=48, n_channels=2, seed=1
    )
    out = str(tmp_path / "d")
    generate_synthetic_dataset(config, out)
    data = load_dataset(os.path.join(out, "manifest.json"))
    diagnoses = [s.diagnosis for s in data.samples]
    assert diagnoses.count("melanoma") == 20
    assert diagnoses.count("healthy") == 7


def test_sample_cells_follow_the_mask():
    mask_values = [[3, 0, 1], [3, 0, 0]]
    sample = make_sample([np.zeros((2, 3))], mask_values, labels={3: 1})
    assert sample.cells.cell_ids.tolist() == [1, 3]
    assert sample.cells.labels.tolist() == [-1, 1]  # a cell with no label is unlabeled
    assert sample.cells.centroids.tolist() == [[2.0, 0.0], [0.0, 0.5]]
    with pytest.raises(DatasetError, match=re.escape("labels name cells the mask does not hold: [2]")):
        make_sample([np.zeros((2, 3))], mask_values, labels={2: 0, 3: 1})


def test_orphan_labels_row_fails_load(tmp_path):
    manifest = write_minimal_dataset(tmp_path)
    mask_path, labels_path = tmp_path / "s01" / "mask.cgmk", tmp_path / "s01" / "labels.csv"
    write_labels_csv(str(labels_path), [1, 2, 9], [0, 1, 1])
    with pytest.raises(DatasetError, match=re.escape(f"[9] (mask {mask_path}, labels {labels_path})")):
        load_dataset(manifest)


def test_validate_flags_dimension_mismatch(tmp_path):
    # a 5x5 mask over 4x4 channels is rejected when the dataset loads
    mask_values = np.pad([[1, 1], [2, 2]], ((0, 3), (0, 3)))
    manifest = write_minimal_dataset(tmp_path, mask_values=mask_values)
    with pytest.raises(DatasetError, match="sample s01: mask is 5x5, channels are 4x4"):
        load_dataset(manifest)


def test_empty_mask_fails_load(tmp_path):
    manifest = write_minimal_dataset(tmp_path, mask_values=np.zeros((4, 4)))
    with pytest.raises(DatasetError, match=re.escape(f"no cells (mask {tmp_path / 's01' / 'mask.cgmk'}")):
        load_dataset(manifest)


def test_save_load_round_trip_bit_exact(tiny_dataset_dir, tmp_path):
    data = load_dataset(os.path.join(tiny_dataset_dir, "manifest.json"))
    second = str(tmp_path / "copy")
    save_dataset(data, second)
    again = load_dataset(os.path.join(second, "manifest.json"))
    assert len(again.samples) == len(data.samples)
    for a, b in zip(data.samples, again.samples):
        assert a.diagnosis == b.diagnosis
        np.testing.assert_array_equal(a.mask.labels, b.mask.labels)
        np.testing.assert_array_equal(a.cells.labels, b.cells.labels)
        for (name_a, img_a), (name_b, img_b) in zip(a.stack.channels, b.stack.channels):
            assert name_a == name_b
            np.testing.assert_array_equal(img_a.values, img_b.values)


def test_feature_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(8)
    table = CellTable(
        cell_ids=np.arange(1, 6, dtype=np.int64),
        sample_ids=["s01"] * 5,
        centroids=rng.normal(size=(5, 2)) * 1000,
        labels=np.array([0, 1, -1, 1, 0]),
        features=rng.normal(size=(5, 3)) * rng.uniform(1e-8, 1e8, (5, 3)),
        feature_names=["a", "b", "c"],
    )
    table.features[0] = [0.0, -0.0, 5e-324]
    path = str(tmp_path / "t.csv")
    write_feature_csv(path, table)
    # a row is formatted at once; each field is still format_float's text
    for i, line in enumerate(open(path).read().splitlines()[1:]):
        values = [*table.centroids[i], *table.features[i]]
        assert line.split(",") == [str(i + 1), "s01", *map(format_float, values[:2]), str(table.labels[i]),
                                   *map(format_float, values[2:])]
    back = read_feature_csv(path)
    np.testing.assert_array_equal(back.cell_ids, table.cell_ids)
    np.testing.assert_array_equal(back.labels, table.labels)
    # 17 significant digits means exact float64 round trip
    np.testing.assert_array_equal(back.features, table.features)
    np.testing.assert_array_equal(back.centroids, table.centroids)


def test_labels_csv_rejects_bad_class(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("cell_id,class_label\n1,5\n")
    from cellgraph.dataset import read_labels_csv

    with pytest.raises(DatasetError, match="class_label"):
        read_labels_csv(str(path))
    path.write_bytes(b"cell_id,class_label\n1,\xff\n")
    with pytest.raises(DatasetError, match=re.escape(f"{path}: not UTF-8")):
        read_labels_csv(str(path))


def test_feature_csv_bad_number_names_path_and_line(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("cell_id,sample_id,cx,cy,label,f\n1,s01,1,2,0,3\nx,s01,1,2,0,3\n")
    with pytest.raises(DatasetError, match=f"{path}:3"):
        read_feature_csv(str(path))
    path.write_text("cell_id,sample_id,cx,cy,label,f\n1,s01,1,2,7,3\n")
    with pytest.raises(DatasetError, match=re.escape(f"{path}:2: label must be 0, 1 or -1")):
        read_feature_csv(str(path))
    path.write_bytes(b"cell_id,sample_id,cx,cy,label,f\n1,s\xe901,1,2,0,3\n")
    with pytest.raises(DatasetError, match=re.escape(f"{path}: not UTF-8")):
        read_feature_csv(str(path))


@pytest.mark.parametrize("reader", ["labels", "features"])
def test_csv_readers_reject_oversized_field_naming_path(tmp_path, reader):
    # the csv module refuses fields over 131,072 characters
    path = tmp_path / "big.csv"
    header = "cell_id,class_label" if reader == "labels" else "cell_id,sample_id,cx,cy,label"
    path.write_text(f"{header}\n1,{'0' * 200_000}\n")
    with pytest.raises(DatasetError, match=re.escape(f"{path}: malformed CSV")):
        (read_labels_csv if reader == "labels" else read_feature_csv)(str(path))


@pytest.mark.parametrize(
    "rows, message",
    [
        (["1,s01,1,2,0,3", "1,s01,4,5,1,6"], ": (sample_id, cell_id) pairs must be unique"),
        (["99999999999999999999,s01,1,2,0,3"], ":2: malformed feature row"),
    ],
)
def test_feature_csv_bad_rows_name_path(tmp_path, rows, message):
    path = tmp_path / "f.csv"
    path.write_text("\n".join(["cell_id,sample_id,cx,cy,label,f"] + rows) + "\n")
    with pytest.raises(DatasetError, match=re.escape(f"{path}{message}")):
        read_feature_csv(str(path))


def test_feature_labels_equal_the_full_tables_labels(tmp_path):
    path = tmp_path / "f.csv"
    write_feature_csv(str(path), CellTable(
        cell_ids=np.array([3, 1, 2]), sample_ids=["s02", "s01", "s01"], centroids=np.zeros((3, 2)),
        labels=np.array([-1, 1, 0]), features=np.ones((3, 2)), feature_names=["f1", "f2"],
    ))
    table = read_feature_csv(str(path))
    assert read_feature_labels(str(path)) == dict(zip(table.keys(), table.labels.tolist()))


def test_feature_labels_do_not_parse_feature_values(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("cell_id,sample_id,cx,cy,label,f\n1,s01,?,?,1,n/a\n")
    assert read_feature_labels(str(path)) == {("s01", 1): 1}
    with pytest.raises(DatasetError, match=re.escape(f"{path}:2: malformed feature row")):
        read_feature_csv(str(path))


@pytest.mark.parametrize(
    "lines, message",
    [
        (["cell_id,sample_id,cx,cy,f", "1,s01,1,2,3"], ":1: expected feature table header"),
        ([",s01,1,2,0,3"], ":2: malformed feature row"),
        (["1,s01,1,2,0,3", "x1,s01,1,2,0,3"], ":3: malformed feature row"),
        (["99999999999999999999,s01,1,2,0,3"], ":2: malformed feature row"),
        (["1,s01,1,2,0,3", "", "2,s01,1,2,7,3"], ":4: label must be 0, 1 or -1, got 7"),
        (["1,s01,1,2,one,3"], ":2: malformed feature row"),
        (["1,s01,1,2,0"], ":2: row has 5 fields, expected 6"),
        (["1,s01,1,2,0,3", "1,s02,1,2,0,3", "1,s01,4,5,1,6"], ":4: duplicate (sample_id, cell_id) ('s01', 1)"),
    ],
)
def test_feature_labels_bad_rows_name_path_and_line(tmp_path, lines, message):
    if not lines[0].startswith("cell_id"):
        lines = ["cell_id,sample_id,cx,cy,label,f"] + lines
    path = tmp_path / "f.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match=re.escape(f"{path}{message}")):
        read_feature_labels(str(path))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda w: st.lists(
            st.lists(st.sampled_from([0, 0, 1, 2, 5, 9, 2**32 - 1]), min_size=w, max_size=w),
            min_size=1,
            max_size=7,
        )
    )
)
def test_cell_pixels_partitions_foreground_row_major(grid):
    labels = np.array(grid, dtype=np.uint32)
    ids, rows, cols, bounds = cell_pixels(make_mask(labels))
    foreground = np.flatnonzero(labels)
    np.testing.assert_array_equal(ids, np.unique(labels[labels > 0]))
    assert np.all(np.diff(ids.astype(np.int64)) > 0)
    assert bounds[0] == 0 and bounds[-1] == len(foreground) == len(rows) == len(cols)
    assert len(bounds) == len(ids) + 1 and np.all(np.diff(bounds) > 0)
    flat = rows * labels.shape[1] + cols
    np.testing.assert_array_equal(np.sort(flat), foreground)
    for cid, lo, hi in zip(ids, bounds[:-1], bounds[1:]):
        assert np.all(labels[rows[lo:hi], cols[lo:hi]] == cid)
        assert np.all(np.diff(flat[lo:hi]) > 0)  # row-major inside the cell


def test_centroids_agree_across_extractors(tiny_dataset_dir):
    from cellgraph.expression import expression_profile
    from cellgraph.radiomics import RadiomicsConfig, radiomic_feature_table

    sample = load_dataset(os.path.join(tiny_dataset_dir, "manifest.json")).samples[0]
    expr = expression_profile(sample)
    rad = radiomic_feature_table(sample, RadiomicsConfig(channels=["ag01"]))
    for table in (expr, rad):
        np.testing.assert_array_equal(table.cell_ids, sample.cells.cell_ids)
        assert table.centroids.tobytes() == sample.cells.centroids.tobytes()


def test_pool_tables_sorts_by_sample_then_cell():
    def table(sid, ids):
        n = len(ids)
        return CellTable(
            cell_ids=np.array(ids, dtype=np.int64),
            sample_ids=[sid] * n,
            centroids=np.zeros((n, 2)),
            labels=np.zeros(n, dtype=np.int64),
            features=np.array(ids, dtype=np.float64)[:, None],
            feature_names=["f"],
        )

    pooled = pool_tables([table("s10", [3, 1]), table("s02", [7, 2])])
    assert pooled.keys() == [("s02", 2), ("s02", 7), ("s10", 1), ("s10", 3)]
    np.testing.assert_array_equal(pooled.features[:, 0], [2, 7, 1, 3])
    renamed = table("s03", [1])
    renamed.feature_names = ["g"]
    with pytest.raises(DatasetError, match="feature names"):
        pool_tables([table("s01", [1]), renamed])


# ---------------------------------------------------------------------------
# model file: every defect is the loader's typed error naming the path


@pytest.fixture(scope="module")
def model_blobs(tmp_path_factory):
    """Bytes of one small GRAND, forest and boosting model file."""
    from cellgraph.grand import GrandConfig, save_checkpoint, train_grand
    from cellgraph.graphs import knn_feature_graph, normalize_adjacency
    from cellgraph.trees import BoostConfig, ForestConfig, save_model, train_gradient_boosting, train_random_forest

    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(0.0, 1.0, (6, 2)), rng.normal(4.0, 1.0, (6, 2))])
    y = np.repeat([0, 1], 6)
    train = np.arange(12) % 3 != 0
    adj = normalize_adjacency(knn_feature_graph(X, 3))
    root = tmp_path_factory.mktemp("models")
    grand = train_grand(adj, X, y, (train, ~train), GrandConfig(hidden_dim=2, max_epochs=2))
    save_checkpoint(str(root / "grand"), grand)
    save_model(str(root / "forest"), train_random_forest(X, y, ForestConfig(n_trees=1, max_depth=2)))
    save_model(str(root / "boost"), train_gradient_boosting(X, y, BoostConfig(n_rounds=1, max_depth=1)))
    return {kind: (root / kind).read_bytes() for kind in ("grand", "forest", "boost")}


def _load_both(path: str, blob: bytes) -> list:
    """Feed ``blob`` to both loaders; each returns a model or raises its own
    error naming the path. Returns the loaded models."""
    from cellgraph.grand import GrandError, load_checkpoint
    from cellgraph.trees import TreeError, load_model

    with open(path, "wb") as fh:
        fh.write(blob)
    loaded = []
    for loader, error in ((load_checkpoint, GrandError), (load_model, TreeError)):
        try:
            loaded.append(loader(path))
        except error as exc:
            assert path in str(exc)
    return loaded


def _framed(body: bytes) -> bytes:
    from cellgraph.dataset import MODEL_MAGIC

    return MODEL_MAGIC + len(body).to_bytes(8, "little") + body


def test_model_file_round_trips_and_rejects_every_truncation(model_blobs, tmp_path):
    path = str(tmp_path / "m.model")
    for kind, blob in model_blobs.items():
        assert len(_load_both(path, blob)) == 1  # the other loader refuses the other kind
        for size in range(len(blob)):
            assert _load_both(path, blob[:size]) == []
        assert _load_both(path, blob + b"\0") == []


def test_model_file_wrong_kind_raises_loader_error(model_blobs, tmp_path):
    from cellgraph.grand import GrandError, load_checkpoint
    from cellgraph.trees import TreeError, load_model

    path = tmp_path / "m.model"
    path.write_bytes(model_blobs["forest"])
    with pytest.raises(GrandError, match=re.escape(f"{path}: holds a 'forest' model")):
        load_checkpoint(str(path))
    path.write_bytes(model_blobs["grand"])
    with pytest.raises(TreeError, match=re.escape(f"{path}: holds a 'grand' model")):
        load_model(str(path))


def test_model_file_rejects_malformed_payloads(model_blobs, tmp_path):
    path = str(tmp_path / "m.model")
    grand = json.loads(model_blobs["grand"][13:])
    forest = json.loads(model_blobs["forest"][13:])
    ragged = {**grand["params"], "W1": [[0.0, 1.0], [2.0]]}
    wordy = {**grand["params"], "b2": ["zero", "one"]}
    wide = {**grand["params"], "b1": [0.0, 0.0, 0.0]}
    bodies = [
        [1, 2],
        "grand",
        {"kind": 7},
        {"kind": "grand"},
        {**grand, "params": ragged},
        {**grand, "params": wordy},
        {**grand, "params": wide},
        {**grand, "params": {**grand["params"], "W2": 10**400}},
        {**grand, "config": {**grand["config"], "temperature": "hot"}},
        {k: v for k, v in forest.items() if k != "trees"},
        {**forest, "config": [1]},
        {**forest, "extra": 1},
    ]
    for body in bodies:
        assert _load_both(path, _framed(json.dumps(body).encode("ascii"))) == []


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["grand", "forest", "boost"]), data=st.data())
def test_model_file_fuzz_raises_only_typed_errors(model_blobs, tmp_path_factory, kind, data):
    path = str(tmp_path_factory.getbasetemp() / "fuzz.model")
    blob = model_blobs[kind]
    pos = data.draw(st.integers(0, len(blob) - 1), label="flip position")
    flipped = bytearray(blob)
    flipped[pos] ^= data.draw(st.integers(1, 255), label="flip mask")
    _load_both(path, bytes(flipped))

    payload = json.loads(blob[13:])
    key = data.draw(st.sampled_from(sorted(payload)), label="key")
    value = data.draw(_json_values, label="value")
    for body in (value, {**payload, key: value}, {k: v for k, v in payload.items() if k != key}):
        _load_both(path, _framed(json.dumps(body).encode("ascii")))


def _config_classes():
    from cellgraph.experiment import ExperimentConfig, ExperimentError
    from cellgraph.grand import GrandConfig
    from cellgraph.radiomics import RadiomicsConfig
    from cellgraph.synth import SynthConfig
    from cellgraph.trees import BoostConfig, ForestConfig

    return [
        (SynthConfig, "synth", ValueError),
        (RadiomicsConfig, "radiomics", ValueError),
        (GrandConfig, "grand", ValueError),
        (ForestConfig, "forest", ValueError),
        (BoostConfig, "boost", ValueError),
        (ExperimentConfig, "experiment", ExperimentError),
    ]


@pytest.mark.parametrize("cls, name, error", _config_classes(), ids=lambda v: getattr(v, "__name__", v))
def test_every_config_rejects_unknown_keys_and_round_trips(cls, name, error):
    from dataclasses import asdict

    with pytest.raises(error, match=re.escape(f"unknown {name} config keys: ['bogus', 'typo']")):
        cls.from_dict({"typo": 1, "bogus": 2})
    assert cls.from_dict(asdict(cls())) == cls()


@pytest.fixture(scope="module")
def reader_blobs(tmp_path_factory):
    """Bytes of one small valid file per reader; two-digit PGM dimensions let
    a one-byte change reach zero or a negative size."""
    root = tmp_path_factory.mktemp("readers")
    rng = np.random.default_rng(5)
    pixels = rng.integers(0, 65536, (12, 10)).astype(np.uint16)
    write_pgm(str(root / "pgm"), ChannelImage(width=10, height=12, values=pixels))
    write_mask(str(root / "cgmk"), make_mask(rng.integers(0, 4, (3, 5))))
    write_labels_csv(str(root / "labels"), [1, 2, 3, 12], [0, 1, -1, 1])
    write_feature_csv(str(root / "features"), CellTable(
        cell_ids=np.array([1, 2, 11]), sample_ids=["s01", "s01", "s02"], centroids=rng.random((3, 2)),
        labels=np.array([0, 1, -1]), features=rng.random((3, 2)), feature_names=["f1", "f2"],
    ))
    edges = np.array([[0, 1], [1, 0], [2, 10], [10, 3]])
    write_edge_list(str(root / "edges"), CellGraph(11, edges, keys_sha256="0123456789abcdef" * 4))
    (root / "feature_labels").write_bytes((root / "features").read_bytes())
    channels = [{"antigen": "ag01", "path": "s01/ag01.pgm"}]
    write_json(str(root / "manifest"), {"pixel_spacing_um": 0.5, "samples": [
        {"sample_id": "s01", "diagnosis": "melanoma", "channels": channels, "mask_path": "m", "labels_path": "l"},
    ]})
    write_json(str(root / "report"), {"config": {"k": 5}, "seed": 3, "cells": {
        "expression|none|random_forest": {"status": "ok", "metrics": {"f1": 0.5, "roc_auc": None}},
        "radiomics|none|random_forest": {"status": "failed", "reason": "ValueError: x"},
    }})
    return {kind: (root / kind).read_bytes() for kind in _READERS}


_READERS = {"pgm": read_pgm, "cgmk": read_mask, "labels": read_labels_csv, "features": read_feature_csv,
            "feature_labels": read_feature_labels, "edges": read_edge_list, "manifest": load_manifest,
            "report": load_report}
_SPECIAL_BYTES = list(b"0123456789-+., \n\r\t#\"'e\x00\x80\xff")


@pytest.mark.parametrize("kind", sorted(_READERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reader_fuzz_loads_or_raises_typed_error_naming_path(reader_blobs, tmp_path_factory, kind, data):
    blob = reader_blobs[kind]
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="size")]
    else:
        # half of the positions fall in the first 32 bytes, where the headers are
        position = st.integers(0, min(31, len(blob) - 1)) | st.integers(0, len(blob) - 1)
        value = st.sampled_from(_SPECIAL_BYTES) | st.integers(0, 255)
        changed = bytearray(blob)
        for pos, byte in data.draw(st.lists(st.tuples(position, value), min_size=1, max_size=4), label="changes"):
            changed[pos] = byte
        blob = bytes(changed)
    path = tmp_path_factory.getbasetemp() / f"fuzz.{kind}"
    path.write_bytes(blob)
    try:
        _READERS[kind](str(path))
    except (DatasetError, GraphError, ExperimentError) as exc:
        assert str(path) in str(exc)


# every reader of the package with the error it raises
_TYPED_READERS = {
    "pgm": (read_pgm, DatasetError), "cgmk": (read_mask, DatasetError), "labels": (read_labels_csv, DatasetError),
    "features": (read_feature_csv, DatasetError), "feature_labels": (read_feature_labels, DatasetError),
    "manifest": (load_manifest, DatasetError), "model": (load_model, TreeError), "edges": (read_edge_list, GraphError),
    "report": (load_report, ExperimentError), "config": (_load_json, StageError),
}
_TEXT_KINDS = ("labels", "features", "feature_labels", "edges", "manifest", "report", "config")
_JSON_KINDS = ("manifest", "report", "config")


_DEFECTS = ([(kind, defect) for defect in ("missing", "directory") for kind in _TYPED_READERS]
            + [(kind, "not UTF-8") for kind in _TEXT_KINDS]
            + [(kind, defect) for defect in ("invalid JSON", "too many digits") for kind in _JSON_KINDS])


@pytest.mark.parametrize("kind, defect", _DEFECTS)
def test_unreadable_input_raises_typed_error_naming_path(tmp_path, kind, defect):
    reader, error = _TYPED_READERS[kind]
    path = tmp_path / kind
    if defect == "directory":
        path.mkdir()
    elif defect == "not UTF-8":
        path.write_bytes(b"cell_id,\xff\n")
    elif defect == "invalid JSON":
        path.write_text('{"seed": 1,}')
    elif defect == "too many digits":  # json raises a plain ValueError past Python's int digit limit
        path.write_text('{"seed": ' + "1" * 5000 + "}")
    # "cannot read <what the file should hold> <path>: <OS error>", or "<path>: <defect> ..."
    where = re.escape(str(path))
    match = {"missing": f"^cannot read [a-z ]+ {where}: ", "directory": f"^cannot read [a-z ]+ {where}: ",
             "too many digits": f"^{where}: invalid JSON: Exceeds the limit"}.get(defect, f"^{where}: {defect}")
    with pytest.raises(error, match=match):
        reader(str(path))


@pytest.mark.parametrize("value, kind, bounds, message", [
    (0, float, (Open(0.0),), "x must be > 0.0, got 0"),
    (-1.0, float, (Open(0.0),), "x must lie in (0.0, inf], got -1.0"),
    (1.0, float, (0.0, Open(1.0)), "x must be < 1.0, got 1.0"),
    (1.5, float, (0.0, Open(1.0)), "x must lie in [0.0, 1.0), got 1.5"),
    (0, int, (1,), "x must lie in [1, inf], got 0"),
    (None, int, (1,), "x must be an integer, got None"),
    (True, int | None, (1,), "x must be an integer, got True"),
    (0.0, float | None, (Open(0.0),), "x must be > 0.0, got 0.0"),
])
def test_check_field_names_key_and_bound(value, kind, bounds, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        check_field("x", value, kind, *bounds)


@pytest.mark.parametrize("value, kind, bounds", [
    (None, int | None, (1,)), (None, float | None, (Open(0.0),)), (5e-324, float, (Open(0.0),)),
    (0.0, float, (0.0, Open(1.0))), (1, float, (Open(0.0), 1.0)),
])
def test_check_field_accepts_values_inside_open_bounds(value, kind, bounds):
    check_field("x", value, kind, *bounds)
