import hashlib
import json
import os

import numpy as np
import pytest

from cellgraph import cli
from cellgraph.cli import build_parser, main
from cellgraph.dataset import MODEL_MAGIC, read_feature_csv
from cellgraph.dimred import reduce_features
from cellgraph.graphs import knn_feature_graph, read_edge_list


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    synth_config = {
        "n_samples": 2,
        "n_melanoma": 1,
        "cells_per_sample": 40,
        "image_size": 96,
        "n_channels": 3,
        "seed": 13,
    }
    (root / "synth.json").write_text(json.dumps(synth_config))
    exp_config = {
        "feature_types": ["expression"],
        "reductions": ["none"],
        "models": ["random_forest", "gradient_boosting"],
    }
    (root / "exp.json").write_text(json.dumps(exp_config))
    return root


def test_parse_synth_command():
    args = build_parser().parse_args(["synth", "--config", "s.json", "--out", "d/"])
    assert args.command == "synth"
    assert args.stage_config == "s.json"
    assert args.stage_out == "d/"


def test_missing_required_flag_names_it_and_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["train", "--graph", "g.edges", "--features", "f.csv"])
    assert exc.value.code == 2
    assert "--labels" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["synth", "--bogus", "1"])
    assert exc.value.code == 2


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--help"])
    assert exc.value.code == 0
    assert "synth" in capsys.readouterr().out


def test_repeated_main_calls_share_one_parser(tmp_path, capsys):
    # main builds its parser once per process; a usage error in one call
    # leaves the next call's parse as it would be in a fresh process.
    parser = cli._parser()
    for argv in (["synth", "--bogus", "1"], ["train", "--graph", "g.edges"], ["--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == (0 if argv == ["--help"] else 2)
    capsys.readouterr()
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"n_samples": 1, "n_melanoma": 0, "cells_per_sample": 4, "image_size": 32,
                                  "n_channels": 2}))
    for out in ("a", "b"):
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "a" / "manifest.json").read_bytes() == (tmp_path / "b" / "manifest.json").read_bytes()
    assert main(["--seed", "-1", "reduce", "--method", "pca", "--in", "missing.csv", "--out", "x.csv"]) == 1
    assert "error: reduce:" in capsys.readouterr().err
    assert cli._parser() is parser


@pytest.mark.parametrize(
    "key, value",
    [("cells_per_sample", 0), ("image_size", 96.0), ("n_samples", 0), ("marker_channel_fraction", 2.0)],
)
def test_synth_bad_config_value_exits_1_naming_key(tmp_path, capsys, key, value):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"n_samples": 2, "n_melanoma": 0, key: value}))
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "data")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: synth: ") and key in err
    assert not (tmp_path / "data").exists()


def test_extract_missing_directory_exits_1(tmp_path, capsys):
    missing = str(tmp_path / "not_there")
    code = main(["extract", "--data", missing, "--features", "expression", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert missing in capsys.readouterr().err


def test_chain_synth_extract_experiment(workdir):
    data = str(workdir / "data")
    assert main(["synth", "--config", str(workdir / "synth.json"), "--out", data]) == 0
    assert os.path.isfile(os.path.join(data, "manifest.json"))

    features = str(workdir / "expr.csv")
    assert main(["extract", "--data", data, "--features", "expression", "--out", features]) == 0
    assert os.path.isfile(features)

    out = str(workdir / "expout")
    assert main([
        "--seed", "7", "experiment", "--config", str(workdir / "exp.json"), "--data", data, "--out", out,
    ]) == 0
    report = json.loads(open(os.path.join(out, "report.json")).read())
    assert report["seed"] == 7  # global flag propagated into the snapshot
    assert all(c["status"] == "ok" for c in report["cells"].values())


def test_graph_reduce_train_evaluate(workdir):
    data = str(workdir / "data")
    features = str(workdir / "expr.csv")
    graph = str(workdir / "g.edges")
    assert main(["graph", "--features", features, "--kind", "feature", "--k", "5", "--out", graph]) == 0

    reduced = str(workdir / "red.csv")
    assert main(["reduce", "--method", "pca", "--dim", "2", "--in", features, "--out", reduced]) == 0
    assert os.path.isfile(reduced)

    ckpt = str(workdir / "model.ckpt")
    hist = str(workdir / "hist.csv")
    assert main([
        "--seed", "3", "train", "--graph", graph, "--features", features,
        "--labels", features, "--out", ckpt, "--history", hist,
    ]) == 0
    assert open(ckpt, "rb").read()[:5] == MODEL_MAGIC
    assert os.path.isfile(hist)

    metrics = str(workdir / "m.json")
    assert main([
        "evaluate", "--model", ckpt, "--graph", graph, "--features", features,
        "--labels", features, "--out", metrics,
    ]) == 0
    payload = json.loads(open(metrics).read())
    assert set(payload) >= {"accuracy", "precision", "recall", "f1"}


def test_baseline_command(workdir):
    features = str(workdir / "expr.csv")
    model = str(workdir / "rf.bin")
    assert main([
        "baseline", "--model", "random_forest", "--features", features,
        "--labels", features, "--out", model,
    ]) == 0
    assert os.path.isfile(model)

    predictions = str(workdir / "preds.csv")
    assert main([
        "evaluate", "--model", model, "--features", features, "--labels", features,
        "--out", str(workdir / "rf_metrics.json"), "--predictions", predictions,
    ]) == 0
    lines = open(predictions).read().splitlines()
    assert lines[0] == "cell_id,sample_id,prob_healthy,prob_tumor,predicted"
    assert len(lines) == 81  # header + one row per cell


def test_baseline_bad_config_value_exits_1_naming_key(tmp_path, capsys):
    rows = ["cell_id,sample_id,cx,cy,label,f1"] + [f"{i},s01,{i}.0,0.0,{i % 2},{i}.0" for i in range(1, 11)]
    features, config = tmp_path / "features.csv", tmp_path / "forest.json"
    features.write_text("\n".join(rows) + "\n")
    config.write_text(json.dumps({"n_trees": 2.5}))
    model = tmp_path / "forest.bin"
    argv = ["--config", str(config), "baseline", "--model", "random_forest",
            "--features", str(features), "--labels", str(features), "--out", str(model)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: baseline: ") and "n_trees" in err
    assert not model.exists()


def test_experiment_nested_config_typo_exits_1(tiny_dataset_dir, tmp_path, capsys):
    config, out = tmp_path / "exp.json", tmp_path / "out"
    config.write_text(json.dumps({"models": ["random_forest", "grand_feature_graph"], "grand": {"max_epoch": 5}}))
    argv = ["--config", str(config), "experiment", "--data", tiny_dataset_dir, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: experiment: grand: unknown grand config keys: ['max_epoch']")
    assert not (out / "report.json").exists()


def test_experiment_reduction_config_typo_exits_1(tiny_dataset_dir, tmp_path, capsys):
    config, out = tmp_path / "exp.json", tmp_path / "out"
    config.write_text(json.dumps({"reductions": ["tsne", "none"], "tsne": {"perplexty": 5}}))
    argv = ["--config", str(config), "experiment", "--data", tiny_dataset_dir, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: experiment: tsne: unknown tsne config keys: ['perplexty']")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("tsne, message", [
    ({"perplexity": "5"}, "tsne: perplexity must be a finite number, got '5'"),
    ({"early_exaggeration": 0}, "tsne: early_exaggeration must be > 0.0, got 0"),
])
def test_experiment_reduction_config_bad_value_exits_1(tiny_dataset_dir, tmp_path, capsys, tsne, message):
    # Both used to pass construction and fail every t-SNE cell with a bare
    # TypeError or ZeroDivisionError.
    config, out = tmp_path / "exp.json", tmp_path / "out"
    config.write_text(json.dumps({"reductions": ["tsne", "none"], "tsne": tsne}))
    argv = ["--config", str(config), "experiment", "--data", tiny_dataset_dir, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: experiment: {message}")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("threads, code", [("1", 0), ("0", 1)])
def test_experiment_threads_flag_is_checked(tiny_dataset_dir, tmp_path, capsys, threads, code):
    # The benchmark's CLI chain passes --threads 1; the experiment runs on one
    # thread whatever the flag says, but a count below 1 is still refused.
    config, out = tmp_path / "exp.json", tmp_path / "out"
    config.write_text(json.dumps({"feature_types": ["expression"], "reductions": ["none"],
                                  "models": ["random_forest"]}))
    argv = ["--config", str(config), "experiment", "--data", tiny_dataset_dir, "--out", str(out),
            "--threads", threads]
    assert main(argv) == code
    assert (out / "report.json").exists() == (code == 0)
    if code:
        assert capsys.readouterr().err.startswith("error: experiment: threads")


@pytest.mark.parametrize("stage", [
    ["reduce", "--method", "umap", "--in", "{features}"],
    ["baseline", "--model", "random_forest", "--features", "{features}", "--labels", "{features}"],
    ["train", "--graph", "{features}", "--features", "{features}", "--labels", "{features}"],
    ["synth"],
    ["experiment", "--data", "{features}"],
])
@pytest.mark.parametrize("content", ["[1]", "null", '"perplexity"'])
def test_config_file_that_is_not_an_object_exits_1_naming_path(tmp_path, capsys, stage, content):
    # A list once failed `reduce` with "argument after ** must be a mapping"
    # and `--seed 3 ... baseline` with "list indices must be integers".
    features, config, out = tmp_path / "features.csv", tmp_path / "c.json", tmp_path / "out"
    rows = ["cell_id,sample_id,cx,cy,label,f1"] + [f"{i},s01,{i}.0,0.0,{i % 2},{i}.0" for i in range(1, 11)]
    features.write_text("\n".join(rows) + "\n")
    config.write_text(content)
    argv = ["--seed", "3", "--config", str(config)] + [a.format(features=features) for a in stage] + ["--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stage[0]}: {config}: expected a JSON object of config keys, got ")
    assert not out.exists()


@pytest.mark.parametrize("method", ["none", "pca"])
def test_reduce_config_for_method_without_arguments_exits_1(tiny_dataset_dir, tmp_path, capsys, method):
    # Only t-SNE and UMAP take arguments, so a config file given to the
    # others is refused rather than ignored.
    features, config, out = tmp_path / "expr.csv", tmp_path / "c.json", tmp_path / "red.csv"
    assert main(["extract", "--data", tiny_dataset_dir, "--features", "expression", "--out", str(features)]) == 0
    config.write_text(json.dumps({"perplexity": 5}))
    argv = ["--config", str(config), "reduce", "--method", method, "--in", str(features), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: reduce: reduction '{method}' takes no keyword arguments") and "perplexity" in err
    assert not out.exists()


@pytest.mark.parametrize("nodes", [119, 121, 1_000_000])
def test_train_rejects_graph_node_count_not_matching_table(replay_inputs, tmp_path, capsys, nodes):
    _, features, _ = replay_inputs  # 3 samples x 60 cells
    graph = tmp_path / "g.edges"
    graph.write_text(f"# nodes {nodes}\n0 1 1\n")
    argv = ["train", "--graph", str(graph), "--features", features, "--labels", features,
            "--out", str(tmp_path / "m.ckpt")]
    assert main(argv) == 1
    assert f"graph has {nodes} nodes but feature table has 180 rows" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["random_forest", "gradient_boosting"])
def test_baseline_rejects_non_finite_features(tmp_path, capsys, model):
    rows = ["cell_id,sample_id,cx,cy,label,f1,f2"]
    rows += [f"{i},s01,{i}.0,0.0,{i % 2},{i}.0,{'nan' if i == 2 else '1.0'}" for i in range(1, 21)]
    features = tmp_path / "nan.csv"
    features.write_text("\n".join(rows) + "\n")
    out = tmp_path / "model.bin"
    argv = ["baseline", "--model", model, "--features", str(features), "--labels", str(features), "--out", str(out)]
    assert main(argv) == 1
    assert "error: baseline: features contain non-finite values" in capsys.readouterr().err
    assert not out.exists()


def test_report_twice_identical_svg(workdir):
    out = str(workdir / "expout")
    rep1 = str(workdir / "rep1")
    rep2 = str(workdir / "rep2")
    report_path = os.path.join(out, "report.json")
    assert main(["report", "--report", report_path, "--out", rep1]) == 0
    assert main(["report", "--report", report_path, "--out", rep2]) == 0
    for name in ("f1.svg", "accuracy.svg", "table1.csv"):
        a = open(os.path.join(rep1, name), "rb").read()
        b = open(os.path.join(rep2, name), "rb").read()
        assert a == b
    assert open(os.path.join(rep1, "f1.svg")).read().startswith("<svg")


def test_report_on_a_non_report_json_exits_1_naming_path(tmp_path, capsys):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({"n_samples": 2}))
    assert main(["report", "--report", str(path), "--out", str(tmp_path / "bad")]) == 1
    assert f"error: report: {path}: not an experiment report" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("cells, problem", [
    ({"expression|none|random_forest": {}}, "cell 'expression|none|random_forest': status must be"),
    ({"expression": {"status": "failed", "reason": "x"}}, "cell 'expression': key must be"),
])
def test_report_on_a_malformed_cell_exits_1_naming_path(tmp_path, capsys, cells, problem):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"config": {}, "seed": 1, "cells": cells}))
    assert main(["report", "--report", str(path), "--out", str(tmp_path / "bad")]) == 1
    assert f"error: report: {path}: {problem}" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_reduce_idempotent(workdir):
    features = str(workdir / "expr.csv")
    a, b = str(workdir / "redA.csv"), str(workdir / "redB.csv")
    for out in (a, b):
        assert main(["--seed", "5", "reduce", "--method", "pca", "--dim", "2",
                     "--in", features, "--out", out]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def _twelve_column_table(path, n):
    rng = np.random.default_rng(n)
    rows = ["cell_id,sample_id,cx,cy,label," + ",".join(f"f{j}" for j in range(12))]
    rows += [f"{i},s01,{i}.0,0.0,{i % 2}," + ",".join(map(repr, rng.normal(size=12).tolist()))
             for i in range(1, n + 1)]
    path.write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize("method", ["pca", "umap"])
@pytest.mark.parametrize("n", [10, 30])
def test_reduce_at_the_default_dim_caps_the_width_as_the_experiment_does(tmp_path, method, n):
    # --dim 16 on 12 columns once made pca exit 1 ("d=16 out of range for 30x12 input")
    features, config, out = tmp_path / "features.csv", tmp_path / "umap.json", tmp_path / "red.csv"
    _twelve_column_table(features, n)
    kwargs = {"n_neighbors": 5, "n_epochs": 20} if method == "umap" else {}
    config.write_text(json.dumps(kwargs))
    flags = ["--config", str(config)] if kwargs else []
    assert main(flags + ["reduce", "--method", method, "--in", str(features), "--out", str(out)]) == 0
    reduced = read_feature_csv(str(out))
    assert reduced.feature_names == [f"{method}_{i}" for i in range(min(16, 12, n - 1))]
    want = reduce_features(read_feature_csv(str(features)).features, method, 16, seed=0, **kwargs).Y
    assert reduced.features.tobytes() == want.tobytes()


@pytest.mark.parametrize("method", ["pca", "tsne", "umap"])
def test_reduce_below_one_dimension_exits_1_naming_d(tmp_path, capsys, method):
    features, out = tmp_path / "features.csv", tmp_path / "red.csv"
    _twelve_column_table(features, 30)
    assert main(["reduce", "--method", method, "--dim", "0", "--in", str(features), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: reduce: d=0 out of range for 30x12 input\n"
    assert not out.exists()


@pytest.mark.parametrize("method", ["pca", "tsne", "umap"])
def test_reduce_one_row_table_exits_1_naming_dim_and_shape(tmp_path, capsys, method):
    features, out = tmp_path / "features.csv", tmp_path / "red.csv"
    _twelve_column_table(features, 1)
    assert main(["reduce", "--method", method, "--in", str(features), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: reduce: {method} cannot embed a 1x12 table in d=16: it needs at least 2 rows and 1 column\n"
    assert not out.exists()


@pytest.mark.parametrize("method", ["none", "pca", "tsne", "umap"])
def test_reduce_negative_seed_exits_1_naming_seed(tmp_path, capsys, method):
    # umap exited 1 with numpy's "expected non-negative integer"; pca took the seed silently
    features, out = tmp_path / "features.csv", tmp_path / "red.csv"
    _twelve_column_table(features, 30)
    assert main(["--seed", "-1", "reduce", "--method", method, "--dim", "2", "--in", str(features),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: reduce: seed must lie in [0, inf], got -1\n"
    assert not out.exists()


def test_experiment_rerun_byte_identical(workdir):
    data = str(workdir / "data")
    a, b = str(workdir / "outA"), str(workdir / "outB")
    for out in (a, b):
        assert main([
            "--seed", "21", "experiment", "--config", str(workdir / "exp.json"),
            "--data", data, "--out", out,
        ]) == 0
    assert open(os.path.join(a, "report.json"), "rb").read() == open(os.path.join(b, "report.json"), "rb").read()


def test_extract_writes_rows_in_sample_cell_order(tmp_path):
    from cellgraph.dataset import load_dataset, write_feature_csv
    from cellgraph.experiment import extract_features
    from cellgraph.synth import SynthConfig, generate_synthetic_dataset

    data = tmp_path / "data"
    config = SynthConfig(n_samples=2, n_melanoma=1, cells_per_sample=15, image_size=64, n_channels=2, seed=5)
    generate_synthetic_dataset(config, str(data))
    manifest_path = data / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["samples"].reverse()  # list s02 before s01
    manifest_path.write_text(json.dumps(manifest))

    out = tmp_path / "expr.csv"
    assert main(["extract", "--data", str(data), "--features", "expression", "--out", str(out)]) == 0
    keys = [(row.split(",")[1], int(row.split(",")[0])) for row in out.read_text().splitlines()[1:]]
    assert keys == sorted(keys) and keys[0][0] == "s01"

    expected = tmp_path / "expected.csv"
    write_feature_csv(str(expected), extract_features(load_dataset(str(manifest_path)), "expression", {}))
    assert out.read_bytes() == expected.read_bytes()


def test_extract_radiomics_csv_bytes_are_pinned(tiny_dataset_dir, tmp_path):
    # Radiomics CSV of the shared 3-sample synth set; any change to the
    # texture counting, the feature formulas or the CSV format moves it.
    out = str(tmp_path / "radiomics.csv")
    assert main(["extract", "--data", tiny_dataset_dir, "--features", "radiomics", "--out", out]) == 0
    digest = hashlib.sha256(open(out, "rb").read()).hexdigest()
    assert digest == "90a846b33d9bc98ada0fdfcc4af7948935e71ca015d6ab700b9e4775e5b1bb8d"


def test_extract_radiomics_without_columns_exits_1(tiny_dataset_dir, tmp_path, capsys):
    config = tmp_path / "r.json"
    config.write_text(json.dumps({"channels": [], "shape": False}))
    out = tmp_path / "radiomics.csv"
    argv = ["--config", str(config), "extract", "--data", tiny_dataset_dir, "--features", "radiomics"]
    assert main(argv + ["--out", str(out)]) == 1
    assert "no columns" in capsys.readouterr().err
    assert not out.exists()


def test_extract_radiomics_without_offsets_exits_1(tiny_dataset_dir, tmp_path, capsys):
    config = tmp_path / "r.json"
    config.write_text(json.dumps({"offsets": []}))
    out = tmp_path / "radiomics.csv"
    argv = ["--config", str(config), "extract", "--data", tiny_dataset_dir, "--features", "radiomics"]
    assert main(argv + ["--out", str(out)]) == 1
    assert "offsets must hold at least one" in capsys.readouterr().err
    assert not out.exists()


def test_extract_expression_csv_bytes_are_pinned(tiny_dataset_dir, tmp_path):
    # Expression CSV of the shared 3-sample synth set; any change to the
    # per-cell channel means, the centroids or the CSV format moves it.
    out = str(tmp_path / "expression.csv")
    assert main(["extract", "--data", tiny_dataset_dir, "--features", "expression", "--out", out]) == 0
    digest = hashlib.sha256(open(out, "rb").read()).hexdigest()
    assert digest == "6dd6527525b154a22e0ba06bb99f63c7ff3ad3c71751a290fefd2493f5d3035d"


@pytest.mark.parametrize(
    "kind, expected",
    [
        ("feature", "b35a80c2cbcea6bebcf18ca20455e0e729b6b62780772d64da10f997837df6a3"),
        ("spatial", "12b425f10b06bfe36f7b67a66be6a89f746368c48b0cb67c21164a44c85fad5b"),
    ],
)
def test_graph_edge_list_bytes_are_pinned(tiny_dataset_dir, tmp_path, kind, expected):
    # Edge lists of the shared 3-sample synth set; any change to node order,
    # the kNN tie rule or the edge-list format moves them.
    features, out = str(tmp_path / "expression.csv"), str(tmp_path / f"{kind}.edges")
    assert main(["extract", "--data", tiny_dataset_dir, "--features", "expression", "--out", features]) == 0
    assert main(["graph", "--features", features, "--kind", kind, "--k", "5", "--out", out]) == 0
    assert hashlib.sha256(open(out, "rb").read()).hexdigest() == expected


@pytest.mark.parametrize(
    "model, expected",
    [
        ("random_forest", "295dfd091becf41ae2ae6c2f7f95183effa38c1532835f88a832a47684810ccf"),
        ("gradient_boosting", "659a7984e956b8152fa0e41cb6942deaf26b9ed07fe562131e2dde585f2ad4ee"),
    ],
)
def test_baseline_model_bytes_are_pinned(tiny_dataset_dir, tmp_path, model, expected):
    # Default-config models on the radiomics CSV of the shared 3-sample synth
    # set; any change to the split search, its tie rule (lowest feature, then
    # lowest threshold) or the model-file format moves them.
    features, out = str(tmp_path / "radiomics.csv"), str(tmp_path / f"{model}.bin")
    assert main(["extract", "--data", tiny_dataset_dir, "--features", "radiomics", "--out", features]) == 0
    assert main(["baseline", "--model", model, "--features", features, "--labels", features, "--out", out]) == 0
    assert hashlib.sha256(open(out, "rb").read()).hexdigest() == expected


def test_train_checkpoint_and_history_bytes_are_pinned(tiny_dataset_dir, tmp_path):
    # Default-config GRAND on the feature graph of the shared 3-sample synth
    # set; any change to the mask draws, the propagation, the loss, its
    # gradients or the Adam step moves them. The MLP products go through
    # BLAS: recorded with numpy 2.4.6 and scipy-openblas 0.3.31 on x86-64
    # (AVX-512).
    features, graph = str(tmp_path / "expression.csv"), str(tmp_path / "feature.edges")
    ckpt, hist = str(tmp_path / "grand.ckpt"), str(tmp_path / "history.csv")
    assert main(["extract", "--data", tiny_dataset_dir, "--features", "expression", "--out", features]) == 0
    assert main(["graph", "--features", features, "--kind", "feature", "--k", "5", "--out", graph]) == 0
    assert main([
        "train", "--graph", graph, "--features", features, "--labels", features, "--out", ckpt, "--history", hist,
    ]) == 0
    digests = [hashlib.sha256(open(path, "rb").read()).hexdigest() for path in (ckpt, hist)]
    assert digests == [
        "580d7ed088ee2077015dfd0ccf12232491273c19e1bbe28f3512a2c633ed5672",
        "e6b425ec27fea1dd2c35464d51a7502b8f6eac28cadebdc861e6b868a86f57bc",
    ]


def test_graph_rejects_non_finite_features(tmp_path, capsys):
    rows = ["cell_id,sample_id,cx,cy,label,f1,f2"]
    rows += [f"{i},s01,{i}.0,0.0,{i % 2},{i}.0,{'nan' if i == 2 else '1.0'}" for i in range(1, 6)]
    features = tmp_path / "nan.csv"
    features.write_text("\n".join(rows) + "\n")
    argv = ["graph", "--features", str(features), "--kind", "feature", "--k", "2", "--out", str(tmp_path / "g.edges")]
    assert main(argv) == 1
    assert "features contain non-finite values" in capsys.readouterr().err
    assert not (tmp_path / "g.edges").exists()


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_graph_refuses_features_whose_distances_overflow(tmp_path, capsys, metric):
    rows = ["cell_id,sample_id,cx,cy,label,f1,f2"]
    rows += [f"{i},s01,{i}.0,0.0,{i % 2},{'1e200' if i == 1 else f'{i}.0'},1.0" for i in range(1, 6)]
    features = tmp_path / "huge.csv"
    features.write_text("\n".join(rows) + "\n")
    argv = ["graph", "--features", str(features), "--kind", "feature", "--metric", metric, "--k", "2",
            "--out", str(tmp_path / "g.edges")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: graph: squared distances overflow float64: the largest absolute entry is 1e+200\n")
    assert not (tmp_path / "g.edges").exists()


def test_graph_cosine_is_the_euclidean_graph_of_unit_rows(tiny_dataset_dir, tmp_path):
    features, out = str(tmp_path / "expression.csv"), str(tmp_path / "cosine.edges")
    assert main(["extract", "--data", tiny_dataset_dir, "--features", "expression", "--out", features]) == 0
    argv = ["graph", "--features", features, "--kind", "feature", "--metric", "cosine", "--k", "5", "--out", out]
    assert main(argv) == 0
    X = cli._load_table_sorted(features).features
    unit = X / np.linalg.norm(X, axis=1)[:, None]
    np.testing.assert_array_equal(read_edge_list(out).edges, knn_feature_graph(unit, 5).edges)


def test_graph_spatial_rejects_cosine_metric(tiny_dataset_dir, tmp_path, capsys):
    features, out = str(tmp_path / "expression.csv"), str(tmp_path / "spatial.edges")
    assert main(["extract", "--data", tiny_dataset_dir, "--features", "expression", "--out", features]) == 0
    argv = ["graph", "--features", features, "--kind", "spatial", "--k", "5", "--out", out]
    assert main(argv + ["--metric", "cosine"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: graph: ") and "--metric cosine" in err and "--kind spatial" in err
    assert not os.path.exists(out)
    assert main(argv + ["--metric", "euclidean"]) == 0


@pytest.fixture(scope="module")
def replay_inputs(tmp_path_factory):
    """3 samples x 60 cells with weak class signal, extracted and graphed."""
    root = tmp_path_factory.mktemp("replay")
    synth = {"n_samples": 3, "n_melanoma": 2, "cells_per_sample": 60, "image_size": 120, "n_channels": 4,
             "intensity_separation": 0.8, "texture_contrast_separation": 0.25, "seed": 5}
    (root / "synth.json").write_text(json.dumps(synth))
    (root / "grand.json").write_text(json.dumps({"prop_order": 2, "max_epochs": 40}))
    data, features, graph = str(root / "data"), str(root / "expr.csv"), str(root / "g.edges")
    assert main(["synth", "--config", str(root / "synth.json"), "--out", data]) == 0
    assert main(["extract", "--data", data, "--features", "expression", "--out", features]) == 0
    assert main(["graph", "--features", features, "--kind", "feature", "--k", "5", "--out", graph]) == 0
    return root, features, graph


@pytest.mark.parametrize("kind", ["grand", "random_forest", "gradient_boosting"])
def test_evaluate_replays_train(replay_inputs, kind, monkeypatch, capsys):
    root, features, graph = replay_inputs
    seen = {"fit": [], "predict": [], "metrics": []}

    def record(name, log):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            log.append(result)
            return result

        monkeypatch.setattr(cli, name, wrapper)

    record("fit_model", seen["fit"])
    record("predict_model", seen["predict"])
    record("compute_metrics", seen["metrics"])
    model = str(root / f"{kind}.model")
    inputs = ["--features", features, "--labels", features]
    if kind == "grand":
        train = ["--seed", "4", "--config", str(root / "grand.json"), "train", "--graph", graph, *inputs]
        evaluate = ["evaluate", "--model", model, "--graph", graph, *inputs]
    else:
        train = ["--seed", "4", "baseline", "--model", kind, *inputs]
        evaluate = ["evaluate", "--model", model, *inputs]
    assert main(train + ["--out", model]) == 0
    printed = capsys.readouterr().out
    metrics, predictions = str(root / f"{kind}.json"), str(root / f"{kind}.csv")
    assert main(evaluate + ["--out", metrics, "--predictions", predictions]) == 0

    # train fits through fit_model alone, and evaluate predicts through predict_model alone
    train_probs = seen["fit"][0][1]
    assert len(seen["fit"]) == 1 and len(seen["predict"]) == 1
    np.testing.assert_array_equal(seen["predict"][0], train_probs)
    rows = [line.split(",") for line in open(predictions).read().splitlines()[1:]]
    assert [row[2:4] for row in rows] == [[format(p, ".17g") for p in pair] for pair in train_probs]
    scored = json.loads(open(metrics).read())
    assert scored == seen["metrics"][0].to_dict()  # train's test-split metrics
    assert f"test f1 {scored['f1']:.4f}" in printed


def test_evaluate_non_model_file_exits_1_naming_path(tmp_path, capsys):
    for name, blob in (("notes.txt", b"cell_id,sample_id\n"), ("old.ckpt", b"GRND1" + bytes(12))):
        path = str(tmp_path / name)
        open(path, "wb").write(blob)
        code = main(["evaluate", "--model", path, "--features", path, "--labels", path,
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert path in err and "not a model file" in err


def _write_rows(path, header, rows):
    path.write_text("\n".join([header] + rows) + "\n")
    return str(path)


def test_labels_from_another_table_give_the_same_model(tmp_path):
    # --labels read for its key and label columns only: another table with the
    # same keys and labels (and feature values that do not parse) trains the
    # model that the features table's own labels train
    keys = [(f"s0{1 + i % 2}", i) for i in range(1, 31)]
    features = _write_rows(tmp_path / "features.csv", "cell_id,sample_id,cx,cy,label,f1,f2",
                           [f"{c},{s},{c}.0,0.0,{c % 2},{c * 0.5},{c % 7}" for s, c in keys])
    labels = _write_rows(tmp_path / "labels.csv", "cell_id,sample_id,cx,cy,label,g",
                         [f"{c},{s},?,?,{c % 2},n/a" for s, c in reversed(keys)])
    models = []
    for name, label_path in (("same", features), ("other", labels)):
        model = str(tmp_path / f"{name}.bin")
        assert main(["--seed", "2", "baseline", "--model", "random_forest", "--features", features,
                     "--labels", label_path, "--out", model]) == 0
        assert main(["evaluate", "--model", model, "--features", features, "--labels", label_path,
                     "--out", str(tmp_path / f"{name}.json")]) == 0
        models.append(open(model, "rb").read())
    assert models[0] == models[1]
    assert (tmp_path / "same.json").read_bytes() == (tmp_path / "other.json").read_bytes()


@pytest.mark.parametrize(
    "same_file, row, line",
    [
        (True, "9,s01,1.0,0.0,1,oops", 4),  # the features table read in full
        (False, ",s01,?,?,1", 4),  # a labels row missing its cell id
        (False, "9,s01,?,?,2", 4),  # a label outside {0, 1, -1}
    ],
)
def test_label_read_errors_name_path_and_line(tmp_path, capsys, same_file, row, line):
    rows = ["1,s01,1.0,0.0,0,1.0", "2,s01,2.0,0.0,1,2.0"]
    features = _write_rows(tmp_path / "features.csv", "cell_id,sample_id,cx,cy,label,f1",
                           rows + ([row] if same_file else []))
    labels = features if same_file else _write_rows(
        tmp_path / "labels.csv", "cell_id,sample_id,cx,cy,label", ["1,s01,?,?,0", "2,s01,?,?,1", row])
    for argv in (["baseline", "--model", "random_forest"], ["train", "--graph", str(tmp_path / "g.edges")]):
        assert main(argv + ["--features", features, "--labels", labels, "--out", str(tmp_path / "m")]) == 1
        assert f"{labels}:{line}: " in capsys.readouterr().err
