import hashlib
import json
import os
import re
from unittest import mock

import numpy as np
import pytest

from cellgraph import experiment, graphs
from cellgraph.dataset import load_dataset
from cellgraph.experiment import (
    METRIC_NAMES,
    ExperimentConfig,
    ExperimentError,
    ExperimentReport,
    cell_key,
    extract_features,
    load_report,
    run_experiment,
    split_and_standardize,
    write_table_csv,
)
from cellgraph.grand import GrandConfig, GrandModel
from cellgraph.harness import HarnessError, Metrics
from cellgraph.rng import derive_seed
from cellgraph.synth import SynthConfig, generate_synthetic_dataset
from cellgraph.trees import BoostConfig, BoostModel, ForestConfig, ForestModel, TreeError


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("expdata") / "data"
    config = SynthConfig(
        n_samples=3, n_melanoma=2, cells_per_sample=50, image_size=96, n_channels=4, seed=31
    )
    generate_synthetic_dataset(config, str(out))
    return str(out)


FAST = dict(
    tsne={"perplexity": 10, "n_iters": 150},
    umap={"n_neighbors": 8, "n_epochs": 60},
    grand={"max_epochs": 40, "patience": 10},
)


def test_full_grid_has_32_cells(small_data, tmp_path):
    config = ExperimentConfig(data_dir=small_data, seed=1, **FAST)
    report = run_experiment(config, str(tmp_path / "out"))
    assert len(report.cells) == 2 * 4 * 4
    for ft in ("expression", "radiomics"):
        for red in ("none", "pca", "tsne", "umap"):
            for model in (
                "grand_feature_graph",
                "grand_spatial_graph",
                "random_forest",
                "gradient_boosting",
            ):
                assert cell_key(ft, red, model) in report.cells


def test_restricted_grid_has_exactly_requested_cells(small_data, tmp_path):
    config = ExperimentConfig(
        data_dir=small_data,
        feature_types=("expression",),
        reductions=("none",),
        models=("random_forest",),
        seed=2,
    )
    report = run_experiment(config, str(tmp_path / "out"))
    assert list(report.cells) == ["expression|none|random_forest"]
    assert report.cells["expression|none|random_forest"]["status"] == "ok"


def test_failed_cell_recorded_others_proceed(small_data, tmp_path):
    # perplexity 200 is infeasible for 150 cells: the tsne group fails,
    # the none group still runs
    config = ExperimentConfig(
        data_dir=small_data,
        feature_types=("expression",),
        reductions=("tsne", "none"),
        models=("random_forest",),
        seed=3,
        tsne={"perplexity": 200},
    )
    report = run_experiment(config, str(tmp_path / "out"))
    failed = report.cells["expression|tsne|random_forest"]
    assert failed["status"] == "failed"
    assert "perplexity" in failed["reason"]
    assert report.cells["expression|none|random_forest"]["status"] == "ok"


def test_failed_extraction_writes_each_cell_log(small_data, tmp_path):
    # an unknown radiomics channel fails the radiomics extraction; each of
    # its cells gets a log, as a failed reduction or model does
    config = ExperimentConfig(
        data_dir=small_data,
        reductions=("none", "pca"),
        models=("random_forest",),
        seed=5,
        radiomics={"channels": ["nope"]},
    )
    report = run_experiment(config, str(tmp_path / "out"))
    runs = tmp_path / "out" / "runs"
    assert sorted(os.listdir(runs)) == sorted(key.replace("|", "__") for key in report.cells)
    for red in ("none", "pca"):
        key = cell_key("radiomics", red, "random_forest")
        outcome = report.cells[key]
        assert outcome["status"] == "failed" and "nope" in outcome["reason"]
        log = (runs / key.replace("|", "__") / "log.txt").read_text()
        assert log == f"cell: {key}\nstatus: failed\nreason: {outcome['reason']}\n"


def test_report_files_written(small_data, tmp_path):
    out = tmp_path / "out"
    config = ExperimentConfig(
        data_dir=small_data,
        feature_types=("expression",),
        reductions=("none",),
        models=("random_forest", "gradient_boosting"),
        seed=4,
    )
    run_experiment(config, str(out))
    assert (out / "report.json").is_file()
    assert (out / "table1.csv").is_file()
    assert (out / "timings.json").is_file()
    assert (out / "runs" / "expression__none__random_forest" / "log.txt").is_file()
    table = (out / "table1.csv").read_text().splitlines()
    assert table[0].startswith("feature_type,reduction,model,")
    assert len(table) == 3
    report = load_report(str(out / "report.json"))
    assert report.seed == 4


def test_table_csv_bytes_are_pinned(tmp_path):
    # an ok cell, an ok cell with an undefined ROC-AUC, a failed cell, out of key order
    ok = Metrics(accuracy=0.875, precision=2 / 3, recall=0.5, f1=4 / 7, roc_auc=0.8125, tp=2, fp=1, fn=2, tn=11)
    no_auc = Metrics(**{**ok.to_dict(), "precision": 0.0, "roc_auc": float("nan")})
    report = ExperimentReport(config={}, seed=0, cells={
        "radiomics|umap|random_forest": {"status": "ok", "metrics": ok.to_dict()},
        "expression|none|grand_feature_graph": {"status": "ok", "metrics": no_auc.to_dict()},
        "expression|tsne|gradient_boosting": {"status": "failed", "reason": "DimRedError: nope"},
    })
    assert no_auc.to_dict()["roc_auc"] is None
    assert list(ok.to_dict())[:len(METRIC_NAMES)] == list(METRIC_NAMES)
    path = tmp_path / "table1.csv"
    write_table_csv(str(path), report)
    assert path.read_text() == (
        "feature_type,reduction,model,accuracy,precision,recall,f1,roc_auc,status\n"
        "expression,none,grand_feature_graph,0.8750,0.0000,0.5000,0.5714,,ok\n"
        "expression,tsne,gradient_boosting,,,,,,failed\n"
        "radiomics,umap,random_forest,0.8750,0.6667,0.5000,0.5714,0.8125,ok\n"
    )
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "591fa19c2eadefa3e3a11f333b8ef5743316a5b67259660803b467b2e1b0f9ad"
    )


def test_rerun_is_byte_identical(small_data, tmp_path):
    config_args = dict(
        data_dir=small_data,
        feature_types=("expression", "radiomics"),
        reductions=("none", "pca"),
        models=("random_forest", "grand_feature_graph"),
        seed=5,
        **FAST,
    )
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(ExperimentConfig(**config_args), str(a))
    run_experiment(ExperimentConfig(**config_args), str(b))
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "table1.csv").read_bytes() == (b / "table1.csv").read_bytes()


def test_threads_do_not_change_report(small_data, tmp_path):
    base = dict(
        data_dir=small_data,
        feature_types=("expression",),
        reductions=("none", "pca"),
        models=("random_forest", "gradient_boosting"),
        seed=6,
    )
    serial, threaded = tmp_path / "serial", tmp_path / "threaded"
    run_experiment(ExperimentConfig(**base, threads=1), str(serial))
    run_experiment(ExperimentConfig(**base, threads=4), str(threaded))
    assert (serial / "report.json").read_bytes() == (threaded / "report.json").read_bytes()


def test_seed_changes_report(small_data, tmp_path):
    base = dict(
        data_dir=small_data,
        feature_types=("expression",),
        reductions=("none",),
        models=("random_forest",),
    )
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(ExperimentConfig(**base, seed=7), str(a))
    run_experiment(ExperimentConfig(**base, seed=8), str(b))
    ra = json.loads((a / "report.json").read_text())
    rb = json.loads((b / "report.json").read_text())
    assert ra["seed"] == 7 and rb["seed"] == 8
    assert ra != rb


def test_case_level_split_option(small_data, tmp_path):
    config = ExperimentConfig(
        data_dir=small_data,
        feature_types=("expression",),
        reductions=("none",),
        models=("random_forest",),
        split_by="case",
        seed=9,
    )
    report = run_experiment(config, str(tmp_path / "out"))
    # with 2 melanoma + 1 healthy sample the test bucket may lack a class;
    # the cell must still be recorded either way
    assert list(report.cells) == ["expression|none|random_forest"]


def test_config_rejects_unknown_keys():
    with pytest.raises(ExperimentError, match="unknown experiment config keys"):
        ExperimentConfig.from_dict({"data_dir": "x", "bogus": 1})
    with pytest.raises(ExperimentError):
        ExperimentConfig(feature_types=("genes",))
    with pytest.raises(ExperimentError):
        ExperimentConfig(models=("svm",))


@pytest.mark.parametrize(
    "key, value",
    [("k", 2.5), ("reduce_dim", 0), ("threads", 1.5), ("threads", 0), ("seed", -1),
     ("threshold", 1.5), ("threshold", "0.5")],
)
def test_config_rejects_bad_value_by_key_name(key, value):
    with pytest.raises(ExperimentError, match=key):
        ExperimentConfig.from_dict({key: value})


@pytest.mark.parametrize(
    "nested, message",
    [
        ({"grand": {"max_epoch": 5}}, "grand: unknown grand config keys: ['max_epoch']"),
        ({"radiomics": {"level": 8}}, "radiomics: unknown radiomics config keys: ['level']"),
        ({"forest": {"trees": 5}}, "forest: unknown forest config keys: ['trees']"),
        ({"boost": {"rounds": 5}}, "boost: unknown boost config keys: ['rounds']"),
        ({"grand": {"hidden_dim": 0}}, "grand: hidden_dim must lie in"),
        ({"radiomics": {"levels": 2.5}}, "radiomics: levels must be an integer"),
        ({"forest": [1]}, "forest: expected a dict of forest arguments, got [1]"),
        ({"boost": None}, "boost: expected a dict of boost arguments, got None"),
        ({"tsne": {"perplexty": 5}}, "tsne: unknown tsne config keys: ['perplexty']"),
        ({"umap": {"n_neighbors": 8, "seed": 1, "d": 2}}, "umap: unknown umap config keys: ['d', 'seed']"),
        ({"tsne": [1]}, "tsne: expected a dict of tsne arguments, got [1]"),
        ({"tsne": {"perplexity": "5"}}, "tsne: perplexity must be a finite number, got '5'"),
        ({"tsne": {"early_exaggeration": 0}}, "tsne: early_exaggeration must be > 0.0, got 0"),
        ({"tsne": {"learning_rate": 0.0}}, "tsne: learning_rate must be > 0.0, got 0.0"),
        ({"umap": {"n_epochs": 1.5}}, "umap: n_epochs must be an integer, got 1.5"),
        ({"umap": {"min_dist": -0.1}}, "umap: min_dist must lie in [0.0, inf], got -0.1"),
        ({"radiomics": {"channels": [], "shape": False}}, "radiomics: channels is empty and shape is false"),
        ({"radiomics": {"offsets": []}}, "radiomics: offsets must hold at least one"),
        ({"grand": [1]}, "grand: expected a dict of grand arguments, got [1]"),
        ({"umap": 5}, "umap: expected a dict of umap arguments, got 5"),
        ({"radiomics": "levels"}, "radiomics: expected a dict of radiomics arguments, got 'levels'"),
        ({"grand": {"learning_rate": -1.0}}, "grand: learning_rate must lie in (0.0, inf], got -1.0"),
        ({"grand": {"learning_rate": 0.0}}, "grand: learning_rate must be > 0.0, got 0.0"),
        ({"grand": {"max_epochs": 0}}, "grand: max_epochs must lie in [1, inf], got 0"),
    ],
)
def test_nested_config_fails_at_construction(nested, message):
    # A nested typo used to fail only at run time, every cell of that model
    # or feature family recorded as failed while the rest of the grid ran.
    with pytest.raises(ExperimentError, match=re.escape(message)):
        ExperimentConfig.from_dict({"data_dir": "x", **nested})
    with pytest.raises(ExperimentError, match=re.escape(message)):
        ExperimentConfig(**nested)


@pytest.mark.parametrize("raw, message", [
    ({"feature_types": []}, "feature_types must be a non-empty list of names from ('expression', 'radiomics'), got []"),
    ({"reductions": "none"}, "reductions must be a non-empty list of names from"),
    ({"feature_types": "expression"}, "feature_types must be a non-empty list of names from"),
    ({"models": ["random_forest", "random_forest"]}, "models lists 'random_forest' more than once"),
    ({"reductions": ["pca", "none", "pca"]}, "reductions lists 'pca' more than once"),
    ({"models": []}, "models must be a non-empty list"),
    ({"data_dir": 5}, "data_dir must be a path string, got 5"),
    ({"data_dir": None}, "data_dir must be a path string, got None"),
])
def test_config_rejects_bad_lists_and_data_dir(raw, message):
    # An empty list wrote a report with no cells, a model listed twice
    # trained twice into one cell, and a string was read letter by letter.
    with pytest.raises(ExperimentError, match=re.escape(message)):
        ExperimentConfig.from_dict(raw)


def test_missing_dataset_errors(tmp_path):
    config = ExperimentConfig(data_dir=str(tmp_path / "absent"))
    with pytest.raises(ExperimentError, match="manifest"):
        run_experiment(config, str(tmp_path / "out"))


_OK_METRICS = {"accuracy": 0.9, "precision": 1.0, "recall": 0.5, "f1": 0.6667, "roc_auc": None}


@pytest.mark.parametrize("key, outcome, problem", [
    ("expression|none|random_forest", {}, 'status must be "ok" or "failed"'),
    ("expression|none|random_forest", {"status": "done"}, 'status must be "ok" or "failed"'),
    ("expression|none|random_forest", [], 'status must be "ok" or "failed"'),
    ("expression", {"status": "failed", "reason": "x"}, "key must be feature_type|reduction|model"),
    ("a|b|c|d", {"status": "failed", "reason": "x"}, "key must be feature_type|reduction|model"),
    ("expression|none|random_forest", {"status": "failed"}, "a failed cell must hold a reason"),
    ("expression|none|random_forest", {"status": "ok"}, "an ok cell must hold metrics"),
    ("expression|none|random_forest", {"status": "ok", "metrics": {**_OK_METRICS, "f1": None}},
     "metric f1 must be a number, got None"),
    ("expression|none|random_forest", {"status": "ok", "metrics": {**_OK_METRICS, "recall": True}},
     "metric recall must be a number, got True"),
    ("expression|none|random_forest", {"status": "ok", "metrics": {"accuracy": 1.0}},
     "metric precision must be a number, got None"),
])
def test_load_report_rejects_a_malformed_cell_naming_path_and_key(tmp_path, key, outcome, problem):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"config": {}, "seed": 1, "cells": {key: outcome}}))
    with pytest.raises(ExperimentError, match=re.escape(f"{path}: cell {key!r}: {problem}")):
        load_report(str(path))


def test_load_report_accepts_ok_and_failed_cells(tmp_path):
    cells = {
        "expression|none|random_forest": {"status": "ok", "metrics": {**_OK_METRICS, "tp": 3}},
        "expression|pca|random_forest": {"status": "ok", "metrics": {**_OK_METRICS, "roc_auc": 0.75}},
        "radiomics|none|gradient_boosting": {"status": "failed", "reason": "ValueError: x"},
    }
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"config": {}, "seed": 1, "cells": cells}))
    assert load_report(str(path)).cells == cells


def test_tree_only_report_bytes_are_pinned(small_data, monkeypatch, tmp_path):
    # Both feature families, no reduction, both tree baselines: no BLAS call
    # is involved, so these bytes hold on any CPU. The report embeds
    # data_dir, hence the relative path.
    monkeypatch.chdir(os.path.dirname(small_data))
    config = ExperimentConfig.from_dict({
        "data_dir": "data",
        "reductions": ["none"],
        "models": ["random_forest", "gradient_boosting"],
        "forest": {"n_trees": 10},
        "boost": {"n_rounds": 10},
        "seed": 5,
    })
    report = run_experiment(config, str(tmp_path / "out"))
    assert len(report.cells) == 4 and all(c["status"] == "ok" for c in report.cells.values())
    digest = hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest()
    assert digest == "69432a113d9395764e6d4849d10f95692eb9ada525dc0b94a926b9afd950d0e3"


def test_grand_report_bytes_are_pinned(small_data, monkeypatch, tmp_path):
    # Both feature families, no reduction, both GRAND graphs; any change to
    # the adjacency, the mask draws, the loss, its gradients or the Adam step
    # moves it. The MLP products go through BLAS: recorded with numpy 2.4.6
    # and scipy-openblas 0.3.31 on x86-64 (AVX-512).
    monkeypatch.chdir(os.path.dirname(small_data))
    config = ExperimentConfig.from_dict({
        "data_dir": "data",
        "reductions": ["none"],
        "models": ["grand_feature_graph", "grand_spatial_graph"],
        "grand": {"max_epochs": 40, "patience": 10},
        "seed": 5,
    })
    report = run_experiment(config, str(tmp_path / "out"))
    assert len(report.cells) == 4 and all(c["status"] == "ok" for c in report.cells.values())
    digest = hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest()
    assert digest == "ef4cde0caf99a9dbdd4cf9d08b5b9b2927e16e98cf143f7a397b77ae0f94b08b"


def _run_reductions(small_data, monkeypatch, out):
    monkeypatch.chdir(os.path.dirname(small_data))
    config = ExperimentConfig.from_dict({
        "data_dir": "data",
        "feature_types": ["expression"],
        "reductions": ["tsne", "umap"],
        "models": ["random_forest", "gradient_boosting"],
        "forest": {"n_trees": 10},
        "boost": {"n_rounds": 10},
        "tsne": {"perplexity": 10, "n_iters": 260},
        "umap": {"n_neighbors": 8, "n_epochs": 60},
        "seed": 6,
    })
    return run_experiment(config, str(out))


def test_reduction_report_bytes_are_pinned(small_data, monkeypatch, tmp_path):
    # t-SNE and UMAP distances go through BLAS: recorded with numpy 2.4.6 and
    # scipy-openblas 0.3.31 on x86-64 (AVX-512).
    report = _run_reductions(small_data, monkeypatch, tmp_path / "out")
    assert all(c["status"] == "ok" for c in report.cells.values())
    digest = hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest()
    assert digest == "a5e3e7b74f0a96ce9b3c11609f1856cd836d03f6a4f3fb510f4b435590be0cec"

    # the reduction diagnostics go to every cell log of the group, not the report
    def log_fields(key):
        text = (tmp_path / "out" / "runs" / key.replace("|", "__") / "log.txt").read_text()
        return dict(line.split(": ", 1) for line in text.splitlines())

    for model in ("random_forest", "gradient_boosting"):
        tsne_log = log_fields(f"expression|tsne|{model}")
        assert 0.0 < float(tsne_log["tsne_final_kl"]) < 10.0
        assert 0.0 <= float(tsne_log["tsne_max_perplexity_error"]) <= 1e-3
        assert "umap_a" not in tsne_log
        umap_log = log_fields(f"expression|umap|{model}")
        assert float(umap_log["umap_a"]) == pytest.approx(1.577, abs=0.05)
        assert float(umap_log["umap_b"]) == pytest.approx(0.895, abs=0.05)
        assert "tsne_final_kl" not in umap_log
    assert "tsne_final_kl" not in json.dumps(report.cells)


def test_pca_cells_log_the_explained_variance(small_data, monkeypatch, tmp_path):
    from cellgraph.dimred import pca

    monkeypatch.chdir(os.path.dirname(small_data))
    config = ExperimentConfig.from_dict({
        "data_dir": "data", "feature_types": ["expression"], "reductions": ["pca", "none"],
        "models": ["random_forest"], "forest": {"n_trees": 5}, "reduce_dim": 2, "seed": 6,
    })
    run_experiment(config, str(tmp_path / "out"))
    _, _, Z = experiment._prepare_table(load_dataset("data/manifest.json"), "expression", config)
    kept = float(pca(Z, 2).diagnostics["explained_variance_ratio"].sum())
    runs = tmp_path / "out" / "runs"
    pca_log = (runs / "expression__pca__random_forest" / "log.txt").read_text().splitlines()
    assert f"pca_explained_variance: {kept}" in pca_log and 0.0 < kept < 1.0
    assert "pca_explained_variance" not in (runs / "expression__none__random_forest" / "log.txt").read_text()


@pytest.mark.parametrize("grand, stop", [
    ({"max_epochs": 40, "patience": 3}, "patience"),
    ({"max_epochs": 4, "patience": 30}, "max_epochs"),
    # patience 0 breaks at the first epoch without a better score, and a first epoch always scores better
    ({"max_epochs": 1, "patience": 0}, "max_epochs"),
])
def test_grand_cell_logs_carry_training_and_graph_diagnostics(small_data, tmp_path, grand, stop):
    config = ExperimentConfig(
        data_dir=small_data, feature_types=("expression",), reductions=("none",),
        models=("grand_feature_graph", "grand_spatial_graph", "random_forest"),
        forest={"n_trees": 5}, grand=grand, seed=8,
    )
    report = run_experiment(config, str(tmp_path / "out"))
    assert all(c["status"] == "ok" for c in report.cells.values())

    def log_fields(key):
        text = (tmp_path / "out" / "runs" / key.replace("|", "__") / "log.txt").read_text()
        return dict(line.split(": ", 1) for line in text.splitlines())

    for model in ("grand_feature_graph", "grand_spatial_graph"):
        log = log_fields(f"expression|none|{model}")
        epochs, best = int(log["grand_epochs"]), int(log["grand_best_epoch"])
        assert log["grand_stop"] == stop
        assert 1 <= best <= epochs <= grand["max_epochs"]
        if stop == "patience":
            assert epochs - best == grand["patience"]
        # 150 cells, k=5: at least 150 * 5 / 2 undirected edges, at most 150 * 5
        assert 375 <= int(log["graph_edges"]) <= 750
        assert 0.0 <= float(log["graph_train_homophily"]) <= 1.0
    assert "grand_epochs" not in log_fields("expression|none|random_forest")
    assert "grand_epochs" not in (tmp_path / "out" / "report.json").read_text()


def test_spatial_graph_is_built_once_per_feature_table(small_data, tmp_path):
    # The spatial graph reads only the centroids, the sample ids, k and the
    # train mask, so every reduction of a feature table shares one build.
    config = ExperimentConfig(
        data_dir=small_data, reductions=("none", "pca"), models=("grand_spatial_graph", "grand_feature_graph"),
        grand={"max_epochs": 2, "patience": 2}, seed=9,
    )
    with mock.patch.object(graphs, "spatial_knn_graph", wraps=graphs.spatial_knn_graph) as build:
        report = run_experiment(config, str(tmp_path / "out"))
    assert build.call_count == 2
    assert all(c["status"] == "ok" for c in report.cells.values())
    timings = json.loads((tmp_path / "out" / "timings.json").read_text())
    assert {"expression|spatial_graph", "radiomics|spatial_graph"} <= set(timings)

    # each spatial cell logs the lines of a graph built for that cell alone
    data = load_dataset(os.path.join(small_data, "manifest.json"))
    for ft in ("expression", "radiomics"):
        table = extract_features(data, ft, {})
        masks = split_and_standardize(table, derive_seed(config.seed, "split"))[0]
        graph = graphs.build_cell_graph("spatial", table.features, table, config.k)
        n_edges, homophily = graphs.edge_homophily(graph, table.labels, masks.train)
        for red in config.reductions:
            log = (tmp_path / "out" / "runs" / f"{ft}__{red}__grand_spatial_graph" / "log.txt").read_text()
            assert f"graph_edges: {n_edges}\ngraph_train_homophily: {homophily}\n" in log


def test_spatial_graph_failure_fails_every_spatial_cell(small_data, tmp_path):
    # A failed build fails each spatial cell with its own reason, as a build
    # per cell did; a reduction that fails first keeps its reason, and the
    # other models still run.
    config = ExperimentConfig(
        data_dir=small_data, feature_types=("expression",), reductions=("none", "pca", "tsne"),
        models=("grand_spatial_graph", "random_forest"), forest={"n_trees": 3}, tsne={"perplexity": 200}, seed=10,
    )
    with mock.patch.object(graphs, "spatial_knn_graph", side_effect=graphs.GraphError("no centroids")):
        report = run_experiment(config, str(tmp_path / "out"))
    for red in ("none", "pca"):
        assert report.cells[f"expression|{red}|grand_spatial_graph"] == {
            "status": "failed", "reason": "GraphError: no centroids"}
        assert report.cells[f"expression|{red}|random_forest"]["status"] == "ok"
    assert "perplexity" in report.cells["expression|tsne|grand_spatial_graph"]["reason"]


def test_features_are_standardized_once_per_table(small_data, tmp_path):
    # every reduction of a feature table reads one Z, and no reduction or
    # model writes to it
    real = experiment.standardize_features
    shared = []

    def standardize(X, train_mask):
        out = real(X, train_mask)
        shared.append((out[0], out[0].copy()))
        return out

    config = ExperimentConfig(data_dir=small_data, seed=11, forest={"n_trees": 3}, boost={"n_rounds": 3},
                              **{**FAST, "grand": {"max_epochs": 3, "patience": 3}})
    with mock.patch.object(experiment, "standardize_features", side_effect=standardize) as calls:
        report = run_experiment(config, str(tmp_path / "out"))
    assert calls.call_count == len(config.feature_types)
    assert all(c["status"] == "ok" for c in report.cells.values())
    for Z, before in shared:
        np.testing.assert_array_equal(Z, before)


def test_standardization_failure_fails_every_cell_of_its_table(small_data, tmp_path):
    config = ExperimentConfig(data_dir=small_data, reductions=("none", "pca"),
                              models=("grand_spatial_graph", "random_forest"), forest={"n_trees": 3},
                              grand={"max_epochs": 2, "patience": 2}, seed=12)
    real = experiment.standardize_features
    calls = []

    def standardize(X, train_mask):  # the second table, radiomics, fails
        calls.append(X)
        if len(calls) == 2:
            raise HarnessError("empty train mask for standardization")
        return real(X, train_mask)

    with mock.patch.object(experiment, "standardize_features", side_effect=standardize):
        report = run_experiment(config, str(tmp_path / "out"))
    for key, outcome in report.cells.items():
        if key.startswith("radiomics|"):
            assert outcome == {"status": "failed", "reason": "HarnessError: empty train mask for standardization"}
        else:
            assert outcome["status"] == "ok"


def test_model_failure_fails_only_its_own_cells(small_data, tmp_path):
    # a model that raises fails its cells with its reason and log; every
    # other model of each group still runs, and each cell is timed
    config = ExperimentConfig(data_dir=small_data, reductions=("none", "pca"), models=tuple(experiment.MODELS),
                              forest={"n_trees": 3}, grand={"max_epochs": 2, "patience": 2}, seed=13)
    with mock.patch.object(experiment, "train_gradient_boosting", side_effect=TreeError("no rounds left")):
        report = run_experiment(config, str(tmp_path / "out"))
    timings = json.loads((tmp_path / "out" / "timings.json").read_text())
    assert len(report.cells) == 16
    for key, outcome in report.cells.items():
        if key.endswith("|gradient_boosting"):
            assert outcome == {"status": "failed", "reason": "TreeError: no rounds left"}
            log = (tmp_path / "out" / "runs" / key.replace("|", "__") / "log.txt").read_text().splitlines()
            assert log[:3] == [f"cell: {key}", "status: failed", "reason: TreeError: no rounds left"]
            # then the group's reduction diagnostics: PCA logs its explained variance
            assert [line.split(": ")[0] for line in log[3:]] == (["pca_explained_variance"] if "|pca|" in key else [])
        else:
            assert outcome["status"] == "ok"
        assert key in timings


def test_fit_and_predict_pick_the_estimator_by_config_class(small_data):
    # the one path the experiment cells and the CLI's train, baseline and evaluate stages share
    table = extract_features(load_dataset(os.path.join(small_data, "manifest.json")), "expression", {})
    masks, X = split_and_standardize(table, derive_seed(ExperimentConfig().seed, "split"))
    y = table.labels
    adj = graphs.normalize_adjacency(graphs.build_cell_graph("feature", X, table, 5))
    for config, model_type in ((GrandConfig(max_epochs=2, seed=1), GrandModel),
                               (ForestConfig(n_trees=3, seed=1), ForestModel),
                               (BoostConfig(n_rounds=3, seed=1), BoostModel)):
        model, probs = experiment.fit_model(config, X, y, masks, adj)
        assert type(model) is model_type and model.config == config
        assert probs.shape == (len(X), 2)
        np.testing.assert_array_equal(experiment.predict_model(model, X, adj), probs)
