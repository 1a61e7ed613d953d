import hashlib
import json
import os
import re

import pytest

from cellgraph.experiment import (
    ExperimentConfig,
    ExperimentError,
    cell_key,
    load_report,
    run_experiment,
)
from cellgraph.synth import SynthConfig, generate_synthetic_dataset


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
        ({"forest": [1]}, "forest: "),
        ({"boost": None}, "boost: "),
        ({"tsne": {"perplexty": 5}}, "tsne: unknown tsne config keys: ['perplexty']"),
        ({"umap": {"n_neighbors": 8, "seed": 1, "d": 2}}, "umap: unknown umap config keys: ['d', 'seed']"),
        ({"tsne": [1]}, "tsne: expected a dict of tsne arguments, got [1]"),
        ({"tsne": {"perplexity": "5"}}, "tsne: perplexity must be a finite number, got '5'"),
        ({"tsne": {"early_exaggeration": 0}}, "tsne: early_exaggeration must be > 0.0, got 0"),
        ({"tsne": {"learning_rate": 0.0}}, "tsne: learning_rate must be > 0.0, got 0.0"),
        ({"umap": {"n_epochs": 1.5}}, "umap: n_epochs must be an integer, got 1.5"),
        ({"umap": {"min_dist": -0.1}}, "umap: min_dist must lie in [0.0, inf], got -0.1"),
        ({"radiomics": {"channels": [], "shape": False}}, "radiomics: channels is empty and shape is false"),
    ],
)
def test_nested_config_fails_at_construction(nested, message):
    # A nested typo used to fail only at run time, every cell of that model
    # or feature family recorded as failed while the rest of the grid ran.
    with pytest.raises(ExperimentError, match=re.escape(message)):
        ExperimentConfig.from_dict({"data_dir": "x", **nested})
    with pytest.raises(ExperimentError, match=re.escape(message)):
        ExperimentConfig(**nested)


def test_missing_dataset_errors(tmp_path):
    config = ExperimentConfig(data_dir=str(tmp_path / "absent"))
    with pytest.raises(ExperimentError, match="manifest"):
        run_experiment(config, str(tmp_path / "out"))


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


@pytest.mark.parametrize("grand, stop", [
    ({"max_epochs": 40, "patience": 3}, "patience"),
    ({"max_epochs": 4, "patience": 30}, "max_epochs"),
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
