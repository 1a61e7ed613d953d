"""Experiment matrix: feature type x reduction x model on one dataset.

One run extracts both feature families, standardizes with train-split
statistics, applies each requested reduction, and trains every requested
model per reduced representation, scoring the held-out test cells. Every
sub-seed derives from the single experiment seed, so a rerun with the same
configuration reproduces report.json byte for byte; wall-clock timings go
to a separate timings.json for that reason.
"""

from __future__ import annotations

import numbers
import os
import time
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import dataset as ds
from .dimred import TsneConfig, UmapConfig, reduce_features
from .expression import expression_profile
from .grand import GrandConfig, GrandModel, predict_grand, train_grand
from .graphs import build_cell_graph, edge_homophily, normalize_adjacency
from .harness import (
    METRIC_NAMES,
    SplitMasks,
    case_stratified_split,
    compute_metrics,
    standardize_features,
    stratified_split,
)
from .radiomics import RadiomicsConfig, radiomic_feature_table
from .rng import derive_seed
from .trees import BoostConfig, ForestConfig, predict_tabular, train_gradient_boosting, train_random_forest

FEATURE_TYPES = ("expression", "radiomics")
REDUCTIONS = ("none", "pca", "tsne", "umap")
# each model's ExperimentConfig field and the stage config class it holds
MODEL_CONFIGS = {"grand_feature_graph": ("grand", GrandConfig), "grand_spatial_graph": ("grand", GrandConfig),
                 "random_forest": ("forest", ForestConfig), "gradient_boosting": ("boost", BoostConfig)}
MODELS = tuple(MODEL_CONFIGS)


class ExperimentError(Exception):
    pass


@dataclass
class ExperimentConfig:
    data_dir: str = ""
    feature_types: tuple = FEATURE_TYPES
    reductions: tuple = REDUCTIONS
    models: tuple = MODELS
    k: int = 5
    reduce_dim: int = 16
    seed: int = 0
    threads: int = 1  # checked, then unused: groups run one at a time
    split_by: str = "cell"  # or "case"
    threshold: float = 0.5
    grand: dict = field(default_factory=dict)
    forest: dict = field(default_factory=dict)
    boost: dict = field(default_factory=dict)
    tsne: dict = field(default_factory=dict)
    umap: dict = field(default_factory=dict)
    radiomics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.data_dir, str):
            raise ExperimentError(f"data_dir must be a path string, got {self.data_dir!r}")
        for key, noun, allowed in (("feature_types", "feature type", FEATURE_TYPES),
                                   ("reductions", "reduction", REDUCTIONS), ("models", "model", MODELS)):
            names = getattr(self, key)
            if not isinstance(names, (list, tuple)) or not names:
                raise ExperimentError(f"{key} must be a non-empty list of names from {allowed}, got {names!r}")
            for name in names:
                if name not in allowed:
                    raise ExperimentError(f"unknown {noun} {name!r}")
                if names.count(name) > 1:
                    raise ExperimentError(f"{key} lists {name!r} more than once")
            setattr(self, key, tuple(names))
        if self.split_by not in ("cell", "case"):
            raise ExperimentError("split_by must be 'cell' or 'case'")
        try:
            ds.check_fields(self, {
                "k": (int, 1),
                "reduce_dim": (int, 1),
                "threads": (int, 1),
                "seed": (int, 0),
                "threshold": (float, 0.0, 1.0),
            })
        except ValueError as exc:
            raise ExperimentError(str(exc)) from exc
        # read the stage configs now, so a typo fails the run before any cell
        stages = {**dict(MODEL_CONFIGS.values()), "tsne": TsneConfig, "umap": UmapConfig, "radiomics": RadiomicsConfig}
        for key, stage in stages.items():
            try:
                ds.config_from_dict(stage, getattr(self, key))
            except (ValueError, TypeError) as exc:
                raise ExperimentError(f"{key}: {exc}") from exc

    from_dict = classmethod(partial(ds.config_from_dict, error=ExperimentError))

    def to_dict(self) -> dict:
        # snapshot of result-affecting parameters; ``threads`` changes
        # nothing (groups run one at a time), so it stays out of the
        # reproducibility record
        return {key: value for key, value in asdict(self).items() if key != "threads"}


@dataclass
class ExperimentReport:
    config: dict
    seed: int
    cells: dict  # "ft|reduction|model" -> {"status", "metrics"/"reason"}


def cell_key(feature_type: str, reduction: str, model: str) -> str:
    return f"{feature_type}|{reduction}|{model}"


def extract_features(data: ds.Dataset, feature_type: str, radiomics: dict) -> ds.CellTable:
    """Extract one feature family from every sample into one pooled table.

    Rows are sorted by (sample_id, cell_id) and carry each cell's recorded
    class label. ``radiomics`` holds RadiomicsConfig keys and is read only
    for the radiomics family.
    """
    if feature_type == "radiomics":
        rconf = RadiomicsConfig.from_dict(radiomics)
    elif feature_type != "expression":
        raise ExperimentError(f"unknown feature type {feature_type!r}")
    tables = []
    for sample in data.samples:
        if feature_type == "expression":
            tables.append(expression_profile(sample))
        else:
            tables.append(radiomic_feature_table(sample, rconf))
    return ds.pool_tables(tables)


def _graph(kind: str, X: np.ndarray, table: ds.CellTable, masks: SplitMasks, k: int):
    """(log lines, normalized adjacency) of the ``kind`` cell graph over ``table``."""
    graph = build_cell_graph(kind, X, table, k)
    n_edges, homophily = edge_homophily(graph, table.labels, masks.train)
    return [f"graph_edges: {n_edges}", f"graph_train_homophily: {homophily}"], normalize_adjacency(graph)


def fit_model(config, X: np.ndarray, y: np.ndarray, masks: SplitMasks, adj=None):
    """(model, class probabilities of every row of ``X``). The class of
    ``config`` picks the estimator: GRAND on the normalized adjacency ``adj``,
    stopping on the validation rows, for a ``GrandConfig``; the forest or the
    boosted trees on the train rows for a ``ForestConfig`` or ``BoostConfig``."""
    if isinstance(config, GrandConfig):
        model = train_grand(adj, X, y, (masks.train, masks.val), config, n_classes=2)
    elif isinstance(config, ForestConfig):
        model = train_random_forest(X[masks.train], y[masks.train], config)
    else:
        model = train_gradient_boosting(X[masks.train], y[masks.train], config)
    return model, predict_model(model, X, adj)


def predict_model(model, X: np.ndarray, adj=None) -> np.ndarray:
    """Class probabilities of every row of ``X`` under a fitted model
    (GRAND reads the normalized adjacency ``adj``)."""
    if isinstance(model, GrandModel):
        return predict_grand(model, adj, X)[0]
    return predict_tabular(model, X)


def _run_model(model: str, table: ds.CellTable, X_red: np.ndarray, masks: SplitMasks,
               config: ExperimentConfig, seed: int, spatial):
    """(test metrics, the model's log lines) for one cell; the spatial GRAND
    cell reads ``spatial``, the table's ``_graph("spatial", ...)`` result."""
    key, stage = MODEL_CONFIGS[model]
    stage_config = stage.from_dict({**getattr(config, key), "seed": seed})
    notes, adj = [], None
    if model == "grand_feature_graph":
        notes, adj = _graph("feature", X_red, table, masks, config.k)
    elif model == "grand_spatial_graph":
        notes, adj = spatial
    fitted, probs = fit_model(stage_config, X_red, table.labels, masks, adj)
    if adj is not None:
        notes = notes + [f"grand_epochs: {len(fitted.history)}", f"grand_best_epoch: {fitted.best_epoch}",
                         f"grand_stop: {fitted.stop_reason}"]
    metrics = compute_metrics(table.labels[masks.test], probs[masks.test], threshold=config.threshold)
    return metrics.to_dict(), notes


def split_and_standardize(table: ds.CellTable, seed: int, split_by: str = "cell"):
    """(split masks, features standardized with the train rows) of ``table``, split by its own labels by
    cell or by case; the experiment and the CLI's ``reduce`` both call it."""
    masks = (case_stratified_split(table.labels, table.sample_ids, seed=seed) if split_by == "case"
             else stratified_split(table.labels, seed=seed))
    return masks, standardize_features(table.features, masks.train)[0]


def _prepare_table(data: ds.Dataset, feature_type: str, config: ExperimentConfig):
    """(table, split masks, features standardized with the train rows) of one family."""
    table = extract_features(data, feature_type, config.radiomics)
    return table, *split_and_standardize(table, derive_seed(config.seed, "split"), config.split_by)


def reduce_with_notes(Z: np.ndarray, reduction: str, d: int, seed: int, settings: dict):
    """(reduced features, log lines of the reduction's diagnostics); the experiment and the CLI's ``reduce`` both
    call it. Only these leave the call, so t-SNE's n x n P is freed before any model of the group runs.
    """
    emb = reduce_features(Z, reduction, d, seed=seed, **settings)
    notes = []
    if "explained_variance_ratio" in emb.diagnostics:
        notes.append(f"pca_explained_variance: {float(emb.diagnostics['explained_variance_ratio'].sum())}")
    if "kl_curve" in emb.diagnostics:
        notes.append(f"tsne_final_kl: {float(emb.diagnostics['kl_curve'][-1])}")
        notes.append(f"tsne_max_perplexity_error: {emb.diagnostics['perplexity_error']}")
    if "a" in emb.diagnostics:
        notes.append(f"umap_a: {emb.diagnostics['a']}")
        notes.append(f"umap_b: {emb.diagnostics['b']}")
    return emb.Y, notes


def _timed(timings: dict, key: str, fn, *args):
    """``fn(*args)``, or the exception it raised as the string ``"<Type>: <message>"``;
    its wall time goes to ``timings[key]``. No exception outlives the call, so
    its traceback cannot keep the failed call's arrays alive."""
    t0 = time.perf_counter()
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - a failure is recorded by the cells that read it
        return f"{type(exc).__name__}: {exc}"
    finally:
        timings[key] = time.perf_counter() - t0


def run_experiment(config: ExperimentConfig, out_dir: str) -> ExperimentReport:
    """Execute the grid and write report.json, table1.csv, and timings.json.

    Groups run one at a time, feature type by feature type, in report order;
    ``config.threads`` is checked but runs nothing in parallel. Each shared
    input (a feature table with its split and standardization, its spatial
    graph, each reduction) is computed once, as its value or the reason it
    failed. A cell fails with the first failed input it reads, in the order
    table, reduction, spatial graph (read by the spatial GRAND cell only),
    or else with its model's exception; remaining cells still run.
    Deterministic for a fixed config and seed.
    """
    manifest = os.path.join(config.data_dir, "manifest.json")
    if not os.path.isfile(manifest):  # ExperimentError, not the reader's DatasetError
        raise ExperimentError(f"dataset manifest not found: {manifest}")
    data = ds.load_dataset(manifest)
    os.makedirs(out_dir, exist_ok=True)
    runs_dir = os.path.join(out_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)

    cells = {}
    timings = {}
    for ft in config.feature_types:
        prepared = _timed(timings, f"extract|{ft}", _prepare_table, data, ft, config)
        table, masks, Z = (None, None, None) if isinstance(prepared, str) else prepared
        # the spatial graph reads only the centroids, the sample ids, k and
        # the train mask, so every reduction of this table shares one build
        spatial = None
        if table is not None and "grand_spatial_graph" in config.models:
            spatial = _timed(timings, f"{ft}|spatial_graph", _graph, "spatial", table.centroids, table, masks,
                             config.k)
        for red in config.reductions:
            reduced = prepared if table is None else _timed(
                timings, f"{ft}|{red}|reduce", reduce_with_notes, Z, red, config.reduce_dim,
                derive_seed(config.seed, f"reduce|{ft}|{red}"), {"tsne": config.tsne, "umap": config.umap}.get(red, {}))
            for model in config.models:
                key = cell_key(ft, red, model)
                inputs = (reduced, spatial) if model == "grand_spatial_graph" else (reduced,)
                failed = [value for value in inputs if isinstance(value, str)]
                outcome = failed[0] if failed else _timed(
                    timings, key, _run_model, model, table, reduced[0], masks, config, derive_seed(config.seed, key),
                    spatial)
                ok = not isinstance(outcome, str)
                cells[key] = {"status": "ok", "metrics": outcome[0]} if ok else {"status": "failed", "reason": outcome}
                notes = ([] if isinstance(reduced, str) else reduced[1]) + (outcome[1] if ok else [])
                _write_cell_log(runs_dir, key, cells[key], notes)

    report = ExperimentReport(config=config.to_dict(), seed=config.seed, cells=cells)
    ds.write_json(os.path.join(out_dir, "report.json"), asdict(report))
    write_table_csv(os.path.join(out_dir, "table1.csv"), report)
    ds.write_json(os.path.join(out_dir, "timings.json"), {k: round(v, 6) for k, v in timings.items()})
    return report


def _write_cell_log(runs_dir: str, key: str, outcome: dict, notes: list) -> None:
    cell_dir = os.path.join(runs_dir, key.replace("|", "__"))
    os.makedirs(cell_dir, exist_ok=True)
    lines = [f"cell: {key}", f"status: {outcome['status']}"]
    if outcome["status"] == "ok":
        for name, value in sorted(outcome["metrics"].items()):
            lines.append(f"{name}: {value}")
    else:
        lines.append(f"reason: {outcome['reason']}")
    lines.extend(notes)
    ds.write_lines(os.path.join(cell_dir, "log.txt"), lines)


def write_table_csv(path: str, report: ExperimentReport) -> None:
    """One row per cell in key order: its METRIC_NAMES to 4 decimals, blank
    for a failed cell or an undefined ROC-AUC, then its status."""
    lines = [",".join(("feature_type", "reduction", "model") + METRIC_NAMES + ("status",))]
    for key in sorted(report.cells):
        outcome = report.cells[key]
        metrics = outcome.get("metrics", {})
        values = ["" if metrics.get(name) is None else f"{metrics[name]:.4f}" for name in METRIC_NAMES]
        lines.append(",".join(key.split("|") + values + [outcome["status"]]))
    ds.write_lines(path, lines)


def load_report(path: str) -> ExperimentReport:
    """The report.json at ``path``; a file that does not hold one raises
    ExperimentError naming the path."""
    raw = ds.read_json(path, "report", ExperimentError)
    if not (isinstance(raw, dict) and set(raw) == {"config", "seed", "cells"} and isinstance(raw["cells"], dict)):
        raise ExperimentError(f"{path}: not an experiment report (expected the keys cells, config and seed)")
    for key, outcome in raw["cells"].items():
        problem = _cell_problem(key, outcome)
        if problem:
            raise ExperimentError(f"{path}: cell {key!r}: {problem}")
    return ExperimentReport(**raw)


def _cell_problem(key: str, outcome) -> str | None:
    """Why one report cell cannot be read, or None when it can."""
    if len(key.split("|")) != 3:
        return "key must be feature_type|reduction|model"
    if not isinstance(outcome, dict) or outcome.get("status") not in ("ok", "failed"):
        return 'status must be "ok" or "failed"'
    if outcome["status"] == "failed":
        return None if isinstance(outcome.get("reason"), str) else "a failed cell must hold a reason"
    metrics = outcome.get("metrics")
    if not isinstance(metrics, dict):
        return "an ok cell must hold metrics"
    for name in METRIC_NAMES:
        value = metrics.get(name)
        if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                or name == "roc_auc" and value is None):
            return f"metric {name} must be a number, got {value!r}"
    return None
