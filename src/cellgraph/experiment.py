"""Experiment matrix: feature type x reduction x model on one dataset.

One run extracts both feature families, standardizes with train-split
statistics, applies each requested reduction, and trains every requested
model per reduced representation, scoring the held-out test cells. Every
sub-seed derives from the single experiment seed, so a rerun with the same
configuration reproduces report.json byte for byte; wall-clock timings go
to a separate timings.json for that reason.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import dataset as ds
from .dimred import reduce_features, tsne, umap
from .expression import expression_profile
from .grand import GrandConfig, predict_grand, train_grand
from .graphs import build_cell_graph, normalize_adjacency
from .harness import (
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
MODELS = ("grand_feature_graph", "grand_spatial_graph", "random_forest", "gradient_boosting")
_GRAPH_KINDS = {"grand_feature_graph": "feature", "grand_spatial_graph": "spatial"}


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
    threads: int = 1
    split_by: str = "cell"  # or "case"
    threshold: float = 0.5
    grand: dict = field(default_factory=dict)
    forest: dict = field(default_factory=dict)
    boost: dict = field(default_factory=dict)
    tsne: dict = field(default_factory=dict)
    umap: dict = field(default_factory=dict)
    radiomics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.feature_types = tuple(self.feature_types)
        self.reductions = tuple(self.reductions)
        self.models = tuple(self.models)
        for ft in self.feature_types:
            if ft not in FEATURE_TYPES:
                raise ExperimentError(f"unknown feature type {ft!r}")
        for red in self.reductions:
            if red not in REDUCTIONS:
                raise ExperimentError(f"unknown reduction {red!r}")
        for model in self.models:
            if model not in MODELS:
                raise ExperimentError(f"unknown model {model!r}")
        if self.split_by not in ("cell", "case"):
            raise ExperimentError("split_by must be 'cell' or 'case'")
        try:
            for key in ("k", "reduce_dim", "threads"):
                ds.check_field(key, getattr(self, key), int, lo=1)
            ds.check_field("seed", self.seed, int, lo=0)
            ds.check_field("threshold", self.threshold, float, lo=0.0, hi=1.0)
        except ValueError as exc:
            raise ExperimentError(str(exc)) from exc
        # read the stage configs now, so a typo fails the run before any cell
        for key, stage in (("grand", GrandConfig), ("forest", ForestConfig), ("boost", BoostConfig),
                           ("radiomics", RadiomicsConfig)):
            try:
                ds.config_from_dict(stage, getattr(self, key))
            except (ValueError, TypeError) as exc:
                raise ExperimentError(f"{key}: {exc}") from exc
        # the reductions take their dict as keyword arguments beside X, d and seed
        for key, reduce in (("tsne", tsne), ("umap", umap)):
            params = getattr(self, key)
            if not isinstance(params, dict):
                raise ExperimentError(f"{key}: expected a dict of {key} arguments, got {params!r}")
            unknown = set(params) - (set(inspect.signature(reduce).parameters) - {"X", "d", "seed"})
            if unknown:
                raise ExperimentError(f"{key}: unknown {key} config keys: {sorted(unknown)}")

    from_dict = classmethod(partial(ds.config_from_dict, error=ExperimentError))

    def to_dict(self) -> dict:
        # snapshot of result-affecting parameters; thread count is an
        # execution detail and never changes results, so it stays out of
        # the reproducibility record
        return {key: value for key, value in asdict(self).items() if key != "threads"}


@dataclass
class ExperimentReport:
    config: dict
    seed: int
    cells: dict  # "ft|reduction|model" -> {"status", "metrics"/"reason"}

    def to_json(self) -> str:
        return json.dumps(
            {"config": self.config, "seed": self.seed, "cells": self.cells},
            sort_keys=True,
            indent=2,
        ) + "\n"


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
        labels = dict(zip(sample.cells.cell_ids.tolist(), sample.cells.labels.tolist()))
        if feature_type == "expression":
            tables.append(expression_profile(sample.stack, sample.mask, labels=labels))
        else:
            tables.append(radiomic_feature_table(sample.stack, sample.mask, rconf, labels=labels))
    return ds.pool_tables(tables)


def _make_split(table: ds.CellTable, config: ExperimentConfig) -> SplitMasks:
    seed = derive_seed(config.seed, "split")
    if config.split_by == "case":
        return case_stratified_split(table.labels, table.sample_ids, seed=seed)
    return stratified_split(table.labels, seed=seed)


def _run_model(model: str, table: ds.CellTable, X_red: np.ndarray, masks: SplitMasks,
               config: ExperimentConfig, seed: int) -> dict:
    y = table.labels
    if model in _GRAPH_KINDS:
        adj = normalize_adjacency(build_cell_graph(_GRAPH_KINDS[model], X_red, table, config.k))
        gconf = GrandConfig.from_dict({**config.grand, "seed": seed})
        trained = train_grand(adj, X_red, y, (masks.train, masks.val), gconf, n_classes=2)
        probs, _ = predict_grand(trained, adj, X_red)
    elif model == "random_forest":
        fconf = ForestConfig.from_dict({**config.forest, "seed": seed})
        forest = train_random_forest(X_red[masks.train], y[masks.train], fconf)
        probs = predict_tabular(forest, X_red)
    else:
        bconf = BoostConfig.from_dict({**config.boost, "seed": seed})
        boost = train_gradient_boosting(X_red[masks.train], y[masks.train], bconf)
        probs = predict_tabular(boost, X_red)
    metrics = compute_metrics(y[masks.test], probs[masks.test], threshold=config.threshold)
    return metrics.to_dict()


def _reduction_notes(diagnostics: dict) -> list:
    """Log lines for the reduction's diagnostics (t-SNE, UMAP; none otherwise)."""
    notes = []
    if "kl_curve" in diagnostics:
        notes.append(f"tsne_final_kl: {float(diagnostics['kl_curve'][-1])}")
        notes.append(f"tsne_max_perplexity_error: {diagnostics['perplexity_error']}")
    if "a" in diagnostics:
        notes.append(f"umap_a: {diagnostics['a']}")
        notes.append(f"umap_b: {diagnostics['b']}")
    return notes


def _run_reduction_group(feature_type: str, reduction: str, table: ds.CellTable,
                         masks: SplitMasks, config: ExperimentConfig):
    """All model cells sharing one (feature type, reduction) representation.

    Returns (results, timings, notes); ``notes`` are the reduction's log lines.
    """
    results = {}
    timings = {}
    try:
        Z, _, _ = standardize_features(table.features, masks.train)
        kwargs = {}
        if reduction == "tsne":
            kwargs = dict(config.tsne)
        elif reduction == "umap":
            kwargs = dict(config.umap)
        dim = min(config.reduce_dim, Z.shape[1], Z.shape[0] - 1)
        t0 = time.perf_counter()
        emb = reduce_features(
            Z, reduction, dim,
            seed=derive_seed(config.seed, f"reduce|{feature_type}|{reduction}"), **kwargs
        )
        timings["reduce"] = time.perf_counter() - t0
        X_red = emb.Y
        notes = _reduction_notes(emb.diagnostics)
        del emb  # t-SNE's n x n P is not needed by the models
    except Exception as exc:  # noqa: BLE001 - cell failures are recorded, not raised
        reason = f"{type(exc).__name__}: {exc}"
        for model in config.models:
            results[cell_key(feature_type, reduction, model)] = {"status": "failed", "reason": reason}
        return results, timings, []

    for model in config.models:
        key = cell_key(feature_type, reduction, model)
        seed = derive_seed(config.seed, key)
        t0 = time.perf_counter()
        try:
            metrics = _run_model(model, table, X_red, masks, config, seed)
            results[key] = {"status": "ok", "metrics": metrics}
        except Exception as exc:  # noqa: BLE001
            results[key] = {"status": "failed", "reason": f"{type(exc).__name__}: {exc}"}
        timings[key] = time.perf_counter() - t0
    return results, timings, notes


def run_experiment(config: ExperimentConfig, out_dir: str) -> ExperimentReport:
    """Execute the grid and write report.json, table1.csv, and timings.json.

    A failure in any stage marks the affected cells as failed with the
    reason; remaining cells still run. Deterministic for a fixed config and
    seed, including with threads > 1.
    """
    manifest = os.path.join(config.data_dir, "manifest.json")
    if not os.path.isfile(manifest):
        raise ExperimentError(f"dataset manifest not found: {manifest}")
    data = ds.load_dataset(manifest)
    os.makedirs(out_dir, exist_ok=True)
    runs_dir = os.path.join(out_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)

    cells = {}
    timings = {}
    tables_by_ft = {}
    masks_by_ft = {}
    for ft in config.feature_types:
        t0 = time.perf_counter()
        try:
            tables_by_ft[ft] = extract_features(data, ft, config.radiomics)
            masks_by_ft[ft] = _make_split(tables_by_ft[ft], config)
        except Exception as exc:  # noqa: BLE001
            reason = f"{type(exc).__name__}: {exc}"
            for red in config.reductions:
                for model in config.models:
                    cells[cell_key(ft, red, model)] = {"status": "failed", "reason": reason}
        timings[f"extract|{ft}"] = time.perf_counter() - t0

    groups = [
        (ft, red)
        for ft in config.feature_types
        for red in config.reductions
        if ft in masks_by_ft  # both extraction and split succeeded
    ]

    def worker(group):
        ft, red = group
        return _run_reduction_group(ft, red, tables_by_ft[ft], masks_by_ft[ft], config)

    if config.threads > 1 and len(groups) > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            outcomes = list(pool.map(worker, groups))
    else:
        outcomes = [worker(g) for g in groups]

    for (ft, red), (results, group_timings, notes) in zip(groups, outcomes):
        cells.update(results)
        for name, dt in group_timings.items():
            timings[f"{ft}|{red}|{name}" if name == "reduce" else name] = dt
        _write_cell_logs(runs_dir, results, notes)

    report = ExperimentReport(config=config.to_dict(), seed=config.seed, cells=cells)
    ds._atomic_write(os.path.join(out_dir, "report.json"), report.to_json().encode("ascii"))
    _write_table_csv(os.path.join(out_dir, "table1.csv"), report)
    ds._atomic_write(
        os.path.join(out_dir, "timings.json"),
        (json.dumps({k: round(v, 6) for k, v in sorted(timings.items())}, indent=2) + "\n").encode("ascii"),
    )
    return report


def _write_cell_logs(runs_dir: str, results: dict, notes: list) -> None:
    for key, outcome in results.items():
        cell_dir = os.path.join(runs_dir, key.replace("|", "__"))
        os.makedirs(cell_dir, exist_ok=True)
        lines = [f"cell: {key}", f"status: {outcome['status']}"]
        if outcome["status"] == "ok":
            for name, value in sorted(outcome["metrics"].items()):
                lines.append(f"{name}: {value}")
        else:
            lines.append(f"reason: {outcome['reason']}")
        lines.extend(notes)
        ds._atomic_write(os.path.join(cell_dir, "log.txt"), ("\n".join(lines) + "\n").encode("ascii"))


def _write_table_csv(path: str, report: ExperimentReport) -> None:
    lines = ["feature_type,reduction,model,accuracy,precision,recall,f1,roc_auc,status"]
    for key in sorted(report.cells):
        ft, red, model = key.split("|")
        outcome = report.cells[key]
        if outcome["status"] == "ok":
            m = outcome["metrics"]
            auc = "" if m["roc_auc"] is None else f"{m['roc_auc']:.4f}"
            lines.append(
                f"{ft},{red},{model},{m['accuracy']:.4f},{m['precision']:.4f},"
                f"{m['recall']:.4f},{m['f1']:.4f},{auc},ok"
            )
        else:
            lines.append(f"{ft},{red},{model},,,,,,failed")
    ds._atomic_write(path, ("\n".join(lines) + "\n").encode("ascii"))


def load_report(path: str) -> ExperimentReport:
    with open(path, "r") as fh:
        raw = json.load(fh)
    return ExperimentReport(config=raw["config"], seed=raw["seed"], cells=raw["cells"])
