"""Command-line entry point for the pipeline stages.

Global flags (--seed, --config, --out) come before the subcommand and
override the matching values in any loaded config file. Exit codes: 0 on
success, 1 on stage errors (structured message on stderr), 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from . import dataset as ds
from .dimred import reduce_features
from .experiment import (
    MODEL_CONFIGS,
    ExperimentConfig,
    extract_features,
    fit_model,
    load_report,
    predict_model,
    run_experiment,
    write_table_csv,
)
from .grand import GrandConfig, decode_checkpoint, save_checkpoint, save_history_csv
from .graphs import build_cell_graph, normalize_adjacency, read_edge_list, write_edge_list
from .harness import METRIC_NAMES, compute_metrics, standardize_features, stratified_split
from .plots import bar_chart_svg
from .synth import SynthConfig, generate_synthetic_dataset
from .trees import decode_model, save_model


class StageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellgraph",
        description="Cell classification pipeline: synthesize, extract, embed, train, compare.",
    )
    parser.add_argument("--seed", type=int, default=None, help="global seed, overrides config files")
    parser.add_argument("--config", default=None, help="config file for the chosen stage")
    parser.add_argument("--out", default=None, help="output path, overrides stage flag")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", dest="stage_config", default=None, help="synth config JSON")
    p.add_argument("--out", dest="stage_out", default=None, help="output dataset directory")

    p = sub.add_parser("extract", help="extract per-cell features from a dataset")
    p.add_argument("--data", required=True, help="dataset directory containing manifest.json")
    p.add_argument("--features", required=True, choices=["expression", "radiomics"])
    p.add_argument("--out", dest="stage_out", default=None, help="output feature CSV")

    p = sub.add_parser("graph", help="build a cell graph from a feature table")
    p.add_argument("--features", required=True, help="feature CSV")
    p.add_argument("--kind", required=True, choices=["feature", "spatial"])
    p.add_argument("--k", type=int, default=5)
    p.add_argument(
        "--metric", default="euclidean", choices=["euclidean", "cosine"],
        help="distance for --kind feature; the spatial graph is always Euclidean on centroids",
    )
    p.add_argument("--out", dest="stage_out", default=None, help="output edge list")

    p = sub.add_parser("reduce", help="reduce feature dimensionality")
    p.add_argument("--method", required=True, choices=["none", "pca", "tsne", "umap"])
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--in", dest="input", required=True, help="input feature CSV")
    p.add_argument("--out", dest="stage_out", default=None, help="output embedding CSV")

    p = sub.add_parser("train", help="train the graph classifier")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--features", required=True, help="feature CSV")
    p.add_argument("--labels", required=True, help="labels CSV (feature-table schema)")
    p.add_argument("--out", dest="stage_out", default=None, help="model checkpoint path")
    p.add_argument("--history", default=None, help="optional training history CSV")

    p = sub.add_parser("baseline", help="train a tabular baseline")
    p.add_argument("--model", required=True, choices=["random_forest", "gradient_boosting"])
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", dest="stage_out", default=None, help="model file path")

    p = sub.add_parser("evaluate", help="score a trained model on the test split of its training seed")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--graph", default=None, help="edge list (required for graph models)")
    p.add_argument("--predictions", default=None, help="optional per-cell prediction CSV")
    p.add_argument("--out", dest="stage_out", default=None, help="metrics JSON path")

    p = sub.add_parser("experiment", help="run the full comparison matrix")
    p.add_argument("--config", dest="stage_config", default=None, help="experiment config JSON")
    p.add_argument("--data", default=None, help="dataset directory, overrides config")
    p.add_argument("--threads", type=int, default=None, help="checked, then unused: the experiment runs on one thread")
    p.add_argument("--out", dest="stage_out", default=None, help="output report directory")

    p = sub.add_parser("report", help="render a report to CSV and SVG charts")
    p.add_argument("--report", required=True, help="report.json path")
    p.add_argument("--out", dest="stage_out", default=None, help="output directory")

    return parser


def _load_json(path: str) -> dict:
    raw = ds.read_json(path, "config", StageError)
    if not isinstance(raw, dict):
        raise StageError(f"{path}: expected a JSON object of config keys, got {type(raw).__name__}")
    return raw


def _resolve_out(args, default: str | None = None) -> str:
    out = args.out or getattr(args, "stage_out", None) or default
    if out is None:
        raise StageError("no output path given (use --out)")
    return out


def _load_table_sorted(path: str) -> ds.CellTable:
    return ds.pool_tables([ds.read_feature_csv(path)])


def _model_inputs(args, seed: int, grand: bool):
    """(table, y, masks, X, adj) for train, baseline and evaluate.

    Labels come from the features table itself when ``--labels`` names the
    same file; otherwise only the key and label columns of ``--labels`` are
    read, and a cell it does not list is unlabeled. The split comes from the
    model's seed. A GRAND model reads its features standardised with the
    train rows of that split and the normalized adjacency of ``--graph``
    (``adj`` is None otherwise), so evaluate replays what train saw.
    """
    table = _load_table_sorted(args.features)
    if os.path.realpath(args.labels) == os.path.realpath(args.features):
        y = table.labels
    else:
        by_key = ds.read_feature_labels(args.labels)
        y = np.array([by_key.get(key, -1) for key in table.keys()], dtype=np.int64)
    masks = stratified_split(y, seed=seed)
    if not grand:
        return table, y, masks, table.features, None
    Z = standardize_features(table.features, masks.train)[0]
    graph = read_edge_list(args.graph)
    if graph.n_nodes != len(table):
        raise StageError(f"graph has {graph.n_nodes} nodes but feature table has {len(table)} rows")
    return table, y, masks, Z, normalize_adjacency(graph)


def _seeded_config(args, path: str | None) -> dict:
    """The stage config at ``path`` (empty without one), with ``--seed`` applied."""
    raw = _load_json(path) if path else {}
    if args.seed is not None:
        raw["seed"] = args.seed
    return raw


# ---------------------------------------------------------------------------
# stage implementations


def _cmd_synth(args) -> None:
    config = SynthConfig.from_dict(_seeded_config(args, args.stage_config or args.config))
    out = _resolve_out(args)
    generate_synthetic_dataset(config, out)
    print(f"wrote synthetic dataset to {out}")


def _cmd_extract(args) -> None:
    data = ds.load_dataset(os.path.join(args.data, "manifest.json"))
    # the config file holds radiomics settings; expression extraction ignores it
    radiomics = _load_json(args.config) if args.config and args.features == "radiomics" else {}
    table = extract_features(data, args.features, radiomics)
    out = _resolve_out(args, default=f"{args.features}.csv")
    table.to_csv(out)
    print(f"wrote {len(table)} cells x {len(table.feature_names)} features to {out}")


def _cmd_graph(args) -> None:
    if args.kind == "spatial" and args.metric != "euclidean":
        raise StageError(f"--metric {args.metric} applies to --kind feature only, not --kind spatial")
    table = _load_table_sorted(args.features)
    graph = build_cell_graph(args.kind, table.features, table, args.k, metric=args.metric)
    out = _resolve_out(args, default="graph.edges")
    write_edge_list(out, graph)
    print(f"wrote graph with {graph.n_nodes} nodes, {graph.n_edges} edges to {out}")


def _cmd_reduce(args) -> None:
    table = _load_table_sorted(args.input)
    seed = args.seed if args.seed is not None else 0
    kwargs = _load_json(args.config) if args.config else {}
    emb = reduce_features(table.features, args.method, args.dim, seed=seed, **kwargs)
    out_table = replace(table, features=emb.Y, feature_names=[f"{args.method}_{i}" for i in range(emb.Y.shape[1])])
    out = _resolve_out(args, default="embedding.csv")
    out_table.to_csv(out)
    print(f"wrote {emb.Y.shape[0]}x{emb.Y.shape[1]} embedding to {out}")


def _cmd_train(args) -> None:
    config = GrandConfig.from_dict(_seeded_config(args, args.config))
    _, y, masks, Z, adj = _model_inputs(args, config.seed, grand=True)
    model, probs = fit_model(config, Z, y, masks, adj)
    out = _resolve_out(args, default="grand.ckpt")
    save_checkpoint(out, model)
    if args.history:
        save_history_csv(args.history, model)
    metrics = compute_metrics(y[masks.test], probs[masks.test])
    print(f"saved checkpoint to {out}; test f1 {metrics.f1:.4f}")


def _cmd_baseline(args) -> None:
    config = MODEL_CONFIGS[args.model][1].from_dict(_seeded_config(args, args.config))
    _, y, masks, X, _ = _model_inputs(args, config.seed, grand=False)
    model, probs = fit_model(config, X, y, masks)
    out = _resolve_out(args, default=f"{args.model}.bin")
    save_model(out, model)
    metrics = compute_metrics(y[masks.test], probs[masks.test])
    print(f"saved model to {out}; test f1 {metrics.f1:.4f}")


def _cmd_evaluate(args) -> None:
    payload = ds.read_model_file(args.model, StageError)
    grand = payload["kind"] == "grand"
    if grand and not args.graph:
        raise StageError("graph models need --graph for evaluation")
    model = decode_checkpoint(payload, args.model) if grand else decode_model(payload, args.model)
    table, y, masks, X, adj = _model_inputs(args, model.config.seed, grand)
    probs = predict_model(model, X, adj)
    metrics = compute_metrics(y[masks.test], probs[masks.test])
    out = _resolve_out(args, default="metrics.json")
    ds.write_json(out, metrics.to_dict())
    if args.predictions:
        lines = ["cell_id,sample_id,prob_healthy,prob_tumor,predicted"]
        for i in range(len(table)):
            lines.append(
                f"{int(table.cell_ids[i])},{table.sample_ids[i]},"
                f"{ds.format_float(probs[i, 0])},{ds.format_float(probs[i, 1])},"
                f"{int(probs[i, 1] >= 0.5)}"
            )
        ds.write_lines(args.predictions, lines)
    print(f"wrote metrics to {out}")


def _cmd_experiment(args) -> None:
    raw = _seeded_config(args, args.stage_config or args.config)
    if args.data is not None:
        raw["data_dir"] = args.data
    if args.threads is not None:
        raw["threads"] = args.threads
    config = ExperimentConfig.from_dict(raw)
    out = _resolve_out(args, default="experiment_out")
    report = run_experiment(config, out)
    n_ok = sum(1 for c in report.cells.values() if c["status"] == "ok")
    print(f"experiment complete: {n_ok}/{len(report.cells)} cells ok; report in {out}")


def _cmd_report(args) -> None:
    report = load_report(args.report)
    out = _resolve_out(args, default="report_out")
    os.makedirs(out, exist_ok=True)
    write_table_csv(os.path.join(out, "table1.csv"), report)
    for metric in METRIC_NAMES:
        bars = []
        for key in sorted(report.cells):
            outcome = report.cells[key]
            if outcome["status"] == "ok" and outcome["metrics"].get(metric) is not None:
                bars.append((key, outcome["metrics"][metric]))
        svg = bar_chart_svg(f"{metric} by pipeline cell", bars)
        ds.write_bytes(os.path.join(out, f"{metric}.svg"), svg.encode("ascii"))
    print(f"wrote table and {len(METRIC_NAMES)} charts to {out}")


_COMMANDS = {
    "synth": _cmd_synth,
    "extract": _cmd_extract,
    "graph": _cmd_graph,
    "reduce": _cmd_reduce,
    "train": _cmd_train,
    "baseline": _cmd_baseline,
    "evaluate": _cmd_evaluate,
    "experiment": _cmd_experiment,
    "report": _cmd_report,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: ``parse_args`` leaves a parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - stage failures map to exit 1
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
