"""Workload definitions for the cellgraph benchmark.

Every workload is closed-loop with one client: one batch job at a time, the
next starting when the previous one returns. A job gets only a generated
dataset directory and a config; the synth seed and the experiment seed are
derived from the workload seed given on the command line.

The synth presets here are the benchmark's own. They are deliberately hard
(low intensity and texture separation) so that no model family scores a
perfect F1 and a change that makes results worse can show. The acceptance
tests keep their own data.

Model budgets are fixed per fit so that the work in a job does not depend on
the data: GRAND trains exactly ``max_epochs`` epochs (a patience equal to it
can never fire). Budgets and sizes are far below the library defaults so
that one run repeats each body several times: on a 2-core machine the
timing of one body varies by about 20% from job to job, and only medians
over many jobs are steady.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

# Hard preset: default cohort shape (12 channels, 40% tumour in melanoma
# samples) with weak class signal in both feature families (defaults 3.0 and
# 1.0). At 100 cells, 0.6/0.15 often drove a whole model family to F1 = 0;
# at 0.8/0.25 no cell saturated on five probe seeds.
HARD = {"intensity_separation": 0.8, "texture_contrast_separation": 0.25}

MODEL_BUDGET = {
    "grand": {"max_epochs": 10, "patience": 10},
    "forest": {"n_trees": 10},
    "boost": {"n_rounds": 10},
}

# Texture features on the six marker channels only (7 shape + 6 x 18 = 115
# columns): the channels that carry the class signal, at half the cost.
RADIOMICS = {"channels": [f"ag{k:02d}" for k in range(1, 7)]}

# 100 cells of the default size (grid spacing 14 px); t-SNE's default
# perplexity of 30 needs more than 90.
GRID_SHAPE = {"n_samples": 4, "n_melanoma": 2, "cells_per_sample": 25, "image_size": 70, **HARD}

ALL_MODELS = ["grand_feature_graph", "grand_spatial_graph", "random_forest", "gradient_boosting"]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "experiment": run_experiment; "cli_chain": stages through cli.main
    synth: dict
    experiment: dict
    stage_configs: dict = field(default_factory=dict)  # cli_chain only: --config files per stage


WORKLOADS = {
    # Why: this is what users run. It is where dimred.tsne, trees boosting on
    # wide radiomics and radiomics (GLRLM) do most of their work, while
    # graphs, synth and UMAP do almost none. The hard preset keeps every cell
    # below F1 = 1.0.
    "grid": Workload(
        name="grid",
        kind="experiment",
        synth=GRID_SHAPE,
        experiment={
            "feature_types": ["expression", "radiomics"],
            "reductions": ["none", "pca", "tsne", "umap"],
            "models": ALL_MODELS,
            "radiomics": RADIOMICS,
            **MODEL_BUDGET,
        },
    ),
    # Why: synth, graphs kNN, grand, boosting on low-d/many-row data and
    # UMAP's dense n x n memory dominate here. t-SNE and radiomics are
    # absent, so their optimisations should show no change on this workload.
    # Cells are small (grid spacing 8 px) so that 1,200 of them synthesize in
    # under a second.
    "scale": Workload(
        name="scale",
        kind="experiment",
        synth={"n_samples": 6, "n_melanoma": 3, "cells_per_sample": 200, "image_size": 120, **HARD},
        experiment={
            "feature_types": ["expression"],
            "reductions": ["none", "pca", "umap"],
            "models": ALL_MODELS,
            **MODEL_BUDGET,
        },
    ),
    # Why: the only workload where the layers communicate through files, so
    # writes sit beside reads: feature-CSV, edge-list, checkpoint and model
    # I/O, plus the per-sample extract loop in the CLI. It bypasses t-SNE and
    # boosting. It ends with the README's `experiment` and `report` stages,
    # whose report.json gives the quality metrics; `evaluate` scores training
    # cells today, so its numbers are not used.
    "cli_chain": Workload(
        name="cli_chain",
        kind="cli_chain",
        synth=GRID_SHAPE,
        experiment={
            "feature_types": ["expression"],
            "reductions": ["none", "umap"],
            "models": ["grand_feature_graph", "grand_spatial_graph", "random_forest"],
            **MODEL_BUDGET,
        },
        stage_configs={"extract": RADIOMICS, "train": MODEL_BUDGET["grand"], "baseline": MODEL_BUDGET["forest"]},
    ),
}


def derive_seed(seed: int, label: str) -> int:
    """Sub-seed for one input of a workload; independent of the program's own RNG code."""
    digest = hashlib.sha256(f"{seed}|{label}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "little")
