"""Cell classification for multiplex-stained tissue images.

Pipeline stages: synthetic data generation, per-cell feature extraction
(expression profiles and radiomics), cell-graph construction,
dimensionality reduction, semi-supervised graph training with tree-ensemble
baselines, and an experiment harness comparing every combination.
"""

__version__ = "0.1.0"

from .dataset import (
    CellTable,
    ChannelImage,
    Dataset,
    DatasetError,
    LabelMask,
    StainStack,
    load_dataset,
    save_dataset,
)
from .synth import SynthConfig, generate_synthetic_dataset
from .expression import expression_profile
from .radiomics import RadiomicsConfig, radiomic_feature_table
from .graphs import (
    CellGraph,
    knn_feature_graph,
    normalize_adjacency,
    spatial_knn_graph,
)
from .dimred import Embedding, TsneConfig, UmapConfig, pca, tsne, umap
from .grand import (
    GrandConfig,
    GrandModel,
    grand_loss,
    mlp_forward,
    predict_grand,
    propagate,
    sharpen,
    train_grand,
)
from .trees import (
    BoostConfig,
    ForestConfig,
    predict_tabular,
    train_gradient_boosting,
    train_random_forest,
)
from .harness import (
    Metrics,
    SplitMasks,
    compute_metrics,
    standardize_features,
    stratified_split,
)
from .experiment import ExperimentConfig, ExperimentReport, run_experiment
