import os

import numpy as np
import pytest
from hypothesis import settings

from cellgraph.dataset import ChannelImage, LabelMask, Sample, StainStack

# CI runs the same examples on every push (derandomize) and prints the blob
# that replays a failure locally with @reproduce_failure.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def make_stack(arrays, sample_id="s01", spacing=1.0, names=None):
    """StainStack from a list of 2-D uint16-convertible arrays."""
    channels = []
    for i, arr in enumerate(arrays):
        arr = np.asarray(arr, dtype=np.uint16)
        name = names[i] if names else f"ag{i + 1:02d}"
        channels.append((name, ChannelImage(width=arr.shape[1], height=arr.shape[0], values=arr)))
    return StainStack(sample_id=sample_id, channels=tuple(channels), pixel_spacing_um=spacing)


def make_mask(arr):
    arr = np.asarray(arr, dtype=np.uint32)
    return LabelMask(width=arr.shape[1], height=arr.shape[0], labels=arr)


def make_sample(arrays, mask_values, labels=None, **stack_args):
    """Sample from channel arrays and mask values; ``stack_args`` go to make_stack."""
    return Sample(make_stack(arrays, **stack_args), make_mask(mask_values), labels or {}, "healthy")


def knn_purity(Y, labels, k=10):
    """Mean fraction of each point's k nearest embedding neighbors sharing
    its label; the post-hoc quality oracle for embeddings."""
    Y = np.asarray(Y)
    sq = (Y * Y).sum(axis=1)
    D = sq[:, None] + sq[None, :] - 2.0 * (Y @ Y.T)
    np.fill_diagonal(D, np.inf)
    idx = np.argsort(D, axis=1, kind="stable")[:, :k]
    return float(np.mean(np.asarray(labels)[idx] == np.asarray(labels)[:, None]))


@pytest.fixture
def three_cluster_benchmark():
    """3 well-separated 50-D Gaussian clusters, 20 points each."""
    rng = np.random.default_rng(42)
    X = np.vstack([rng.normal(center, 1.0, size=(20, 50)) for center in (0.0, 15.0, 30.0)])
    labels = np.repeat([0, 1, 2], 20)
    return X, labels


@pytest.fixture(scope="session")
def tiny_dataset_dir(tmp_path_factory):
    """Small generated dataset shared by IO-level tests."""
    from cellgraph.synth import SynthConfig, generate_synthetic_dataset

    out = tmp_path_factory.mktemp("tinydata") / "data"
    config = SynthConfig(
        n_samples=3, n_melanoma=2, cells_per_sample=40, image_size=96, n_channels=3, seed=21
    )
    generate_synthetic_dataset(config, str(out))
    return str(out)
