import hashlib
import os

import numpy as np
import pytest

from cellgraph import synth
from cellgraph.synth import SynthConfig, SynthesisError, generate_synthetic_dataset
from cellgraph.rng import Xoshiro256StarStar, splitmix64_next


def tree_hash(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            digest.update(open(path, "rb").read())
    return digest.hexdigest()


SMALL = dict(n_samples=2, n_melanoma=1, cells_per_sample=30, image_size=64, n_channels=3)


def test_diagnosis_counts():
    config = SynthConfig(n_samples=27, n_melanoma=20, cells_per_sample=8, image_size=40, n_channels=2, seed=2)
    dataset, _ = generate_synthetic_dataset(config)
    diagnoses = [s.diagnosis for s in dataset.samples]
    assert diagnoses.count("melanoma") == 20 and diagnoses.count("healthy") == 7


def test_zero_tumor_fraction_gives_all_healthy_labels():
    config = SynthConfig(tumor_fraction=0.0, seed=3, **SMALL)
    _, truth = generate_synthetic_dataset(config)
    assert np.all(truth.labels == 0)


def test_healthy_samples_have_no_tumor_cells():
    config = SynthConfig(tumor_fraction=0.5, seed=4, **SMALL)
    dataset, _ = generate_synthetic_dataset(config)
    for sample in dataset.samples:
        if sample.diagnosis == "healthy":
            assert np.all(sample.cells.labels == 0)
        else:
            assert np.any(sample.cells.labels == 1)


def test_fixed_seed_output_trees_are_byte_identical(tmp_path):
    config = SynthConfig(seed=11, **SMALL)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    generate_synthetic_dataset(config, a)
    generate_synthetic_dataset(config, b)
    assert tree_hash(a) == tree_hash(b)


# SHA-256 of the dataset trees written by the scalar per-pixel generator;
# any change to the draw order or the noise arithmetic moves them.
PINNED_TREE_HASHES = [
    (SMALL, 11, "f6149bb307b9459f409306bc3bf5873b680e91faee86e975e7c3b3ae3176d16d"),
    ({}, 7, "fd65446a283c793e5b9a18054f7c8f3d48aae02b6888b77d8c1f8f79ea753313"),
]


@pytest.mark.parametrize("overrides, seed, expected", PINNED_TREE_HASHES, ids=["small-seed11", "default-seed7"])
def test_dataset_tree_hash_is_pinned(tmp_path, overrides, seed, expected):
    generate_synthetic_dataset(SynthConfig(seed=seed, **overrides), str(tmp_path / "data"))
    assert tree_hash(str(tmp_path / "data")) == expected


def test_different_seed_changes_output(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    generate_synthetic_dataset(SynthConfig(seed=11, **SMALL), a)
    generate_synthetic_dataset(SynthConfig(seed=12, **SMALL), b)
    assert tree_hash(a) != tree_hash(b)


def test_cell_count_within_15_percent_of_target():
    config = SynthConfig(seed=5)  # desk defaults: 300 cells/sample
    dataset, _ = generate_synthetic_dataset(config)
    for sample in dataset.samples:
        count = len(np.unique(sample.mask.labels)) - 1
        assert abs(count - config.cells_per_sample) <= 0.15 * config.cells_per_sample


def test_marker_channel_separation():
    config = SynthConfig(seed=6)
    dataset, _ = generate_synthetic_dataset(config)
    from cellgraph.expression import expression_profile

    means, labels = [], []
    for sample in dataset.samples:
        table = expression_profile(sample)
        means.append(table.features)
        labels.append(sample.cells.labels)
    X = np.vstack(means)
    y = np.concatenate(labels)
    tumor, healthy = X[y == 1], X[y == 0]
    for k in range(config.n_marker_channels):
        pooled = np.sqrt((tumor[:, k].var() + healthy[:, k].var()) / 2.0)
        separation = (tumor[:, k].mean() - healthy[:, k].mean()) / pooled
        assert separation >= config.intensity_separation / 2.0


def test_infeasible_density_reports_achieved_count():
    config = SynthConfig(n_samples=1, n_melanoma=0, cells_per_sample=900, image_size=32, n_channels=2, seed=7)
    with pytest.raises(SynthesisError, match="achieved"):
        generate_synthetic_dataset(config)


def scalar_channels(config, dataset):
    """Per-pixel reference noise: one ``stream.normal`` per cell mean and pixel."""
    base = Xoshiro256StarStar.stream_for(config.seed, 0)
    channel_bases = [base.uniform_in(14000.0, 18000.0) for _ in range(config.n_channels)]
    for idx, sample in enumerate(dataset.samples):
        stream = Xoshiro256StarStar.stream_for(config.seed, idx + 1)
        n_cells = len(synth._place_cells(stream, config.image_size, config.cells_per_sample, "ref"))
        if sample.diagnosis == "melanoma" and config.tumor_fraction > 0:
            stream.shuffle(list(range(n_cells)))
        bases = [b + stream.normal(0.0, synth.SAMPLE_WOBBLE_SIGMA) for b in channel_bases]
        planes = np.full((config.n_channels,) + sample.mask.labels.shape, synth.BACKGROUND_VALUE, dtype=np.float64)
        for i in range(n_cells):
            rows, cols = np.nonzero(sample.mask.labels == i + 1)  # row-major, as the ellipse boxes are
            tumor = sample.cells.labels[i] == 1
            sigma = synth.PIXEL_NOISE_SIGMA * ((1.0 + config.texture_contrast_separation) if tumor else 1.0)
            for k in range(config.n_channels):
                mean = bases[k] + stream.normal(0.0, synth.CELL_MEAN_SIGMA)
                if tumor and k < config.n_marker_channels:
                    mean += config.intensity_separation * synth.CELL_MEAN_SIGMA
                planes[k][rows, cols] = [mean + stream.normal(0.0, sigma) for _ in range(len(rows))]
        yield np.clip(np.rint(planes), 0, 65535).astype(np.uint16)


# Small versions of the two cell sizes the benchmark presets use (grid
# spacing 14 px and 8 px), with weak class signal.
PRESET_SHAPES = [
    dict(n_samples=2, n_melanoma=1, cells_per_sample=9, image_size=42, intensity_separation=0.8,
         texture_contrast_separation=0.25),
    dict(n_samples=2, n_melanoma=1, cells_per_sample=36, image_size=48, intensity_separation=0.8,
         texture_contrast_separation=0.25),
]


@pytest.mark.parametrize("shape", PRESET_SHAPES, ids=["spacing14", "spacing8"])
def test_bulk_noise_matches_scalar_reference_over_many_seeds(shape):
    for seed in range(12):
        config = SynthConfig(seed=seed, **shape)
        dataset, _ = generate_synthetic_dataset(config)
        for sample, expected in zip(dataset.samples, scalar_channels(config, dataset)):
            assert np.array_equal(np.stack([c.values for _, c in sample.stack.channels]), expected), seed


@pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 255, 256, 257, 5000])
def test_normals_match_scalar_loop_and_leave_same_state(n):
    bulk, scalar = Xoshiro256StarStar.stream_for(3, 2), Xoshiro256StarStar.stream_for(3, 2)
    sigma = np.linspace(0.5, 700.0, n)
    got = bulk.normals(sigma)
    expected = np.array([scalar.normal(0.0, s) for s in sigma])
    assert got.tobytes() == expected.tobytes()
    assert bulk.next_u64() == scalar.next_u64()


def test_normals_replay_scalar_loop_on_zero_uniform():
    # the first output from state (1, 0, 0, 0) is 0, so u1 = 0 and the scalar loop redraws
    bulk, scalar = Xoshiro256StarStar((1, 0, 0, 0)), Xoshiro256StarStar((1, 0, 0, 0))
    assert Xoshiro256StarStar((1, 0, 0, 0)).uniform() == 0.0
    got = bulk.normals(np.full(300, 2.0))
    expected = np.array([scalar.normal(0.0, 2.0) for _ in range(300)])
    assert got.tobytes() == expected.tobytes()
    assert bulk.next_u64() == scalar.next_u64()


@pytest.mark.parametrize(
    "key, value",
    [
        ("cells_per_sample", 0),
        ("image_size", 64.0),
        ("n_channels", 3.0),
        ("n_samples", 2.5),
        ("n_samples", 0),
        ("marker_channel_fraction", 2.0),
        ("tumor_fraction", float("nan")),
        ("seed", True),
    ],
)
def test_config_rejects_bad_value_by_key_name(key, value):
    with pytest.raises(ValueError, match=key):
        SynthConfig.from_dict({key: value})


def test_config_invariants():
    with pytest.raises(ValueError):
        SynthConfig(n_samples=2, n_melanoma=3)
    with pytest.raises(ValueError):
        SynthConfig(image_size=16)
    with pytest.raises(ValueError):
        SynthConfig(n_channels=1)
    with pytest.raises(ValueError):
        SynthConfig.from_dict({"bogus_key": 1})


def test_splitmix64_reference_values():
    # first outputs for seed 0 from the reference splitmix64 specification
    state = 0
    state, first = splitmix64_next(state)
    state, second = splitmix64_next(state)
    assert first == 0xE220A8397B1DCDAF
    assert second == 0x6E789E6AA1B965F4


def test_xoshiro_streams_are_disjoint_and_deterministic():
    a1 = Xoshiro256StarStar.stream_for(99, 0)
    a2 = Xoshiro256StarStar.stream_for(99, 0)
    b = Xoshiro256StarStar.stream_for(99, 1)
    seq1 = [a1.next_u64() for _ in range(8)]
    seq2 = [a2.next_u64() for _ in range(8)]
    seq3 = [b.next_u64() for _ in range(8)]
    assert seq1 == seq2
    assert seq1 != seq3


def test_xoshiro_uniform_range():
    stream = Xoshiro256StarStar.stream_for(5, 0)
    draws = [stream.uniform() for _ in range(1000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert 0.4 < np.mean(draws) < 0.6
