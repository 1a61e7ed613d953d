import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellgraph.dataset import DatasetError
from cellgraph.expression import expression_profile
from conftest import make_sample


def test_two_pixel_mean():
    table = expression_profile(make_sample([np.array([[10, 20], [0, 0]])], [[1, 1], [0, 0]]))
    assert table.features[0, 0] == 15.0


def test_constant_channel():
    table = expression_profile(make_sample([np.full((3, 3), 7)], [[1, 1, 0], [1, 0, 0], [0, 0, 2]]))
    assert list(table.features[:, 0]) == [7.0, 7.0]


def test_matches_bruteforce_accumulation_oracle():
    rng = np.random.default_rng(17)
    arrays = [rng.integers(0, 65536, (8, 8)) for _ in range(3)]
    mask_values = np.zeros((8, 8), dtype=np.uint32)
    mask_values[:3, :3] = 1
    mask_values[5:, 5:] = 2
    mask_values[0, 6] = 3
    table = expression_profile(make_sample(arrays, mask_values))

    # independent loop-over-all-pixels oracle
    for row, cid in enumerate([1, 2, 3]):
        for k, arr in enumerate(arrays):
            total, count = 0.0, 0
            for r in range(8):
                for c in range(8):
                    if mask_values[r, c] == cid:
                        total += float(arr[r, c])
                        count += 1
            assert table.features[row, k] == total / count


def test_centroids_are_pixel_means():
    mask_values = [[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]]
    table = expression_profile(make_sample([np.zeros((4, 4))], mask_values))
    assert tuple(table.centroids[0]) == (1.5, 1.5)


def test_channel_permutation_permutes_columns():
    rng = np.random.default_rng(3)
    arrays = [rng.integers(0, 100, (5, 5)) for _ in range(3)]
    mask_values = np.ones((5, 5))
    a = expression_profile(make_sample(arrays, mask_values, names=["x", "y", "z"]))
    b = expression_profile(make_sample(arrays[::-1], mask_values, names=["z", "y", "x"]))
    for name in ("x", "y", "z"):
        np.testing.assert_array_equal(
            a.features[:, a.feature_names.index(name)],
            b.features[:, b.feature_names.index(name)],
        )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_feature_bounded_by_channel_extremes(seed):
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, 65536, (6, 6))
    mask_values = (rng.random((6, 6)) < 0.5).astype(np.uint32)
    if mask_values.sum() == 0:
        mask_values[0, 0] = 1
    table = expression_profile(make_sample([arr], mask_values))
    cell_values = arr[mask_values == 1]
    assert cell_values.min() <= table.features[0, 0] <= cell_values.max()


def test_empty_mask_errors():
    with pytest.raises(DatasetError, match="no cells"):
        make_sample([np.zeros((2, 2))], np.zeros((2, 2)))


def test_dimension_mismatch_errors():
    with pytest.raises(DatasetError, match="mask is 2x2, channels are 3x3"):
        make_sample([np.zeros((3, 3))], np.ones((2, 2)))


def test_cells_ordered_by_ascending_id():
    table = expression_profile(make_sample([np.zeros((2, 2))], [[3, 0], [1, 2]]))
    assert list(table.cell_ids) == [1, 2, 3]
