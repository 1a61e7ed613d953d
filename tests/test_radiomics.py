import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cellgraph.dataset import write_feature_csv
from cellgraph.radiomics import (
    FIRST_ORDER_NAMES,
    GLCM_NAMES,
    GLRLM_NAMES,
    SHAPE_NAMES,
    DegenerateRegionError,
    GlrlmMatrix,
    RadiomicsConfig,
    first_order_features,
    glcm,
    glcm_features,
    glrlm,
    glrlm_features,
    quantize,
    radiomic_feature_table,
    shape_features,
)
from conftest import make_mask, make_sample, make_stack


def region_of(arr, mask_values=None):
    """(stack-channel image, full-cell pixel index arrays) for a 2-D array."""
    arr = np.asarray(arr)
    stack = make_stack([arr])
    image = stack.channels[0][1]
    if mask_values is None:
        mask_values = np.ones(arr.shape, dtype=np.uint32)
    rows, cols = np.nonzero(np.asarray(mask_values) > 0)
    return image, (rows, cols)


# ---------------------------------------------------------------------------
# brute-force oracles (independent pixel/pair/run enumeration)


def glcm_oracle(grid, offsets, symmetric, levels):
    h, w = grid.shape
    counts = np.zeros((levels, levels))
    for r in range(h):
        for c in range(w):
            if grid[r, c] < 0:
                continue
            for dr, dc in offsets:
                r2, c2 = r + dr, c + dc
                if 0 <= r2 < h and 0 <= c2 < w and grid[r2, c2] >= 0:
                    counts[grid[r, c], grid[r2, c2]] += 1
    if symmetric:
        counts = counts + counts.T
    total = counts.sum()
    return counts / total if total else counts


def glrlm_oracle(grid, directions, levels):
    h, w = grid.shape
    runs = {}
    for direction in directions:
        dr, dc = direction
        if dr < 0 or (dr == 0 and dc < 0):
            dr, dc = -dr, -dc
        for r in range(h):
            for c in range(w):
                g = grid[r, c]
                if g < 0:
                    continue
                pr, pc = r - dr, c - dc
                if 0 <= pr < h and 0 <= pc < w and grid[pr, pc] == g:
                    continue  # not the start of a maximal run
                length = 0
                rr, cc = r, c
                while 0 <= rr < h and 0 <= cc < w and grid[rr, cc] == g:
                    length += 1
                    rr += dr
                    cc += dc
                runs[(int(g), length)] = runs.get((int(g), length), 0) + 1
    return runs


def glcm_feature_oracle(P):
    L = P.shape[0]
    contrast = asm = idm = entropy = 0.0
    px = P.sum(axis=1)
    py = P.sum(axis=0)
    mu_x = sum(i * px[i] for i in range(L))
    mu_y = sum(j * py[j] for j in range(L))
    var_x = sum((i - mu_x) ** 2 * px[i] for i in range(L))
    var_y = sum((j - mu_y) ** 2 * py[j] for j in range(L))
    cross = 0.0
    for i in range(L):
        for j in range(L):
            p = P[i, j]
            contrast += p * (i - j) ** 2
            asm += p * p
            idm += p / (1 + (i - j) ** 2)
            cross += p * i * j
            if p > 0:
                entropy -= p * math.log2(p)
    corr = (cross - mu_x * mu_y) / math.sqrt(var_x * var_y) if var_x > 0 and var_y > 0 else 0.0
    return {
        "glcm_contrast": contrast,
        "glcm_correlation": corr,
        "glcm_asm": asm,
        "glcm_idm": idm,
        "glcm_entropy": entropy,
    }


def glrlm_feature_oracle(R, n_pixels):
    nr = R.sum()
    sre = lre = 0.0
    for g in range(R.shape[0]):
        for l0 in range(R.shape[1]):
            length = l0 + 1
            sre += R[g, l0] / length**2
            lre += R[g, l0] * length**2
    gln = sum(R[g, :].sum() ** 2 for g in range(R.shape[0]))
    rln = sum(R[:, l0].sum() ** 2 for l0 in range(R.shape[1]))
    return {
        "glrlm_sre": sre / nr,
        "glrlm_lre": lre / nr,
        "glrlm_gln": gln / nr,
        "glrlm_rln": rln / nr,
        "glrlm_rp": nr / n_pixels,
    }


# ---------------------------------------------------------------------------
# frozen one-cell feature formulas: the library computes all cells of a
# sample at once, and its table must equal these bodies bit for bit


def reference_first_order(image, pixels):
    rows, cols = pixels
    values = image.values[rows, cols].astype(np.float64)
    n = len(values)
    mean = values.sum() / n
    centered = values - mean
    m2 = (centered**2).sum() / n
    if m2 > 0:
        m3 = (centered**3).sum() / n
        m4 = (centered**4).sum() / n
        skewness = m3 / m2**1.5
        kurtosis = m4 / m2**2 - 3.0
    else:
        skewness = 0.0
        kurtosis = 0.0
    vmin, vmax = values.min(), values.max()
    span = vmax - vmin
    bins = np.floor((values - vmin) * 16 / np.where(span > 0, span, 1.0)).astype(np.int64)
    np.minimum(bins, 15, out=bins)
    counts = np.bincount(bins, minlength=16).astype(np.float64)
    p = counts[counts > 0] / n
    entropy = float(-(p * np.log2(p)).sum())
    return {
        "mean": float(mean),
        "variance": float(m2),
        "skewness": float(skewness),
        "kurtosis": float(kurtosis),
        "energy": float((values**2).sum()),
        "entropy": entropy,
        "min": float(vmin),
        "max": float(vmax),
    }


def reference_glcm_features(P):
    levels = P.shape[0]
    i = np.arange(levels, dtype=np.float64)
    ii, jj = np.ix_(i, i)
    d2 = (ii - jj) ** 2
    px = P.sum(axis=1)
    py = P.sum(axis=0)
    mu_x = (i * px).sum()
    mu_y = (i * py).sum()
    var_x = ((i - mu_x) ** 2 * px).sum()
    var_y = ((i - mu_y) ** 2 * py).sum()
    if var_x > 0 and var_y > 0:
        correlation = float(((ii * jj * P).sum() - mu_x * mu_y) / math.sqrt(var_x * var_y))
    else:
        correlation = 0.0
    nz = P[P > 0]
    return {
        "glcm_contrast": float((P * d2).sum()),
        "glcm_correlation": correlation,
        "glcm_asm": float((P * P).sum()),
        "glcm_idm": float((P / (1.0 + d2)).sum()),
        "glcm_entropy": float(-(nz * np.log2(nz)).sum()),
    }


def reference_glrlm_features(R, n_runs, n_pixels):
    nr = float(n_runs)
    squared_lengths = np.arange(1, R.shape[1] + 1, dtype=np.float64) ** 2
    by_length = R.sum(axis=0)
    by_gray = R.sum(axis=1)
    return {
        "glrlm_sre": float((by_length / squared_lengths).sum() / nr),
        "glrlm_lre": float((by_length * squared_lengths).sum() / nr),
        "glrlm_gln": float((by_gray**2).sum() / nr),
        "glrlm_rln": float((by_length**2).sum() / nr),
        "glrlm_rp": float(nr / n_pixels),
    }


# ---------------------------------------------------------------------------
# quantize


def test_quantize_full_range():
    values = np.arange(256).reshape(16, 16)
    image, pixels = region_of(values)
    q = quantize(image, pixels, 8)
    lookup = dict(zip(zip(q.rows.tolist(), q.cols.tolist()), q.bins.tolist()))
    assert lookup[(15, 15)] == 7  # value 255
    assert lookup[(0, 0)] == 0  # value 0
    assert q.bins.min() == 0 and q.bins.max() == 7


def test_quantize_constant_region_is_bin_zero():
    image, pixels = region_of(np.full((3, 3), 9))
    q = quantize(image, pixels, 16)
    assert np.all(q.bins == 0)


def test_quantize_binary():
    image, pixels = region_of(np.array([[0, 1]]))
    q = quantize(image, pixels, 2)
    assert sorted(q.bins.tolist()) == [0, 1]


# ---------------------------------------------------------------------------
# first order


def test_first_order_constant():
    image, pixels = region_of(np.full((2, 3), 7))
    f = first_order_features(image, pixels)
    assert f["mean"] == 7.0
    assert f["variance"] == 0.0
    assert f["entropy"] == 0.0
    assert f["skewness"] == 0.0
    assert f["kurtosis"] == 0.0


def test_first_order_two_values():
    image, pixels = region_of(np.array([[1, 3]]))
    f = first_order_features(image, pixels)
    assert f["mean"] == 2.0
    assert f["variance"] == 1.0
    assert f["min"] == 1.0 and f["max"] == 3.0
    assert f["energy"] == 10.0  # 1 + 9


def test_first_order_matches_two_pass_oracle():
    rng = np.random.default_rng(5)
    values = rng.integers(0, 65536, (10, 10))
    image, pixels = region_of(values)
    f = first_order_features(image, pixels)

    v = values.ravel().astype(float)
    n = len(v)
    mean = sum(v) / n
    m2 = sum((x - mean) ** 2 for x in v) / n
    m3 = sum((x - mean) ** 3 for x in v) / n
    m4 = sum((x - mean) ** 4 for x in v) / n
    assert math.isclose(f["mean"], mean, rel_tol=1e-12)
    assert math.isclose(f["variance"], m2, rel_tol=1e-12)
    assert math.isclose(f["skewness"], m3 / m2**1.5, rel_tol=1e-12)
    assert math.isclose(f["kurtosis"], m4 / m2**2 - 3.0, rel_tol=1e-12)
    assert math.isclose(f["energy"], sum(x * x for x in v), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# shape


def square_mask(side, size=16):
    values = np.zeros((size, size), dtype=np.uint32)
    values[2 : 2 + side, 2 : 2 + side] = 1
    return make_mask(values)


def test_shape_square_area_at_production_spacing():
    f = shape_features(square_mask(10), 1, pixel_spacing_um=0.45)
    assert math.isclose(f["area_um2"], 20.25, rel_tol=1e-12)  # 100 * 0.45^2


def test_shape_square_perimeter_edges():
    f = shape_features(square_mask(10), 1, pixel_spacing_um=1.0)
    assert f["perimeter_um"] == 40.0  # 4 sides x 10 boundary edges


def test_shape_compactness_isoperimetric_ordering():
    size = 40
    rr, cc = np.mgrid[0:size, 0:size]
    circle = ((rr - 20) ** 2 + (cc - 20) ** 2 <= 100).astype(np.uint32)
    bar = np.zeros((size, size), dtype=np.uint32)
    n_circle = int(circle.sum())
    bar[10:14, : math.ceil(n_circle / 4)] = 1
    f_circle = shape_features(make_mask(circle), 1, 1.0)
    f_bar = shape_features(make_mask(bar), 1, 1.0)
    assert f_circle["compactness"] > f_bar["compactness"]


def test_shape_single_pixel():
    values = np.zeros((4, 4), dtype=np.uint32)
    values[1, 2] = 1
    f = shape_features(make_mask(values), 1, 1.0)
    assert f["major_axis_um"] == 0.0 and f["minor_axis_um"] == 0.0
    assert f["elongation"] == 1.0
    assert f["perimeter_um"] == 4.0
    assert f["centroid"] == (2.0, 1.0)


def test_shape_axes_recover_ellipse():
    size = 64
    rr, cc = np.mgrid[0:size, 0:size]
    a, b = 20.0, 10.0
    ellipse = (((cc - 32) / a) ** 2 + ((rr - 32) / b) ** 2 <= 1).astype(np.uint32)
    f = shape_features(make_mask(ellipse), 1, 1.0)
    assert abs(f["major_axis_um"] - 2 * a) / (2 * a) < 0.05
    assert abs(f["minor_axis_um"] - 2 * b) / (2 * b) < 0.05
    assert abs(f["elongation"] - 0.5) < 0.05


# ---------------------------------------------------------------------------
# GLCM


def test_glcm_hand_example():
    image, pixels = region_of(np.array([[0, 0], [0, 255]]))
    q = quantize(image, pixels, 2)
    m = glcm(q, offsets=((0, 1),), symmetric=True)
    np.testing.assert_allclose(m.P, [[0.5, 0.25], [0.25, 0.0]], atol=1e-15)


def test_glcm_constant_region_single_entry():
    image, pixels = region_of(np.full((3, 3), 4))
    q = quantize(image, pixels, 16)
    m = glcm(q)
    assert m.P[0, 0] == 1.0
    assert m.P.sum() == 1.0


def test_glcm_matches_bruteforce_oracle():
    rng = np.random.default_rng(11)
    values = rng.integers(0, 65536, (8, 8))
    mask_values = (rng.random((8, 8)) < 0.8).astype(np.uint32)
    mask_values[0, 0] = 1
    image, pixels = region_of(values, mask_values)
    offsets = ((0, 1), (1, 0), (1, 1), (1, -1))
    q = quantize(image, pixels, 16)
    m = glcm(q, offsets, symmetric=True)
    grid, _, _ = q.grid()
    np.testing.assert_array_equal(m.P, glcm_oracle(grid, offsets, True, 16))


def test_glcm_single_pixel_raises():
    image, pixels = region_of(np.array([[5]]))
    q = quantize(image, pixels, 4)
    with pytest.raises(DegenerateRegionError):
        glcm(q)


def test_glcm_features_hand_example():
    P = np.array([[0.5, 0.25], [0.25, 0.0]])
    from cellgraph.radiomics import GlcmMatrix

    f = glcm_features(GlcmMatrix(P=P, offsets=((0, 1),), symmetric=True))
    assert math.isclose(f["glcm_contrast"], 0.5, rel_tol=1e-12)


def test_glcm_features_single_entry():
    from cellgraph.radiomics import GlcmMatrix

    P = np.zeros((4, 4))
    P[2, 2] = 1.0
    f = glcm_features(GlcmMatrix(P=P, offsets=((0, 1),), symmetric=True))
    assert f["glcm_contrast"] == 0.0
    assert f["glcm_asm"] == 1.0
    assert f["glcm_entropy"] == 0.0
    assert f["glcm_correlation"] == 0.0  # zero marginal variance guard


def test_glcm_features_match_direct_summation():
    rng = np.random.default_rng(13)
    counts = rng.random((16, 16))
    P = counts / counts.sum()
    from cellgraph.radiomics import GlcmMatrix

    f = glcm_features(GlcmMatrix(P=P, offsets=((0, 1),), symmetric=False))
    oracle = glcm_feature_oracle(P)
    for name, expected in oracle.items():
        assert math.isclose(f[name], expected, rel_tol=1e-12), name


# ---------------------------------------------------------------------------
# GLRLM


def test_glrlm_row_example():
    image, pixels = region_of(np.array([[0, 0, 255]]))
    q = quantize(image, pixels, 2)
    m = glrlm(q, directions=((0, 1),))
    assert m.n_runs == 2
    assert m.R[0, 1] == 1  # gray 0, length 2
    assert m.R[1, 0] == 1  # gray 1, length 1


def test_glrlm_constant_row_single_run():
    image, pixels = region_of(np.full((1, 6), 3))
    q = quantize(image, pixels, 4)
    m = glrlm(q, directions=((0, 1),))
    assert m.n_runs == 1
    assert m.R[0, 5] == 1


def test_glrlm_matches_bruteforce_oracle():
    rng = np.random.default_rng(19)
    values = rng.integers(0, 4, (8, 8)) * 20000
    mask_values = (rng.random((8, 8)) < 0.75).astype(np.uint32)
    mask_values[3, 3] = 1
    image, pixels = region_of(values, mask_values)
    directions = ((0, 1), (1, 0), (1, 1), (1, -1))
    q = quantize(image, pixels, 8)
    m = glrlm(q, directions)
    grid, _, _ = q.grid()
    runs = glrlm_oracle(grid, directions, 8)
    expected = np.zeros_like(m.R)
    for (g, length), count in runs.items():
        expected[g, length - 1] = count
    np.testing.assert_array_equal(m.R, expected)
    assert m.n_runs == sum(runs.values())


def test_glrlm_features_hand_example():
    R = np.zeros((2, 2))
    R[0, 1] = 1  # gray 0, length 2
    R[1, 0] = 1  # gray 1, length 1
    f = glrlm_features(GlrlmMatrix(R=R, directions=((0, 1),), n_runs=2), n_pixels=3)
    assert math.isclose(f["glrlm_sre"], 0.625, rel_tol=1e-12)  # (1/4 + 1)/2


def test_glrlm_features_all_singleton_runs():
    R = np.zeros((4, 1))
    R[:, 0] = [2, 1, 3, 1]
    f = glrlm_features(GlrlmMatrix(R=R, directions=((0, 1),), n_runs=7), n_pixels=7)
    assert f["glrlm_sre"] == 1.0
    assert f["glrlm_rp"] == 1.0


def test_glrlm_features_match_direct_summation():
    rng = np.random.default_rng(23)
    R = rng.integers(0, 5, (8, 6)).astype(float)
    R[0, 0] += 1
    m = GlrlmMatrix(R=R, directions=((0, 1),), n_runs=int(R.sum()))
    f = glrlm_features(m, n_pixels=40)
    oracle = glrlm_feature_oracle(R, 40)
    for name, expected in oracle.items():
        assert math.isclose(f[name], expected, rel_tol=1e-12), name


@settings(max_examples=60, deadline=None)
@given(
    arrays(np.int64, (6, 6), elements=st.integers(0, 65535)),
    arrays(np.bool_, (6, 6)),
    st.sampled_from([2, 8, 16]),
)
def test_one_cell_features_equal_frozen_formulas(values, inside, levels):
    inside[0, 0] = True
    image, pixels = region_of(values, inside)
    assert first_order_features(image, pixels) == reference_first_order(image, pixels)
    q = quantize(image, pixels, levels)
    try:
        m = glcm(q)
    except DegenerateRegionError:  # isolated pixels: no pairs
        pass
    else:
        assert glcm_features(m) == reference_glcm_features(m.P)
    r = glrlm(q)
    assert glrlm_features(r, len(pixels[0])) == reference_glrlm_features(r.R, r.n_runs, len(pixels[0]))


# ---------------------------------------------------------------------------
# invariance properties


def test_texture_features_invariant_under_intensity_shift():
    rng = np.random.default_rng(29)
    values = rng.integers(100, 1000, (8, 8))
    mask_values = (rng.random((8, 8)) < 0.8).astype(np.uint32)
    mask_values[0, 0] = 1
    for shift in (0, 57, 500):
        image, pixels = region_of(values + shift, mask_values)
        q = quantize(image, pixels, 16)
        gf = glcm_features(glcm(q))
        rf = glrlm_features(glrlm(q), len(pixels[0]))
        if shift == 0:
            base_g, base_r = gf, rf
        else:
            assert gf == base_g
            assert rf == base_r


def test_glcm_features_invariant_under_rotation():
    rng = np.random.default_rng(31)
    values = rng.integers(0, 65536, (9, 7))
    mask_values = (rng.random((9, 7)) < 0.85).astype(np.uint32)
    mask_values[0, 0] = 1
    image, pixels = region_of(values, mask_values)
    q = quantize(image, pixels, 16)
    base = glcm_features(glcm(q))

    rot_image, rot_pixels = region_of(np.rot90(values).copy(), np.rot90(mask_values).copy())
    q_rot = quantize(rot_image, rot_pixels, 16)
    rotated = glcm_features(glcm(q_rot))
    for name in base:
        assert math.isclose(base[name], rotated[name], rel_tol=1e-12), name


# ---------------------------------------------------------------------------
# feature table


def synth_sample(n_channels=12, seed=37):
    from cellgraph.synth import SynthConfig, generate_synthetic_dataset

    config = SynthConfig(
        n_samples=1, n_melanoma=1, cells_per_sample=16, image_size=64,
        n_channels=n_channels, seed=seed,
    )
    dataset, _ = generate_synthetic_dataset(config)
    return dataset.samples[0]


def test_table_column_count_all_channels():
    sample = synth_sample(n_channels=12)
    table = radiomic_feature_table(sample)
    assert len(table.feature_names) == 7 + 12 * (8 + 5 + 5)  # 223


def test_table_column_count_single_channel():
    sample = synth_sample(n_channels=4)
    config = RadiomicsConfig(channels=["ag02"])
    table = radiomic_feature_table(sample, config)
    assert len(table.feature_names) == 7 + 18
    assert all(n.startswith(("shape__", "ag02__")) for n in table.feature_names)


def test_table_deterministic_csv_bytes(tmp_path):
    sample = synth_sample(n_channels=3)
    a = radiomic_feature_table(sample)
    b = radiomic_feature_table(sample)
    pa, pb = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_feature_csv(pa, a)
    write_feature_csv(pb, b)
    assert open(pa, "rb").read() == open(pb, "rb").read()


def test_table_degenerate_cell_gets_nan_and_warning():
    values = np.zeros((6, 6), dtype=np.uint16)
    mask_values = np.zeros((6, 6), dtype=np.uint32)
    mask_values[0, 0] = 1  # single-pixel cell: no GLCM pairs
    mask_values[3:5, 3:5] = 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = radiomic_feature_table(make_sample([values], mask_values))
    assert any("no valid pixel pairs" in str(w.message) for w in caught)
    assert len(table) == 2  # the degenerate cell is kept
    glcm_cols = [i for i, n in enumerate(table.feature_names) if "glcm" in n]
    assert np.all(np.isnan(table.features[0, glcm_cols]))
    assert not np.any(np.isnan(table.features[1, glcm_cols]))


def test_radiomics_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        RadiomicsConfig.from_dict({"levels": 8, "nope": 1})
    with pytest.raises(ValueError):
        RadiomicsConfig(levels=1)
    with pytest.raises(ValueError):
        RadiomicsConfig(offsets=((0, 0),))


@pytest.mark.parametrize(
    "key, value",
    [
        ("levels", 2.5),
        ("levels", "8"),
        ("levels", True),
        ("levels", 1),
        ("symmetric", 1),
        ("symmetric", "yes"),
        ("shape", None),
        ("channels", "ag01"),
        ("channels", ["ag01", 2]),
        ("offsets", 5),
        ("offsets", [[0, 1, 1]]),
        ("offsets", [[0, 1.5]]),
        ("offsets", [[0, "1"]]),
        ("offsets", []),
    ],
)
def test_radiomics_config_rejects_bad_value_by_key_name(key, value):
    with pytest.raises(ValueError, match=key):
        RadiomicsConfig.from_dict({key: value})


def test_radiomics_config_rejects_a_table_without_columns():
    with pytest.raises(ValueError, match="no columns"):
        RadiomicsConfig(channels=[], shape=False)
    with pytest.raises(ValueError, match="no columns"):
        RadiomicsConfig.from_dict({"channels": [], "shape": False})
    table = radiomic_feature_table(synth_sample(n_channels=2), RadiomicsConfig(channels=[]))
    assert table.feature_names == [f"shape__{s}" for s in SHAPE_NAMES]


def test_radiomics_config_rejects_empty_offsets():
    # without a direction the GLRLM average divided by zero inside the table
    with pytest.raises(ValueError, match="at least one"):
        RadiomicsConfig(offsets=())


def test_radiomics_config_rejects_non_unit_offsets():
    with pytest.raises(ValueError, match="unit steps"):
        RadiomicsConfig(offsets=((0, 2),))
    with pytest.raises(ValueError, match="unit steps"):
        RadiomicsConfig.from_dict({"offsets": [[0, 1], [2, -2]]})
    assert RadiomicsConfig(offsets=((0, -1), (-1, 1))).offsets == ((0, -1), (-1, 1))


# ---------------------------------------------------------------------------
# whole-sample table against per-cell brute-force oracles


def reference_table(sample, config):
    """Feature rows and warning messages built cell by cell from the oracles and frozen formulas."""
    stack, mask = sample.stack, sample.mask
    rows_out, messages = [], []
    for cid in np.unique(mask.labels[mask.labels > 0]).tolist():
        pixels = np.nonzero(mask.labels == cid)
        row = []
        if config.shape:
            shape = shape_features(mask, cid, stack.pixel_spacing_um)
            row += [shape[s] for s in SHAPE_NAMES]
        for antigen, image in stack.channels:
            if config.channels is not None and antigen not in config.channels:
                continue
            fo = reference_first_order(image, pixels)
            row += [fo[s] for s in FIRST_ORDER_NAMES]
            grid, _, _ = quantize(image, pixels, config.levels).grid()
            P = glcm_oracle(grid, config.offsets, config.symmetric, config.levels)
            if P.sum() == 0:
                row += [math.nan] * len(GLCM_NAMES)
                messages.append(
                    f"sample {stack.sample_id} cell {cid} channel {antigen}: "
                    f"no valid pixel pairs, GLCM features set to NaN"
                )
            else:
                gf = reference_glcm_features(P)
                row += [gf[s] for s in GLCM_NAMES]
            per_dir = []
            for direction in config.offsets:
                runs = glrlm_oracle(grid, (direction,), config.levels)
                R = np.zeros((config.levels, max(length for _, length in runs)))
                for (g, length), count in runs.items():
                    R[g, length - 1] = count
                per_dir.append(reference_glrlm_features(R, int(R.sum()), len(pixels[0])))
            row += [sum(d[s] for d in per_dir) / len(per_dir) for s in GLRLM_NAMES]
        rows_out.append(row)
    return np.array(rows_out, dtype=np.float64), messages


def assert_table_matches_reference(sample, config):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = radiomic_feature_table(sample, config)
    expected, messages = reference_table(sample, config)
    assert table.features.shape == expected.shape
    assert table.features.tobytes() == expected.tobytes()
    assert sorted(str(w.message) for w in caught) == sorted(messages)


@pytest.mark.parametrize("levels", [2, 8, 16])
def test_table_matches_oracles_on_touching_split_single_and_constant_cells(levels):
    mask_values = np.array(
        [
            [1, 1, 2, 2, 0, 3],
            [1, 1, 2, 2, 0, 3],
            [0, 0, 0, 0, 0, 0],
            [3, 3, 0, 4, 0, 5],
            [0, 0, 0, 0, 5, 5],
        ],
        dtype=np.uint32,
    )  # 1|2 touch; 3 is split in two; 4 is a single pixel
    constant = np.full(mask_values.shape, 500)  # cells 1 and 2 share bin 0 across their border
    rng = np.random.default_rng(levels)
    textured = rng.integers(0, 4, mask_values.shape) * 9000
    textured[:2, :4] = 123  # constant-intensity cells
    sample = make_sample([constant, textured, rng.integers(0, 65536, mask_values.shape)], mask_values, spacing=0.45)
    for channels in (None, ["ag02"], ["ag03", "ag01"]):
        config = RadiomicsConfig(levels=levels, channels=channels)
        assert_table_matches_reference(sample, config)


@st.composite
def labelled_samples(draw):
    tiled = draw(st.booleans())
    if tiled:
        # A grid of equal rectangular cells, each channel repeating one block
        # or drawn freely: several cells share a pixel count, a histogram
        # support and a longest run.
        bh, bw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        th, tw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        ids = np.arange(1, th * tw + 1, dtype=np.uint32).reshape(th, tw)
        labels = np.kron(ids, np.ones((bh, bw), dtype=np.uint32))
        labels[labels == draw(st.integers(0, th * tw))] = 0  # maybe one gap
        h, w = labels.shape
    else:
        h = draw(st.integers(1, 7))
        w = draw(st.integers(1, 7))
        labels = draw(arrays(np.uint32, (h, w), elements=st.integers(0, 4)))
    if not labels.any():
        labels[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = 1
    scale = draw(st.sampled_from([1, 7000]))  # few distinct values: equal bins everywhere
    channels = []
    for _ in range(3):
        if tiled and draw(st.booleans()):
            block = draw(arrays(np.int64, (bh, bw), elements=st.integers(0, 9)))
            channels.append(np.tile(block, (th, tw)) * scale)
        else:
            channels.append(draw(arrays(np.int64, (h, w), elements=st.integers(0, 9))) * scale)
    shape = draw(st.booleans())
    names = st.sampled_from(["ag01", "ag02", "ag03"])
    config = RadiomicsConfig(
        levels=draw(st.sampled_from([2, 8, 16])),
        channels=draw(st.none() | st.lists(names, unique=True, min_size=0 if shape else 1)),
        symmetric=draw(st.booleans()),
        shape=shape,
    )
    return make_sample(channels, labels), config


@settings(max_examples=80, deadline=None)
@given(labelled_samples())
def test_table_bytes_match_per_cell_oracles(sample_and_config):
    assert_table_matches_reference(*sample_and_config)


# SHA-256 of the concatenated feature bytes of every sample's table (default
# RadiomicsConfig: all 12 channels). One dataset has the benchmark's grid shape
# (bench/workloads.py), the other two samples of the default synth config.
PINNED_TABLES = {
    "bench_grid": (
        {"n_samples": 4, "n_melanoma": 2, "cells_per_sample": 25, "image_size": 70,
         "intensity_separation": 0.8, "texture_contrast_separation": 0.25, "seed": 1},
        "b448313eb75e264eed6d6d0dbefbbe71478a943384d2ba36d246966191f7d1da",
    ),
    "default": (
        {"n_samples": 2, "n_melanoma": 1, "seed": 7},
        "9aab549a61a2f0bcb3b61c0ba5f9b34b0f42a4ce867239e1b3149c71e2b9ca59",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_TABLES))
def test_table_bytes_are_pinned(name):
    import hashlib

    from cellgraph.synth import SynthConfig, generate_synthetic_dataset

    synth, digest = PINNED_TABLES[name]
    dataset, _ = generate_synthetic_dataset(SynthConfig(**synth))
    h = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for sample in dataset.samples:
            h.update(radiomic_feature_table(sample).features.tobytes())
    assert h.hexdigest() == digest
