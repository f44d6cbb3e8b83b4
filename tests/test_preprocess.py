import numpy as np
import pytest

from globalattn.datasets import ImageBatch
from globalattn.errors import ConfigError, ContractError
from globalattn.preprocess import (PreprocessSpec, _overlap_matrix,
                                   apply_pipeline, crop_columns, hflip, load_flip_indices,
                                   load_preprocess_spec, normalize_standardize,
                                   packaged_flip_list, resize_area)

IDRID_STATS = ((0.485, 0.229), (0.456, 0.224), (0.406, 0.225))


# ---------------------------------------------------------------------------
# crop
# ---------------------------------------------------------------------------

def test_crop_fundus_width():
    img = np.zeros((3, 4288, 8))
    out = crop_columns(img, 260, 3685)
    assert out.shape == (3, 3426, 8)


def test_crop_identity():
    rng = np.random.default_rng(0)
    img = rng.standard_normal((2, 5, 4))
    out = crop_columns(img, 0, 4)
    assert np.array_equal(out, img)


def test_crop_is_pure_slice():
    rng = np.random.default_rng(1)
    img = rng.standard_normal((1, 10, 3))
    out = crop_columns(img, 2, 7)
    assert np.array_equal(out, img[:, 2:8, :])


def test_crop_bounds_checked():
    img = np.zeros((1, 5, 5))
    with pytest.raises(ContractError):
        crop_columns(img, 3, 3)
    with pytest.raises(ContractError):
        crop_columns(img, 0, 5)
    with pytest.raises(ContractError):
        crop_columns(img, -1, 3)


# ---------------------------------------------------------------------------
# area resize
# ---------------------------------------------------------------------------

def test_resize_box_average_2x2_to_1x1():
    img = np.array([[[1.0, 2.0], [3.0, 4.0]]])  # (1, 2, 2)
    out = resize_area(img, (1, 1))
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == 2.5


def test_resize_identity_is_bit_identical():
    rng = np.random.default_rng(2)
    img = rng.standard_normal((3, 6, 5))
    out = resize_area(img, (6, 5))
    assert np.array_equal(out, img)


def test_resize_constant_stays_constant():
    img = np.full((2, 4, 4), 3.25)
    out = resize_area(img, (3, 3))
    assert out.shape == (2, 3, 3)
    assert np.allclose(out, 3.25, rtol=0, atol=1e-15)


def test_resize_three_to_two_hand_computed():
    # output 0 covers [0, 1.5): weights (2/3, 1/3); output 1 mirrors them
    a, b, c = 5.0, -1.0, 2.0
    img = np.array([[[a], [b], [c]]])  # (1, 3, 1)
    out = resize_area(img, (2, 1))
    assert out[0, 0, 0] == pytest.approx((2 * a + b) / 3, rel=1e-14)
    assert out[0, 1, 0] == pytest.approx((b + 2 * c) / 3, rel=1e-14)


def test_resize_preserves_mean_at_integral_scale():
    rng = np.random.default_rng(3)
    img = rng.standard_normal((1, 12, 8))
    out = resize_area(img, (3, 4))
    assert out.mean() == pytest.approx(img.mean(), rel=1e-13)


def test_resize_upscale_uses_same_footprint_rule():
    img = np.array([[[1.0], [3.0]]])  # (1, 2, 1)
    out = resize_area(img, (4, 1))
    # each output footprint falls inside one source pixel
    assert np.array_equal(out[0, :, 0], [1.0, 1.0, 3.0, 3.0])


def test_resize_overlap_matrix_is_built_once_and_read_only():
    rng = np.random.default_rng(4)
    img = rng.standard_normal((3, 45, 38))
    first = resize_area(img, (16, 16))
    assert resize_area(img, (16, 16)).tobytes() == first.tobytes()
    m = _overlap_matrix(45, 16)
    assert _overlap_matrix(45, 16) is m
    assert m.tobytes() == _overlap_matrix.__wrapped__(45, 16).tobytes()
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


def test_resize_rejects_empty_target():
    with pytest.raises(ContractError):
        resize_area(np.zeros((1, 4, 4)), (0, 2))


# ---------------------------------------------------------------------------
# flip
# ---------------------------------------------------------------------------

def test_hflip_is_involution():
    rng = np.random.default_rng(4)
    img = rng.standard_normal((3, 5, 4))
    assert np.array_equal(hflip(hflip(img)), img)


def test_hflip_moves_first_column_last():
    img = np.arange(12.0).reshape(1, 4, 3)
    out = hflip(img)
    assert np.array_equal(out[0, 3], img[0, 0])
    assert np.array_equal(out[0, 0], img[0, 3])


def test_hflip_symmetric_image_unchanged():
    img = np.zeros((1, 3, 2))
    img[0, 0] = img[0, 2] = 7.0
    assert np.array_equal(hflip(img), img)


# ---------------------------------------------------------------------------
# normalize / standardize
# ---------------------------------------------------------------------------

def test_standardization_first_channel_zero_point():
    img = np.full((3, 2, 2), 123.675)
    out = normalize_standardize(img, IDRID_STATS)
    assert abs(out[0, 0, 0]) < 1e-12  # 123.675 / 255 == 0.485


def test_standardization_black_pixel_value():
    img = np.zeros((1, 1, 1))
    out = normalize_standardize(img, ((0.485, 0.229),))
    assert out[0, 0, 0] == pytest.approx(-0.485 / 0.229, rel=1e-12)
    assert out[0, 0, 0] == pytest.approx(-2.1179, abs=1e-4)


def test_plain_scaling_with_unit_stats():
    img = np.array([[[0.0, 127.5, 255.0]]])
    out = normalize_standardize(img, ((0.0, 1.0),))
    assert np.array_equal(out, img / 255.0)


def test_standardization_rejects_bad_stats():
    img = np.zeros((2, 2, 2))
    with pytest.raises(ConfigError):
        normalize_standardize(img, ((0.5, 0.0), (0.5, 1.0)))
    with pytest.raises(ConfigError):
        normalize_standardize(img, ((0.5, 1.0),))  # one entry for 2 channels


def test_stats_that_overflow_a_channel_are_a_config_error():
    # a positive, finite std whose quotient passes the float64 range
    img = np.full((2, 2, 2), 255.0)
    with pytest.raises(ConfigError, match="overflows channel 1"):
        normalize_standardize(img, ((0.0, 1.0), (0.5, 1e-320)))


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_pipeline_identity_spec_is_bit_identical():
    rng = np.random.default_rng(5)
    batch = ImageBatch(rng.uniform(0, 255, size=(3, 1, 6, 6)), [0, 1, 0], 2)
    out = apply_pipeline(PreprocessSpec(), batch.images)
    assert np.array_equal(out, batch.images)


def test_pipeline_order_crop_resize_flip_normalize():
    # a single white column at x=1 of 4: crop drops column 0, the resize is
    # identity, the flip mirrors, standardization rescales
    img = np.zeros((1, 1, 4, 2))
    img[0, 0, 1, :] = 255.0
    batch = ImageBatch(img, [0], 1)
    spec = PreprocessSpec(crop_left=1, crop_right=3, target_size=(3, 2),
                          flip_indices=frozenset({0}),
                          channel_stats=((0.0, 1.0),))
    out = np.stack(apply_pipeline(spec, batch.images))
    assert out.shape == (1, 1, 3, 2)
    expected = np.zeros((1, 3, 2))
    expected[0, 2, :] = 1.0  # white col was at 0 after crop, flips to 2
    assert np.array_equal(out[0], expected)


def test_pipeline_is_reproducible():
    rng = np.random.default_rng(6)
    batch = ImageBatch(rng.uniform(0, 255, size=(2, 3, 10, 8)), [0, 1], 2)
    spec = PreprocessSpec(crop_left=1, crop_right=8, target_size=(4, 4),
                          flip_indices=frozenset({1}),
                          channel_stats=IDRID_STATS)
    a = apply_pipeline(spec, batch.images)
    b = apply_pipeline(spec, batch.images)
    assert np.array_equal(a, b)


def test_pipeline_flip_index_out_of_range():
    batch = ImageBatch(np.zeros((2, 1, 4, 4)), [0, 0], 1)
    spec = PreprocessSpec(flip_indices=frozenset({5}))
    with pytest.raises(ConfigError):
        apply_pipeline(spec, batch.images)


# ---------------------------------------------------------------------------
# spec files and flip lists
# ---------------------------------------------------------------------------

def load_spec_text(tmp_path, text):
    path = tmp_path / "pre.cfg"
    path.write_text(text)
    return load_preprocess_spec(path)[0]


def test_parse_spec_with_all_stages(tmp_path):
    (tmp_path / "flips.txt").write_text("0\n2\n")
    text = (
        "crop_left = 260\n"
        "crop_right = 3685\n"
        "target_size = 224x224\n"
        "flip_indices = flips.txt\n"
        "channel_stats = 0.485:0.229,0.456:0.224,0.406:0.225\n")
    spec = load_spec_text(tmp_path, text)
    assert spec.crop_left == 260 and spec.crop_right == 3685
    assert spec.target_size == (224, 224)
    assert spec.flip_indices == frozenset({0, 2})
    assert spec.channel_stats == IDRID_STATS


def test_parse_spec_empty_values_skip_stages(tmp_path):
    spec = load_spec_text(
        tmp_path, "crop_left =\ncrop_right =\ntarget_size =\n"
                  "flip_indices =\nchannel_stats =\n")
    assert spec == PreprocessSpec()


def test_parse_spec_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        load_spec_text(tmp_path, "crop_lft = 3\n")


def test_parse_spec_crop_must_come_in_pairs(tmp_path):
    with pytest.raises(ConfigError):
        load_spec_text(tmp_path, "crop_left = 3\n")


def test_packaged_flip_lists_load():
    train = load_flip_indices(packaged_flip_list("idrid_train"))
    test = load_flip_indices(packaged_flip_list("idrid_test"))
    assert len(train) == 204 and len(test) == 47
    assert 0 in train and 412 in train
    assert 1 in test and 102 in test


def test_flip_list_rejects_garbage(tmp_path):
    path = tmp_path / "flips.txt"
    path.write_text("1\ntwo\n")
    with pytest.raises(ConfigError):
        load_flip_indices(path)
