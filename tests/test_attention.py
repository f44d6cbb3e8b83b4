import numpy as np
import pytest

from globalattn.attention import (AttentionModel, attention_forward,
                                  attention_l1_penalty,
                                  build_pixel_representation,
                                  export_attention_map)
from globalattn.datasets import ImageBatch
from globalattn.errors import ConfigError, ContractError
from globalattn.serialize import load_model_checkpoint, save_model_checkpoint
from globalattn.tensor import Tensor
from globalattn.training import TrainConfig


def make_batch(n=2, c=3, w=4, h=4, seed=0):
    rng = np.random.default_rng(seed)
    return ImageBatch(rng.standard_normal((n, c, w, h)),
                      np.arange(n) % 2, num_classes=2)


def make_model(batch, mode="pixel_cnn", seed=0, **arch):
    """A model for ``batch`` with ``TrainConfig``'s architecture, but for
    the fields in ``arch``."""
    cfg = TrainConfig(**arch)
    return AttentionModel(mode, batch.n * batch.c, batch.w, batch.h,
                          cfg.channels, cfg.hidden_kernel, cfg.depth,
                          cfg.last_kernel, cfg.dense_connections,
                          np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# pixel representation
# ---------------------------------------------------------------------------

def test_pixel_representation_shape():
    p = build_pixel_representation(make_batch(n=2, c=3, w=4, h=4))
    assert p.shape == (1, 6, 4, 4)


def test_pixel_representation_single_image_identity():
    batch = make_batch(n=1, c=1)
    p = build_pixel_representation(batch)
    assert np.array_equal(p.data[0, 0], batch.images[0, 0])


def test_pixel_representation_is_pure_relabeling():
    batch = make_batch(n=3, c=2, w=5, h=4)
    p = build_pixel_representation(batch)
    for n in range(3):
        for c in range(2):
            assert np.array_equal(p.data[0, n * 2 + c], batch.images[n, c])
    # un-reshaping recovers the original tensor exactly
    restored = p.data.reshape(batch.images.shape)
    assert np.array_equal(restored, batch.images)


def test_pixel_representation_is_a_view_of_the_batch():
    batch = make_batch(n=3, c=2, w=5, h=4)
    p = build_pixel_representation(batch)
    assert np.shares_memory(p.data, batch.images)
    copied = Tensor(batch.images.reshape(p.shape).copy())
    model = make_model(batch)
    assert np.array_equal(attention_forward(model, p).data,
                          attention_forward(model, copied).data)


# ---------------------------------------------------------------------------
# forward modes
# ---------------------------------------------------------------------------

def test_none_mode_returns_all_ones():
    batch = make_batch()
    model = make_model(batch, "none")
    out = attention_forward(model, build_pixel_representation(batch))
    assert np.array_equal(out.data, np.ones((1, 1, 4, 4)))
    assert model.num_parameters() == 0


def test_pixel_cnn_zero_parameters_give_half_map():
    batch = make_batch()
    model = make_model(batch)
    for p in model.params:
        p.data[...] = 0.0
    out = attention_forward(model, build_pixel_representation(batch))
    assert np.array_equal(out.data, np.full((1, 1, 4, 4), 0.5))


def test_pixel_cnn_output_range_strictly_inside_unit_interval():
    batch = make_batch(n=4, c=3, w=6, h=6, seed=3)
    model = make_model(batch, channels=8, seed=5)
    out = attention_forward(model, build_pixel_representation(batch))
    assert out.shape == (1, 1, 6, 6)
    assert (out.data > 0.0).all() and (out.data < 1.0).all()


def test_l1_pixel_weights_mode_returns_raw_multipliers():
    batch = make_batch()
    model = make_model(batch, "l1_pixel_weights")
    out = attention_forward(model, build_pixel_representation(batch))
    assert out is model.params[0]
    assert np.array_equal(out.data, np.ones((1, 1, 4, 4)))
    # baseline multipliers are unconstrained: negative values are kept
    model.params[0].data[0, 0, 0, 0] = -0.7
    out = attention_forward(model, build_pixel_representation(batch))
    assert out.data[0, 0, 0, 0] == -0.7


def test_forward_is_bitwise_repeatable():
    batch = make_batch(n=3, c=2, w=6, h=4, seed=7)
    model = make_model(batch, channels=4, seed=11)
    p = build_pixel_representation(batch)
    first = attention_forward(model, p).data
    second = attention_forward(model, p).data
    assert np.array_equal(first, second)


def test_forward_under_consistent_channel_permutation():
    # permuting the images and the first-layer kernel channels together is
    # a pure reduction reordering: equal up to float summation order
    batch = make_batch(n=4, c=1, w=5, h=5, seed=13)
    model = make_model(batch, channels=4, seed=17)
    p = build_pixel_representation(batch)
    base = attention_forward(model, p).data

    perm = np.random.default_rng(0).permutation(4)
    batch_p = ImageBatch(batch.images[perm], batch.labels[perm], 2)
    model.params[0].data = model.params[0].data[:, perm]
    permuted = attention_forward(model, build_pixel_representation(batch_p)).data
    assert np.allclose(base, permuted, rtol=1e-12, atol=1e-14)


def test_wrong_input_shape_raises():
    batch = make_batch()
    model = make_model(batch)
    with pytest.raises(ContractError):
        attention_forward(model, Tensor(np.zeros((1, 5, 4, 4))))


# ---------------------------------------------------------------------------
# architecture variants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    {}, {"hidden_kernel": 5}, {"hidden_kernel": 7}, {"depth": 3},
    {"depth": 4}, {"last_kernel": 3}, {"last_kernel": 5},
    {"dense_connections": True}, {"depth": 4, "dense_connections": True},
])
def test_variants_preserve_spatial_size(kw):
    batch = make_batch(n=2, c=1, w=9, h=7, seed=19)
    model = make_model(batch, channels=3, **kw)
    out = attention_forward(model, build_pixel_representation(batch))
    assert out.shape == (1, 1, 9, 7)
    assert (out.data > 0.0).all() and (out.data < 1.0).all()


def test_invalid_configurations_raise():
    batch = make_batch(n=4, c=1)
    with pytest.raises(ConfigError):
        make_model(batch, hidden_kernel=4)
    with pytest.raises(ConfigError):
        make_model(batch, depth=1)
    with pytest.raises(ConfigError):
        make_model(batch, "bogus")


# ---------------------------------------------------------------------------
# parameter count
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [8, 32])
@pytest.mark.parametrize("n", [4, 100])
@pytest.mark.parametrize("c", [1, 3])
def test_default_parameter_count_closed_form(k, n, c):
    model = make_model(make_batch(n=n, c=c), channels=k)
    assert model.num_parameters() == k * (3 * 3 * n * c + 1) + (k + 1)


def test_parameter_count_headline_example():
    model = make_model(make_batch(n=100, c=3), channels=32)
    assert model.num_parameters() == 86465


# ---------------------------------------------------------------------------
# penalty
# ---------------------------------------------------------------------------

def test_penalty_examples():
    batch = make_batch()
    model = make_model(batch)
    ones = Tensor(np.ones((1, 1, 4, 4)))
    assert attention_l1_penalty(model, ones).item() == 1.0
    halves = Tensor(np.full((1, 1, 4, 4), 0.5))
    assert attention_l1_penalty(model, halves).item() == 0.5


def test_penalty_zero_in_none_mode():
    batch = make_batch()
    model = make_model(batch, "none")
    ones = Tensor(np.ones((1, 1, 4, 4)))
    assert attention_l1_penalty(model, ones).item() == 0.0


def test_l1_baseline_initial_penalty_is_one():
    batch = make_batch()
    model = make_model(batch, "l1_pixel_weights")
    out = attention_forward(model, build_pixel_representation(batch))
    assert attention_l1_penalty(model, out).item() == 1.0


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_normalization(tmp_path):
    data = np.zeros((1, 1, 2, 2))
    data[0, 0] = [[0.2, 0.8], [0.5, 0.2]]
    csv_path, pgm_path = export_attention_map(data, tmp_path / "m")
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "0.2,0.5"  # y = 0 row, x across columns
    blob = pgm_path.read_bytes()
    assert blob.startswith(b"P5\n2 2\n255\n")
    pixels = np.frombuffer(blob[len(b"P5\n2 2\n255\n"):], dtype=np.uint8)
    # (v - 0.2) / 0.6 scaled to 255, raster order y-major; the midpoint may
    # round either way in floating point
    assert pixels[0] == 0 and pixels[2] == 255 and pixels[3] == 0
    assert pixels[1] in (127, 128)


def test_export_constant_map_normalizes_to_zeros(tmp_path):
    data = np.full((1, 1, 3, 2), 0.4)
    _, pgm_path = export_attention_map(data, tmp_path / "m")
    blob = pgm_path.read_bytes()
    pixels = np.frombuffer(blob.split(b"255\n", 1)[1], dtype=np.uint8)
    assert np.array_equal(pixels, np.zeros(6, dtype=np.uint8))


def test_export_binary_corner_values(tmp_path):
    data = np.zeros((1, 1, 2, 2))
    data[0, 0] = [[0.0, 1.0], [1.0, 0.0]]
    _, pgm_path = export_attention_map(data, tmp_path / "m")
    pixels = np.frombuffer(pgm_path.read_bytes().split(b"255\n", 1)[1],
                           dtype=np.uint8)
    assert sorted(pixels.tolist()) == [0, 0, 255, 255]
    assert pixels[0] == 0 and pixels[3] == 0


@pytest.mark.parametrize("shape", [(2, 2), (1, 2, 2, 2), (1, 1, 0, 3)])
def test_export_refuses_anything_but_one_map(tmp_path, shape):
    with pytest.raises(ContractError, match=r"expected a \(1, 1, W, H\) map"):
        export_attention_map(np.zeros(shape), tmp_path / "m")
    assert list(tmp_path.iterdir()) == []


def test_export_csv_roundtrips_raw_values(tmp_path):
    rng = np.random.default_rng(23)
    data = rng.uniform(0, 1, size=(1, 1, 4, 3))
    csv_path, _ = export_attention_map(data, tmp_path / "m")
    rows = [list(map(float, line.split(",")))
            for line in csv_path.read_text().splitlines()]
    parsed = np.array(rows).T  # rows are y, columns x
    assert np.array_equal(parsed, data[0, 0])


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_attention_checkpoint_roundtrip(tmp_path):
    batch = make_batch(n=2, c=2, w=4, h=4, seed=29)
    model = make_model(batch, channels=3, depth=3, dense_connections=True)
    path = tmp_path / "attn.ckpt"
    save_model_checkpoint(model, path)
    back = load_model_checkpoint(AttentionModel, path)
    assert back.mode == model.mode
    assert back.depth == 3 and back.dense_connections
    p = build_pixel_representation(batch)
    a = attention_forward(model, p).data
    b = attention_forward(back, p).data
    # stored as float32, so values agree to float32 resolution
    assert np.allclose(a, b, atol=1e-6)
