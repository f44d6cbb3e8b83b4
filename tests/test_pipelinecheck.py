import numpy as np
import pytest

from globalattn import pipelinecheck, tensor
from globalattn.attention import attention_forward
from globalattn.classifier import classifier_forward
from globalattn.pipelinecheck import _draw_instance, full_pipeline_gradcheck
from globalattn.synthetic import SyntheticSpec, generate_synthetic


def default_batch():
    # the default gradcheck instance: 2 images of 8x8, seed 0
    spec = SyntheticSpec(n=2, c=1, w=8, h=8, relevant_region=(1, 1, 4, 4),
                         num_classes=3, signal_strength=1.0, noise_std=1.0,
                         seed=0)
    return generate_synthetic(spec)[0]


@pytest.mark.parametrize("arch", [{}, {"dense_connections": True, "depth": 4}],
                         ids=["default", "dense_depth4"])
def test_conditioning_clears_every_relu_input(arch):
    batch = default_batch()
    attention, classifier, p, h = _draw_instance(
        batch, 0, channels=4, stages=(4, 8), **arch)

    io = {}

    def conv(x, kernel, bias):
        out = tensor.conv2d(x, kernel, bias)
        io[id(bias)] = x.data, out.data
        return out

    weight_map = attention_forward(attention, p, conv=conv)
    classifier_forward(classifier, tensor.broadcast_mul(
        tensor.Tensor(batch.images), weight_map), conv=conv)
    relu_biases = attention.params[1:-2:2] + classifier.params[1:-2:2]
    convs = [io[id(b)] for b in relu_biases]
    assert len(convs) == attention.depth - 1 + len(classifier.stages)
    for x, preacts in convs:
        margin = 2.5 * h * (1.0 + np.abs(x).max())
        # slack for the rounding of the shifted bias inside the conv sum
        assert np.abs(preacts).min() >= margin * (1.0 - 1e-9)


def test_conditioning_runs_one_forward_per_draw(monkeypatch):
    counts = {"forwards": 0, "draws": 0}
    forward = pipelinecheck.attention_forward
    condition = pipelinecheck._condition_instance

    def counted_forward(*args, **kwargs):
        counts["forwards"] += 1
        return forward(*args, **kwargs)

    def counted_condition(*args):
        counts["draws"] += 1
        return condition(*args)

    monkeypatch.setattr(pipelinecheck, "attention_forward", counted_forward)
    monkeypatch.setattr(pipelinecheck, "_condition_instance", counted_condition)
    _draw_instance(default_batch(), 0, channels=4, stages=(4, 8))
    assert counts["draws"] > 1
    assert counts["forwards"] == counts["draws"]


# The first attention conv maps images * c input channels (c = 1 here) to
# `channels`; at images >= channels it takes the stacked-tap branch, as in
# every real run, where the pixel representation is far wider than K.
@pytest.mark.parametrize("images, channels, arch", [
    (4, 4, {}), (2, 2, {}), (2, 2, {"dense_connections": True, "depth": 3})],
    ids=["4x4", "2x2", "2x2_dense_depth3"])
def test_gradcheck_with_the_first_attention_conv_on_stacked_taps(
        monkeypatch, images, channels, arch):
    widths = []
    conv_taps = tensor._conv_taps

    def spy(x, kernel, bias):
        widths.append(x.shape[1])
        return conv_taps(x, kernel, bias)

    monkeypatch.setattr(tensor, "_conv_taps", spy)
    result = full_pipeline_gradcheck(width=8, height=8, images=images, seed=0,
                                     channels=channels, **arch)
    assert widths[0] == images
    assert result.passed, result.errors


def test_gradcheck_with_classifier_convs_one_image_per_chunk(monkeypatch):
    lowered = []
    lower = tensor._lower

    def spy(x, runs, h, out):
        lowered.append(len(x))
        lower(x, runs, h, out)

    monkeypatch.setattr(tensor, "_lower", spy)
    monkeypatch.setattr(tensor, "_LOWERED_BYTES", 1)
    result = full_pipeline_gradcheck(width=8, height=8, images=2, seed=0,
                                     channels=2)
    assert lowered and max(lowered) == 1
    assert result.passed, result.errors


@pytest.mark.parametrize("extra", [
    {"lr": 5.0, "l1_coeff": 9.0}, {"attention_mode": "l1_pixel_weights"},
    {"total_epochs": 3}], ids=["lr", "attention_mode", "total_epochs"])
def test_gradcheck_takes_only_the_four_architecture_keywords(extra):
    # any other TrainConfig field would pass without effect: the check's
    # lambda is L1_COEFF and its model is always the pixel CNN
    with pytest.raises(TypeError, match=repr(next(iter(extra)))):
        full_pipeline_gradcheck(8, 8, 2, 0, 4, **extra)
