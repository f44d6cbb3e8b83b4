import numpy as np
import pytest

from globalattn import tensor
from globalattn.pipelinecheck import (_conv_io, _draw_instance,
                                      full_pipeline_gradcheck)
from globalattn.synthetic import SyntheticSpec, generate_synthetic


@pytest.mark.parametrize("arch", [{}, {"dense_connections": True, "depth": 4}],
                         ids=["default", "dense_depth4"])
def test_conditioning_clears_every_relu_input(arch):
    # the default gradcheck instance: 2 images of 8x8, seed 0, 4 channels
    spec = SyntheticSpec(n=2, c=1, w=8, h=8, relevant_region=(1, 1, 4, 4),
                         num_classes=3, signal_strength=1.0, noise_std=1.0,
                         seed=0)
    batch, _ = generate_synthetic(spec)
    attention, classifier, p, h = _draw_instance(
        batch, 0, 1e-3, channels=4, stages=(4, 8), **arch)

    relu_biases = attention.params[1:-2:2] + classifier.params[1:-2:2]
    io = _conv_io(attention, classifier, p, batch)
    convs = [io[id(b)] for b in relu_biases]
    assert len(convs) == attention.depth - 1 + len(classifier.stages)
    for x, preacts in convs:
        margin = 2.5 * h * (1.0 + np.abs(x).max())
        # slack for the rounding of the shifted bias inside the conv sum
        assert np.abs(preacts).min() >= margin * (1.0 - 1e-9)


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
