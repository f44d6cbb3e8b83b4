"""A small configurable image-classification CNN.

Each stage is a same-size conv3x3 -> 2x2 max-pool -> ReLU, halving the
spatial size; a fully-connected head maps the flattened features to class
logits.  Max-pooling commutes with the monotone ReLU, so this equals
conv -> ReLU -> pool bit for bit at a quarter of the ReLU's work.  Kept
compact: at desk scale the interesting failure mode is a classifier that
overfits background noise, which the attention map is meant to mitigate.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .config import Field, format_ints, parse_ints
from .errors import ConfigError, ContractError
from .tensor import (Tensor, check_indexable, conv2d, conv_params, flatten,
                     linear, maxpool2x2, relu)

__all__ = [
    "ClassifierModel",
    "check_classifier_arch",
    "classifier_forward",
    "predict",
    "accuracy",
]


def check_classifier_arch(stages: Sequence[int]) -> None:
    """Raise :class:`ConfigError` unless there is at least one stage and
    every stage width is >= 1."""
    if not stages:
        raise ConfigError("stages must not be empty")
    for width in stages:
        if width < 1:
            raise ConfigError(f"stage width must be >= 1, got {width}")


class ClassifierModel:
    """Stage channel widths, head, and the parameters of both."""

    KIND = "classifier"
    FIELDS = (
        Field("in_channels", "in_channels", int),
        Field("width", "width", int),
        Field("height", "height", int),
        Field("num_classes", "num_classes", int),
        Field("stages", "stages", parse_ints, format_ints),
    )

    def __init__(self, in_channels: int, width: int, height: int,
                 num_classes: int, stages: Sequence[int],
                 rng: np.random.Generator):
        stages = tuple(stages)
        # the config's rules, as a checkpoint header is outside input
        check_classifier_arch(stages)
        for name, size in (("in_channels", in_channels), ("width", width),
                           ("height", height), ("num_classes", num_classes)):
            if size < 1:
                raise ConfigError(f"{name} must be >= 1, got {size}")
        factor = 2 ** len(stages)
        if width % factor or height % factor:
            raise ConfigError(
                f"spatial size {width}x{height} not divisible by 2^{len(stages)}")
        self.in_channels = in_channels
        self.width = width
        self.height = height
        self.num_classes = num_classes
        self.stages = stages
        self.params: list[Tensor] = []
        cin = in_channels
        for cout in stages:
            self.params += conv_params(rng, cout, cin, 3)
            cin = cout
        feat = stages[-1] * (width // factor) * (height // factor)
        check_indexable((feat, num_classes))
        bound = 1.0 / np.sqrt(feat)
        self.params.append(Tensor(
            rng.uniform(-bound, bound, size=(feat, num_classes)),
            requires_grad=True))
        self.params.append(Tensor(np.zeros(num_classes), requires_grad=True))

    def num_parameters(self) -> int:
        return sum(p.size for p in self.params)


def classifier_forward(model: ClassifierModel, weighted: Tensor,
                       conv: Callable[..., Tensor] | None = None) -> Tensor:
    """Logits (B, L) for a batch of (possibly attention-weighted) images.

    ``conv``, if given, is called in place of :func:`conv2d`, so that a
    caller can read every stage's input and preactivation, or condition
    the stage by changing its bias and returning a re-run output.
    """
    # resolved per call, so a wrapper put on this module's conv2d (as in
    # perfbench/tracing.py) still sees every conv
    conv = conv2d if conv is None else conv
    if weighted.shape[1:] != (model.in_channels, model.width, model.height):
        raise ContractError(
            f"classifier built for {(model.in_channels, model.width, model.height)}"
            f" images, got {weighted.shape}")
    x = weighted
    for i in range(len(model.stages)):
        kernel, bias = model.params[2 * i], model.params[2 * i + 1]
        x = relu(maxpool2x2(conv(x, kernel, bias)))
    return linear(flatten(x), model.params[-2], model.params[-1])


def predict(logits: Tensor) -> list[int]:
    """Per-row argmax; ties resolve to the lowest index."""
    return [int(i) for i in logits.data.argmax(axis=1)]


def accuracy(predictions: Sequence[int], labels: Sequence[int]) -> float:
    """Percentage of matching entries: 100 * correct / total."""
    preds = np.asarray(predictions)
    truth = np.asarray(labels)
    if preds.shape != truth.shape:
        raise ContractError(
            f"{preds.size} predictions vs {truth.size} labels")
    if preds.size == 0:
        raise ContractError("accuracy of an empty prediction list")
    return 100.0 * float((preds == truth).mean())
