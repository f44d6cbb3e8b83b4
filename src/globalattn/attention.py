"""The dataset-wide attention map and the pixel classifier producing it.

Each spatial location is treated as one data point whose feature vector is
the stack of all image intensities at that location.  A small CNN scores
every location at once: the whole dataset is reshaped to a single
(1, N*C, W, H) input, and the network emits one (1, 1, W, H) weight map in
(0, 1] that is shared by every image.  Surrounding locations enter through
the hidden kernel; the last layer is 1x1 by default so each score depends
only on its own abstract features.

Three modes:

* ``pixel_cnn``   - the learned CNN map (hidden conv + ReLU stack, then a
                    final conv squashed by a sigmoid).
* ``l1_pixel_weights`` - a baseline: one raw multiplier per pixel,
                    initialized to 1, no squashing (may go negative).
* ``none``        - the identity map of all ones.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import numpy as np

from .config import Field, format_bool, parse_bool
from .datasets import ImageBatch
from .errors import ConfigError, ContractError
from .serialize import write_file
from .tensor import (Tensor, concat_channels, conv2d, conv_params, l1_mean,
                     relu, sigmoid)

__all__ = [
    "MODES",
    "AttentionModel",
    "check_attention_arch",
    "build_pixel_representation",
    "attention_forward",
    "attention_l1_penalty",
    "export_attention_map",
]

MODES = ("pixel_cnn", "l1_pixel_weights", "none")


def build_pixel_representation(batch: ImageBatch) -> Tensor:
    """Reshape the (N, C, W, H) dataset into one (1, N*C, W, H) input.

    Pure relabeling: element [0, n*C + c, x, y] equals images[n, c, x, y].
    It is a view of ``batch.images`` when they reshape without a copy (as a
    C-contiguous batch does), so callers must not write into either.
    """
    n, c, w, h = batch.images.shape
    return Tensor(batch.images.reshape(1, n * c, w, h))


def check_attention_arch(mode: str, channels: int, hidden_kernel: int,
                         depth: int, last_kernel: int) -> None:
    """Raise :class:`ConfigError` unless ``mode`` is one of :data:`MODES`,
    there are ``channels`` >= 1 hidden channels and ``depth`` >= 2 conv
    layers, and both kernels are odd and >= 1."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if channels < 1:
        raise ConfigError(f"channels must be >= 1, got {channels}")
    if depth < 2:
        raise ConfigError(f"depth must be >= 2, got {depth}")
    for name, k in (("hidden_kernel", hidden_kernel),
                    ("last_kernel", last_kernel)):
        if k < 1 or k % 2 == 0:
            raise ConfigError(f"{name} must be odd and >= 1, got {k}")


class AttentionModel:
    """Pixel-classifier parameters plus architecture configuration.

    ``depth`` counts conv layers including the final one (minimum 2).  With
    ``dense_connections`` every hidden layer past the first, and the final
    layer, consume the channel concatenation of all earlier hidden outputs.
    """

    KIND = "attention"
    FIELDS = (
        Field("mode", "mode"),
        Field("in_channels", "in_channels", int),
        Field("width", "width", int),
        Field("height", "height", int),
        Field("channels", "channels", int),
        Field("hidden_kernel", "hidden_kernel", int),
        Field("depth", "depth", int),
        Field("last_kernel", "last_kernel", int),
        Field("dense_connections", "dense_connections", parse_bool,
              format_bool),
    )

    def __init__(self, mode: str, in_channels: int, width: int, height: int,
                 channels: int, hidden_kernel: int, depth: int,
                 last_kernel: int, dense_connections: bool,
                 rng: np.random.Generator):
        # the config's rules, as a checkpoint header is outside input
        check_attention_arch(mode, channels, hidden_kernel, depth,
                             last_kernel)
        for name, size in (("in_channels", in_channels), ("width", width),
                           ("height", height)):
            if size < 1:
                raise ConfigError(f"{name} must be >= 1, got {size}")
        self.mode = mode
        self.in_channels = in_channels
        self.width = width
        self.height = height
        self.channels = channels
        self.hidden_kernel = hidden_kernel
        self.depth = depth
        self.last_kernel = last_kernel
        self.dense_connections = dense_connections
        self.params: list[Tensor] = []
        if mode == "pixel_cnn":
            cin = in_channels
            for layer in range(depth - 1):
                self.params += conv_params(rng, channels, cin, hidden_kernel)
                cin = channels * (layer + 1) if dense_connections else channels
            self.params += conv_params(rng, 1, cin, last_kernel)
        elif mode == "l1_pixel_weights":
            self.params = [Tensor(np.ones((1, 1, width, height)),
                                  requires_grad=True)]
        # mode "none" keeps no parameters

    def num_parameters(self) -> int:
        return sum(p.size for p in self.params)


def attention_forward(model: AttentionModel, p: Tensor,
                      conv: Callable[..., Tensor] | None = None) -> Tensor:
    """Evaluate the global weight map, shape (1, 1, W, H).

    In ``pixel_cnn`` mode values lie in (0, 1]: fp64 rounds the sigmoid of
    a logit above about 36.7 to exactly 1.0.  The ``l1_pixel_weights``
    baseline returns its raw multipliers; ``none`` returns all ones.
    ``conv``, if given, is called in place of :func:`conv2d`, so that a
    caller can read every layer's input and preactivation, or condition
    the layer by changing its bias and returning a re-run output.
    """
    # resolved per call, so a wrapper put on this module's conv2d (as in
    # perfbench/tracing.py) still sees every conv
    conv = conv2d if conv is None else conv
    expected = (1, model.in_channels, model.width, model.height)
    if model.mode == "pixel_cnn" and p.shape != expected:
        raise ContractError(
            f"model built for input {expected}, got {p.shape}")
    if model.mode == "none":
        return Tensor(np.ones((1, 1, model.width, model.height)))
    if model.mode == "l1_pixel_weights":
        return model.params[0]
    hidden: list[Tensor] = []
    x = p
    for layer in range(model.depth - 1):
        kernel, bias = model.params[2 * layer], model.params[2 * layer + 1]
        hidden.append(relu(conv(x, kernel, bias)))
        x = concat_channels(hidden) if model.dense_connections else hidden[-1]
    return sigmoid(conv(x, model.params[-2], model.params[-1]))


def attention_l1_penalty(model: AttentionModel, weight_map: Tensor) -> Tensor:
    """Mean absolute map value; zero in ``none`` mode."""
    if model.mode == "none":
        return Tensor(np.asarray(0.0))
    return l1_mean(weight_map)


def export_attention_map(weight_map: np.ndarray,
                         base_path: str | Path) -> dict[Path, str]:
    """Write the (1, 1, W, H) map array (as ``TrainReport.snapshots`` holds
    it) to ``<base>.csv`` (raw values) and ``<base>.pgm`` (visualization),
    each through ``serialize.write_file``; return ``{path: digest}``.

    The CSV holds one row per y, columns ordered by x.  The PGM is 8-bit
    binary grayscale of the min-max normalized values, 255 at the maximum
    (largest values render darkest in conventional viewers of importance
    maps; raw values survive only in the CSV).  A constant map normalizes
    to all zeros instead of erroring.
    """
    data = np.asarray(weight_map, dtype=np.float64)
    if data.ndim != 4 or data.shape[:2] != (1, 1) or 0 in data.shape:
        raise ContractError(f"expected a (1, 1, W, H) map, got {data.shape}")
    data = data[0, 0]
    w, h = data.shape
    base = Path(base_path)
    csv_path = base.with_name(base.name + ".csv")
    pgm_path = base.with_name(base.name + ".pgm")

    rows = [",".join(repr(float(data[x, y])) for x in range(w))
            for y in range(h)]
    csv = ("\n".join(rows) + "\n").encode("ascii")
    lo, hi = float(data.min()), float(data.max())
    if hi > lo:
        norm = (data - lo) / (hi - lo)
    else:
        norm = np.zeros_like(data)
    pixels = np.rint(norm * 255.0).astype(np.uint8)
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    return {csv_path: write_file(csv_path, [csv]),
            pgm_path: write_file(pgm_path, [header, pixels.T.tobytes()])}
