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
from .tensor import (Tensor, concat_channels, conv2d, conv_params, l1_mean,
                     relu, sigmoid)

__all__ = [
    "MODES",
    "AttentionModel",
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
    if batch.n < 1:
        raise ContractError("pixel representation needs a non-empty batch")
    n, c, w, h = batch.images.shape
    return Tensor(batch.images.reshape(1, n * c, w, h))


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
                 channels: int = 8, hidden_kernel: int = 3, depth: int = 2,
                 last_kernel: int = 1, dense_connections: bool = False,
                 rng: np.random.Generator | None = None):
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        for name, size in (("in_channels", in_channels), ("width", width),
                           ("height", height), ("channels", channels)):
            if size < 1:
                raise ConfigError(f"{name} must be >= 1, got {size}")
        if depth < 2:
            raise ConfigError(f"depth must be >= 2, got {depth}")
        for name, k in (("hidden_kernel", hidden_kernel),
                        ("last_kernel", last_kernel)):
            if k < 1 or k % 2 == 0:
                raise ConfigError(f"{name} must be odd and >= 1, got {k}")
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
            if rng is None:
                raise ConfigError("pixel_cnn mode needs an init rng")
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
    caller can read every layer's input and preactivation.
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


def export_attention_map(weight_map: Tensor | np.ndarray,
                         base_path: str | Path) -> list[Path]:
    """Write ``<base>.csv`` (raw values) and ``<base>.pgm`` (visualization).

    The CSV holds one row per y, columns ordered by x.  The PGM is 8-bit
    binary grayscale of the min-max normalized values, 255 at the maximum
    (largest values render darkest in conventional viewers of importance
    maps; raw values survive only in the CSV).  A constant map normalizes
    to all zeros instead of erroring.
    """
    data = weight_map.data if isinstance(weight_map, Tensor) else weight_map
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 4:
        if data.shape[:2] != (1, 1):
            raise ContractError(f"expected a (1, 1, W, H) map, got {data.shape}")
        data = data[0, 0]
    if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
        raise ContractError(f"expected a W x H map, got shape {data.shape}")
    w, h = data.shape
    base = Path(base_path)
    csv_path = base.with_name(base.name + ".csv")
    pgm_path = base.with_name(base.name + ".pgm")

    rows = [",".join(repr(float(data[x, y])) for x in range(w))
            for y in range(h)]
    csv_path.write_text("\n".join(rows) + "\n")

    lo, hi = float(data.min()), float(data.max())
    if hi > lo:
        norm = (data - lo) / (hi - lo)
    else:
        norm = np.zeros_like(data)
    pixels = np.rint(norm * 255.0).astype(np.uint8)
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    pgm_path.write_bytes(header + pixels.T.tobytes())
    return [csv_path, pgm_path]
