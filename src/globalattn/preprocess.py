"""Bit-exact image preprocessing.

The pipeline order is fixed: column crop, area-interpolation resize,
horizontal flip of selected images, then [0,1] normalization followed by
per-channel standardization.  Every stage is a pure function of its inputs,
so the same input file always produces the same output bytes.  Stages whose
spec field is left empty are skipped.

Images are (C, W, H) float64 arrays; the width axis is axis 1.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (Field, field_keys, load_kv_file, parse_fields,
                     parse_float, parse_size)
from .errors import ConfigError, ContractError
from .tensor import check_indexable

__all__ = [
    "PreprocessSpec",
    "crop_columns",
    "resize_area",
    "hflip",
    "normalize_standardize",
    "apply_pipeline",
    "load_preprocess_spec",
    "load_flip_indices",
    "packaged_flip_list",
]


def crop_columns(image: np.ndarray, left: int, right: int) -> np.ndarray:
    """Keep columns with index in [left, right] inclusive."""
    w = image.shape[1]
    if not (0 <= left < right < w):
        raise ContractError(
            f"crop_columns: need 0 <= left < right < {w}, got [{left}, {right}]")
    return image[:, left:right + 1, :].copy()


@functools.cache
def _overlap_matrix(src: int, dst: int) -> np.ndarray:
    """Row o holds the area weights of source pixels under output pixel o.

    Output pixel o back-projects to the interval [o*s, (o+1)*s) with
    s = src/dst; source pixel i covers [i, i+1).  The weight is the overlap
    length divided by s, so each row sums to one and constants are preserved.
    Built once per size pair and returned read-only, as the cache shares it.
    """
    check_indexable((dst, src))
    s = src / dst
    m = np.zeros((dst, src))
    for o in range(dst):
        lo, hi = o * s, (o + 1) * s
        i0, i1 = int(np.floor(lo)), min(int(np.ceil(hi)), src)
        for i in range(i0, i1):
            overlap = min(i + 1.0, hi) - max(float(i), lo)
            if overlap > 0:
                m[o, i] = overlap / s
    m.flags.writeable = False
    return m


def resize_area(image: np.ndarray, target: tuple[int, int]) -> np.ndarray:
    """Resize by area interpolation.

    Each output pixel is the area-weighted average of the source pixels its
    back-projected footprint covers; integral downscales reduce to exact box
    averages.  A same-size target returns the image unchanged.
    """
    tw, th = target
    if tw < 1 or th < 1:
        raise ContractError(f"resize_area: target {tw}x{th} must be >= 1x1")
    c, w, h = image.shape
    if (tw, th) == (w, h):
        return image.copy()
    mw = _overlap_matrix(w, tw)
    mh = _overlap_matrix(h, th)
    # out[c, ow, oh] = sum_{iw, ih} mw[ow, iw] * image[c, iw, ih] * mh[oh, ih]
    return np.einsum("ab,cbd,ed->cae", mw, image, mh, optimize=True)


def hflip(image: np.ndarray) -> np.ndarray:
    """Mirror along the width axis: out[c, x, y] = in[c, W-1-x, y]."""
    return image[:, ::-1, :].copy()


def normalize_standardize(image: np.ndarray,
                          stats: tuple[tuple[float, float], ...]) -> np.ndarray:
    """Map raw [0, 255] values to (v/255 - mean_c) / std_c per channel."""
    c = image.shape[0]
    if len(stats) != c:
        raise ConfigError(
            f"channel_stats covers {len(stats)} channels, image has {c}")
    out = image / 255.0
    for ch, (mean, std) in enumerate(stats):
        if std <= 0:
            raise ConfigError(f"channel {ch} std must be > 0, got {std}")
        try:
            # a finite image and finite stats turn non-finite only by
            # overflowing
            with np.errstate(over="raise"):
                out[ch] = (out[ch] - mean) / std
        except FloatingPointError as exc:
            raise ConfigError(f"channel_stats pair {mean}:{std} overflows "
                              f"channel {ch} to infinity") from exc
    return out


def load_flip_indices(path: str | Path) -> frozenset[int]:
    """Read a newline-separated list of integer image indices."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"flip list not found: {path}")
    indices = set()
    lines = path.read_text(encoding="utf-8").splitlines()
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            indices.add(int(line))
        except ValueError as exc:
            raise ConfigError(
                f"flip list {path} line {line_no}: not an integer") from exc
    return frozenset(indices)


def _parse_channel_stats(value: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for token in value.split(","):
        mean_str, std_str = token.split(":")
        pairs.append((parse_float(mean_str), parse_float(std_str)))
    return tuple(pairs)


@dataclass(frozen=True)
class PreprocessSpec:
    """Configuration for the fixed crop/resize/flip/standardize pipeline.

    ``None`` fields skip their stage.  ``flip_indices`` lists the images to
    mirror horizontally (right-eye reconciliation in fundus datasets).
    """

    crop_left: int | None = None
    crop_right: int | None = None
    target_size: tuple[int, int] | None = None
    flip_indices: frozenset[int] = frozenset()
    channel_stats: tuple[tuple[float, float], ...] | None = None

    FIELDS = (
        Field("crop_left", "crop_left", int),
        Field("crop_right", "crop_right", int),
        Field("target_size", "target_size", parse_size),
        Field("flip_indices", "flip_indices", load_flip_indices),
        Field("channel_stats", "channel_stats", _parse_channel_stats),
    )

    def __post_init__(self):
        if (self.crop_left is None) != (self.crop_right is None):
            raise ConfigError("crop_left and crop_right must be set together")
        if self.crop_left is not None and self.crop_left >= self.crop_right:
            raise ConfigError(
                f"crop_left {self.crop_left} must be < crop_right {self.crop_right}")
        if self.channel_stats is not None:
            for _, std in self.channel_stats:
                if std <= 0:
                    raise ConfigError("channel_stats stds must be > 0")
        if any(i < 0 for i in self.flip_indices):
            raise ConfigError("flip_indices must be non-negative")


def apply_pipeline(spec: PreprocessSpec,
                   images: Iterable[np.ndarray]) -> list[np.ndarray]:
    """Run the pipeline on each (C, W, H) image of ``images`` as it is
    reached (an (N, C, W, H) array is one iterable of images), and return
    the outputs in order.  Image i is flipped when i is in
    ``spec.flip_indices``; an index past the last image raises
    :class:`ConfigError` once the images are exhausted."""
    out = []
    for i, img in enumerate(images):
        if spec.crop_left is not None:
            w = img.shape[1]
            if not 0 <= spec.crop_left < spec.crop_right < w:
                raise ConfigError(f"crop columns [{spec.crop_left}, "
                                  f"{spec.crop_right}] outside [0, {w})")
            img = crop_columns(img, spec.crop_left, spec.crop_right)
        if spec.target_size is not None:
            img = resize_area(img, spec.target_size)
        if i in spec.flip_indices:
            img = hflip(img)
        if spec.channel_stats is not None:
            img = normalize_standardize(img, spec.channel_stats)
        out.append(img)
    out_of_range = [i for i in spec.flip_indices if i >= len(out)]
    if out_of_range:
        raise ConfigError(
            f"flip_indices {sorted(out_of_range)} outside [0, {len(out)})")
    return out


def packaged_flip_list(name: str) -> Path:
    """Path of a flip-index list shipped with the package (e.g. idrid_train)."""
    path = Path(__file__).parent / "data" / f"{name}_flips.txt"
    if not path.exists():
        raise ConfigError(f"no packaged flip list named {name}")
    return path


def load_preprocess_spec(path: str | Path
                         ) -> tuple[PreprocessSpec, dict[str, str]]:
    """Build a spec from the flat ``key = value`` file ``path``.  The file
    is read once, and the key-value map the spec was built from is returned
    with it, as written, for the run manifest.

    Empty values skip a stage.  ``target_size`` is ``WxH``;
    ``channel_stats`` is comma-separated ``mean:std`` pairs;
    ``flip_indices`` is a path (relative to the config file) to a
    newline-separated index list.
    """
    kv = load_kv_file(path, field_keys(PreprocessSpec.FIELDS))
    values = {key: value for key, value in kv.items() if value}
    if "flip_indices" in values:
        values["flip_indices"] = str(Path(path).parent / values["flip_indices"])
    return PreprocessSpec(**parse_fields(PreprocessSpec.FIELDS, values)), kv
