"""Synthetic structured images with a known relevant region.

Every image is i.i.d. Gaussian noise; inside one shared rectangle, each
class adds its own fixed template.  The templates are pairwise orthogonal
over the region (Gram-Schmidt on seeded Gaussian patterns) and scaled to
unit per-pixel RMS, so ``signal_strength`` is the per-pixel signal scale.
Pixels outside the rectangle carry no label information, which makes the
rectangle the ground truth any attention map should recover.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (Field, field_keys, format_ints, load_kv_file,
                     parse_fields, parse_float, parse_ints, parse_kv_text)
from .datasets import ImageBatch
from .errors import ConfigError
from .seeding import SPLIT, TEMPLATES, mix_seed, rng_for

__all__ = [
    "SyntheticSpec",
    "generate_synthetic",
    "split_train_test",
    "load_synthetic_spec",
    "parse_synthetic_spec",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape, relevant rectangle, class count, signal/noise scales, seed."""

    n: int
    c: int
    w: int
    h: int
    relevant_region: tuple[int, int, int, int]  # x0, y0, x1, y1 inclusive
    num_classes: int
    signal_strength: float
    noise_std: float
    seed: int

    FIELDS = (
        Field("N", "n", int),
        Field("C", "c", int),
        Field("W", "w", int),
        Field("H", "h", int),
        Field("relevant_region", "relevant_region", parse_ints, format_ints),
        Field("num_classes", "num_classes", int),
        Field("signal_strength", "signal_strength", parse_float),
        Field("noise_std", "noise_std", parse_float),
        Field("seed", "seed", int),
    )

    def __post_init__(self):
        if len(self.relevant_region) != 4:
            raise ConfigError("relevant_region needs exactly four integers")
        if self.n < 1 or self.c < 1 or self.w < 1 or self.h < 1:
            raise ConfigError("N, C, W, H must all be >= 1")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        x0, y0, x1, y1 = self.relevant_region
        if not (0 <= x0 <= x1 < self.w and 0 <= y0 <= y1 < self.h):
            raise ConfigError(
                f"relevant_region {self.relevant_region} not inside {self.w}x{self.h}")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")

    @property
    def region_slices(self) -> tuple[slice, slice]:
        x0, y0, x1, y1 = self.relevant_region
        return slice(x0, x1 + 1), slice(y0, y1 + 1)


def _orthogonal_templates(spec: SyntheticSpec) -> np.ndarray:
    """One (C, rw, rh) template per class, orthogonal with per-pixel RMS 1."""
    x0, y0, x1, y1 = spec.relevant_region
    rw, rh = x1 - x0 + 1, y1 - y0 + 1
    dim = spec.c * rw * rh
    if dim < spec.num_classes:
        raise ConfigError(
            f"region holds {dim} values, too small for {spec.num_classes} "
            "orthogonal class templates")
    rng = rng_for(spec.seed, TEMPLATES)
    raw = rng.standard_normal((spec.num_classes, dim))
    basis = np.empty_like(raw)
    for k in range(spec.num_classes):  # modified Gram-Schmidt
        v = raw[k].copy()
        for j in range(k):
            v -= (basis[j] @ v) * basis[j]
        norm = np.linalg.norm(v)
        if norm < 1e-9:
            raise ConfigError("degenerate template draw; choose another seed")
        basis[k] = v / norm
    basis *= np.sqrt(dim)
    return basis.reshape(spec.num_classes, spec.c, rw, rh)


def generate_synthetic(spec: SyntheticSpec) -> tuple[ImageBatch, np.ndarray]:
    """Build the dataset and its binary (W, H) relevance mask.

    Labels cycle through the classes so every class appears equally often.
    Image i draws its noise from the stream ``mix_seed(seed, i)``, which
    makes generation reproducible per image.
    """
    templates = _orthogonal_templates(spec)
    sx, sy = spec.region_slices
    labels = np.arange(spec.n, dtype=np.int64) % spec.num_classes
    images = np.empty((spec.n, spec.c, spec.w, spec.h))
    for i in range(spec.n):
        rng = np.random.default_rng(mix_seed(spec.seed, i))
        images[i] = rng.standard_normal((spec.c, spec.w, spec.h)) * spec.noise_std
        images[i][:, sx, sy] += spec.signal_strength * templates[labels[i]]
    mask = np.zeros((spec.w, spec.h))
    mask[sx, sy] = 1.0
    return ImageBatch(images, labels, spec.num_classes), mask


def split_train_test(batch: ImageBatch, train_fraction: float,
                     seed: int) -> tuple[ImageBatch, ImageBatch]:
    """Split by a seeded shuffle; the train part gets floor(N * fraction)."""
    if not 0 < train_fraction < 1:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    perm = rng_for(seed, SPLIT).permutation(batch.n)
    n_train = int(batch.n * train_fraction)
    if n_train < 1 or n_train >= batch.n:
        raise ConfigError(
            f"split of {batch.n} images at {train_fraction} leaves an empty side")
    return batch.subset(perm[:n_train]), batch.subset(perm[n_train:])


def parse_synthetic_spec(text: str) -> SyntheticSpec:
    """Build a spec from flat ``key = value`` text; every key of
    ``SyntheticSpec.FIELDS`` is required.

    ``relevant_region`` is ``x0,y0,x1,y1`` (inclusive corners).
    """
    kv = parse_kv_text(text, field_keys(SyntheticSpec.FIELDS))
    return SyntheticSpec(**parse_fields(SyntheticSpec.FIELDS, kv, required=True))


def load_synthetic_spec(path: str | Path) -> SyntheticSpec:
    kv = load_kv_file(path, field_keys(SyntheticSpec.FIELDS))
    return SyntheticSpec(**parse_fields(SyntheticSpec.FIELDS, kv, required=True))
