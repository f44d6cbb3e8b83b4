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
                     parse_fields, parse_float, parse_ints)
from .datasets import ImageBatch
from .errors import ConfigError, ContractError
from .seeding import SPLIT, TEMPLATES, check_seed, mix_seed, rng_for
from .tensor import check_indexable

__all__ = [
    "SyntheticSpec",
    "generate_synthetic",
    "class_labels",
    "relevance_mask",
    "split_indices",
    "split_train_test",
    "load_synthetic_spec",
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
        dim = self.c * (x1 - x0 + 1) * (y1 - y0 + 1)
        if dim < self.num_classes:
            raise ConfigError(
                f"region holds {dim} values, too small for {self.num_classes} "
                "orthogonal class templates")
        check_seed(self.seed)
        check_indexable((self.n, self.c, self.w, self.h))

    @property
    def region_slices(self) -> tuple[slice, slice]:
        x0, y0, x1, y1 = self.relevant_region
        return slice(x0, x1 + 1), slice(y0, y1 + 1)


def _orthogonal_templates(spec: SyntheticSpec) -> np.ndarray:
    """One (C, rw, rh) template per class, orthogonal with per-pixel RMS 1."""
    x0, y0, x1, y1 = spec.relevant_region
    rw, rh = x1 - x0 + 1, y1 - y0 + 1
    dim = spec.c * rw * rh
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


def generate_synthetic(spec: SyntheticSpec, indices: np.ndarray | None = None
                       ) -> tuple[ImageBatch, np.ndarray]:
    """Build the dataset and its binary (W, H) relevance mask.

    Labels cycle through the classes (:func:`class_labels`) so every class
    appears equally often.
    Image i draws its noise from the stream ``mix_seed(seed, i)``, which
    makes generation reproducible per image.  ``indices`` draws only those
    images, in that order, bit for bit equal to
    ``generate_synthetic(spec)[0].subset(indices)``; the default is all N.
    """
    indices = np.arange(spec.n) if indices is None else np.asarray(indices)
    if (indices.ndim != 1 or not np.issubdtype(indices.dtype, np.integer)
            or ((indices < 0) | (indices >= spec.n)).any()):
        raise ContractError(f"indices must be a 1-D integer array in [0, {spec.n})")
    templates = _orthogonal_templates(spec)
    sx, sy = spec.region_slices
    labels = class_labels(spec, indices)
    images = np.empty((indices.size, spec.c, spec.w, spec.h))
    try:
        # the spec's values are finite, so only an overflow makes an image
        # non-finite
        with np.errstate(over="raise"):
            for row, i in enumerate(indices.tolist()):
                rng = np.random.default_rng(mix_seed(spec.seed, i))
                # drawn and scaled in the row itself, so no image-sized
                # temporary is made
                rng.standard_normal(out=images[row])
                images[row] *= spec.noise_std
                images[row][:, sx, sy] += (spec.signal_strength
                                           * templates[labels[row]])
    except FloatingPointError as exc:
        raise ConfigError("signal_strength and noise_std overflow the "
                          "images to infinity") from exc
    return ImageBatch(images, labels, spec.num_classes), relevance_mask(spec)


def class_labels(spec: SyntheticSpec, indices: np.ndarray) -> np.ndarray:
    """The labels of images ``indices``: they cycle through the classes."""
    return np.asarray(indices) % spec.num_classes


def relevance_mask(spec: SyntheticSpec) -> np.ndarray:
    """The binary (W, H) mask of the relevant rectangle."""
    sx, sy = spec.region_slices
    mask = np.zeros((spec.w, spec.h))
    mask[sx, sy] = 1.0
    return mask


def split_indices(n: int, train_fraction: float,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Train and test indices of a seeded shuffle of ``range(n)``; the train
    part gets the first floor(n * fraction)."""
    check_seed(seed)
    if not 0 < train_fraction < 1:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    perm = rng_for(seed, SPLIT).permutation(n)
    n_train = int(n * train_fraction)
    if n_train < 1 or n_train >= n:
        raise ConfigError(
            f"split of {n} images at {train_fraction} leaves an empty side")
    return perm[:n_train], perm[n_train:]


def split_train_test(batch: ImageBatch, train_fraction: float,
                     seed: int) -> tuple[ImageBatch, ImageBatch]:
    """Split by the seeded shuffle of :func:`split_indices`."""
    train_idx, test_idx = split_indices(batch.n, train_fraction, seed)
    return batch.subset(train_idx), batch.subset(test_idx)


def load_synthetic_spec(path: str | Path
                        ) -> tuple[SyntheticSpec, dict[str, str]]:
    """Build a spec from the flat ``key = value`` file ``path``; every key
    of ``SyntheticSpec.FIELDS`` is required.  The file is read once, and
    the key-value map the spec was built from is returned with it, for the
    run manifest.

    ``relevant_region`` is ``x0,y0,x1,y1`` (inclusive corners).
    """
    kv = load_kv_file(path, field_keys(SyntheticSpec.FIELDS))
    fields = parse_fields(SyntheticSpec.FIELDS, kv, required=True)
    return SyntheticSpec(**fields), kv
