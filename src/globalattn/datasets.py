"""Labeled image batches and their on-disk form.

A dataset is stored as three sidecar files sharing one stem: ``<stem>.gten``
(the N x C x W x H image tensor), ``<stem>.labels.csv`` (header
``index,label``, one row per image), and ``<stem>.meta`` (``key = value``
text carrying ``num_classes``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import Field, format_fields, format_kv, parse_fields, parse_kv_text
from .errors import ConfigError, ContractError, DataFormatError
from .serialize import read_gten, write_file, write_gten

__all__ = ["ImageBatch", "save_dataset", "load_dataset"]


@dataclass
class ImageBatch:
    """Images (N, C, W, H) with integer labels in [0, num_classes)."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ContractError(
                f"images must be rank 4 (N, C, W, H), got rank {self.images.ndim}")
        if self.images.shape[0] < 1:
            raise ContractError("batch must contain at least one image")
        if self.labels.shape != (self.images.shape[0],):
            raise ContractError(
                f"{self.images.shape[0]} images but {self.labels.size} labels")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.num_classes):
            raise ContractError(
                f"labels must lie in [0, {self.num_classes})")
        if not np.isfinite(self.images).all():
            raise ContractError("images contain non-finite values")

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def c(self) -> int:
        return self.images.shape[1]

    @property
    def w(self) -> int:
        return self.images.shape[2]

    @property
    def h(self) -> int:
        return self.images.shape[3]

    def subset(self, indices: np.ndarray) -> "ImageBatch":
        return ImageBatch(self.images[indices], self.labels[indices],
                          self.num_classes)


_META_FIELDS = (Field("num_classes", "num_classes", int),)


def _paths(stem: str | Path) -> tuple[Path, Path, Path]:
    stem = Path(stem)
    return (stem.with_name(stem.name + ".gten"),
            stem.with_name(stem.name + ".labels.csv"),
            stem.with_name(stem.name + ".meta"))


def save_dataset(batch: ImageBatch, stem: str | Path) -> dict[Path, str]:
    """Write ``<stem>.gten``, ``<stem>.labels.csv`` and ``<stem>.meta``, in
    that order, each replaced atomically, so a failed write leaves that
    file's old bytes; return ``{path: digest}``."""
    tensor_path, labels_path, meta_path = _paths(stem)
    rows = ["index,label"]
    rows.extend(f"{i},{int(label)}" for i, label in enumerate(batch.labels))
    meta = format_kv(format_fields(_META_FIELDS, batch))
    return {tensor_path: write_gten(tensor_path, batch.images),
            labels_path: write_file(labels_path,
                                    ("\n".join(rows) + "\n").encode("utf-8")),
            meta_path: write_file(meta_path, meta.encode("utf-8"))}


def _read_labels_csv(path: Path, expected_rows: int) -> np.ndarray:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"labels file {path} is not UTF-8 text") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "index,label":
        raise DataFormatError(f"labels file {path} missing index,label header")
    body = lines[1:]
    if len(body) != expected_rows:
        raise DataFormatError(
            f"labels file {path} has {len(body)} rows for {expected_rows} images")
    labels = np.empty(expected_rows, dtype=np.int64)
    for row_no, line in enumerate(body):
        parts = line.split(",")
        if len(parts) != 2:
            raise DataFormatError(
                f"labels file {path} row {row_no}: expected index,label")
        try:
            idx, label = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise DataFormatError(
                f"labels file {path} row {row_no}: non-integer field") from exc
        if idx != row_no:
            raise DataFormatError(
                f"labels file {path} row {row_no}: index field is {idx}")
        labels[row_no] = label
    return labels


def load_dataset(stem: str | Path) -> ImageBatch:
    """Load a dataset written by :func:`save_dataset`; contents that
    :class:`ImageBatch` rejects raise :class:`DataFormatError`."""
    tensor_path, labels_path, meta_path = _paths(stem)
    images = read_gten(tensor_path)
    if images.ndim != 4:
        raise DataFormatError(
            f"dataset tensor rank field is {images.ndim}, expected 4")
    labels = _read_labels_csv(labels_path, images.shape[0])
    if not meta_path.exists():
        raise DataFormatError(f"missing meta file {meta_path}")
    try:
        meta = parse_kv_text(meta_path.read_text(encoding="utf-8"))
        num_classes = parse_fields(_META_FIELDS, meta, required=True)["num_classes"]
    except (ConfigError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"meta file {meta_path}: {exc}") from exc
    try:
        return ImageBatch(images, labels, num_classes)
    except ContractError as exc:
        raise DataFormatError(f"dataset {tensor_path}: {exc}") from exc
