"""Labeled image batches and their on-disk form.

A dataset is stored as three sidecar files sharing one stem: ``<stem>.gten``
(the N x C x W x H image tensor), ``<stem>.labels.csv`` (header
``index,label``, one row per image), and ``<stem>.meta`` (``key = value``
text carrying ``num_classes``).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .config import Field, format_fields, format_kv, parse_fields, parse_kv_text
from .errors import ConfigError, ContractError, DataFormatError
from .serialize import _all_finite, gten_slices, write_file, write_gten

__all__ = ["ImageBatch", "save_dataset", "open_dataset", "load_dataset"]


@dataclass
class ImageBatch:
    """Images (N, C, W, H) with integer labels in [0, num_classes)."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        if self.images.ndim != 4:
            raise ContractError(
                f"images must be rank 4 (N, C, W, H), got rank {self.images.ndim}")
        if 0 in self.images.shape:
            raise ContractError(
                f"images must have no zero extent, got {self.images.shape}")
        self.labels = _checked_labels(self.labels, self.images.shape[0],
                                      self.num_classes)
        if not _all_finite(self.images):
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


def _checked_labels(labels, n: int, num_classes: int) -> np.ndarray:
    """``labels`` as int64, once they are ``n`` classes in [0, num_classes)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ContractError(f"{n} images but {labels.size} labels")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ContractError(f"labels must lie in [0, {num_classes})")
    return labels


_META_FIELDS = (Field("num_classes", "num_classes", int),)


def _paths(stem: str | Path) -> tuple[Path, Path, Path]:
    stem = Path(stem)
    return (stem.with_name(stem.name + ".gten"),
            stem.with_name(stem.name + ".labels.csv"),
            stem.with_name(stem.name + ".meta"))


def save_dataset(stem: str | Path, images: Iterable[np.ndarray], labels,
                 num_classes: int) -> dict[Path, str]:
    """Write ``<stem>.gten``, ``<stem>.labels.csv`` and ``<stem>.meta``, in
    that order, each replaced atomically, so a failed write leaves that
    file's old bytes; return ``{path: digest}``.

    ``images`` is any iterable of one (C, W, H) image per label (an
    (N, C, W, H) array is one); each image is checked, cast and written
    before the next one is made.
    """
    labels = np.asarray(labels)
    if labels.size < 1:
        raise ContractError("batch must contain at least one image")
    labels = _checked_labels(labels, labels.size, num_classes)
    tensor_path, labels_path, meta_path = _paths(stem)
    rows = ["index,label"]
    rows.extend(f"{i},{label}" for i, label in enumerate(labels.tolist()))
    meta = format_kv(format_fields(_META_FIELDS,
                                   SimpleNamespace(num_classes=num_classes)))
    return {tensor_path: write_gten(tensor_path, _checked_images(images),
                                    labels.size),
            labels_path: write_file(labels_path,
                                    [("\n".join(rows) + "\n").encode("utf-8")]),
            meta_path: write_file(meta_path, [meta.encode("utf-8")])}


def _checked_images(images: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    for image in images:
        image = np.asarray(image)
        if image.ndim != 3:
            raise ContractError(
                f"an image must be rank 3 (C, W, H), got rank {image.ndim}")
        if 0 in image.shape:
            raise ContractError(
                f"images must have no zero extent, got {image.shape}")
        if not _all_finite(image):
            raise ContractError("images contain non-finite values")
        yield image


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


def open_dataset(stem: str | Path
                 ) -> tuple[tuple[int, ...], Iterator[np.ndarray], np.ndarray, int]:
    """Check a dataset written by :func:`save_dataset` and return its
    (N, C, W, H) shape, a one-pass iterator over its images read one at a
    time, its labels and its class count.

    Every check but those of the image values runs before this returns: a
    missing file, or a directory where a file should be, raises
    :class:`DataFormatError` like a malformed one.  A NaN, an infinity or a
    truncation among the values raises :class:`DataFormatError` when its
    image is reached.
    """
    tensor_path, labels_path, meta_path = _paths(stem)
    for path in (tensor_path, labels_path, meta_path):
        if not path.is_file():
            raise DataFormatError(f"dataset file {path} is missing or not a file")
    shape, images = gten_slices(tensor_path)
    if len(shape) != 4:
        raise DataFormatError(
            f"dataset tensor rank field is {len(shape)}, expected 4")
    labels = _read_labels_csv(labels_path, shape[0])
    try:
        meta = parse_kv_text(meta_path.read_text(encoding="utf-8"))
        num_classes = parse_fields(_META_FIELDS, meta, required=True)["num_classes"]
    except (ConfigError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"meta file {meta_path}: {exc}") from exc
    try:
        labels = _checked_labels(labels, shape[0], num_classes)
    except ContractError as exc:
        raise DataFormatError(f"dataset {tensor_path}: {exc}") from exc
    return shape, images, labels, num_classes


def load_dataset(stem: str | Path) -> ImageBatch:
    """Load a dataset written by :func:`save_dataset`, filling its array one
    image at a time; a dataset that :func:`open_dataset` rejects raises
    :class:`DataFormatError`, and by then :class:`ImageBatch` finds nothing
    more to reject."""
    shape, images, labels, num_classes = open_dataset(stem)
    array = np.fromiter(images, np.dtype((np.float64, shape[1:])), shape[0])
    return ImageBatch(array, labels, num_classes)
