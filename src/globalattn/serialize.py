"""Binary tensor files and model checkpoints.

Tensor file (``.gten``): magic bytes ``GTEN``, a little-endian u32 rank,
``rank`` little-endian u32 dims, then float32 little-endian values in
row-major order.  Every value must be finite.

Checkpoint: a little-endian u32 length, a UTF-8 key-value header
(``key = value`` lines), then one length-prefixed GTEN blob per parameter
tensor, in parameter order.  The header's ``tensors`` key gives the count.
A model checkpoint's header also holds ``kind`` and the fields of its
class's ``FIELDS`` table, enough to rebuild the model before its tensors
are loaded.
"""

from __future__ import annotations

import io
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import format_fields, format_kv, parse_fields, parse_kv_text
from .errors import ConfigError, DataFormatError
from .seeding import FNV_OFFSET, fnv1a64

__all__ = [
    "gten_bytes",
    "gten_from_bytes",
    "atomic_write",
    "write_file",
    "write_gten",
    "read_gten",
    "write_checkpoint",
    "read_checkpoint",
    "save_model_checkpoint",
    "load_model_checkpoint",
]

MAGIC = b"GTEN"


def _gten_parts(array: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The header of one tensor blob and its values as C-ordered
    little-endian float32.  A finite value beyond the float32 range raises
    :class:`DataFormatError`: it would cast to inf, and the blob would not
    load."""
    try:
        # turns the cast's overflow warning into an error
        with np.errstate(over="raise"):
            # note: ascontiguousarray would promote rank-0 arrays to rank 1
            arr = np.asarray(array, dtype="<f4", order="C")
    except FloatingPointError as exc:
        raise DataFormatError(
            "tensor holds a value beyond the float32 range") from exc
    return MAGIC + struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape), arr


def gten_bytes(array: np.ndarray) -> bytes:
    """Encode one tensor as float32; see :func:`_gten_parts`."""
    head, arr = _gten_parts(array)
    return head + arr.tobytes()


def gten_from_bytes(blob: bytes) -> np.ndarray:
    """Decode one tensor blob; values come back as float64.  A malformed
    blob, or one holding NaN or inf, raises :class:`DataFormatError`."""
    if len(blob) < 8:
        raise DataFormatError("tensor file truncated before rank field")
    if blob[:4] != MAGIC:
        raise DataFormatError(
            f"bad magic bytes {blob[:4]!r}, expected {MAGIC!r}")
    (rank,) = struct.unpack_from("<I", blob, 4)
    head = 8 + 4 * rank
    if len(blob) < head:
        raise DataFormatError("tensor file truncated inside dims field")
    dims = struct.unpack_from(f"<{rank}I", blob, 8)
    count = 1
    for d in dims:
        if d == 0:
            raise DataFormatError("zero dimension in dims field")
        count *= d
    expected = head + 4 * count
    if len(blob) != expected:
        raise DataFormatError(
            f"values field has {len(blob) - head} bytes, expected {4 * count}")
    values = np.frombuffer(blob, dtype="<f4", offset=head, count=count)
    # a float64 sum of float32 values cannot overflow, so it is finite
    # exactly when every value is, and it needs no mask the size of the blob
    if not np.isfinite(values.sum(dtype=np.float64)):
        raise DataFormatError("values field holds a NaN or infinite value")
    return values.astype(np.float64).reshape(dims)


@contextmanager
def atomic_write(path: str | Path):
    """A binary handle on a temporary sibling of ``path`` that replaces
    ``path`` (``os.replace``) when the block ends.  If the block raises,
    the temporary file is removed and ``path`` keeps its old bytes."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_file(path: str | Path, *parts) -> str:
    """Write the byte parts to ``path`` through :func:`atomic_write`; return the
    16-digit hex FNV-1a digest of the parts, hashed as they are written.  Every
    file the package writes goes through here."""
    h = FNV_OFFSET
    with atomic_write(path) as fh:
        for part in parts:
            fh.write(part)
            h = fnv1a64(part, h)
    return f"{h:016x}"


def write_gten(path: str | Path, array: np.ndarray) -> str:
    """Write the bytes of :func:`gten_bytes` straight from the float32 array,
    with no second copy, through :func:`write_file`, and return their
    digest; a refused value leaves no file."""
    head, arr = _gten_parts(array)
    return write_file(path, head, memoryview(arr).cast("B"))


def read_gten(path: str | Path) -> np.ndarray:
    return gten_from_bytes(Path(path).read_bytes())


def write_checkpoint(path: str | Path, header: dict[str, str],
                     tensors: list[np.ndarray]) -> str:
    """Write a checkpoint through :func:`write_file` and return its digest."""
    pairs = dict(header)
    pairs["tensors"] = str(len(tensors))
    head = format_kv(pairs).encode("utf-8")
    # encode every tensor first, so a refused one leaves no file at all
    blobs = [gten_bytes(arr) for arr in tensors]
    return write_file(path, *(struct.pack("<I", len(b)) + b for b in [head, *blobs]))


def read_checkpoint(path: str | Path) -> tuple[dict[str, str], list[np.ndarray]]:
    raw = Path(path).read_bytes()
    buf = io.BytesIO(raw)

    def take(n: int, what: str) -> bytes:
        chunk = buf.read(n)
        if len(chunk) != n:
            raise DataFormatError(f"checkpoint truncated inside {what}")
        return chunk

    (head_len,) = struct.unpack("<I", take(4, "header length"))
    head = take(head_len, "header")
    try:
        header = parse_kv_text(head.decode("utf-8"))
    except (ConfigError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"malformed checkpoint header: {exc}") from exc
    if "tensors" not in header:
        raise DataFormatError("checkpoint header missing tensors field")
    try:
        count = int(header["tensors"])
    except ValueError as exc:
        raise DataFormatError("checkpoint tensors field is not an integer") from exc
    tensors = []
    for _ in range(count):
        (blob_len,) = struct.unpack("<I", take(4, "tensor length prefix"))
        tensors.append(gten_from_bytes(take(blob_len, "tensor blob")))
    if buf.read(1):
        raise DataFormatError("trailing bytes after last tensor blob")
    return header, tensors


def save_model_checkpoint(model, path: str | Path) -> str:
    """Write a model whose class declares ``KIND``, ``FIELDS`` and ``params``."""
    header = {"kind": model.KIND, **format_fields(model.FIELDS, model)}
    return write_checkpoint(path, header, [p.data for p in model.params])


def load_model_checkpoint(cls, path: str | Path):
    """Rebuild a ``cls`` model saved by :func:`save_model_checkpoint`.

    Every header field is required; a wrong kind, a missing or invalid
    field, or a tensor count or shape the model does not have raises
    :class:`DataFormatError`.
    """
    header, tensors = read_checkpoint(path)
    if header.get("kind") != cls.KIND:
        raise DataFormatError(f"checkpoint {path} is not a {cls.KIND} checkpoint")
    try:
        # the init draws are overwritten by the stored tensors below
        model = cls(**parse_fields(cls.FIELDS, header, required=True),
                    rng=np.random.default_rng(0))
    except ConfigError as exc:
        raise DataFormatError(f"checkpoint {path}: {exc}") from exc
    if len(tensors) != len(model.params):
        raise DataFormatError(
            f"checkpoint has {len(tensors)} tensors, model needs {len(model.params)}")
    for param, stored in zip(model.params, tensors):
        if param.shape != stored.shape:
            raise DataFormatError(
                f"checkpoint tensor shape {stored.shape} != {param.shape}")
        param.data = stored
    return model
