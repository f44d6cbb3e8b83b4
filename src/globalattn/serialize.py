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

Tensors move through memory one leading-axis slice at a time: the writer
casts, writes and hashes each slice before it takes the next, and the reader
checks a header's value count against the bytes the tensor spans before it
allocates anything, then converts one slice at a time.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import format_fields, format_kv, parse_fields, parse_kv_text
from .errors import ConfigError, ContractError, DataFormatError
from .seeding import _FNV_CHUNK, FNV_OFFSET, fnv1a64

__all__ = [
    "atomic_write",
    "write_file",
    "write_gten",
    "read_gten",
    "gten_slices",
    "write_checkpoint",
    "read_checkpoint",
    "save_model_checkpoint",
    "load_model_checkpoint",
]

MAGIC = b"GTEN"


def _gten_head(shape: tuple[int, ...]) -> bytes:
    """The header of a tensor of ``shape``; a zero dim, which the reader
    would refuse, raises :class:`DataFormatError`."""
    if 0 in shape:
        raise DataFormatError("zero dimension in dims field")
    return MAGIC + struct.pack(f"<{len(shape) + 1}I", len(shape), *shape)


def _f4(values) -> memoryview:
    """The bytes of ``values`` as C-ordered little-endian float32.  A NaN,
    an infinity or a finite value beyond the float32 range (it would cast to
    inf) raises :class:`DataFormatError`: the tensor would not load."""
    # a value beyond the float32 range casts to inf, which the test below
    # refuses, so the cast's overflow warning would say nothing more
    with np.errstate(over="ignore"):
        # note: ascontiguousarray would promote rank-0 arrays to rank 1
        arr = np.asarray(values, dtype="<f4", order="C")
    if not _all_finite(arr):
        raise DataFormatError("tensor holds a NaN, an infinity or a value "
                              "beyond the float32 range")
    return memoryview(arr).cast("B")


def _all_finite(values: np.ndarray) -> bool:
    """Whether no value is a NaN or an infinity, so an empty array is.  min
    and max propagate NaN and reach any infinity, with no mask the size of
    the values and no warning."""
    return values.size == 0 or bool(np.isfinite(values.min())
                                     and np.isfinite(values.max()))


def _gten_parts(slices, n: int | None = None) -> Iterator:
    """Yield one tensor blob part by part: its header, then its float32
    values one leading-axis slice at a time, each cast when it is reached.

    ``slices`` is an array (a tensor below rank 2 is one part), or, with
    ``n``, any iterable of ``n`` equally shaped slices.  A slice of another
    shape, or another count of slices, raises :class:`ContractError`.
    """
    if n is None:
        slices = np.asarray(slices)
        if slices.ndim < 2:
            yield _gten_head(slices.shape)
            yield _f4(slices)
            return
        n = len(slices)
    count = 0
    for count, piece in enumerate(map(np.asarray, slices), 1):
        if count == 1:
            shape = piece.shape
            yield _gten_head((n, *shape))
        elif piece.shape != shape:
            raise ContractError(
                f"slice {count - 1} has shape {piece.shape}, expected {shape}")
        yield _f4(piece)
    if count != n or n < 1:
        raise ContractError(f"{count} slices, expected {n} >= 1")


def _slicing(dims: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """How many slices the reader yields for ``dims``, and their shape: one
    per index of the leading axis, or the whole tensor below rank 2."""
    return (dims[0], dims[1:]) if len(dims) > 1 else (1, dims)


def _read_head(fh, nbytes: int) -> tuple[int, ...]:
    """Read one tensor blob's header from ``fh`` and return its dims.

    ``nbytes`` is the size of the whole blob.  The dims must claim exactly
    the values that fill it, or :class:`DataFormatError` is raised before
    anything the size of the values is allocated.
    """
    fixed = fh.read(8) if nbytes >= 8 else b""
    if len(fixed) < 8:
        raise DataFormatError("tensor file truncated before rank field")
    if fixed[:4] != MAGIC:
        raise DataFormatError(
            f"bad magic bytes {fixed[:4]!r}, expected {MAGIC!r}")
    (rank,) = struct.unpack_from("<I", fixed, 4)
    head = 8 + 4 * rank
    raw = fh.read(4 * rank) if nbytes >= head else b""
    if len(raw) < 4 * rank:
        raise DataFormatError("tensor file truncated inside dims field")
    dims = struct.unpack(f"<{rank}I", raw)
    if 0 in dims:
        raise DataFormatError("zero dimension in dims field")
    count = math.prod(dims)
    if nbytes != head + 4 * count:
        raise DataFormatError(
            f"values field has {nbytes - head} bytes, expected {4 * count}")
    return dims


def _read_slices(fh, dims: tuple[int, ...]) -> Iterator[np.ndarray]:
    """Yield the values after a header that :func:`_read_head` checked, as
    float64 arrays, one slice (see :func:`_slicing`) at a time; a
    shortfall, a NaN or an infinity raises :class:`DataFormatError` when its
    slice is reached.  Neither a slice's float32 bytes nor the slice itself
    is held once the next slice is asked for."""
    count, shape = _slicing(dims)
    size = 4 * math.prod(shape)
    for _ in range(count):
        values = fh.read(size)
        if len(values) != size:
            raise DataFormatError("tensor file truncated inside values field")
        values = np.frombuffer(values, dtype="<f4")
        if not _all_finite(values):
            raise DataFormatError("values field holds a NaN or infinite value")
        values = values.astype(np.float64).reshape(shape)
        yield values
        del values


def _read_tensor(fh, nbytes: int) -> np.ndarray:
    """The ``nbytes`` tensor blob at ``fh`` as one float64 array, filled one
    slice at a time once its header is checked."""
    dims = _read_head(fh, nbytes)
    count, shape = _slicing(dims)
    return np.fromiter(_read_slices(fh, dims), np.dtype((np.float64, shape)),
                       count).reshape(dims)


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


def write_file(path: str | Path, parts: Iterable) -> str:
    """Write the byte parts to ``path`` through :func:`atomic_write`; return
    the 16-digit hex FNV-1a digest of the bytes written.

    ``parts`` is consumed lazily: each part is written and hashed before the
    next one is made, so a generator of parts is never held whole.  The bytes
    are hashed in whole ``_FNV_CHUNK`` blocks, whatever the sizes of the
    parts, which costs what hashing the whole file at once would.  Every
    file the package writes goes through here.
    """
    h, carry = FNV_OFFSET, bytearray()
    with atomic_write(path) as fh:
        for part in parts:
            fh.write(part)
            view = memoryview(part).cast("B")
            head = _FNV_CHUNK - len(carry)  # the bytes that fill one block
            carry += view[:head]
            if len(carry) == _FNV_CHUNK:
                rest = view[head:]
                whole = len(rest) - len(rest) % _FNV_CHUNK
                h = fnv1a64(rest[:whole], fnv1a64(carry, h))
                carry = bytearray(rest[whole:])
    return f"{fnv1a64(carry, h):016x}"


def write_gten(path: str | Path, slices, n: int | None = None) -> str:
    """Write a tensor through :func:`write_file` one slice at a time (see
    :func:`_gten_parts` for ``slices`` and ``n``) and return its digest;
    a refused value leaves the old file."""
    return write_file(path, _gten_parts(slices, n))


def gten_slices(path: str | Path) -> tuple[tuple[int, ...], Iterator[np.ndarray]]:
    """The dims of the ``.gten`` file ``path`` and a one-pass iterator over
    its slices (see :func:`_slicing`) as float64 arrays, read one at a time.

    The header is checked against the file's size before this returns, so a
    malformed or truncated header raises here; a NaN, an infinity or a
    truncation among the values raises when its slice is reached.
    """
    slices = _gten_file(path)
    return next(slices), slices


def _gten_file(path: str | Path) -> Iterator:
    with open(path, "rb") as fh:
        dims = _read_head(fh, os.fstat(fh.fileno()).st_size)
        yield dims
        yield from _read_slices(fh, dims)


def read_gten(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        return _read_tensor(fh, os.fstat(fh.fileno()).st_size)


def write_checkpoint(path: str | Path, header: dict[str, str],
                     tensors: list[np.ndarray]) -> str:
    """Write a checkpoint through :func:`write_file`, one tensor slice at a
    time, and return its digest; a refused tensor leaves the old file."""
    pairs = dict(header)
    pairs["tensors"] = str(len(tensors))
    head = format_kv(pairs).encode("utf-8")

    def parts():
        yield struct.pack("<I", len(head))
        yield head
        for arr in map(np.asarray, tensors):
            yield struct.pack("<I", 8 + 4 * arr.ndim + 4 * arr.size)
            yield from _gten_parts(arr)
    return write_file(path, parts())


def read_checkpoint(path: str | Path) -> tuple[dict[str, str], list[np.ndarray]]:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def span(n: int, what: str) -> int:
            """``n``, once the file is known to hold that many more bytes."""
            if n > size - fh.tell():
                raise DataFormatError(f"checkpoint truncated inside {what}")
            return n

        def take(n: int, what: str) -> bytes:
            return fh.read(span(n, what))

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
            tensors.append(_read_tensor(fh, span(blob_len, "tensor blob")))
        if fh.read(1):
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
