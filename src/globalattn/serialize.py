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
casts, writes and hashes (:func:`digest`, FNV-1a) each slice before it takes
the next, and the reader checks a header's value count against the bytes the
tensor spans before it allocates anything, then converts one slice at a time.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from .config import format_fields, format_kv, parse_fields, parse_kv_text
from .errors import ConfigError, ContractError, DataFormatError

__all__ = [
    "digest",
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
    ``path`` (``os.replace``) when the block ends.  The missing directories
    above ``path`` are made first.  If the block raises, the temporary file
    is removed, so are the directories made for it while they are empty,
    and ``path`` keeps its old bytes.  A file where a directory must be
    raises a plain :class:`OSError`: the output cannot be written."""
    path = Path(path)
    made = list(itertools.takewhile(lambda d: not d.exists(), path.parents))
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise OSError(f"cannot make directory {path.parent}: "
                      f"{exc.strerror}") from exc
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        for directory in made:   # deepest first
            with suppress(OSError):
                directory.rmdir()
        raise


_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# digest works through its input in blocks of _FNV_CHUNK bytes, and takes
# each block's dot product _FNV_DOT entries at a time, which keeps its
# temporaries near 400 KB; _FNV_POWERS[j] is _FNV_PRIME ** (_FNV_CHUNK - j).
_FNV_CHUNK = 1 << 16
_FNV_DOT = 1 << 13
_FNV_POWERS = np.multiply.accumulate(
    np.full(_FNV_CHUNK, _FNV_PRIME, dtype=np.uint64))[::-1].copy()


def digest(parts: Iterable) -> str:
    """The 16-digit hex 64-bit FNV-1a digest of the joined byte parts.

    ``parts`` is consumed lazily.  Its bytes are hashed in whole
    ``_FNV_CHUNK`` blocks (see ``_fnv1a64_chunk``) whatever the sizes of the
    parts, and every digest equals the byte-at-a-time loop's.
    """
    h, carry = _FNV_OFFSET, bytearray()
    for part in parts:
        carry += part
        whole = len(carry) - len(carry) % _FNV_CHUNK
        with memoryview(carry) as view:
            for start in range(0, whole, _FNV_CHUNK):
                h = _fnv1a64_chunk(h, np.frombuffer(
                    view[start:start + _FNV_CHUNK], dtype=np.uint8))
        del carry[:whole]
    if carry:
        h = _fnv1a64_chunk(h, np.frombuffer(carry, dtype=np.uint8))
    return f"{h:016x}"


def _fnv1a64_chunk(h: int, b: np.ndarray) -> int:
    """FNV-1a state after feeding the bytes ``b`` to the state ``h``.

    With ``P = _FNV_PRIME`` and ``l = h & 0xFF``, one step ``(h ^ b) * P``
    equals ``P * (h + d)`` where ``d = (l ^ b) - l``, so over ``m`` bytes
    ``h_m = P**m * h_0 + sum_i P**(m - i) * d_i  (mod 2**64)``: one wrapping
    uint64 dot product, once the low bytes ``l_i`` are known.  They follow
    ``l_{i+1} = ((l_i ^ b_i) * 0xB3) mod 256`` (0xB3 is ``P mod 256``), and
    are found one bit plane per round, lowest bit first: if ``low`` holds the
    bits below ``k`` of every ``l_i``, bit ``k`` of ``l_{i+1}`` is bit ``k``
    of ``l_i`` XOR bit ``k`` of ``(low_i ^ b_i) * 0xB3``, so the plane is a
    prefix XOR started from bit ``k`` of ``l_0``.
    """
    m = b.size
    l0 = h & 0xFF
    low = np.zeros(m, dtype=np.uint8)
    # steps[0] is bit k of l_0 and steps[i + 1] flips it from l_i to
    # l_{i+1}; the zero tail pads the plane to whole 64-bit words.
    steps = np.zeros(-(-m // 64) * 64, dtype=np.uint8)
    flips = steps[1:m]
    for k in range(8):
        bit = 1 << k
        np.bitwise_xor(low[:-1], b[:-1], out=flips)
        np.multiply(flips, 0xB3, out=flips)
        np.bitwise_and(flips, bit, out=flips)
        steps[0] = l0 & bit
        plane = _prefix_xor(steps, m)
        np.multiply(plane, bit, out=plane)
        low |= plane
    d = (low ^ b).astype(np.int16)
    d -= low
    powers = _FNV_POWERS[_FNV_CHUNK - m:]
    tail = sum(int(np.dot(powers[s:s + _FNV_DOT],
                          d[s:s + _FNV_DOT].astype(np.int64).view(np.uint64)))
               for s in range(0, m, _FNV_DOT))
    return (pow(_FNV_PRIME, m, 1 << 64) * h + tail) & _MASK64


def _prefix_xor(bits: np.ndarray, count: int) -> np.ndarray:
    """First ``count`` inclusive prefix XORs of ``bits != 0``, as 0/1 bytes.

    ``bits.size`` must be a multiple of 64: the bits are packed into 64-bit
    words, XOR-scanned inside each word by six shifts, and each word is then
    flipped by the parity of all the words before it.
    """
    words = np.packbits(bits, bitorder="little").view("<u8")
    for shift in (1, 2, 4, 8, 16, 32):
        words ^= words << shift
    odd = words.view("<i8") >> 63  # all ones where a word's parity is odd
    words ^= (np.bitwise_xor.accumulate(odd) ^ odd).view(np.uint64)
    return np.unpackbits(words.view(np.uint8), count=count, bitorder="little")


def write_file(path: str | Path, parts: Iterable) -> str:
    """Write the byte parts to ``path`` through :func:`atomic_write`; return
    the :func:`digest` of the bytes written.

    ``parts`` is consumed lazily: each part is written and passed to the
    digest before the next one is made, so a generator of parts is never
    held whole.  Every file the package writes goes through here.
    """
    with atomic_write(path) as fh:
        return digest(_written(fh, parts))


def _written(fh, parts: Iterable) -> Iterator:
    """Yield each of the parts once it is written to ``fh``."""
    for part in parts:
        fh.write(part)
        yield part


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
