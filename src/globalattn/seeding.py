"""Deterministic seed derivation.

Every random draw in the package flows from one user-facing 64-bit seed.
Independent streams (model init, shuffling, noise for image i, ...) are
derived by XOR-ing the seed with a stream id and passing the result through
a splitmix-style 64-bit mix, then feeding that into ``numpy``'s PCG64
generator.  Stream ids for named components are FNV-1a hashes of short tag
strings; per-image streams use the image index directly.  The same
``fnv1a64`` checksums every CLI artifact as it is written (see
``serialize.write_file``), so it is vectorised with numpy, digest for
digest equal to the byte-at-a-time loop.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3

# fnv1a64 works through its input in chunks of _FNV_CHUNK bytes, and takes
# each chunk's dot product _FNV_DOT entries at a time, which keeps its
# temporaries near 400 KB; _FNV_POWERS[j] is FNV_PRIME ** (_FNV_CHUNK - j).
_FNV_CHUNK = 1 << 16
_FNV_DOT = 1 << 13
_FNV_POWERS = np.multiply.accumulate(
    np.full(_FNV_CHUNK, FNV_PRIME, dtype=np.uint64))[::-1].copy()


def fnv1a64(data, h: int = FNV_OFFSET) -> int:
    """64-bit FNV-1a hash of a buffer's bytes, continued from the state ``h``.

    Exactly the byte-at-a-time recurrence ``h = ((h ^ byte) * FNV_PRIME)
    mod 2**64``, evaluated with numpy one chunk at a time (see
    ``_fnv1a64_chunk``), so every digest equals the plain loop's, and
    ``fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b)``.
    """
    view = memoryview(data).cast("B")
    for start in range(0, len(view), _FNV_CHUNK):
        h = _fnv1a64_chunk(h, np.frombuffer(view[start:start + _FNV_CHUNK],
                                            dtype=np.uint8))
    return h


def _fnv1a64_chunk(h: int, b: np.ndarray) -> int:
    """FNV-1a state after feeding the bytes ``b`` to the state ``h``.

    With ``P = FNV_PRIME`` and ``l = h & 0xFF``, one step ``(h ^ b) * P``
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
    return (pow(FNV_PRIME, m, 1 << 64) * h + tail) & _MASK64


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


def splitmix64(x: int) -> int:
    """One output step of the splitmix64 mixing function."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def check_seed(seed: int) -> None:
    """Raise :class:`ConfigError` unless ``seed`` lies in [0, 2^64).

    :func:`mix_seed` keeps only a seed's low 64 bits, so a seed outside
    would run the streams of one inside while its manifest records another.
    """
    if not 0 <= seed <= _MASK64:
        raise ConfigError(f"seed must lie in [0, 2^64), got {seed}")


def mix_seed(seed: int, stream: int) -> int:
    """Derive the sub-seed for ``stream`` from the master ``seed``."""
    return splitmix64((seed ^ stream) & _MASK64)


def stream_tag(name: str) -> int:
    """Stream id for a named component."""
    return fnv1a64(name.encode("utf-8"))


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """PCG64 generator seeded from ``mix_seed(seed, stream)``."""
    return np.random.default_rng(mix_seed(seed, stream))


# Named streams: each id is stream_tag() of the tag beside it, written out
# so that import hashes nothing.  Per-image noise streams use the raw image
# index instead.
ATTENTION_INIT = 0xEEFFDACEC5DC76AE  # "attention-init"
CLASSIFIER_INIT = 0x7F5DE328534379C5  # "classifier-init"
SHUFFLE = 0x9B5838F16AEF3DBA  # "epoch-shuffle"
TEMPLATES = 0xBC2CE05D2394429A  # "synthetic-templates"
SPLIT = 0x03024008A95084FD  # "train-test-split"
CV_FOLDS = 0x9552D1C45CA62AA9  # "cv-folds"
