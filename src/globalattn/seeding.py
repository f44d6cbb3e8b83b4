"""Deterministic seed derivation.

Every random draw in the package flows from one user-facing 64-bit seed.
Independent streams (model init, shuffling, noise for image i, ...) are
derived by XOR-ing the seed with a stream id and passing the result through
a splitmix-style 64-bit mix, then feeding that into ``numpy``'s PCG64
generator.  Stream ids for named components are the 64-bit FNV-1a hashes
of short tag strings, written out as literals; per-image streams use the
image index directly.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1


def check_seed(seed: int) -> None:
    """Raise :class:`ConfigError` unless ``seed`` lies in [0, 2^64).

    :func:`mix_seed` keeps only a seed's low 64 bits, so a seed outside
    would run the streams of one inside while its manifest records another.
    """
    if not 0 <= seed <= _MASK64:
        raise ConfigError(f"seed must lie in [0, 2^64), got {seed}")


def mix_seed(seed: int, stream: int) -> int:
    """The sub-seed for ``stream``: one splitmix64 output step of the
    master ``seed`` XOR ``stream``."""
    x = ((seed ^ stream) + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """PCG64 generator seeded from ``mix_seed(seed, stream)``."""
    return np.random.default_rng(mix_seed(seed, stream))


# Named streams: each id is the 64-bit FNV-1a hash of the tag beside it.
# Per-image noise streams use the raw image index instead.
ATTENTION_INIT = 0xEEFFDACEC5DC76AE  # "attention-init"
CLASSIFIER_INIT = 0x7F5DE328534379C5  # "classifier-init"
SHUFFLE = 0x9B5838F16AEF3DBA  # "epoch-shuffle"
TEMPLATES = 0xBC2CE05D2394429A  # "synthetic-templates"
SPLIT = 0x03024008A95084FD  # "train-test-split"
CV_FOLDS = 0x9552D1C45CA62AA9  # "cv-folds"
