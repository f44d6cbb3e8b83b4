import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from globalattn import pipelinecheck, seeding, serialize
from globalattn.manifest import checksum_file
from globalattn.serialize import digest

from oracles import fnv1a64_reference

CHUNK = serialize._FNV_CHUNK


@pytest.mark.parametrize("data, expected", [
    (b"", 0xCBF29CE484222325),
    (b"a", 0xAF63DC4C8601EC8C),
    (b"foobar", 0x85944171F73967E8),
])
def test_published_vectors(data, expected):
    assert digest([data]) == f"{expected:016x}"


def test_named_stream_tags_are_pinned():
    # Every seed of every run derives from these; they must never move.
    assert {name: getattr(seeding, name) for name in (
        "ATTENTION_INIT", "CLASSIFIER_INIT", "SHUFFLE", "TEMPLATES", "SPLIT",
        "CV_FOLDS")} == {
        "ATTENTION_INIT": 0xEEFFDACEC5DC76AE,
        "CLASSIFIER_INIT": 0x7F5DE328534379C5,
        "SHUFFLE": 0x9B5838F16AEF3DBA,
        "TEMPLATES": 0xBC2CE05D2394429A,
        "SPLIT": 0x03024008A95084FD,
        "CV_FOLDS": 0x9552D1C45CA62AA9,
    }
    assert pipelinecheck._REDRAW == 0x3B1B448D3C0633DD


@pytest.mark.parametrize("module, name, tag", [
    (seeding, "ATTENTION_INIT", "attention-init"),
    (seeding, "CLASSIFIER_INIT", "classifier-init"),
    (seeding, "SHUFFLE", "epoch-shuffle"),
    (seeding, "TEMPLATES", "synthetic-templates"),
    (seeding, "SPLIT", "train-test-split"),
    (seeding, "CV_FOLDS", "cv-folds"),
    (pipelinecheck, "_REDRAW", "gradcheck-redraw"),
])
def test_named_stream_ids_hash_their_tags(module, name, tag):
    assert getattr(module, name) == fnv1a64_reference(tag.encode())


EDGES = [0, 1, 63, 64, 65] + [n * CHUNK + d for n in (1, 2, 3)
                              for d in (-1, 0, 1)]


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(size=st.one_of(st.sampled_from(EDGES), st.integers(0, 3 * CHUNK + 1)),
       fill=st.sampled_from(["random", 0x00, 0xFF]),
       seed=st.integers(0, 2**32 - 1),
       runs=st.lists(st.tuples(st.integers(0, 3 * CHUNK),
                               st.integers(1, CHUNK + 1),
                               st.sampled_from([0x00, 0xFF])), max_size=3),
       cut=st.integers(0, 3 * CHUNK + 1))
def test_matches_bytewise_loop(size, fill, seed, runs, cut):
    rng = np.random.default_rng(seed)
    data = (rng.integers(0, 256, size, dtype=np.uint8) if fill == "random"
            else np.full(size, fill, dtype=np.uint8))
    for start, length, value in runs:
        data[start:start + length] = value
    data = data.tobytes()
    want = f"{fnv1a64_reference(data):016x}"
    assert digest([data]) == want
    # the parts of a cut give the whole's digest
    assert digest([data[:cut], data[cut:]]) == want


def test_checksum_file_peak_memory(tmp_path):
    size = 8 << 20
    path = tmp_path / "blob.bin"
    data = np.random.default_rng(0).integers(0, 256, size, dtype=np.uint8)
    path.write_bytes(data.tobytes())
    del data
    tracemalloc.start()
    try:
        digest = checksum_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # one chunk and its hashing temporaries
    assert digest == f"{fnv1a64_reference(path.read_bytes()):016x}"


@pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1,
                                  3 * CHUNK + 5])
def test_checksum_file_streams_to_the_bytewise_digest(tmp_path, size):
    path = tmp_path / "blob.bin"
    data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8)
    path.write_bytes(data.tobytes())
    assert checksum_file(path) == f"{fnv1a64_reference(data.tobytes()):016x}"
