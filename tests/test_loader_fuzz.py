"""Property tests: every loader either accepts a damaged file or rejects it
with DataFormatError or ConfigError.

Each example starts from the bytes of a real file and either replaces one
byte or truncates it.  No example inserts bytes, so a size field grows by
at most what one changed byte allows, and no example asks for a large
allocation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from globalattn.attention import AttentionModel
from globalattn.classifier import ClassifierModel
from globalattn.config import format_kv
from globalattn.datasets import ImageBatch, load_dataset, save_dataset
from globalattn.errors import ConfigError, DataFormatError
from globalattn.preprocess import load_preprocess_spec, packaged_flip_list
from globalattn.serialize import load_model_checkpoint, save_model_checkpoint
from globalattn.synthetic import load_synthetic_spec
from globalattn.training import TrainConfig, config_kv, load_train_config

FUZZ = settings(derandomize=True, deadline=None, database=None,
                max_examples=400)


# Half of the replacement bytes are the characters of key = value text, so
# that header values change as often as their syntax breaks.
TEXT_BYTES = b"0123456789-+.,= \n"


def damage(raw: bytes, data) -> bytes:
    """One byte replaced by a different one, or the file cut short.

    Half of the positions fall in the first 256 bytes, where every binary
    format keeps its header.
    """
    pos = data.draw(st.one_of(st.integers(0, min(len(raw), 256) - 1),
                              st.integers(0, len(raw) - 1)), label="position")
    if data.draw(st.booleans(), label="truncate"):
        return raw[:pos]
    out = bytearray(raw)
    out[pos] = data.draw(
        st.one_of(st.sampled_from(TEXT_BYTES), st.integers(0, 255))
        .filter(lambda byte: byte != raw[pos]), label="byte")
    return bytes(out)


def accepts_or_rejects_cleanly(load, path):
    try:
        load(path)
    except (DataFormatError, ConfigError):
        pass


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Bytes of one real file of every kind the loaders read."""
    root = tmp_path_factory.mktemp("originals")
    rng = np.random.default_rng(0)
    batch = ImageBatch(rng.uniform(0.0, 1.0, size=(3, 1, 4, 4)), [0, 2, 1],
                       num_classes=3)
    files = {}
    for path in save_dataset(batch, root / "d"):
        files[path.name.split(".", 1)[1]] = path.read_bytes()
    save_model_checkpoint(AttentionModel("pixel_cnn", 3, 4, 4, channels=2,
                                         rng=rng), root / "a.ckpt")
    save_model_checkpoint(ClassifierModel(1, 4, 4, 3, (2, 3), rng=rng),
                          root / "c.ckpt")
    files["attention"] = (root / "a.ckpt").read_bytes()
    files["classifier"] = (root / "c.ckpt").read_bytes()
    cfg = TrainConfig(dense_connections=True, stages=(4, 8))
    files["config"] = format_kv(config_kv(cfg)).encode("utf-8")
    files["synth.cfg"] = (
        b"N = 30\nC = 1\nW = 8\nH = 8\nrelevant_region = 2,2,5,5\n"
        b"num_classes = 3\nsignal_strength = 3.0\nnoise_std = 1.0\nseed = 11\n")
    files["pre.cfg"] = (
        b"crop_left = 1\ncrop_right = 6\ntarget_size = 4x4\n"
        b"flip_indices = flips.txt\nchannel_stats = 0.485:0.229,0.456:0.224\n")
    files["flips.txt"] = packaged_flip_list("idrid_test").read_bytes()
    return files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("part", ["gten", "labels.csv", "meta"])
@FUZZ
@given(data=st.data())
def test_damaged_dataset_file(originals, workdir, part, data):
    for name in ("gten", "labels.csv", "meta"):
        raw = originals[name]
        (workdir / f"d.{name}").write_bytes(
            damage(raw, data) if name == part else raw)
    accepts_or_rejects_cleanly(load_dataset, workdir / "d")


@pytest.mark.parametrize("cls", [AttentionModel, ClassifierModel],
                         ids=lambda cls: cls.KIND)
@FUZZ
@given(data=st.data())
def test_damaged_checkpoint(originals, workdir, cls, data):
    path = workdir / "m.ckpt"
    path.write_bytes(damage(originals[cls.KIND], data))
    accepts_or_rejects_cleanly(lambda p: load_model_checkpoint(cls, p), path)


@FUZZ
@given(data=st.data())
def test_damaged_train_config(originals, workdir, data):
    path = workdir / "train.txt"
    path.write_bytes(damage(originals["config"], data))
    accepts_or_rejects_cleanly(load_train_config, path)


@FUZZ
@given(data=st.data())
def test_damaged_synthetic_spec(originals, workdir, data):
    path = workdir / "synth.cfg"
    path.write_bytes(damage(originals["synth.cfg"], data))
    accepts_or_rejects_cleanly(load_synthetic_spec, path)


@pytest.mark.parametrize("part", ["pre.cfg", "flips.txt"])
@FUZZ
@given(data=st.data())
def test_damaged_preprocess_spec(originals, workdir, part, data):
    for name in ("pre.cfg", "flips.txt"):
        raw = originals[name]
        (workdir / name).write_bytes(damage(raw, data) if name == part else raw)
    accepts_or_rejects_cleanly(load_preprocess_spec, workdir / "pre.cfg")
