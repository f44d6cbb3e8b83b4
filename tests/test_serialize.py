import numpy as np
import pytest

from globalattn.attention import AttentionModel
from globalattn.classifier import ClassifierModel
from globalattn.datasets import ImageBatch, load_dataset, save_dataset
from globalattn.errors import ContractError, DataFormatError
from globalattn.serialize import (gten_bytes, gten_from_bytes,
                                  load_model_checkpoint, read_checkpoint,
                                  read_gten, save_model_checkpoint,
                                  write_checkpoint, write_gten)


def test_gten_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((2, 3, 4, 5)).astype(np.float32).astype(np.float64)
    path = tmp_path / "t.gten"
    write_gten(path, arr)
    back = read_gten(path)
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)
    # second save of the loaded tensor produces identical bytes
    assert gten_bytes(back) == path.read_bytes()


def test_gten_scalar_rank_zero():
    arr = np.asarray(3.5)
    back = gten_from_bytes(gten_bytes(arr))
    assert back.shape == ()
    assert back == 3.5


def test_gten_layout_is_little_endian_f32_row_major():
    arr = np.arange(6.0).reshape(2, 3)
    blob = gten_bytes(arr)
    assert blob[:4] == b"GTEN"
    assert int.from_bytes(blob[4:8], "little") == 2
    assert int.from_bytes(blob[8:12], "little") == 2
    assert int.from_bytes(blob[12:16], "little") == 3
    values = np.frombuffer(blob, dtype="<f4", offset=16)
    assert np.array_equal(values, np.arange(6.0, dtype=np.float32))


def test_gten_bad_magic():
    blob = b"XTEN" + gten_bytes(np.zeros(3))[4:]
    with pytest.raises(DataFormatError, match="magic"):
        gten_from_bytes(blob)


def test_gten_truncated():
    blob = gten_bytes(np.zeros((2, 2)))
    with pytest.raises(DataFormatError):
        gten_from_bytes(blob[:-3])
    with pytest.raises(DataFormatError):
        gten_from_bytes(blob[:6])


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    tensors = [rng.standard_normal((2, 2)).astype(np.float32).astype(np.float64),
               rng.standard_normal(3).astype(np.float32).astype(np.float64)]
    path = tmp_path / "m.ckpt"
    write_checkpoint(path, {"kind": "demo", "alpha": "0.5"}, tensors)
    header, back = read_checkpoint(path)
    assert header["kind"] == "demo"
    assert header["alpha"] == "0.5"
    assert header["tensors"] == "2"
    for a, b in zip(tensors, back):
        assert np.array_equal(a, b)


def test_checkpoint_trailing_garbage(tmp_path):
    path = tmp_path / "m.ckpt"
    write_checkpoint(path, {}, [np.zeros(2)])
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(DataFormatError):
        read_checkpoint(path)


MODELS = {
    AttentionModel: lambda: AttentionModel(
        "pixel_cnn", 2, 4, 4, channels=3, rng=np.random.default_rng(0)),
    ClassifierModel: lambda: ClassifierModel(
        1, 8, 8, 3, (4, 8), rng=np.random.default_rng(0)),
}


@pytest.mark.parametrize("cls, key, value", [
    (AttentionModel, "in_channels", "0"),
    (AttentionModel, "in_channels", "-1"),
    (AttentionModel, "width", "-2"),
    (AttentionModel, "height", "0"),
    (ClassifierModel, "width", "0"),
    (ClassifierModel, "height", "-8"),
    (ClassifierModel, "in_channels", "-1"),
    (ClassifierModel, "stages", "0"),
    (ClassifierModel, "stages", "-4"),
], ids=lambda v: v.KIND if isinstance(v, type) else v)
def test_checkpoint_size_below_one_is_format_error(tmp_path, cls, key, value):
    path = tmp_path / "model.ckpt"
    save_model_checkpoint(MODELS[cls](), path)
    header, tensors = read_checkpoint(path)
    write_checkpoint(path, {**header, key: value}, tensors)
    with pytest.raises(DataFormatError, match=">= 1"):
        load_model_checkpoint(cls, path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls", [AttentionModel, ClassifierModel],
                         ids=lambda cls: cls.KIND)
def test_checkpoint_non_finite_tensor_is_format_error(tmp_path, cls, value):
    model = MODELS[cls]()
    model.params[0].data.flat[0] = value
    path = tmp_path / "model.ckpt"
    save_model_checkpoint(model, path)
    with pytest.raises(DataFormatError, match="NaN or infinite"):
        load_model_checkpoint(cls, path)


def test_dataset_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    images = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
    batch = ImageBatch(images, [0, 1, 2, 0], num_classes=3)
    save_dataset(batch, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert np.array_equal(back.images, batch.images)
    assert np.array_equal(back.labels, batch.labels)
    assert back.num_classes == 3
    # second round trip produces identical files
    save_dataset(back, tmp_path / "d2")
    assert (tmp_path / "d.gten").read_bytes() == (tmp_path / "d2.gten").read_bytes()
    assert ((tmp_path / "d.labels.csv").read_text()
            == (tmp_path / "d2.labels.csv").read_text())


def test_dataset_truncated_tensor_is_format_error(tmp_path):
    batch = ImageBatch(np.zeros((2, 1, 2, 2)), [0, 1], num_classes=2)
    save_dataset(batch, tmp_path / "d")
    raw = (tmp_path / "d.gten").read_bytes()
    (tmp_path / "d.gten").write_bytes(raw[:-5])
    with pytest.raises(DataFormatError):
        load_dataset(tmp_path / "d")


def test_dataset_wrong_rank_is_format_error(tmp_path):
    write_gten(tmp_path / "d.gten", np.zeros((2, 2)))
    (tmp_path / "d.labels.csv").write_text("index,label\n0,0\n1,0\n")
    (tmp_path / "d.meta").write_text("num_classes = 2\n")
    with pytest.raises(DataFormatError, match="rank"):
        load_dataset(tmp_path / "d")


def test_dataset_label_outside_class_count(tmp_path):
    batch = ImageBatch(np.zeros((2, 1, 2, 2)), [0, 2], num_classes=3)
    save_dataset(batch, tmp_path / "d")
    (tmp_path / "d.meta").write_text("num_classes = 2\n")
    with pytest.raises(DataFormatError, match="label"):
        load_dataset(tmp_path / "d")


@pytest.mark.parametrize("meta", [
    b"", b"num_classes = three\n", b"num_classes = \xff\n",
], ids=["missing_field", "non_integer_field", "not_utf8"])
def test_dataset_bad_meta_is_format_error(tmp_path, meta):
    batch = ImageBatch(np.zeros((2, 1, 2, 2)), [0, 1], num_classes=2)
    save_dataset(batch, tmp_path / "d")
    (tmp_path / "d.meta").write_bytes(meta)
    with pytest.raises(DataFormatError, match="meta"):
        load_dataset(tmp_path / "d")


def test_dataset_row_count_mismatch(tmp_path):
    batch = ImageBatch(np.zeros((3, 1, 2, 2)), [0, 1, 0], num_classes=2)
    paths = save_dataset(batch, tmp_path / "d")
    labels_path = paths[1]
    lines = labels_path.read_text().splitlines()
    labels_path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DataFormatError, match="rows"):
        load_dataset(tmp_path / "d")


def test_image_batch_invariants():
    with pytest.raises(ContractError):
        ImageBatch(np.zeros((2, 1, 2, 2)), [0, 5], num_classes=3)
    with pytest.raises(ContractError):
        ImageBatch(np.zeros((2, 1, 2, 2)), [0], num_classes=2)
    bad = np.zeros((1, 1, 2, 2))
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(ContractError):
        ImageBatch(bad, [0], num_classes=1)
