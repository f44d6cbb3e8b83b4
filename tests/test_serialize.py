import ast
import os
import struct
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from globalattn import serialize
from globalattn.attention import AttentionModel, export_attention_map
from globalattn.classifier import ClassifierModel
from globalattn.datasets import ImageBatch, load_dataset, save_dataset
from globalattn.errors import ContractError, DataFormatError
from globalattn.manifest import RunManifest, checksum_file
from globalattn.serialize import (load_model_checkpoint, read_checkpoint,
                                  read_gten, save_model_checkpoint,
                                  write_checkpoint, write_gten)

from oracles import fnv1a64_reference, gten_bytes_reference


def test_gten_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((2, 3, 4, 5)).astype(np.float32).astype(np.float64)
    path = tmp_path / "t.gten"
    write_gten(path, arr)
    back = read_gten(path)
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)
    # second save of the loaded tensor produces identical bytes
    write_gten(tmp_path / "again.gten", back)
    assert (tmp_path / "again.gten").read_bytes() == path.read_bytes()


# a file the writer made must load, so what the reader refuses is refused
@pytest.mark.parametrize("value", [1e39, -1e39, np.nan, np.inf, -np.inf])
def test_gten_refuses_values_beyond_float32_range(tmp_path, value):
    with pytest.raises(DataFormatError, match="float32 range"):
        write_gten(tmp_path / "t.gten", np.array([1.0, value]))


@pytest.mark.parametrize("arr", [
    np.asarray(-2.5),
    np.array([-0.0, 0.0, 1.0]),
    np.arange(24.0).reshape(4, 6)[::2, ::-3],
    np.random.default_rng(1).standard_normal((2, 3, 4, 5)),
], ids=["rank0", "negative-zero", "non-contiguous", "rank4"])
def test_write_gten_writes_the_bytes_of_gten_bytes(tmp_path, arr):
    path = tmp_path / "t.gten"
    write_gten(path, arr)
    assert path.read_bytes() == gten_bytes_reference(arr)


@pytest.mark.parametrize("arr", [np.zeros(0), np.zeros((2, 0))],
                         ids=["empty", "zero-width"])
def test_write_gten_refuses_a_zero_dim_and_keeps_the_old_file(tmp_path, arr):
    # the reader refuses a zero dim, so the writer must not write one
    path = tmp_path / "t.gten"
    write_gten(path, np.ones(2))
    with pytest.raises(DataFormatError, match="zero dimension in dims field"):
        write_gten(path, arr)
    assert np.array_equal(read_gten(path), np.ones(2))


def test_write_gten_refusing_a_value_writes_no_file(tmp_path):
    path = tmp_path / "t.gten"
    with pytest.raises(DataFormatError, match="float32 range"):
        write_gten(path, np.array([1e39]))
    assert not path.exists()


def test_a_write_makes_its_directories_and_a_refused_one_leaves_none(tmp_path):
    path = tmp_path / "a" / "b" / "t.gten"
    with pytest.raises(DataFormatError, match="float32 range"):
        write_gten(path, np.array([1e39]))
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "kept").write_bytes(b"")
    with pytest.raises(DataFormatError, match="float32 range"):
        write_gten(path, np.array([1e39]))
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a", "kept"]
    write_gten(path, np.ones(2))
    assert np.array_equal(read_gten(path), np.ones(2))


@pytest.mark.parametrize("blocker", ["a", "a/b"])
def test_a_file_where_a_directory_must_be_is_a_plain_os_error(tmp_path,
                                                              blocker):
    # a file at "a" fails the mkdir with ENOTDIR, one at "a/b" with EEXIST
    (tmp_path / blocker).parent.mkdir(exist_ok=True)
    (tmp_path / blocker).write_bytes(b"")
    with pytest.raises(OSError, match="cannot make directory") as info:
        write_gten(tmp_path / "a" / "b" / "t.gten", np.ones(2))
    assert type(info.value) is OSError


def test_save_dataset_failing_midway_keeps_the_old_file(tmp_path, monkeypatch):
    stem = tmp_path / "d"
    save_dataset(stem, np.zeros((2, 1, 2, 2)), [0, 1], 2)
    old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real, writes = serialize.atomic_write, []

    @contextmanager
    def failing_second_write(path):
        writes.append(path)
        with real(path) as fh:
            if len(writes) == 2:
                fh.write(b"partial")
                raise OSError("disk full")
            yield fh

    monkeypatch.setattr(serialize, "atomic_write", failing_second_write)
    with pytest.raises(OSError, match="disk full"):
        save_dataset(stem, np.ones((3, 1, 2, 2)), [1, 0, 1], 2)
    assert [p.name for p in writes] == ["d.gten", "d.labels.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(old)
    assert (tmp_path / "d.labels.csv").read_bytes() == old["d.labels.csv"]
    assert (tmp_path / "d.meta").read_bytes() == old["d.meta"]
    assert read_gten(tmp_path / "d.gten").shape == (3, 1, 2, 2)


@pytest.mark.parametrize("images", [
    np.ones((3, 1, 2, 2)),
    np.ones((1, 1, 2, 2)),
    [np.ones((1, 2, 2)), np.ones((1, 2, 3))],
    [np.ones((1, 2, 2)), np.full((1, 2, 2), np.nan)],
    np.ones((2, 0, 2, 2)),
], ids=["one-too-many", "one-too-few", "shapes-differ", "nan", "zero-extent"])
def test_save_dataset_refusing_its_images_keeps_the_old_file(tmp_path, images):
    stem = tmp_path / "d"
    save_dataset(stem, np.zeros((2, 1, 2, 2)), [0, 1], 2)
    old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(ContractError):
        save_dataset(stem, images, [1, 0], 2)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old


def _manifest_writer(directory):
    manifest = RunManifest(directory / "manifest.txt", "demo", {}, None)

    def write(version):
        manifest.add_artifacts({directory / f"a{version}": f"{version:016x}"})
        return manifest.write()
    return write


# name -> (directory -> (version -> what the writer returns)); each version
# writes different bytes to the same paths
WRITERS = {
    "write_gten": lambda d: lambda v: write_gten(d / "t.gten", np.full((2, 3), v)),
    "write_checkpoint": lambda d: lambda v: write_checkpoint(
        d / "m.ckpt", {"v": str(v)}, [np.full(3, v)]),
    "save_dataset": lambda d: lambda v: save_dataset(
        d / "d", np.full((2, 1, 2, 2), v), [0, 1], 2),
    "export_attention_map": lambda d: lambda v: export_attention_map(
        np.arange(4.0).reshape(1, 1, 2, 2) ** v, d / "m"),
    "manifest": _manifest_writer,
}


def _failing_midway(real):
    """``atomic_write`` whose handle writes half of the first part, then
    raises."""
    class Handle:
        def __init__(self, fh):
            self.fh = fh

        def write(self, part):
            data = memoryview(part).cast("B")
            self.fh.write(data[:len(data) // 2])
            raise OSError("disk full")

    @contextmanager
    def failing(path):
        with real(path) as fh:
            yield Handle(fh)
    return failing


@pytest.mark.parametrize("name", WRITERS)
def test_writer_failing_midway_keeps_the_old_bytes(tmp_path, monkeypatch, name):
    write = WRITERS[name](tmp_path)
    write(1)
    old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(serialize, "atomic_write",
                        _failing_midway(serialize.atomic_write))
    with pytest.raises(OSError, match="disk full"):
        write(2)
    # the old bytes, and no temporary sibling
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old
    monkeypatch.undo()
    write(2)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} != old


@pytest.mark.parametrize("name", WRITERS)
def test_writer_returns_the_digest_of_the_bytes_on_disk(tmp_path, name):
    digests = WRITERS[name](tmp_path)(1)
    if isinstance(digests, str):
        (path,) = tmp_path.iterdir()
        digests = {path: digests}
    assert sorted(digests) == sorted(tmp_path.iterdir())
    for path, digest in digests.items():
        assert digest == checksum_file(path), path.name


def _writes_a_file(call: ast.Call) -> bool:
    """Whether a call is ``write_text``, ``write_bytes``, or an ``open`` with
    a mode that writes (``w``, ``a``, ``x`` or ``+``)."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    if name in ("write_text", "write_bytes"):
        return True
    modes = [a.value for a in (*call.args, *(k.value for k in call.keywords))
             if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return name == "open" and any(set(m) & set("wax+") for m in modes)


def test_only_serialize_writes_files():
    package = Path(serialize.__file__).parent
    writers = {path.name for path in package.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and _writes_a_file(node)}
    assert writers == {"serialize.py"}


def _names(node: ast.AST) -> set[str]:
    """Every module, name, attribute and string a node mentions."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            found.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.ImportFrom):
            found.add(sub.module or "")
        elif isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def test_only_trains_scoped_helper_sets_the_heap_policy():
    # a malloc policy set anywhere else would outlive the train() call
    package = Path(serialize.__file__).parent
    ctypes_users, policy_setters = set(), set()
    for path in package.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            names = _names(stmt)
            if any(n.partition(".")[0] == "ctypes" for n in names):
                ctypes_users.add(path.name)
            if names & {"mallopt", "malloc_trim"}:
                policy_setters.add(
                    (path.name, getattr(stmt, "name", "<module>")))
    assert ctypes_users == {"training.py"}
    assert policy_setters == {("training.py", "_heap_policy_for_run")}


def _reads_tensor_bytes(node: ast.AST) -> bool:
    """Whether a node decodes float32 tensor bytes (a ``'<f4'`` constant) or
    reads a whole file's bytes (``read_bytes``)."""
    if isinstance(node, ast.Constant):
        return node.value == "<f4"
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "read_bytes")


# the FNV-1a offset basis and prime
FNV_CONSTANTS = {0xCBF29CE484222325, 0x100000001B3}


def _names_the_hash(node: ast.AST) -> bool:
    """Whether a node is code that names the FNV-1a kernel: an identifier
    with ``fnv`` in it, or the hash's offset or prime as a number.  A
    docstring or a comment is prose and does not count."""
    if isinstance(node, ast.Constant):
        return type(node.value) is int and node.value in FNV_CONSTANTS
    names = (getattr(node, key, None)
             for key in ("id", "attr", "name", "asname", "arg", "module"))
    return any(isinstance(n, str) and "fnv" in n.lower() for n in names)


def test_only_serialize_reads_tensor_files():
    # one reader checks every .gten file and checkpoint blob against its
    # size before it allocates, as one writer writes them all; and the
    # digest it records has one owner, which a change of hash touches alone
    package = Path(serialize.__file__).parent
    trees = {path.name: list(ast.walk(ast.parse(path.read_text())))
             for path in package.glob("*.py")}
    readers = {name for name, nodes in trees.items()
               if any(map(_reads_tensor_bytes, nodes))}
    hashers = {name for name, nodes in trees.items()
               if any(map(_names_the_hash, nodes))}
    assert readers == {"serialize.py"}
    assert hashers == {"serialize.py"}


@pytest.mark.parametrize("cut", [[], [0, 1, 65535], [3, 65536, 65539, 70000],
                                 [131072], [5, 5, 6, 200000]],
                         ids=["whole", "a-byte-short", "across", "aligned",
                              "empty-parts"])
def test_write_file_digest_does_not_depend_on_the_parts(tmp_path, cut):
    blob = np.random.default_rng(3).bytes(200_001)
    bounds = [0, *cut, len(blob)]
    path = tmp_path / "f"
    digest = serialize.write_file(
        path, (blob[a:b] for a, b in zip(bounds, bounds[1:])))
    assert path.read_bytes() == blob
    assert digest == checksum_file(path) == f"{fnv1a64_reference(blob):016x}"


def test_writer_takes_parts_one_at_a_time(tmp_path, monkeypatch):
    events, real = [], serialize.atomic_write

    class Handle:
        def __init__(self, fh):
            self.fh = fh

        def write(self, part):
            events.append(("write", bytes(part)))
            return self.fh.write(part)

    @contextmanager
    def recording(path):
        with real(path) as fh:
            yield Handle(fh)

    def parts():
        for i in range(3):
            events.append(("make", i))
            yield bytes([i])

    monkeypatch.setattr(serialize, "atomic_write", recording)
    serialize.write_file(tmp_path / "f", parts())
    assert events == [("make", 0), ("write", b"\0"), ("make", 1),
                      ("write", b"\1"), ("make", 2), ("write", b"\2")]


def test_reader_holds_one_slice_beside_what_it_returns(tmp_path):
    # at most one slice's float32 bytes while they convert to float64
    path = tmp_path / "t.gten"
    write_gten(path, np.ones((4, 3, 128, 128)))
    slice_bytes = 3 * 128 * 128 * 8
    tracemalloc.start()
    try:
        back = read_gten(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < back.nbytes + 1.5 * slice_bytes + (64 << 10)


def test_checkpoint_blob_claiming_more_than_it_spans_is_format_error(tmp_path):
    path = tmp_path / "m.ckpt"
    write_checkpoint(path, {}, [np.zeros(4)])
    raw = path.read_bytes()
    head_len = int.from_bytes(raw[:4], "little")
    blob = 4 + head_len + 4  # the tensor blob, after its length prefix
    # rank 2, dims 65536 x 65536: 2**32 values inside a 24-byte blob
    damaged = (raw[:blob + 4] + (2).to_bytes(4, "little")
               + (65536).to_bytes(4, "little") * 2 + raw[blob + 16:])
    path.write_bytes(damaged[:len(raw)])
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match="values field"):
            read_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_gten_header_claiming_more_than_the_file_is_format_error(tmp_path):
    path = tmp_path / "t.gten"
    path.write_bytes(b"GTEN" + struct.pack("<3I", 2, 65536, 65536) + bytes(16))
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match="values field has 16 bytes"):
            read_gten(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_checkpoint_refusing_a_tensor_writes_no_file(tmp_path):
    path = tmp_path / "model.ckpt"
    with pytest.raises(DataFormatError, match="float32 range"):
        write_checkpoint(path, {}, [np.zeros(2), np.array([1e39])])
    assert not path.exists()


def test_gten_scalar_rank_zero(tmp_path):
    path = tmp_path / "t.gten"
    write_gten(path, np.asarray(3.5))
    back = read_gten(path)
    assert back.shape == ()
    assert back == 3.5


def test_gten_layout_is_little_endian_f32_row_major(tmp_path):
    path = tmp_path / "t.gten"
    write_gten(path, np.arange(6.0).reshape(2, 3))
    blob = path.read_bytes()
    assert blob[:4] == b"GTEN"
    assert int.from_bytes(blob[4:8], "little") == 2
    assert int.from_bytes(blob[8:12], "little") == 2
    assert int.from_bytes(blob[12:16], "little") == 3
    values = np.frombuffer(blob, dtype="<f4", offset=16)
    assert np.array_equal(values, np.arange(6.0, dtype=np.float32))


def test_gten_bad_magic(tmp_path):
    path = tmp_path / "t.gten"
    path.write_bytes(b"XTEN" + gten_bytes_reference(np.zeros(3))[4:])
    with pytest.raises(DataFormatError, match="magic"):
        read_gten(path)


def test_gten_holding_inf_and_minus_inf_is_refused_without_a_warning(tmp_path):
    # their float64 sum is NaN, which the reader refuses quietly
    path = tmp_path / "t.gten"
    path.write_bytes(gten_bytes_reference(np.array([np.inf, -np.inf])))
    with pytest.raises(DataFormatError, match="NaN or infinite"):
        read_gten(path)


def test_gten_truncated(tmp_path):
    blob = gten_bytes_reference(np.zeros((2, 2)))
    path = tmp_path / "t.gten"
    for cut in (blob[:-3], blob[:6]):
        path.write_bytes(cut)
        with pytest.raises(DataFormatError):
            read_gten(path)


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
        "pixel_cnn", 2, 4, 4, channels=3, hidden_kernel=3, depth=2,
        last_kernel=1, dense_connections=False, rng=np.random.default_rng(0)),
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
    path = tmp_path / "model.ckpt"
    save_model_checkpoint(MODELS[cls](), path)
    # the writer refuses a non-finite value, so put one into the first
    # tensor's first value by hand
    blob = bytearray(path.read_bytes())
    (head_len,) = struct.unpack_from("<I", blob)
    tensor = 4 + head_len + 4   # past the header and the length prefix
    (rank,) = struct.unpack_from("<I", blob, tensor + 4)
    struct.pack_into("<f", blob, tensor + 8 + 4 * rank, value)
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="NaN or infinite"):
        load_model_checkpoint(cls, path)


def test_dataset_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    images = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
    batch = ImageBatch(images, [0, 1, 2, 0], num_classes=3)
    save_dataset(tmp_path / "d", batch.images, batch.labels, batch.num_classes)
    back = load_dataset(tmp_path / "d")
    assert np.array_equal(back.images, batch.images)
    assert np.array_equal(back.labels, batch.labels)
    assert back.num_classes == 3
    # second round trip produces identical files
    save_dataset(tmp_path / "d2", back.images, back.labels, back.num_classes)
    assert (tmp_path / "d.gten").read_bytes() == (tmp_path / "d2.gten").read_bytes()
    assert ((tmp_path / "d.labels.csv").read_text()
            == (tmp_path / "d2.labels.csv").read_text())


def test_dataset_truncated_tensor_is_format_error(tmp_path):
    batch = ImageBatch(np.zeros((2, 1, 2, 2)), [0, 1], num_classes=2)
    save_dataset(tmp_path / "d", batch.images, batch.labels, batch.num_classes)
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
    save_dataset(tmp_path / "d", batch.images, batch.labels, batch.num_classes)
    (tmp_path / "d.meta").write_text("num_classes = 2\n")
    with pytest.raises(DataFormatError, match="label"):
        load_dataset(tmp_path / "d")


@pytest.mark.parametrize("meta", [
    b"", b"num_classes = three\n", b"num_classes = \xff\n",
], ids=["missing_field", "non_integer_field", "not_utf8"])
def test_dataset_bad_meta_is_format_error(tmp_path, meta):
    batch = ImageBatch(np.zeros((2, 1, 2, 2)), [0, 1], num_classes=2)
    save_dataset(tmp_path / "d", batch.images, batch.labels, batch.num_classes)
    (tmp_path / "d.meta").write_bytes(meta)
    with pytest.raises(DataFormatError, match="meta"):
        load_dataset(tmp_path / "d")


def test_dataset_row_count_mismatch(tmp_path):
    batch = ImageBatch(np.zeros((3, 1, 2, 2)), [0, 1, 0], num_classes=2)
    paths = save_dataset(tmp_path / "d", batch.images, batch.labels, batch.num_classes)
    labels_path = list(paths)[1]
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
    with pytest.raises(ContractError, match="zero extent"):
        ImageBatch(np.zeros((1, 0, 4, 4)), [0], num_classes=2)
