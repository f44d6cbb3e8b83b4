import argparse
import errno
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from globalattn import attention, cli, manifest, training
from globalattn.cli import main
from globalattn.config import parse_kv_text
from globalattn.datasets import load_dataset, save_dataset
from globalattn.serialize import read_gten, write_gten
from globalattn.synthetic import (generate_synthetic, load_synthetic_spec,
                                  split_train_test)
from globalattn.tensor import Tensor, add, relu

from oracles import fnv1a64_reference

SYNTH_SPEC = """\
N = 30
C = 1
W = 8
H = 8
relevant_region = 2,2,5,5
num_classes = 3
signal_strength = 3.0
noise_std = 1.0
seed = 11
"""

TRAIN_CFG = """\
K = 4
lambda = 0.03
E = 2
total_epochs = 5
batch_size = 8
stages = 4
seed = 3
"""


def write(path, text):
    path.write_text(text)
    return str(path)


def run_gen(tmp_path, subdir="data", spec_text=SYNTH_SPEC):
    spec = write(tmp_path / "synth.cfg", spec_text)
    out = tmp_path / subdir
    assert main(["gen", "--spec", spec, "--out", str(out)]) == 0
    return out


def manifest_checksums(path):
    kv = parse_kv_text(path.read_text())
    return {k: v for k, v in kv.items() if k.startswith("checksum.")}


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_writes_split_and_mask(tmp_path):
    out = run_gen(tmp_path)
    train = load_dataset(out / "train")
    test = load_dataset(out / "test")
    assert train.n == 24 and test.n == 6  # floor(30 * 0.8) split
    mask = read_gten(out / "mask.gten")
    assert mask.shape == (8, 8)
    assert mask.sum() == 16
    assert (out / "manifest.txt").exists()


def test_gen_rerun_reproduces_checksums(tmp_path):
    out_a = run_gen(tmp_path, "a")
    out_b = run_gen(tmp_path, "b")
    assert (manifest_checksums(out_a / "manifest.txt")
            == manifest_checksums(out_b / "manifest.txt"))


def test_gen_missing_spec_exits_2(tmp_path, capsys):
    assert main(["gen", "--spec", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "d")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_gen_invalid_field_exits_2(tmp_path, capsys):
    spec = write(tmp_path / "bad.cfg",
                 SYNTH_SPEC.replace("num_classes = 3", "num_classes = 1"))
    assert main(["gen", "--spec", spec, "--out", str(tmp_path / "d")]) == 2
    assert "num_classes" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    {},
    {"N = 30": "N = 37", "C = 1": "C = 3", "seed = 11": "seed = 5"},
    {"N = 30": "N = 11", "W = 8": "W = 9", "num_classes = 3": "num_classes = 2"},
], ids=["base", "rgb-n37", "n11-9x8"])
def test_gen_writes_the_bytes_of_the_split_whole_set(tmp_path, edit):
    text = SYNTH_SPEC
    for old, new in edit.items():
        text = text.replace(old, new)
    out = run_gen(tmp_path, spec_text=text)
    spec, _ = load_synthetic_spec(tmp_path / "synth.cfg")
    batch, mask = generate_synthetic(spec)
    ref = tmp_path / "ref"
    ref.mkdir()
    for stem, part in zip(("train", "test"), split_train_test(batch, 0.8, spec.seed)):
        save_dataset(ref / stem, part.images, part.labels, part.num_classes)
    write_gten(ref / "mask.gten", mask)
    written = sorted(p.name for p in out.iterdir() if p.name != "manifest.txt")
    assert written == sorted(p.name for p in ref.iterdir())
    for name in written:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def test_gen_of_a_single_image_exits_2_before_writing(tmp_path, capsys):
    spec = write(tmp_path / "one.cfg", SYNTH_SPEC.replace("N = 30", "N = 1"))
    out = tmp_path / "d"
    assert main(["gen", "--spec", spec, "--out", str(out)]) == 2
    assert "empty side" in capsys.readouterr().err
    assert not out.exists()


def traced_peak(fn):
    """The ``tracemalloc`` peak, in bytes, of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# 3x32x32 images: at N = 40 each split already fills gen's 256 KiB draw
# chunk and a 64 KiB hashing chunk, so every fixed buffer has its full size
# at both N, and only what a command holds per image could grow with N
SCALING_N = (40, 160)
IMAGE_BYTES = 3 * 32 * 32 * 8  # one float64 image
SLACK = 64 << 10


def scaling_spec(n):
    return (SYNTH_SPEC.replace("N = 30", f"N = {n}").replace("C = 1", "C = 3")
            .replace("W = 8", "W = 32").replace("H = 8", "H = 32"))


@pytest.fixture(scope="module")
def scaling_sets(tmp_path_factory):
    """Raw sets at both N, and a warm-up of every traced call, so that no
    first-call import lands in a peak."""
    root = tmp_path_factory.mktemp("scaling")
    write(root / "pre.cfg", "target_size = 16x16\n")
    for n in SCALING_N:
        run_gen(root, f"raw{n}", scaling_spec(n))
    main(["preprocess", "--spec", str(root / "pre.cfg"), "--in",
          str(root / "raw40"), "--out", str(root / "warm-up")])
    load_dataset(root / "raw40" / "train")
    return root


def held_beyond(command, root, n):
    """A command's peak at N = n, less what it must hold: the outputs
    ``preprocess`` keeps until every split is done, or the array
    ``load_dataset`` returns."""
    raw = root / f"raw{n}"
    if command == "gen":
        spec = write(root / f"synth{n}.cfg", scaling_spec(n))
        return traced_peak(lambda: main(["gen", "--spec", spec,
                                         "--out", str(root / f"gen{n}")]))
    if command == "preprocess":
        peak = traced_peak(lambda: main(
            ["preprocess", "--spec", str(root / "pre.cfg"), "--in", str(raw),
             "--out", str(root / f"pre{n}")]))
        return peak - n * 3 * 16 * 16 * 8
    loaded = []
    peak = traced_peak(lambda: loaded.append(load_dataset(raw / "train")))
    return peak - loaded[0].images.nbytes


@pytest.mark.parametrize("command", ["gen", "preprocess", "load_dataset"])
def test_memory_does_not_grow_with_the_image_count(scaling_sets, command):
    # holding a split whole (float64 plus its float32 copy) would add about
    # 3.5 MB from N = 40 to N = 160
    small, large = (held_beyond(command, scaling_sets, n) for n in SCALING_N)
    assert large <= small + IMAGE_BYTES + SLACK, (small, large)


def oversized_header(data):
    """A rank-4 train header claiming 2**32 values over 16 bytes of values."""
    (data / "train.gten").write_bytes(
        b"GTEN" + struct.pack("<5I", 4, 256, 256, 256, 256) + bytes(16))


@pytest.mark.parametrize("command", ["train", "preprocess"])
def test_header_claiming_more_than_the_file_exits_3_without_allocating(
        tmp_path, capsys, command):
    make_args = train_args if command == "train" else preprocess_args
    args = make_args(tmp_path, damage=oversized_header)
    codes = []
    peak = traced_peak(lambda: codes.append(main([command, *args])))
    assert codes == [3]
    assert "values field has 16 bytes" in capsys.readouterr().err
    assert peak < 1 << 20


def nan_in_last_image(path):
    raw = bytearray(path.read_bytes())
    raw[-4:] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(raw))


def last_value_cut(path):
    path.write_bytes(path.read_bytes()[:-4])


@pytest.mark.parametrize("damage", [nan_in_last_image, last_value_cut],
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("command", ["train", "preprocess"])
def test_damage_inside_the_last_image_exits_3(tmp_path, capsys, command, damage):
    data = run_gen(tmp_path)
    damage(data / "test.gten")  # the last split preprocess reads
    out = tmp_path / "out"
    args = (["--config", write(tmp_path / "train.cfg", TRAIN_CFG), "--data"]
            if command == "train" else ["--spec", write(tmp_path / "pre.cfg",
                                                        IDENTITY_PRE), "--in"])
    assert main([command, *args, str(data), "--out", str(out)]) == 3
    assert "data format error" in capsys.readouterr().err
    assert not out.exists()


def test_gen_value_the_writer_refuses_keeps_the_old_file(tmp_path, capsys):
    out = run_gen(tmp_path)
    old = {p.name: p.read_bytes() for p in out.iterdir()
           if p.name != "manifest.txt"}
    spec = write(tmp_path / "huge.cfg",
                 SYNTH_SPEC.replace("noise_std = 1.0", "noise_std = 1e39"))
    assert main(["gen", "--spec", spec, "--out", str(out)]) == 3
    assert "float32 range" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == old


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------

def test_preprocess_identity_spec_bit_identical(tmp_path):
    out = run_gen(tmp_path)
    spec = write(tmp_path / "pre.cfg", "crop_left =\ncrop_right =\n"
                 "target_size =\nflip_indices =\nchannel_stats =\n")
    processed = tmp_path / "proc"
    assert main(["preprocess", "--spec", spec, "--in", str(out),
                 "--out", str(processed)]) == 0
    assert ((out / "train.gten").read_bytes()
            == (processed / "train.gten").read_bytes())


def test_preprocess_fundus_style_pipeline(tmp_path):
    # constant 4288-wide dummies flow through crop -> area resize -> flip
    # -> standardize and land at 224x224; the writer takes one float32
    # image at a time, so the raw split is never built whole
    raw = tmp_path / "raw"
    raw.mkdir()
    image = np.full((3, 4288, 2848), 123.675, dtype=np.float32)
    save_dataset(raw / "train", [image, image], [0, 1], 2)
    flips = write(tmp_path / "flips.txt", "0\n")
    spec = write(tmp_path / "pre.cfg",
                 "crop_left = 260\ncrop_right = 3685\n"
                 "target_size = 224x224\n"
                 f"flip_indices = {flips}\n"
                 "channel_stats = 0.485:0.229,0.456:0.224,0.406:0.225\n")
    processed = tmp_path / "proc"
    assert main(["preprocess", "--spec", spec, "--in", str(raw),
                 "--out", str(processed)]) == 0
    out = load_dataset(processed / "train")
    assert out.images.shape == (2, 3, 224, 224)
    # channel 0 standardizes to ~0 (float32 storage keeps it near zero)
    assert abs(out.images[0, 0]).max() < 1e-6


def test_preprocess_rerun_determinism(tmp_path):
    out = run_gen(tmp_path)
    spec = write(tmp_path / "pre.cfg", "crop_left = 1\ncrop_right = 6\n"
                 "target_size = 4x4\nflip_indices =\nchannel_stats =\n")
    a, b = tmp_path / "p1", tmp_path / "p2"
    assert main(["preprocess", "--spec", spec, "--in", str(out), "--out", str(a)]) == 0
    assert main(["preprocess", "--spec", spec, "--in", str(out), "--out", str(b)]) == 0
    assert (a / "train.gten").read_bytes() == (b / "train.gten").read_bytes()


def test_each_spec_file_is_read_once_per_command(tmp_path, monkeypatch):
    # a spec read twice could be edited in between, and the manifest would
    # record values the run did not use
    reads = []
    real_read_text = Path.read_text

    def spy(path, *args, **kwargs):
        reads.append(path.name)
        return real_read_text(path, *args, **kwargs)

    specs = tmp_path / "specs"
    specs.mkdir()
    write(specs / "flips.txt", "1\n")
    pre_text = ("crop_left =\ncrop_right =\ntarget_size = 4x4\n"
                "flip_indices = flips.txt\nchannel_stats =\n")
    pre = write(specs / "pre.cfg", pre_text)
    synth = write(specs / "synth.cfg", SYNTH_SPEC)
    monkeypatch.setattr(Path, "read_text", spy)
    raw, out = tmp_path / "raw", tmp_path / "out"
    assert main(["gen", "--spec", synth, "--out", str(raw)]) == 0
    assert main(["preprocess", "--spec", pre, "--in", str(raw),
                 "--out", str(out)]) == 0
    assert reads.count("synth.cfg") == 1 and reads.count("pre.cfg") == 1
    for directory, text in ((raw, SYNTH_SPEC), (out, pre_text)):
        manifest = parse_kv_text((directory / "manifest.txt").read_text())
        recorded = {k[len("config."):]: v for k, v in manifest.items()
                    if k.startswith("config.")}
        assert recorded == parse_kv_text(text)


def test_preprocess_malformed_input_exits_3(tmp_path, capsys):
    out = run_gen(tmp_path)
    (out / "train.gten").write_bytes(b"JUNKJUNKJUNK")
    spec = write(tmp_path / "pre.cfg", "crop_left =\ncrop_right =\n"
                 "target_size =\nflip_indices =\nchannel_stats =\n")
    assert main(["preprocess", "--spec", spec, "--in", str(out),
                 "--out", str(tmp_path / "p")]) == 3
    assert "data format error" in capsys.readouterr().err


@pytest.mark.parametrize("spec_bytes", [
    b"crop_left = x\ncrop_right = 6\n",
    b"crop_left = 1\ncrop_right = 6.5\n",
    b"crop_left = \xff\n",
], ids=["crop_left", "crop_right", "not_utf8"])
def test_preprocess_malformed_spec_exits_2(tmp_path, capsys, spec_bytes):
    out = run_gen(tmp_path)
    spec = tmp_path / "pre.cfg"
    spec.write_bytes(spec_bytes)
    assert main(["preprocess", "--spec", str(spec), "--in", str(out),
                 "--out", str(tmp_path / "p")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_preprocess_missing_spec_exits_2(tmp_path, capsys):
    out = run_gen(tmp_path)
    assert main(["preprocess", "--spec", str(tmp_path / "nope.cfg"),
                 "--in", str(out), "--out", str(tmp_path / "p")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("spec_text", [
    "target_size = 0x4\n",
    "flip_indices = nope.txt\n",
], ids=["zero_target_size", "missing_flip_list"])
def test_preprocess_bad_spec_value_exits_2(tmp_path, capsys, spec_text):
    out = run_gen(tmp_path)
    spec = write(tmp_path / "pre.cfg", spec_text)
    assert main(["preprocess", "--spec", spec, "--in", str(out),
                 "--out", str(tmp_path / "p")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_preprocess_failing_split_writes_nothing(tmp_path, capsys):
    # index 10 exists in the 24-image train split but not the 6-image test
    data = run_gen(tmp_path)
    flips = write(tmp_path / "flips.txt", "10\n")
    spec = write(tmp_path / "pre.cfg", f"flip_indices = {flips}\n")
    out = tmp_path / "p"
    assert main(["preprocess", "--spec", spec, "--in", str(data),
                 "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("left, right", [(0, 20), (-1, 4), (2, 8)])
def test_preprocess_crop_past_the_image_exits_2(tmp_path, capsys, left, right):
    data = run_gen(tmp_path)  # 8 columns wide
    spec = write(tmp_path / "pre.cfg", f"crop_left = {left}\ncrop_right = {right}\n")
    assert main(["preprocess", "--spec", spec, "--in", str(data),
                 "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: crop columns") and err.count("\n") == 1
    assert not (tmp_path / "p").exists()


def test_preprocess_empty_dir_exits_3(tmp_path):
    spec = write(tmp_path / "pre.cfg", "crop_left =\ncrop_right =\n"
                 "target_size =\nflip_indices =\nchannel_stats =\n")
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["preprocess", "--spec", spec, "--in", str(empty),
                 "--out", str(tmp_path / "p")]) == 3


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_writes_report_maps_and_checkpoints(tmp_path):
    data = run_gen(tmp_path)
    cfg = write(tmp_path / "train.cfg", TRAIN_CFG)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--data", str(data),
                 "--out", str(out)]) == 0
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "epoch,train_loss,train_acc,test_acc,l1_penalty"
    assert len(report) == 6  # header + 5 epochs
    for epoch in (0, 2, 5):
        assert (out / f"attention_epoch{epoch}.csv").exists()
        assert (out / f"attention_epoch{epoch}.pgm").exists()
    assert (out / "attention.ckpt").exists()
    assert (out / "classifier.ckpt").exists()
    assert (out / "manifest.txt").exists()


def test_train_cutoff_zero_keeps_initial_map(tmp_path):
    data = run_gen(tmp_path)
    cfg = write(tmp_path / "train.cfg", TRAIN_CFG.replace("E = 2", "E = 0"))
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--data", str(data),
                 "--out", str(out)]) == 0
    first = (out / "attention_epoch0.csv").read_text()
    last = (out / "attention_epoch5.csv").read_text()
    assert first == last


def test_train_none_mode_emits_all_ones_map(tmp_path):
    data = run_gen(tmp_path)
    cfg = write(tmp_path / "train.cfg",
                TRAIN_CFG + "attention_mode = none\n")
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--data", str(data),
                 "--out", str(out)]) == 0
    rows = (out / "attention_epoch5.csv").read_text().splitlines()
    values = {float(v) for row in rows for v in row.split(",")}
    assert values == {1.0}


def test_train_rerun_identical_report(tmp_path):
    data = run_gen(tmp_path)
    cfg = write(tmp_path / "train.cfg", TRAIN_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", cfg, "--data", str(data), "--out", str(out_a)]) == 0
    assert main(["train", "--config", cfg, "--data", str(data), "--out", str(out_b)]) == 0
    assert ((out_a / "report.csv").read_bytes()
            == (out_b / "report.csv").read_bytes())
    assert ((out_a / "attention.ckpt").read_bytes()
            == (out_b / "attention.ckpt").read_bytes())
    assert ((out_a / "classifier.ckpt").read_bytes()
            == (out_b / "classifier.ckpt").read_bytes())


def test_train_divergence_exits_4(tmp_path, capsys):
    data = run_gen(tmp_path)
    cfg = write(tmp_path / "train.cfg", TRAIN_CFG + "lr = 1e200\n")
    code = main(["train", "--config", cfg, "--data", str(data),
                 "--out", str(tmp_path / "run")])
    assert code == 4
    err = capsys.readouterr().err
    assert "epoch" in err
    assert "RuntimeWarning" not in err


def test_sweep_parallel_divergence_exits_4_naming_the_epoch(tmp_path, capsys):
    data = run_gen(tmp_path)
    cfg = write(tmp_path / "train.cfg", TRAIN_CFG + "lr = 1e200\n")
    grid = write(tmp_path / "grid.cfg", "K = 4\nlambda = 0.03\nE = 2,3\n")
    code = main(["sweep", "--config", cfg, "--grid", grid, "--jobs", "2",
                 "--data", str(data), "--out", str(tmp_path / "s.csv")])
    assert code == 4
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    assert err.count("epoch") == 1
    assert re.search(r"non-finite loss at epoch \d+$", err.strip())


def nan_pixel(data):
    # the writer refuses NaN, so it goes in by hand, as the first value
    # after the train tensor's rank-4 header
    path = data / "train.gten"
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, 24, float("nan"))
    path.write_bytes(bytes(raw))


def non_utf8_labels(data):
    path = data / "train.labels.csv"
    path.write_bytes(path.read_bytes() + b"\xff\n")


def narrower_test_split(data):
    test = load_dataset(data / "test")
    save_dataset(data / "test", test.images[:, :, :4], test.labels,
                 test.num_classes)


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("damage", [nan_pixel, non_utf8_labels,
                                    narrower_test_split],
                         ids=lambda fn: fn.__name__)
def test_malformed_data_exits_3(tmp_path, capsys, damage, command):
    data = run_gen(tmp_path)
    damage(data)
    cfg = write(tmp_path / "train.cfg", TRAIN_CFG)
    out = ["--out", str(tmp_path / "run")]
    if command == "sweep":
        grid = write(tmp_path / "grid.cfg", "K = 4\nlambda = 0.03\nE = 2\n")
        out = ["--grid", grid, "--out", str(tmp_path / "s.csv")]
    assert main([command, "--config", cfg, "--data", str(data), *out]) == 3
    assert "data format error" in capsys.readouterr().err


def test_train_unknown_config_key_exits_2(tmp_path):
    data = run_gen(tmp_path)
    cfg = write(tmp_path / "train.cfg", TRAIN_CFG + "bogus = 1\n")
    assert main(["train", "--config", cfg, "--data", str(data),
                 "--out", str(tmp_path / "run")]) == 2


def with_setting(text, setting):
    """``text`` with the line of ``setting``'s key replaced or appended."""
    key = setting.split("=")[0].strip()
    lines = [ln for ln in text.splitlines() if ln.split("=")[0].strip() != key]
    return "\n".join([*lines, setting]) + "\n"


NON_FINITE = [("gen", "signal_strength = nan"), ("gen", "noise_std = inf"),
              ("preprocess", "channel_stats = nan:1.0"),
              ("train", "lr = nan"), ("train", "lr = inf"),
              ("train", "lambda = inf"), ("train", "weight_decay = nan"),
              ("sweep", "lambda = nan")]


@pytest.mark.parametrize("command, setting", NON_FINITE,
                         ids=[f"{c}-{s.split()[0]}-{s.split()[-1]}"
                              for c, s in NON_FINITE])
def test_non_finite_config_value_exits_2(tmp_path, capsys, command, setting):
    out = str(tmp_path / "out")
    if command == "gen":
        spec = write(tmp_path / "synth.cfg", with_setting(SYNTH_SPEC, setting))
        args = ["--spec", spec, "--out", out]
    elif command == "preprocess":
        spec = write(tmp_path / "pre.cfg", setting + "\n")
        args = ["--spec", spec, "--in", str(run_gen(tmp_path)), "--out", out]
    elif command == "train":
        cfg = write(tmp_path / "train.cfg", with_setting(TRAIN_CFG, setting))
        args = ["--config", cfg, "--data", str(run_gen(tmp_path)), "--out", out]
    else:
        cfg = write(tmp_path / "train.cfg", TRAIN_CFG)
        grid = write(tmp_path / "grid.cfg", f"K = 4\n{setting}\nE = 2\n")
        args = ["--config", cfg, "--grid", grid,
                "--data", str(run_gen(tmp_path)), "--out", out + ".csv"]
    assert main([command, *args]) == 2
    assert "finite" in capsys.readouterr().err


def test_gen_signal_that_overflows_exits_2_with_one_line(tmp_path, capsys):
    args = gen_args(tmp_path, with_setting(SYNTH_SPEC, "signal_strength = 1e308"))
    assert main(["gen", *args]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "signal_strength" in err, err
    assert not (tmp_path / "out").exists()


def test_preprocess_stats_that_overflow_exit_2_before_any_write(tmp_path, capsys):
    # the train split is all zeros, which the stats keep at zero, so only
    # the test split overflows, and it is processed after train
    data = tmp_path / "data"
    data.mkdir()
    save_dataset(data / "train", np.zeros((2, 1, 4, 4)), [0, 1], 2)
    save_dataset(data / "test", np.ones((2, 1, 4, 4)), [0, 1], 2)
    spec = write(tmp_path / "pre.cfg", "channel_stats = 0.0:1e-320\n")
    out = tmp_path / "out"
    assert main(["preprocess", "--spec", spec, "--in", str(data),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "channel_stats" in err, err
    assert not out.exists()


def one_line(err):
    return err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command, setting", [
    ("train", "weight_decay = -1"), ("train", "seed = -1"),
    ("train", f"seed = {2 ** 64}"), ("gen", "seed = -1"),
    ("gen", f"seed = {2 ** 70}")],
    ids=["train-weight_decay", "train-seed=-1", "train-seed=2^64",
         "gen-seed=-1", "gen-seed=2^70"])
def test_value_out_of_range_exits_2_before_any_output(tmp_path, capsys,
                                                     command, setting):
    if command == "gen":
        args = gen_args(tmp_path, with_setting(SYNTH_SPEC, setting))
    else:
        args = train_args(tmp_path, with_setting(TRAIN_CFG, setting))
    assert main([command, *args]) == 2
    err = capsys.readouterr().err
    assert one_line(err) and setting.split()[0] in err, err
    assert not (tmp_path / "out").exists()


def test_train_refuses_a_bad_architecture_before_out_or_data(tmp_path,
                                                             capsys):
    cfg = write(tmp_path / "train.cfg", with_setting(TRAIN_CFG, "K = 0"))
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--data", str(tmp_path / "none"),
                 "--out", str(out)]) == 2
    assert "channels must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def spy_on_data_and_training(monkeypatch):
    """The calls that reach ``load_dataset`` or ``train``, as a list."""
    calls = []
    for owner, name in ((cli, "load_dataset"), (cli, "train"),
                        (training, "train")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, real=real: calls.append(a) or real(*a))
    return calls


def test_train_refuses_a_bad_cv_field_before_out_or_data(tmp_path, capsys,
                                                         monkeypatch):
    # the CV fields are checked when the config is made, as for sweep
    data = run_gen(tmp_path)
    calls = spy_on_data_and_training(monkeypatch)
    cfg = write(tmp_path / "train.cfg",
                TRAIN_CFG + "eval_protocol = cv_epoch_selection\n"
                "cv_folds = 1\n")
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--data", str(data),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert one_line(err) and "cv_folds must be >= 2, got 1" in err, err
    assert not out.exists()
    assert calls == []


CV = "eval_protocol = cv_epoch_selection"

# refusals that need the config and the data together, and a divergence,
# all come after --out is checked; only the first write makes it
REFUSED_AFTER_THE_DATA = [  # command, config settings, exit code, error
    ("train", ["stages = 4,4,4,4"], 2, "spatial size 8x8 not divisible by 2^4"),
    ("sweep", [CV, "cv_folds = 4"], 2,
     "fold size 6 smaller than one mini-batch (8)"),
    ("train", ["lr = 1e300"], 4, "non-finite loss at epoch"),
]


@pytest.mark.parametrize("command, settings, code, message",
                         REFUSED_AFTER_THE_DATA,
                         ids=["train-stages", "sweep-fold-size", "train-diverges"])
def test_a_run_refused_after_reading_its_data_leaves_no_out(
        tmp_path, capsys, command, settings, code, message):
    data = run_gen(tmp_path)
    text = TRAIN_CFG
    for setting in settings:
        text = with_setting(text, setting)
    args = ["--config", write(tmp_path / "train.cfg", text)]
    out = tmp_path / "made" / "out"
    if command == "sweep":
        args += ["--grid", write(tmp_path / "grid.cfg",
                                 "K = 4\nlambda = 0.03\nE = 2\n")]
        out = out / "sweep.csv"
    assert main([command, *args, "--data", str(data), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert one_line(err) and message in err, err
    assert not (tmp_path / "made").exists()


@pytest.mark.parametrize("in_the_way", ["out", "its parent"])
def test_a_file_put_in_the_way_during_training_exits_5(
        tmp_path, capsys, monkeypatch, in_the_way):
    # --out is checked before the run and made by its first write, so a
    # file that appears in between is an output that cannot be written
    args = train_args(tmp_path)
    out = tmp_path / "p" / "out"
    blocker = out if in_the_way == "out" else out.parent
    real = cli.train

    def train_then_block(*a):
        report = real(*a)
        blocker.parent.mkdir(exist_ok=True)
        blocker.write_text("in the way\n")
        return report

    monkeypatch.setattr(cli, "train", train_then_block)
    assert main(["train", *replaced(args, "--out", str(out))]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert one_line(err) and err.startswith(
        f"I/O error: cannot make directory {out}: "), err
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("command", ["train", "sweep", "preprocess"])
def test_missing_input_exits_3_before_out_is_made(tmp_path, capsys, command):
    cfg = ["--config", write(tmp_path / "train.cfg", TRAIN_CFG)]
    args = {"train": [*cfg, "--data"],
            "sweep": [*cfg, "--grid", write(tmp_path / "grid.cfg",
                                            "K = 4\nlambda = 0.03\nE = 2\n"),
                      "--data"],
            "preprocess": ["--spec", write(tmp_path / "pre.cfg", IDENTITY_PRE),
                           "--in"]}[command]
    parent = tmp_path / "made"
    out = parent / ("out.csv" if command == "sweep" else "out")
    assert main([command, *args, str(tmp_path / "nodata"),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert one_line(err) and "data format error" in err, err
    assert not parent.exists()


BAD_SWEEPS = [  # K in the grid, config settings, flags, the error
    ("4,0", [], [], "channels must be >= 1, got 0"),
    ("4", [], ["--jobs", "0"], "sweep needs jobs >= 1, got 0"),
    ("4", [CV, "cv_folds = 1"], [], "cv_folds must be >= 2, got 1"),
    ("4", [CV, "top_epochs = 6"], [], "top_epochs must lie in [1, 5], got 6"),
]


@pytest.mark.parametrize("k, settings, flags, message", BAD_SWEEPS,
                         ids=["K=0", "jobs=0", "cv_folds=1", "top_epochs=6"])
def test_sweep_refuses_a_bad_cell_before_the_first_trains(
        tmp_path, capsys, monkeypatch, k, settings, flags, message):
    # the cells and jobs are checked before --out's directory is made or
    # --data read
    calls = spy_on_data_and_training(monkeypatch)
    text = TRAIN_CFG
    for setting in settings:
        text = with_setting(text, setting)
    cfg = write(tmp_path / "train.cfg", text)
    grid = write(tmp_path / "grid.cfg", f"K = {k}\nlambda = 0.03\nE = 2\n")
    out = tmp_path / "s3" / "out.csv"
    assert main(["sweep", "--config", cfg, "--grid", grid, *flags,
                 "--data", str(tmp_path / "nodata"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert one_line(err) and message in err, err
    assert not out.parent.exists()
    assert calls == []


TOO_LARGE = 2 ** 70  # an extent no array can index
ABSURD_SIZES = [
    ("train", f"K = {TOO_LARGE}"),
    ("train", f"hidden_kernel = {2 ** 61 + 1}"),
    ("train", f"last_kernel = {2 ** 61 + 1}"),
    ("train", f"stages = 4,{TOO_LARGE}"),
    ("sweep", f"K = {TOO_LARGE}"),
    ("gen", f"W = {TOO_LARGE}"),
    ("preprocess", f"target_size = {TOO_LARGE}x4"),
]


@pytest.mark.parametrize("command, setting", ABSURD_SIZES,
                         ids=[f"{c}-{s.split()[0]}" for c, s in ABSURD_SIZES])
def test_size_too_large_to_index_exits_6_with_one_line(tmp_path, capsys,
                                                       command, setting):
    # check_indexable refuses each shape before numpy sees it, so nothing
    # is allocated
    if command == "gen":
        args = gen_args(tmp_path, with_setting(SYNTH_SPEC, setting))
    elif command == "preprocess":
        args = preprocess_args(tmp_path, with_setting(IDENTITY_PRE, setting))
    elif command == "train":
        args = train_args(tmp_path, with_setting(TRAIN_CFG, setting))
    else:
        args = sweep_args(tmp_path, grid_text=f"{setting}\nlambda = 0.03\n"
                                              "E = 2\n")
    assert main([command, *args]) == cli.EXIT_MEMORY
    err = capsys.readouterr().err
    assert one_line(err) and err.startswith("out of memory: "), err


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def test_gradcheck_default_passes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "max rel error" in out


def relu_ignoring_its_mask(x):
    """relu's forward values, with a backward that passes every gradient
    through, as a backward that dropped its mask would."""
    return add(x, Tensor(relu(x).data - x.data))


def test_gradcheck_corrupted_backward_fails(monkeypatch, capsys):
    monkeypatch.setattr(attention, "relu", relu_ignoring_its_mask)
    assert main(["gradcheck"]) == 1
    assert capsys.readouterr().out.rstrip().endswith("FAIL")


def test_gradcheck_seed_change_still_passes():
    assert main(["gradcheck", "--seed", "12"]) == 0


def test_gradcheck_oversize_instance_exits_2():
    assert main(["gradcheck", "--size", "32x32"]) == 2
    assert main(["gradcheck", "--images", "9"]) == 2


def test_gradcheck_bad_size_format_exits_2():
    assert main(["gradcheck", "--size", "8by8"]) == 2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_single_cell_matches_train_accuracy(tmp_path):
    data = run_gen(tmp_path)
    cfg = write(tmp_path / "train.cfg", TRAIN_CFG)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--data", str(data),
                 "--out", str(out)]) == 0
    final_acc = (out / "report.csv").read_text().splitlines()[-1].split(",")[3]
    grid = write(tmp_path / "grid.cfg", "K = 4\nlambda = 0.03\nE = 2\n")
    csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--grid", grid, "--data", str(data),
                 "--out", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "K,lambda,E,mean_acc,std_acc"
    assert len(lines) == 2
    assert lines[1].split(",")[3] == final_acc


def test_sweep_row_count_and_rerun_bytes(tmp_path):
    data = run_gen(tmp_path)
    cfg = write(tmp_path / "train.cfg",
                TRAIN_CFG.replace("total_epochs = 5", "total_epochs = 2")
                         .replace("E = 2", "E = 1"))
    grid = write(tmp_path / "grid.cfg", "K = 2,4\nlambda = 0.1,0.01\nE = 1\n")
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for csv in (csv_a, csv_b):
        assert main(["sweep", "--config", cfg, "--grid", grid,
                     "--data", str(data), "--out", str(csv)]) == 0
    assert csv_a.read_text().count("\n") == 5  # header + 4 cells
    assert csv_a.read_bytes() == csv_b.read_bytes()


def test_sweep_grid_missing_key_exits_2(tmp_path):
    data = run_gen(tmp_path)
    cfg = write(tmp_path / "train.cfg", TRAIN_CFG)
    grid = write(tmp_path / "grid.cfg", "K = 4\n")
    assert main(["sweep", "--config", cfg, "--grid", grid, "--data", str(data),
                 "--out", str(tmp_path / "s.csv")]) == 2


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def test_every_artifact_is_listed_in_exactly_one_manifest(tmp_path):
    data = run_gen(tmp_path)
    cfg = write(tmp_path / "train.cfg", TRAIN_CFG)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--data", str(data),
                 "--out", str(out)]) == 0
    for directory in (data, out):
        kv = parse_kv_text((directory / "manifest.txt").read_text())
        listed = {v.rsplit("/", 1)[-1] for k, v in kv.items()
                  if k.startswith("output.")}
        present = {p.name for p in directory.iterdir()
                   if p.name != "manifest.txt"}
        assert listed == present


def run_chain(tmp_path, spec_text=SYNTH_SPEC):
    """gen -> preprocess -> train -> sweep, as perfbench's cli_cv runs them."""
    spec = write(tmp_path / "synth.cfg", spec_text)
    pre = write(tmp_path / "pre.cfg", "target_size = 16x16\n")
    cfg = write(tmp_path / "train.cfg", TRAIN_CFG)
    cv = write(tmp_path / "cv.cfg", TRAIN_CFG + "cv_folds = 2\ntop_epochs = 2\n"
               "eval_protocol = cv_epoch_selection\n")
    grid = write(tmp_path / "grid.cfg", "K = 4\nlambda = 0.03\nE = 2\n")
    raw, data = str(tmp_path / "raw"), str(tmp_path / "data")
    for argv in (["gen", "--spec", spec, "--out", raw],
                 ["preprocess", "--spec", pre, "--in", raw, "--out", data],
                 ["train", "--config", cfg, "--data", data,
                  "--out", str(tmp_path / "run")],
                 ["sweep", "--config", cv, "--grid", grid, "--data", data,
                  "--out", str(tmp_path / "sweep" / "sweep.csv")]):
        assert main(argv) == 0


def test_manifest_checksums_match_an_independent_fnv(tmp_path):
    # the 48x48 train split spans several hashing chunks
    run_chain(tmp_path,
              SYNTH_SPEC.replace("W = 8", "W = 48").replace("H = 8", "H = 48"))
    manifests = sorted(tmp_path.rglob("*manifest.txt"))
    assert len(manifests) == 4
    sizes = []
    for manifest in manifests:
        kv = parse_kv_text(manifest.read_text())
        checked = 0
        for key, value in kv.items():
            if key.startswith("checksum."):
                blob = Path(kv["output." + key[len("checksum."):]]).read_bytes()
                assert value == f"{fnv1a64_reference(blob):016x}", key
                sizes.append(len(blob))
                checked += 1
        assert checked > 0, manifest
    assert max(sizes) > 3 * (1 << 16)


def test_no_command_reads_an_artifact_back_to_checksum_it(tmp_path, monkeypatch):
    calls = []
    real = manifest.checksum_file
    monkeypatch.setattr(manifest, "checksum_file",
                        lambda path: calls.append(path) or real(path))
    run_chain(tmp_path)
    assert len(list(tmp_path.rglob("*manifest.txt"))) == 4
    assert calls == []


def test_failed_rerun_leaves_no_stale_manifest(tmp_path, monkeypatch,
                                                capsys):
    data = run_gen(tmp_path)
    out = tmp_path / "run"
    argv = ["train", "--config", write(tmp_path / "train.cfg", TRAIN_CFG),
            "--data", str(data), "--out", str(out)]
    assert main(argv) == 0
    first_report = (out / "report.csv").read_bytes()

    monkeypatch.setattr(cli, "save_model_checkpoint", disk_full)
    write(tmp_path / "train.cfg", TRAIN_CFG.replace("seed = 3", "seed = 4"))
    assert main(argv) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("I/O error: [Errno 28]")
    # the rerun rewrote report.csv and the maps before it failed, so the
    # first run's manifest would list checksums they no longer have
    assert (out / "report.csv").read_bytes() != first_report
    assert not (out / "manifest.txt").exists()


# ---------------------------------------------------------------------------
# documented exit codes
# ---------------------------------------------------------------------------

IDENTITY_PRE = ("crop_left =\ncrop_right =\n"
                "target_size =\nflip_indices =\nchannel_stats =\n")


def junk_train_split(data):
    (data / "train.gten").write_bytes(b"JUNKJUNKJUNK")


def gen_args(tmp_path, spec_text=SYNTH_SPEC):
    spec = tmp_path / "synth.cfg"
    if spec_text is not None:
        write(spec, spec_text)
    return ["--spec", str(spec), "--out", str(tmp_path / "out")]


def data_dir(tmp_path, damage):
    data = run_gen(tmp_path)
    if damage is not None:
        damage(data)
    return str(data)


def preprocess_args(tmp_path, spec_text=IDENTITY_PRE, damage=None):
    spec = tmp_path / "pre.cfg"
    if spec_text is not None:
        write(spec, spec_text)
    return ["--spec", str(spec), "--in", data_dir(tmp_path, damage),
            "--out", str(tmp_path / "out")]


def train_args(tmp_path, cfg_text=TRAIN_CFG, damage=None):
    cfg = write(tmp_path / "train.cfg", cfg_text)
    return ["--config", cfg, "--data", data_dir(tmp_path, damage),
            "--out", str(tmp_path / "out")]


def sweep_args(tmp_path, cfg_text=TRAIN_CFG,
               grid_text="K = 4\nlambda = 0.03\nE = 2\n", damage=None):
    cfg = write(tmp_path / "train.cfg", cfg_text)
    grid = write(tmp_path / "grid.cfg", grid_text)
    return ["--config", cfg, "--grid", grid,
            "--data", data_dir(tmp_path, damage),
            "--out", str(tmp_path / "out.csv")]


def disk_full(src, dst):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(dst))


def out_of_memory(*args):
    raise MemoryError("Unable to allocate 1.57 TiB")


# (command, documented exit code, tmp_path -> arguments that produce it)
EXIT_CODES = [
    ("gen", 0, gen_args),
    ("gen", 2, lambda t: gen_args(t, spec_text=None)),
    ("preprocess", 0, preprocess_args),
    ("preprocess", 2, lambda t: preprocess_args(t, spec_text=None)),
    ("preprocess", 3, lambda t: preprocess_args(t, damage=junk_train_split)),
    ("train", 0, train_args),
    ("train", 2, lambda t: train_args(t, TRAIN_CFG + "bogus = 1\n")),
    ("train", 3, lambda t: train_args(t, damage=nan_pixel)),
    ("train", 4, lambda t: train_args(t, TRAIN_CFG + "lr = 1e200\n")),
    ("gradcheck", 0, lambda t: []),
    # exit 1 is a check that fails: this row runs with a faulty backward
    ("gradcheck", 1, lambda t: []),
    ("gradcheck", 2, lambda t: ["--size", "8by8"]),
    ("gradcheck", 2, lambda t: ["--seed", "-1"]),
    ("sweep", 0, sweep_args),
    ("sweep", 2, lambda t: sweep_args(t, grid_text="K = 4\n")),
    ("sweep", 2, lambda t: [*sweep_args(t), "--jobs", "0"]),
    ("sweep", 3, lambda t: sweep_args(t, damage=nan_pixel)),
    ("sweep", 4, lambda t: sweep_args(t, TRAIN_CFG + "lr = 1e200\n")),
    # exit 5 is a write that fails: these rows run with a full disk
    ("gen", 5, gen_args),
    ("preprocess", 5, preprocess_args),
    ("train", 5, train_args),
    ("sweep", 5, sweep_args),
    # exit 6 is an allocation that fails: this row's first draw raises
    # MemoryError, as numpy's does when it cannot allocate
    ("train", 6, train_args),
]


def exit_code_ids(rows):
    """Each row's id is its command and code, as in "sweep-2"; the second
    and later rows with the same pair add "-2", "-3", ..."""
    ids = []
    for command, code, _ in rows:
        base = f"{command}-{code}"
        ids.append(base if base not in ids else f"{base}-{ids.count(base) + 1}")
    return ids


@pytest.mark.parametrize("command, code, args", EXIT_CODES,
                         ids=exit_code_ids(EXIT_CODES))
def test_documented_exit_code(tmp_path, monkeypatch, capsys, command, code,
                              args):
    argv = [command, *args(tmp_path)]
    if code == cli.EXIT_CHECK_FAILED:
        monkeypatch.setattr(attention, "relu", relu_ignoring_its_mask)
    if code == cli.EXIT_IO:
        monkeypatch.setattr(os, "replace", disk_full)
    if code == cli.EXIT_MEMORY:
        monkeypatch.setattr(attention, "conv_params", out_of_memory)
    assert main(argv) == code
    assert not list(tmp_path.rglob("*.tmp"))
    if code == cli.EXIT_IO:
        assert capsys.readouterr().err.startswith("I/O error: [Errno 28]")
    if code == cli.EXIT_MEMORY:
        assert (capsys.readouterr().err
                == "out of memory: Unable to allocate 1.57 TiB\n")


def a_file(tmp_path):
    path = tmp_path / "a_file"
    path.write_text("not a directory\n")
    return str(path)


def a_directory(tmp_path):
    path = tmp_path / "a_directory"
    path.mkdir()
    return str(path)


def replaced(args, flag, path):
    """``args`` with the value after ``flag`` replaced by ``path``."""
    i = args.index(flag) + 1
    return [*args[:i], path, *args[i + 1:]]


def as_directory(name):
    """A damage that makes the dataset file ``name`` a directory."""
    def damage(data):
        (data / name).unlink()
        (data / name).mkdir()
    return damage


# (command, exit code, tmp_path -> arguments with one path of the wrong kind)
PATH_ERRORS = [
    ("train", 3, lambda t: train_args(t)[:3] + [a_file(t), "--out", str(t / "o")]),
    ("train", 2, lambda t: train_args(t)[:5] + [a_file(t)]),
    ("gen", 2, lambda t: gen_args(t)[:3] + [a_file(t)]),
    ("preprocess", 2, lambda t: preprocess_args(t)[:5] + [a_file(t)]),
    ("preprocess", 3, lambda t: preprocess_args(t)[:3] + [a_file(t), "--out", str(t / "o")]),
    ("sweep", 3, lambda t: sweep_args(t)[:5] + [a_file(t), "--out", str(t / "o.csv")]),
    ("sweep", 2, lambda t: sweep_args(t)[:7] + [a_directory(t)]),
    ("sweep", 2, lambda t: sweep_args(t)[:7] + [a_file(t) + "/out.csv"]),
    ("train", 2, lambda t: replaced(train_args(t), "--config", a_directory(t))),
    ("gen", 2, lambda t: replaced(gen_args(t), "--spec", a_directory(t))),
    ("preprocess", 2,
     lambda t: replaced(preprocess_args(t), "--spec", a_directory(t))),
    ("sweep", 2, lambda t: replaced(sweep_args(t), "--config", a_directory(t))),
    ("sweep", 2, lambda t: replaced(sweep_args(t), "--grid", a_directory(t))),
    ("train", 3, lambda t: train_args(t, damage=as_directory("train.meta"))),
    ("train", 3,
     lambda t: train_args(t, damage=as_directory("train.labels.csv"))),
    ("train", 3, lambda t: train_args(t, damage=as_directory("train.gten"))),
    ("preprocess", 3,
     lambda t: preprocess_args(t, damage=as_directory("train.gten"))),
]


@pytest.mark.parametrize("command, code, args", PATH_ERRORS,
                         ids=["train-data-file", "train-out-file", "gen-out-file",
                              "preprocess-out-file", "preprocess-in-file",
                              "sweep-data-file", "sweep-out-dir",
                              "sweep-out-under-file", "train-config-dir",
                              "gen-spec-dir", "preprocess-spec-dir",
                              "sweep-config-dir", "sweep-grid-dir",
                              "train-meta-dir", "train-labels-dir",
                              "train-gten-dir", "preprocess-gten-dir"])
def test_path_of_the_wrong_kind_exits_with_one_line(tmp_path, capsys, command,
                                                      code, args):
    assert main([command, *args(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err


def test_every_cli_option_is_documented():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    missing = [f"{name} {option}"
               for name, sub in commands.items()
               for action in sub._actions
               for option in action.option_strings
               if option not in ("-h", "--help")
               and not re.search(re.escape(option) + r"(?![\w-])", readme)]
    assert not missing, missing


def test_readme_exit_code_paragraph_matches_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = readme.split("Exit codes are stable:")[1].split("\n\n")[0]
    named = {int(code) for code in re.findall(r"`(\d)`", paragraph)}
    assert named == {code for _, code, _ in EXIT_CODES}


IMPORT_CLI = """
import sys
for module in ("globalattn.training", "globalattn.cli"):
    __import__(module)
    print(module, *(m for m in ("concurrent.futures.process", "multiprocessing")
                    if m in sys.modules))
"""


def test_importing_the_cli_loads_no_process_pool():
    # only sweep --jobs N > 1 runs a pool and only train() forks a scorer,
    # and loading either costs every process about 2 MB of resident memory
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", IMPORT_CLI], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["globalattn.training", "globalattn.cli"]
