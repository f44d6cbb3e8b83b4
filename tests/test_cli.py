import re

import numpy as np
import pytest

from globalattn.cli import main
from globalattn.config import load_kv_file
from globalattn.datasets import ImageBatch, load_dataset, save_dataset
from globalattn.serialize import read_gten, write_gten

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
    kv = load_kv_file(path)
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
    # constant 4288-wide dummy flows through crop -> area resize -> flip
    # -> standardize and lands at 224x224
    from globalattn.datasets import ImageBatch, save_dataset
    raw = tmp_path / "raw"
    raw.mkdir()
    images = np.full((2, 3, 4288, 2848), 123.675)
    save_dataset(ImageBatch(images, [0, 1], 2), raw / "train")
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
    assert list(out.iterdir()) == []


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
    images = read_gten(data / "train.gten")
    images[0, 0, 0, 0] = np.nan
    write_gten(data / "train.gten", images)


def non_utf8_labels(data):
    path = data / "train.labels.csv"
    path.write_bytes(path.read_bytes() + b"\xff\n")


def narrower_test_split(data):
    test = load_dataset(data / "test")
    save_dataset(ImageBatch(test.images[:, :, :4], test.labels,
                            test.num_classes), data / "test")


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


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def test_gradcheck_default_passes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "max rel error" in out


def test_gradcheck_corrupted_backward_fails():
    assert main(["gradcheck", "--corrupt"]) == 1


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
        kv = load_kv_file(directory / "manifest.txt")
        listed = {v.rsplit("/", 1)[-1] for k, v in kv.items()
                  if k.startswith("output.")}
        present = {p.name for p in directory.iterdir()
                   if p.name != "manifest.txt"}
        assert listed == present
