"""Property tests: every config value that parses, however extreme, makes
the CLI exit with a documented code and at most one line on stderr.

Each example starts from a small working config and replaces a few of its
values by drawn ones: ints from -3 to 2^70, and finite floats as far out as
1e308, 5e-324 and -0.0.  A drawn size is either small or too large for numpy
to index at all, which the CLI refuses before it allocates; so no example
holds an array of more than a few MB, and loops stay short
(``total_epochs`` <= 2, ``depth`` <= 4).  Where ``test_loader_fuzz.py``
damages file bytes, this covers the values that parse (after Claessen &
Hughes, "QuickCheck", ICFP 2000).
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from globalattn.attention import MODES
from globalattn.cli import main
from globalattn.training import PROTOCOLS

FUZZ = settings(derandomize=True, deadline=None, database=None,
                max_examples=200)

# every code but 1, which only a gradient check that ran and failed returns
DOCUMENTED = {0, 2, 3, 4, 5, 6}

INTS = st.one_of(st.integers(-3, 4), st.integers(-3, 2 ** 70),
                 st.sampled_from([2 ** 31, 2 ** 63 - 1, 2 ** 64 - 1, 2 ** 64,
                                  2 ** 70]))
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e308, -1e308,
                     1.7976931348623157e308, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False))


def sizes(small):
    """-3 to ``small``, or an extent that no array can index."""
    return st.one_of(st.integers(-3, small), st.integers(2 ** 61, 2 ** 70))


def listed(values, max_size):
    return st.lists(values, min_size=1, max_size=max_size).map(
        lambda vs: ",".join(map(str, vs)))


def text(values):
    return values.map(str)


TRAIN = {
    "K": text(sizes(6)),
    "lambda": text(FLOATS),
    "E": text(st.one_of(st.integers(-3, 3), INTS)),
    "lr": text(FLOATS),
    "batch_size": text(st.one_of(st.integers(-3, 20), INTS)),
    "weight_decay": text(FLOATS),
    "total_epochs": text(st.integers(-3, 2)),
    "seed": text(INTS),
    "attention_mode": st.sampled_from([*MODES, "bogus"]),
    "eval_protocol": st.sampled_from([*PROTOCOLS, "bogus"]),
    "cv_folds": text(st.one_of(st.integers(-3, 4), INTS)),
    "top_epochs": text(st.one_of(st.integers(-3, 3), INTS)),
    "hidden_kernel": text(sizes(7)),
    "depth": text(st.integers(-3, 4)),
    "last_kernel": text(sizes(7)),
    "dense_connections": st.sampled_from(["0", "1"]),
    "stages": listed(sizes(6), 4),
}
BASE_TRAIN = {"K": "2", "E": "1", "total_epochs": "2", "batch_size": "4",
              "stages": "2", "cv_folds": "2", "top_epochs": "1", "seed": "3"}

GRID = {
    "K": listed(sizes(6), 2),
    "lambda": listed(FLOATS, 2),
    "E": listed(st.one_of(st.integers(-3, 3), INTS), 2),
}
BASE_GRID = {"K": "2", "lambda": "0.03", "E": "1"}

SYNTH = {
    "N": text(sizes(40)),
    "C": text(sizes(3)),
    "W": text(sizes(16)),
    "H": text(sizes(16)),
    "relevant_region": st.one_of(
        st.lists(st.one_of(st.integers(-3, 17), INTS), min_size=4,
                 max_size=4),
        st.lists(st.integers(0, 7), min_size=3, max_size=5)).map(
        lambda vs: ",".join(map(str, vs))),
    "num_classes": text(st.one_of(st.integers(-3, 8), INTS)),
    "signal_strength": text(FLOATS),
    "noise_std": text(FLOATS),
    "seed": text(INTS),
}
BASE_SYNTH = {"N": "20", "C": "1", "W": "8", "H": "8",
              "relevant_region": "2,2,5,5", "num_classes": "3",
              "signal_strength": "3.0", "noise_std": "1.0", "seed": "11"}

PRE = {
    "crop_left": text(st.one_of(st.integers(-3, 9), INTS)),
    "crop_right": text(st.one_of(st.integers(-3, 9), INTS)),
    "target_size": st.tuples(sizes(16), sizes(16)).map(
        lambda wh: f"{wh[0]}x{wh[1]}"),
    # the drawn flip list is written beside the spec as flips.txt
    "flip_indices": st.lists(st.one_of(st.integers(-3, 20), INTS),
                             max_size=4),
    "channel_stats": st.lists(
        st.tuples(FLOATS, FLOATS).map(lambda ms: f"{ms[0]}:{ms[1]}"),
        min_size=1, max_size=2).map(",".join),
}
BASE_PRE = {"crop_left": "1", "crop_right": "6", "target_size": "4x4",
            "flip_indices": "", "channel_stats": "0.5:0.25"}


def edited(data, base, fields, label):
    """``base`` with one to three of the keys of ``fields`` drawn."""
    keys = data.draw(st.lists(st.sampled_from(sorted(fields)), min_size=1,
                              max_size=3, unique=True), label=f"{label} keys")
    kv = dict(base)
    for key in keys:
        kv[key] = data.draw(fields[key], label=f"{label} {key}")
    return kv


def write_kv(path, kv):
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    return str(path)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A 16 + 4 image, 8x8, one-channel set of 3 classes."""
    root = tmp_path_factory.mktemp("fuzz_data")
    spec = write_kv(root / "synth.cfg", BASE_SYNTH)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--spec", spec, "--out", str(root / "data")]) == 0
    return root / "data"


def run_cleanly(argv):
    """Run the CLI; assert a documented code and, on failure, one line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    message = err.getvalue()
    assert code in DOCUMENTED, (code, message)
    assert "Traceback" not in message, message
    assert message.count("\n") == (0 if code == 0 else 1), message
    assert code == 0 or message.endswith("\n"), message


@contextlib.contextmanager
def scratch(tmp_path_factory):
    work = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    try:
        yield work
    finally:
        shutil.rmtree(work)


@FUZZ
@given(data=st.data())
def test_extreme_train_config(tmp_path_factory, dataset, data):
    with scratch(tmp_path_factory) as work:
        cfg = write_kv(work / "train.cfg", edited(data, BASE_TRAIN, TRAIN,
                                                  "train"))
        run_cleanly(["train", "--config", cfg, "--data", str(dataset),
                     "--out", str(work / "run")])


@FUZZ
@given(data=st.data())
def test_extreme_sweep_grid(tmp_path_factory, dataset, data):
    with scratch(tmp_path_factory) as work:
        base = (edited(data, BASE_TRAIN, TRAIN, "train")
                if data.draw(st.booleans(), label="edit config")
                else BASE_TRAIN)
        cfg = write_kv(work / "train.cfg", base)
        grid = write_kv(work / "grid.cfg", edited(data, BASE_GRID, GRID,
                                                  "grid"))
        run_cleanly(["sweep", "--config", cfg, "--grid", grid,
                     "--data", str(dataset), "--out", str(work / "s.csv")])


@FUZZ
@given(data=st.data())
def test_extreme_synthetic_spec(tmp_path_factory, data):
    with scratch(tmp_path_factory) as work:
        spec = write_kv(work / "synth.cfg", edited(data, BASE_SYNTH, SYNTH,
                                                   "synth"))
        run_cleanly(["gen", "--spec", spec, "--out", str(work / "data")])


@FUZZ
@given(data=st.data())
def test_extreme_preprocess_spec(tmp_path_factory, dataset, data):
    with scratch(tmp_path_factory) as work:
        kv = edited(data, BASE_PRE, PRE, "pre")
        if kv["flip_indices"] != "":
            (work / "flips.txt").write_text(
                "".join(f"{i}\n" for i in kv["flip_indices"]))
            kv["flip_indices"] = "flips.txt"
        spec = write_kv(work / "pre.cfg", kv)
        run_cleanly(["preprocess", "--spec", spec, "--in", str(dataset),
                     "--out", str(work / "out")])
