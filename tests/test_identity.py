"""Outputs that must stay byte-identical, checked against committed digests.

Each artifact is the bytes a caller sees (a CSV text, a result's repr, a
weight map's or a model's raw bytes, a file the CLI wrote, the gradient
check's printed lines) together with the float64 arrays it holds.  The CLI
runs ``gen``, ``preprocess``, ``train`` and ``sweep`` at ``--jobs`` 1 and 2
in a temporary directory; each manifest is hashed with its ``start_time``
and ``end_time`` lines dropped and its paths made relative to that
directory.
``identity_digests.json`` stores a sha256 per artifact, keyed by the BLAS
name and version of numpy's build, and a sum and L2 norm per array for
every build.  On a build with stored digests every artifact must hash the
same.  On another build, whose products may round differently, each
array's sum and L2 norm must match within 1e-9 relative, and the test
prints that it compared those instead.

A change that moves rounding on purpose rewrites the file in the same
commit, with the digests of the build it ran on only:

    PYTHONPATH=src python tests/test_identity.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

from globalattn.attention import MODES
from globalattn.cli import main
from globalattn.pipelinecheck import full_pipeline_gradcheck
from globalattn.serialize import read_checkpoint, read_gten
from globalattn.synthetic import SyntheticSpec, generate_synthetic, split_train_test
from globalattn.training import (PROTOCOLS, TrainConfig, grid_configs,
                                 run_protocol, sweep, sweep_csv_text, train)

DIGESTS = Path(__file__).with_name("identity_digests.json")
RTOL = 1e-9

# 32 train and 32 test images of 8x8; two folds of 16 hold two mini-batches
SPEC = SyntheticSpec(n=64, c=1, w=8, h=8, relevant_region=(2, 2, 5, 5),
                     num_classes=3, signal_strength=1.2, noise_std=1.0, seed=2)
CFG = TrainConfig(channels=4, cutoff_epoch=2, total_epochs=4, batch_size=8,
                  stages=(4,), cv_folds=2, top_epochs=2, seed=2)


# the CLI's run: 16 train and 4 test images of 10x8, cropped to 8x8, one
# flipped and standardized, then one train and a two-cell CV sweep
CLI_FILES = {
    "synth.cfg": "N = 20\nC = 1\nW = 10\nH = 8\nrelevant_region = 3,2,6,5\n"
                 "num_classes = 2\nsignal_strength = 2.0\nnoise_std = 1.0\n"
                 "seed = 5\n",
    "pre.cfg": "crop_left = 1\ncrop_right = 9\ntarget_size = 8x8\n"
               "flip_indices = flips.txt\nchannel_stats = 0.5:2\n",
    "flips.txt": "1\n",
    "train.cfg": "K = 4\nE = 1\ntotal_epochs = 3\nbatch_size = 4\nstages = 4\n"
                 "seed = 5\neval_protocol = cv_epoch_selection\ncv_folds = 2\n"
                 "top_epochs = 2\n",
    "grid.cfg": "K = 2,4\nlambda = 0.03\nE = 1\n",
}
CLI_RUN = ["gen --spec {0}/synth.cfg --out {0}/data",
           "preprocess --spec {0}/pre.cfg --in {0}/data --out {0}/pre",
           "train --config {0}/train.cfg --data {0}/pre --out {0}/run",
           "sweep --config {0}/train.cfg --grid {0}/grid.cfg --data {0}/pre "
           "--out {0}/sweep/cells.csv --jobs 1",
           "sweep --config {0}/train.cfg --grid {0}/grid.cfg --data {0}/pre "
           "--out {0}/sweep2/cells.csv --jobs 2"]


def blas_build() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def artifacts() -> dict[str, tuple[bytes, list[np.ndarray]]]:
    """Every checked output: name -> (bytes, arrays)."""
    batch, _ = generate_synthetic(SPEC)
    tr, te = split_train_test(batch, 0.5, SPEC.seed)
    out = {}
    # the three attention modes, and a second stage narrower than the first,
    # whose conv runs the stacked taps with an input gradient
    runs = {mode: replace(CFG, attention_mode=mode) for mode in MODES}
    runs["stages8,4"] = replace(CFG, stages=(8, 4))
    for run, cfg in runs.items():
        report = train(tr, te, cfg)
        rows = np.array([astuple(r) for r in report.rows], dtype=np.float64)
        out[f"train/{run}/report.csv"] = (report.csv_text().encode(), [rows])
        for epoch, snap in sorted(report.snapshots.items()):
            out[f"train/{run}/snapshot{epoch}"] = (snap.tobytes(), [snap])
        for model, name in zip(report.final_models,
                               ("attention", "classifier")):
            params = [t.data for t in model.params]
            out[f"train/{run}/final_{name}"] = (
                b"".join(a.tobytes() for a in params), params)
    for protocol in PROTOCOLS:
        result = run_protocol(tr, te, replace(CFG, eval_protocol=protocol))
        mean, std, epochs = result
        out[f"run_protocol/{protocol}"] = (repr(result).encode(),
                                           [np.array([mean, std, *epochs])])
    cells = grid_configs(replace(CFG, eval_protocol="cv_epoch_selection"),
                         [2, 4], [0.03], [2])
    for jobs in (1, 2):
        rows = sweep(tr, te, cells, jobs)
        out[f"sweep_csv_text/jobs{jobs}"] = (
            sweep_csv_text(rows).encode(), [np.array(rows, dtype=np.float64)])
    # the CLI's default check; its errors are differences of near-equal
    # costs, so only h is compared on another build
    check = full_pipeline_gradcheck(8, 8, 2, 0, 4)
    out["gradcheck/lines"] = ("\n".join([*check.lines(), f"h = {check.h!r}"])
                              .encode(), [np.array([check.h])])
    return out | cli_artifacts()


def cli_artifacts() -> dict[str, tuple[bytes, list[np.ndarray]]]:
    """Every file of :data:`CLI_RUN`, by its path under ``cli/``."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in CLI_FILES.items():
            (root / name).write_text(text)
        for command in CLI_RUN:
            argv = command.format(root).split()
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
        for path in sorted(root.rglob("*")):
            if path.is_file() and path.name not in CLI_FILES:
                name = f"cli/{path.relative_to(root).as_posix()}"
                out[name] = file_artifact(path, root)
    return out


def file_artifact(path: Path, root: Path) -> tuple[bytes, list[np.ndarray]]:
    """A CLI file's bytes and arrays; a manifest without its times and with
    its paths relative to ``root``, and no arrays."""
    raw = path.read_bytes()
    if path.name.endswith("manifest.txt"):
        lines = [line for line in raw.decode().splitlines(keepends=True)
                 if not line.startswith(("start_time", "end_time"))]
        return "".join(lines).replace(f"{root}/", "").encode(), []
    if path.suffix == ".gten":
        return raw, [read_gten(path)]
    if path.suffix == ".ckpt":
        return raw, read_checkpoint(path)[1]
    if path.suffix == ".csv":
        return raw, [np.loadtxt(io.BytesIO(raw), delimiter=",", ndmin=1,
                                skiprows=int(raw[:1].isalpha()))]
    return raw, []  # a .meta file or a map's .pgm image


def summaries(arrays: list[np.ndarray]) -> list[list[float]]:
    return [[float(a.sum()), float(np.linalg.norm(a))] for a in arrays]


def sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def test_outputs_match_committed_digests():
    stored = json.loads(DIGESTS.read_text())
    produced = artifacts()
    assert sorted(produced) == sorted(stored["summaries"])
    for name, (_, arrays) in produced.items():
        for i, (got, want) in enumerate(zip(summaries(arrays),
                                            stored["summaries"][name])):
            assert np.allclose(got, want, rtol=RTOL, atol=0), (
                f"{name} moved: array {i} has sum, L2 {got}, stored {want}")
    build = blas_build()
    digests = stored["digests"].get(build)
    if digests is None:
        print(f"no digests for BLAS {build}: compared sums and L2 norms "
              f"within {RTOL} relative instead")
        return
    moved = [name for name, (raw, _) in produced.items()
             if sha256(raw) != digests[name]]
    assert not moved, f"outputs moved in their last bits: {moved}"


if __name__ == "__main__":
    produced = artifacts()
    DIGESTS.write_text(json.dumps({
        "digests": {blas_build(): {name: sha256(raw)
                                   for name, (raw, _) in produced.items()}},
        "summaries": {name: summaries(arrays)
                      for name, (_, arrays) in produced.items()},
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(produced)} digests for BLAS {blas_build()} to {DIGESTS}")
