"""Outputs that must stay byte-identical, checked against committed digests.

Each artifact is the bytes a caller sees (a CSV text, a result's repr, a
weight map's raw bytes) together with the float64 arrays it holds.
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

import hashlib
import json
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

from globalattn.attention import MODES
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


def blas_build() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def artifacts() -> dict[str, tuple[bytes, list[np.ndarray]]]:
    """Every checked output: name -> (bytes, arrays)."""
    batch, _ = generate_synthetic(SPEC)
    tr, te = split_train_test(batch, 0.5, SPEC.seed)
    out = {}
    for mode in MODES:
        report = train(tr, te, replace(CFG, attention_mode=mode))
        rows = np.array([astuple(r) for r in report.rows], dtype=np.float64)
        out[f"train/{mode}/report.csv"] = (report.csv_text().encode(), [rows])
        for epoch, snap in sorted(report.snapshots.items()):
            out[f"train/{mode}/snapshot{epoch}"] = (snap.tobytes(), [snap])
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
    return out


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
