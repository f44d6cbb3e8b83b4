"""The benchmark's tracer still fits the package.

``perfbench/tracing.py`` replaces names in the package's modules with
wrappers and reads the nesting of their spans to tell a useful eval pass
from a wasted one.  A refactor that renames a patched name or changes that
nesting breaks the benchmark's eval accounting, so the protocols run here
under the tracer, which is read, not changed.
"""

from dataclasses import replace
from pathlib import Path

import globalattn
import globalattn.cli  # install() patches the cli module's names too
from globalattn import training
from globalattn.synthetic import SyntheticSpec, generate_synthetic, split_train_test
from globalattn.training import PROTOCOLS, TrainConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_protocols_count_their_useful_eval_passes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    spec = SyntheticSpec(n=60, c=1, w=8, h=8, relevant_region=(2, 2, 5, 5),
                         num_classes=3, signal_strength=2.0, noise_std=1.0,
                         seed=0)
    batch, _ = generate_synthetic(spec)
    tr, te = split_train_test(batch, 0.8, 0)
    cfg = TrainConfig(channels=4, cutoff_epoch=2, total_epochs=4, batch_size=8,
                      stages=(4,), cv_folds=2, top_epochs=2)
    originals = {name: getattr(training, name)
                 for name in ("run_protocol", "select_epochs_cv",
                              "evaluate_at_epochs", "train", "_eval_accuracy")}
    tracer = tracing.Tracer()
    tracing.install(tracer, globalattn)
    try:
        with tracer.span("workload.op"):
            for protocol in PROTOCOLS:
                training.run_protocol(tr, te,
                                      replace(cfg, eval_protocol=protocol))
    finally:
        tracer.restore()
    assert {name: getattr(training, name) for name in originals} == originals

    # 48 train images: holdout trains once (8 passes, the final test one
    # useful); CV trains 2 folds of 24 (16 passes, the 8 validation ones
    # useful) and retrains once (8 passes, the test ones at the 2 selected
    # epochs useful)
    assert tracing._useful_evals(tracer.spans) == (11, 32)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["training.eval.calls"] == 32
    assert metrics["training.eval.useful_ratio"] == 11 / 32
    # 6 + 2 * 3 + 6 mini-batches an epoch, 4 epochs
    assert metrics["training.step.calls"] == 72
    assert metrics["training.backward.calls"] == 72
