import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from globalattn.attention import AttentionModel, build_pixel_representation
from globalattn.classifier import ClassifierModel, classifier_forward
from globalattn.datasets import ImageBatch
from globalattn.errors import ConfigError, ContractError, DivergenceError
from globalattn.optim import Adam
from globalattn.seeding import CLASSIFIER_INIT, SHUFFLE, rng_for
from globalattn.synthetic import SyntheticSpec, generate_synthetic, split_train_test
from globalattn.tensor import GradientTape, Tensor, backward, softmax_cross_entropy
from globalattn.training import (TrainConfig, compute_cost, evaluate_at_epochs,
                                 load_train_config, parse_train_config,
                                 rank_epochs, run_protocol, select_epochs_cv,
                                 sweep, sweep_csv_text, train)

ROOT = Path(__file__).resolve().parents[1]


def tiny_sets(n=32, w=16, h=16, signal=3.0, noise=1.0, seed=0, classes=3):
    spec = SyntheticSpec(n=n, c=1, w=w, h=h,
                         relevant_region=(w // 4, h // 4,
                                          3 * w // 4 - 1, 3 * h // 4 - 1),
                         num_classes=classes, signal_strength=signal,
                         noise_std=noise, seed=seed)
    batch, mask = generate_synthetic(spec)
    tr, te = split_train_test(batch, 0.75, seed)
    return tr, te, mask


def tiny_cfg(**kw):
    base = dict(total_epochs=6, cutoff_epoch=2, batch_size=8, channels=4,
                stages=(4,), seed=0)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# compute_cost
# ---------------------------------------------------------------------------

def test_cost_none_mode_zero_lambda_is_plain_cross_entropy():
    tr, _, _ = tiny_sets()
    attention = AttentionModel("none", tr.n * tr.c, tr.w, tr.h)
    classifier = ClassifierModel(1, tr.w, tr.h, 3, (4,),
                                 rng=np.random.default_rng(1))
    p = build_pixel_representation(tr)
    xb = Tensor(tr.images[:8])
    cost = compute_cost(xb, tr.labels[:8], attention, classifier, p, 0.0)
    plain = softmax_cross_entropy(classifier_forward(classifier, xb),
                                  tr.labels[:8])
    assert cost.item() == plain.item()


def test_cost_penalty_isolation_with_single_class():
    # one class forces zero cross-entropy; a frozen half-map costs 0.5
    images = np.random.default_rng(2).standard_normal((4, 1, 8, 8))
    batch = ImageBatch(images, [0, 0, 0, 0], num_classes=1)
    attention = AttentionModel("pixel_cnn", 4, 8, 8, channels=2,
                               rng=np.random.default_rng(3))
    classifier = ClassifierModel(1, 8, 8, 1, (4,),
                                 rng=np.random.default_rng(4))
    p = build_pixel_representation(batch)
    half_map = Tensor(np.full((1, 1, 8, 8), 0.5))
    cost = compute_cost(Tensor(images), batch.labels, attention, classifier,
                        p, 1.0, weight_map=half_map)
    assert cost.item() == pytest.approx(0.5, abs=1e-15)


def test_cost_rejects_spatial_mismatch():
    tr, _, _ = tiny_sets()
    attention = AttentionModel("none", tr.n * tr.c, tr.w, tr.h)
    classifier = ClassifierModel(1, tr.w, tr.h, 3, (4,),
                                 rng=np.random.default_rng(5))
    bad_p = Tensor(np.zeros((1, tr.n, tr.w, tr.h + 2)))
    with pytest.raises(ContractError):
        compute_cost(Tensor(tr.images[:4]), tr.labels[:4], attention,
                     classifier, bad_p, 0.0)


# ---------------------------------------------------------------------------
# train: schedule semantics
# ---------------------------------------------------------------------------

def test_cutoff_zero_never_updates_the_map():
    tr, te, _ = tiny_sets()
    report = train(tr, te, tiny_cfg(cutoff_epoch=0))
    assert np.array_equal(report.snapshots[0], report.snapshots[6])


def test_cutoff_equal_to_total_trains_jointly_throughout():
    tr, te, _ = tiny_sets()
    report = train(tr, te, tiny_cfg(cutoff_epoch=6))
    # the map is still moving at the end, unlike the frozen case
    assert not np.array_equal(report.snapshots[0], report.snapshots[6])
    assert sorted(report.snapshots.keys()) == [0, 6]


def test_snapshots_at_cutoff_and_final_epoch_bitwise_equal():
    tr, te, _ = tiny_sets()
    report = train(tr, te, tiny_cfg())
    assert sorted(report.snapshots.keys()) == [0, 2, 6]
    assert np.array_equal(report.snapshots[2], report.snapshots[6])


def test_map_parameters_frozen_after_cutoff():
    tr, te, _ = tiny_sets()
    joint_only = train(tr, te, tiny_cfg(total_epochs=2, cutoff_epoch=2))
    full = train(tr, te, tiny_cfg(total_epochs=6, cutoff_epoch=2))
    for a, b in zip(joint_only.final_models[0].params,
                    full.final_models[0].params):
        assert np.array_equal(a.data, b.data)


def test_report_has_one_row_per_epoch_with_finite_values():
    tr, te, _ = tiny_sets()
    cfg = tiny_cfg()
    report = train(tr, te, cfg)
    assert [r.epoch for r in report.rows] == list(range(1, 7))
    for r in report.rows:
        for v in (r.train_loss, r.train_acc, r.test_acc, r.l1_penalty):
            assert np.isfinite(v)


def test_train_is_bitwise_reproducible():
    tr, te, _ = tiny_sets()
    cfg = tiny_cfg(attention_mode="pixel_cnn")
    a = train(tr, te, cfg)
    b = train(tr, te, cfg)
    assert a.csv_text() == b.csv_text()
    assert np.array_equal(a.snapshots[6], b.snapshots[6])


# a fresh interpreter, so the heap starts from glibc's default policy
REPEAT_TRAIN = """
import resource
from globalattn.synthetic import SyntheticSpec, generate_synthetic, split_train_test
from globalattn.training import TrainConfig, train
spec = SyntheticSpec(n=80, c=1, w=32, h=32, relevant_region=(12, 12, 19, 19),
                     num_classes=3, signal_strength=2.0, noise_std=1.0, seed=1)
tr, te = split_train_test(generate_synthetic(spec)[0], 0.8, 1)
cfg = TrainConfig(total_epochs=3, cutoff_epoch=1, attention_mode="none")
train(tr, te, cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(tr, te, cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is set through glibc's mallopt")
def test_repeated_train_reuses_the_freed_heap():
    # glibc's default returns each step's freed arrays to the OS, and a
    # second identical run then faults in tens of thousands of pages
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", REPEAT_TRAIN], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000


def test_divergence_aborts_with_epoch_index():
    # Adam steps are bounded by lr, so only an astronomically large rate
    # pushes activations past the float64 ceiling into NaN territory
    tr, te, _ = tiny_sets()
    with pytest.raises(DivergenceError) as info:
        train(tr, te, tiny_cfg(lr=1e200, total_epochs=4, cutoff_epoch=1))
    assert 1 <= info.value.epoch <= 4


def test_overflow_outside_train_still_warns():
    """train() silences overflow only inside its own steps: after a run
    that diverged, an overflow still fails under filterwarnings = error."""
    tr, te, _ = tiny_sets()
    with pytest.raises(DivergenceError):
        train(tr, te, tiny_cfg(lr=1e200, total_epochs=4, cutoff_epoch=1))
    with pytest.raises(RuntimeWarning, match="overflow"):
        np.exp(np.array([1000.0]))


def test_none_mode_matches_attention_free_twin_bitwise():
    """Training with the identity map reproduces a loop that never
    multiplies at all, on the same seed-derived streams."""
    tr, te, _ = tiny_sets()
    cfg = tiny_cfg(attention_mode="none", total_epochs=4, cutoff_epoch=2)
    report = train(tr, te, cfg)

    classifier = ClassifierModel(1, tr.w, tr.h, 3, cfg.stages,
                                 rng=rng_for(cfg.seed, CLASSIFIER_INIT))
    opt = Adam(classifier.params, cfg.lr, weight_decay=cfg.weight_decay)
    shuffle = rng_for(cfg.seed, SHUFFLE)
    twin_losses = []
    for _ in range(cfg.total_epochs):
        order = shuffle.permutation(tr.n)
        total = 0.0
        for start in range(0, tr.n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            with GradientTape() as tape:
                loss = softmax_cross_entropy(
                    classifier_forward(classifier, Tensor(tr.images[idx])),
                    tr.labels[idx])
            backward(loss, tape)
            opt.step()
            tape.clear()
            total += loss.item() * len(idx)
        twin_losses.append(total / tr.n)

    assert twin_losses == [r.train_loss for r in report.rows]


def test_l1_pixel_weights_mode_trains_the_multiplier():
    tr, te, _ = tiny_sets()
    cfg = tiny_cfg(attention_mode="l1_pixel_weights", l1_coeff=0.1)
    report = train(tr, te, cfg)
    final = report.final_models[0].params[0].data
    assert not np.array_equal(final, np.ones_like(final))
    assert np.array_equal(report.snapshots[2], report.snapshots[6])


# ---------------------------------------------------------------------------
# epoch selection and evaluation
# ---------------------------------------------------------------------------

def test_select_all_epochs_returns_every_epoch():
    tr, _, _ = tiny_sets(n=32)
    cfg = tiny_cfg(batch_size=4)
    picked = select_epochs_cv(
        tr, replace(cfg, cv_folds=2, top_epochs=cfg.total_epochs))
    assert sorted(picked) == list(range(1, cfg.total_epochs + 1))


def test_select_epochs_on_separable_data_reach_full_accuracy():
    tr, _, _ = tiny_sets(n=32, signal=6.0, noise=0.2)
    cfg = tiny_cfg(batch_size=4, total_epochs=8, cutoff_epoch=2)
    picked = select_epochs_cv(tr, replace(cfg, cv_folds=2, top_epochs=3))
    acc = np.zeros((2, cfg.total_epochs))
    from globalattn.seeding import CV_FOLDS
    perm = rng_for(cfg.seed, CV_FOLDS).permutation(tr.n)
    folds_idx = np.array_split(perm, 2)
    for f, val_idx in enumerate(folds_idx):
        tr_idx = np.concatenate([folds_idx[j] for j in range(2) if j != f])
        rep = train(tr.subset(tr_idx), tr.subset(val_idx), cfg)
        acc[f] = rep.test_accuracies()
    for e in picked:
        assert acc[:, e - 1].mean() == 100.0


def test_select_epochs_deterministic():
    tr, _, _ = tiny_sets(n=32)
    cfg = tiny_cfg(batch_size=4, cv_folds=2, top_epochs=3)
    assert select_epochs_cv(tr, cfg) == select_epochs_cv(tr, cfg)


def test_select_epochs_tie_breaks_to_earlier_epoch():
    tr, _, _ = tiny_sets(n=32, signal=6.0, noise=0.2)
    cfg = tiny_cfg(batch_size=4, total_epochs=8, cutoff_epoch=2)
    picked = select_epochs_cv(tr, replace(cfg, cv_folds=2, top_epochs=3))
    assert picked == sorted(picked)


def test_rank_epochs_tie_breaking():
    assert rank_epochs([50.0, 80.0, 80.0, 75.0], top=3) == [2, 3, 4]
    assert rank_epochs([90.0, 90.0, 90.0], top=2) == [1, 2]
    assert rank_epochs([10.0, 30.0, 20.0], top=3) == [2, 3, 1]


def test_fold_smaller_than_batch_rejected():
    tr, _, _ = tiny_sets(n=32)
    cfg = tiny_cfg(batch_size=8)
    with pytest.raises(ConfigError, match="fold"):
        select_epochs_cv(tr, replace(cfg, cv_folds=5, top_epochs=2))


def test_evaluate_single_epoch_has_zero_std():
    tr, te, _ = tiny_sets()
    mean, std = evaluate_at_epochs(tr, te, tiny_cfg(), [6])
    assert std == 0.0


def test_evaluate_identical_epochs_zero_std():
    tr, te, _ = tiny_sets(signal=6.0, noise=0.2)
    cfg = tiny_cfg()
    mean, std = evaluate_at_epochs(tr, te, cfg, [4, 5, 6])
    report = train(tr, te, cfg)
    accs = [report.rows[e - 1].test_acc for e in (4, 5, 6)]
    assert mean == pytest.approx(np.mean(accs))
    assert std == pytest.approx(np.std(accs))


def test_evaluate_separable_instance_hits_full_accuracy():
    tr, te, _ = tiny_sets(signal=6.0, noise=0.2)
    mean, std = evaluate_at_epochs(tr, te, tiny_cfg(), [5, 6])
    assert (mean, std) == (100.0, 0.0)


def test_evaluate_rejects_bad_epoch_lists():
    tr, te, _ = tiny_sets()
    with pytest.raises(ContractError):
        evaluate_at_epochs(tr, te, tiny_cfg(), [])
    with pytest.raises(ContractError):
        evaluate_at_epochs(tr, te, tiny_cfg(), [7])


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_single_cell_sweep_equals_direct_evaluation():
    tr, te, _ = tiny_sets()
    cfg = tiny_cfg()
    rows = sweep(tr, te, cfg, [4], [0.03], [2])
    mean, std, _ = run_protocol(tr, te, cfg)
    assert rows == [(4, 0.03, 2, mean, std)]


def test_sweep_row_count_is_grid_product():
    tr, te, _ = tiny_sets()
    cfg = tiny_cfg(total_epochs=3, cutoff_epoch=1)
    rows = sweep(tr, te, cfg, [2, 4], [0.1, 0.01, 0.001], [1])
    assert len(rows) == 6
    assert [r[:3] for r in rows][0] == (2, 0.1, 1)


def test_sweep_rerun_produces_identical_csv():
    tr, te, _ = tiny_sets()
    cfg = tiny_cfg(total_epochs=3, cutoff_epoch=1)
    a = sweep_csv_text(sweep(tr, te, cfg, [2, 4], [0.03], [1]))
    b = sweep_csv_text(sweep(tr, te, cfg, [2, 4], [0.03], [1]))
    assert a == b
    assert a.splitlines()[0] == "K,lambda,E,mean_acc,std_acc"


def test_sweep_parallel_jobs_match_serial():
    tr, te, _ = tiny_sets()
    cfg = tiny_cfg(total_epochs=2, cutoff_epoch=1)
    serial = sweep(tr, te, cfg, [2, 4], [0.03], [1], jobs=1)
    parallel = sweep(tr, te, cfg, [2, 4], [0.03], [1], jobs=2)
    assert serial == parallel


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_train_config_full():
    text = ("K = 16\nlambda = 0.1\nE = 3\nlr = 0.01\nbatch_size = 4\n"
            "weight_decay = 0\ntotal_epochs = 9\nseed = 7\n"
            "attention_mode = l1_pixel_weights\n"
            "eval_protocol = cv_epoch_selection\ncv_folds = 3\n"
            "top_epochs = 2\nhidden_kernel = 5\ndepth = 3\nlast_kernel = 3\n"
            "dense_connections = true\nstages = 4,8\n")
    cfg = parse_train_config(text)
    assert cfg.channels == 16 and cfg.l1_coeff == 0.1 and cfg.cutoff_epoch == 3
    assert cfg.attention_mode == "l1_pixel_weights"
    assert cfg.dense_connections and cfg.stages == (4, 8)
    assert cfg.eval_protocol == "cv_epoch_selection"


def test_parse_train_config_defaults_and_unknown_keys():
    cfg = parse_train_config("")
    assert cfg == TrainConfig()
    with pytest.raises(ConfigError, match="unknown key"):
        parse_train_config("lamda = 0.1\n")


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(cutoff_epoch=10, total_epochs=5)
    with pytest.raises(ConfigError):
        TrainConfig(l1_coeff=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(eval_protocol="bogus")


def test_load_train_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_train_config(tmp_path / "nope.cfg")
