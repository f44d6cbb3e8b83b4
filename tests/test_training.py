import concurrent.futures
import gc
import multiprocessing
import os
import pickle
import platform
import select
import signal
import subprocess
import sys
import time
import tracemalloc
import types
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from globalattn import training
from globalattn.classifier import ClassifierModel, classifier_forward
from globalattn.datasets import ImageBatch
from globalattn.errors import ConfigError, ContractError, DivergenceError
from globalattn.optim import Adam
from globalattn.seeding import CLASSIFIER_INIT, SHUFFLE, rng_for
from globalattn.synthetic import SyntheticSpec, generate_synthetic, split_train_test
from globalattn.tensor import GradientTape, Tensor, backward, softmax_cross_entropy
from globalattn.training import (TrainConfig, build_models, compute_cost,
                                 evaluate_at_epochs, grid_configs,
                                 load_train_config, rank_epochs, run_protocol,
                                 select_epochs_cv, sweep, sweep_csv_text,
                                 train)

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
    attention, classifier, p = build_models(
        tr, tiny_cfg(attention_mode="none"))
    xb = Tensor(tr.images[:8])
    cost = compute_cost(xb, tr.labels[:8], attention, classifier, p, 0.0)
    plain = softmax_cross_entropy(classifier_forward(classifier, xb),
                                  tr.labels[:8])
    assert cost.item() == plain.item()


def test_cost_penalty_isolation_with_single_class():
    # one class forces zero cross-entropy; a frozen half-map costs 0.5
    images = np.random.default_rng(2).standard_normal((4, 1, 8, 8))
    batch = ImageBatch(images, [0, 0, 0, 0], num_classes=1)
    attention, classifier, p = build_models(
        batch, TrainConfig(channels=2, stages=(4,), seed=3))
    half_map = Tensor(np.full((1, 1, 8, 8), 0.5))
    cost = compute_cost(Tensor(images), batch.labels, attention, classifier,
                        p, 1.0, weight_map=half_map)
    assert cost.item() == pytest.approx(0.5, abs=1e-15)


def test_cost_rejects_spatial_mismatch():
    tr, _, _ = tiny_sets()
    attention, classifier, _ = build_models(
        tr, tiny_cfg(attention_mode="none"))
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


# Each heap test runs in a fresh interpreter, so the heap starts from
# glibc's default policy and no earlier test's arrays sit on it.
FRESH_TRAIN = """
import os
import pickle
import numpy as np
from globalattn.errors import DivergenceError
from globalattn.synthetic import SyntheticSpec, generate_synthetic, split_train_test
from globalattn.training import TrainConfig, train
spec = SyntheticSpec(n=80, c=1, w=32, h=32, relevant_region=(12, 12, 19, 19),
                     num_classes=3, signal_strength=2.0, noise_std=1.0, seed=1)
tr, te = split_train_test(generate_synthetic(spec)[0], 0.8, 1)

def run(epochs, lr=0.003):
    try:
        train(tr, te, TrainConfig(total_epochs=epochs, cutoff_epoch=1, lr=lr,
                                  attention_mode="none"))
    except DivergenceError:
        return "diverged"
    return "finished"

def resident():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
"""

glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the heap policy is glibc's mallopt")


def fresh_env():
    """This environment, with the checkout's ``src`` first on the path."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def run_fresh(script):
    proc = subprocess.run([sys.executable, "-c", FRESH_TRAIN + script],
                          env=fresh_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


RESIDENT_AFTER_TRAIN = """
before = resident()
outcome = run(3, {lr})
after = resident()
np.ones(2 << 20)  # 16 MB, made and dropped
print(outcome, after - before, resident() - after)
"""


@glibc_only
@pytest.mark.parametrize("lr, outcome", [(0.003, "finished"),
                                         (1e200, "diverged")])
def test_train_hands_its_freed_heap_back(lr, outcome):
    # the policy lasts for the call: what its steps freed goes back to the
    # OS, and a later 16 MB array is mapped and unmapped, not kept on a heap
    ran, kept, array_kept = run_fresh(RESIDENT_AFTER_TRAIN.format(lr=lr))
    assert ran == outcome
    assert int(kept) < 2 << 20
    assert int(array_kept) < 1 << 20


def live_adams():
    return sum(isinstance(obj, Adam) for obj in gc.get_objects())


def test_train_trims_after_its_run_is_freed(monkeypatch):
    # malloc_trim hands back only freed heap, so it must come after the
    # run's optimizers, batches and tape are gone, whether train() returns
    # or raises; a spy stands in for glibc, so no heap layout is read
    at_trim = []

    def mallopt(param, value):
        return 1

    def malloc_trim(pad):
        at_trim.append(live_adams() - before)
        return 0

    spy = types.SimpleNamespace(mallopt=mallopt, malloc_trim=malloc_trim)
    monkeypatch.setattr(training.ctypes, "CDLL", lambda name: spy)
    tr, te, _ = tiny_sets()
    gc.collect()
    before = live_adams()
    train(tr, te, tiny_cfg(total_epochs=2, cutoff_epoch=1))
    with pytest.raises(DivergenceError):
        train(tr, te, tiny_cfg(lr=1e200, total_epochs=4, cutoff_epoch=1))
    assert at_trim == [0, 0]


EXTRA_EPOCH_FAULTS = """
import resource
def minor_faults(epochs):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run(epochs)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
run(3)
print(minor_faults(6) - minor_faults(3))
"""


@glibc_only
def test_steps_within_one_train_reuse_the_freed_heap():
    # with glibc's default each step's freed arrays go back to the OS, and
    # three more epochs fault in about ten thousand pages again
    assert int(*run_fresh(EXTRA_EPOCH_FAULTS)) < 1000


def joint_epoch_peak(n):
    spec = SyntheticSpec(n=n, c=1, w=64, h=64, relevant_region=(16, 16, 47, 47),
                         num_classes=3, signal_strength=2.0, noise_std=1.0,
                         seed=2)
    tr = generate_synthetic(spec)[0]
    te = generate_synthetic(replace(spec, n=8, seed=3))[0]
    cfg = TrainConfig(total_epochs=1, cutoff_epoch=1, batch_size=8)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        train(tr, te, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - start, tr.images.nbytes


def test_train_memory_follows_the_batch_not_the_dataset():
    # a copy of the dataset or of the pixel representation held across a
    # step would grow the peak by at least the added training bytes
    small, small_bytes = joint_epoch_peak(50)
    large, large_bytes = joint_epoch_peak(200)
    assert large - small <= 0.25 * (large_bytes - small_bytes)


def test_divergence_aborts_with_epoch_index():
    # Adam steps are bounded by lr, so only an astronomically large rate
    # pushes activations past the float64 ceiling into NaN territory
    tr, te, _ = tiny_sets()
    with pytest.raises(DivergenceError) as info:
        train(tr, te, tiny_cfg(lr=1e200, total_epochs=4, cutoff_epoch=1))
    assert 1 <= info.value.epoch <= 4


def test_divergence_error_pickles_with_its_epoch_and_text():
    # as a sweep worker's error crosses the process boundary
    back = pickle.loads(pickle.dumps(DivergenceError(3)))
    assert (type(back), back.epoch, str(back)) == (
        DivergenceError, 3, "non-finite loss at epoch 3")


def test_overflow_outside_train_still_warns():
    """train() silences overflow only inside its own run: after a run
    that diverged, an overflow still fails under filterwarnings = error."""
    tr, te, _ = tiny_sets()
    with pytest.raises(DivergenceError):
        train(tr, te, tiny_cfg(lr=1e200, total_epochs=4, cutoff_epoch=1))
    with pytest.raises(RuntimeWarning, match="overflow"):
        np.exp(np.array([1000.0]))


def test_diverging_run_warns_nowhere():
    """The Adam updates, map refreshes and eval passes of a diverging run
    overflow as well as its steps; none of them may warn."""
    spec = SyntheticSpec(n=40, c=1, w=8, h=8, relevant_region=(2, 2, 5, 5),
                         num_classes=3, signal_strength=1.0, noise_std=1.0,
                         seed=0)
    tr, te = split_train_test(generate_synthetic(spec)[0], 0.8, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError):
            train(tr, te, TrainConfig(lr=1e200, total_epochs=3,
                                      cutoff_epoch=1))


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


def test_select_epochs_checks_cv_rules_whatever_the_protocol():
    # a holdout config skips the CV rules when it is made, not when it is
    # cross-validated
    tr, _, _ = tiny_sets(n=32)
    cfg = tiny_cfg(batch_size=4, cv_folds=1)
    assert cfg.eval_protocol == "simple_holdout"
    with pytest.raises(ConfigError, match="cv_folds must be >= 2, got 1"):
        select_epochs_cv(tr, cfg)


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
# the scorer process
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ending", ["returns", "diverges", "raises"])
def test_no_scorer_outlives_train(monkeypatch, ending):
    # each step sees the one scorer; "raises" fails the first step of the
    # third epoch, while the scorer may still owe the second's answer
    seen = []
    real = training.compute_cost

    def cost(*args, **kwargs):
        seen.append([c.pid for c in multiprocessing.active_children()])
        if ending == "raises" and len(seen) == 7:
            raise RuntimeError("failed step")
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "compute_cost", cost)
    tr, te, _ = tiny_sets()
    cfg = tiny_cfg(lr=1e300 if ending == "diverges" else 0.003)
    if ending == "returns":
        train(tr, te, cfg)
    else:
        with pytest.raises((DivergenceError, RuntimeError)):
            train(tr, te, cfg)
    [scorer] = seen[0]
    assert all(pids == [scorer] for pids in seen)
    # joined: neither running nor a zombie, so no longer this process's child
    with pytest.raises(ChildProcessError):
        os.waitpid(scorer, os.WNOHANG)
    assert multiprocessing.active_children() == []


def test_report_is_the_same_when_no_scorer_can_start(monkeypatch):
    tr, te, _ = tiny_sets()
    cfg = tiny_cfg()
    forked = train(tr, te, cfg)
    monkeypatch.setattr(training, "_fork_context", lambda: None)
    seen = []
    real = training.compute_cost
    monkeypatch.setattr(training, "compute_cost", lambda *a, **k: seen.append(
        multiprocessing.active_children()) or real(*a, **k))
    in_parent = train(tr, te, cfg)
    assert seen and not any(seen)
    assert in_parent.csv_text() == forked.csv_text()


def test_report_is_the_same_when_the_scorer_is_killed(monkeypatch):
    # the scorer kills itself when the second epoch's message arrives, so
    # the parent scores that epoch and every later one, and the first too
    # if it had not read that answer yet when it found the scorer gone
    tr, te, _ = tiny_sets()
    cfg = tiny_cfg()
    expected = train(tr, te, cfg).csv_text()
    parent, answered, rescored = os.getpid(), [], []
    real = training._answer

    def answer(*args):
        if os.getpid() == parent:
            rescored.append(args)
        else:
            answered.append(args)
            if len(answered) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(training, "_answer", answer)
    assert train(tr, te, cfg).csv_text() == expected
    assert len(rescored) >= cfg.total_epochs - 1


def alive(pid):
    """Whether ``pid`` runs; a zombie that nobody reaped has ended."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# A long train() that prints its scorer's pid in its third epoch, then ends
# on SIGINT by printing the processes it still has.
SCORED_RUN = """
import multiprocessing
from globalattn import training
from globalattn.synthetic import SyntheticSpec, generate_synthetic, split_train_test
spec = SyntheticSpec(n=40, c=1, w=8, h=8, relevant_region=(2, 2, 5, 5),
                     num_classes=3, signal_strength=2.0, noise_std=1.0, seed=0)
tr, te = split_train_test(generate_synthetic(spec)[0], 0.8, 0)
real, steps = training.compute_cost, []

def cost(*args, **kwargs):
    steps.append(1)
    if len(steps) == 10:
        print(*(c.pid for c in multiprocessing.active_children()), flush=True)
    return real(*args, **kwargs)

training.compute_cost = cost
try:
    training.train(tr, te, training.TrainConfig(
        total_epochs=100000, cutoff_epoch=1, batch_size=8, channels=2,
        stages=(2,)))
except KeyboardInterrupt:
    print("interrupted", len(multiprocessing.active_children()), flush=True)
"""

needs_proc = pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                                reason="reads process states from /proc")


def start_scored_run():
    """The run above in a new session (2 processes), and its scorer's pid."""
    proc = subprocess.Popen([sys.executable, "-c", SCORED_RUN], env=fresh_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    ready, _, _ = select.select([proc.stdout], [], [], 60)
    line = proc.stdout.readline() if ready else ""
    if not line.strip().isdigit():
        proc.kill()
        pytest.fail(f"no scorer pid: {line!r} {proc.communicate()}")
    return proc, int(line)


@needs_proc
def test_a_killed_train_leaves_no_scorer():
    proc, scorer = start_scored_run()
    proc.kill()
    proc.communicate(timeout=60)
    deadline = time.monotonic() + 5
    while alive(scorer) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not alive(scorer)


@needs_proc
def test_an_interrupted_train_prints_nothing_from_its_scorer():
    # a terminal's Ctrl-C signals the whole process group
    proc, scorer = start_scored_run()
    os.killpg(proc.pid, signal.SIGINT)
    out, err = proc.communicate(timeout=60)
    assert (out, err) == ("interrupted 0\n", "")
    assert not alive(scorer)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_holdout_reports_the_final_epoch_of_one_training(monkeypatch):
    tr, te, _ = tiny_sets()
    cfg = tiny_cfg()
    final = train(tr, te, cfg).rows[-1].test_acc
    calls = []
    real_train = training.train
    monkeypatch.setattr(training, "train",
                        lambda *a: calls.append(a) or real_train(*a))
    result = run_protocol(tr, te, cfg)
    assert repr(result) == repr((final, 0.0, [cfg.total_epochs]))
    assert len(calls) == 1


def test_grid_configs_follow_grid_order():
    cells = grid_configs(tiny_cfg(), [2, 4], [0.1, 0.01], [1, 2])
    assert [(c.channels, c.l1_coeff, c.cutoff_epoch) for c in cells] == [
        (k, lam, e) for k in (2, 4) for lam in (0.1, 0.01) for e in (1, 2)]
    assert {c.stages for c in cells} == {tiny_cfg().stages}


@pytest.mark.parametrize("grid, message", [
    (([4, 0], [0.03], [2]), "channels must be >= 1, got 0"),
    (([4], [0.03, -1.0], [2]), "lambda must be >= 0"),
    (([4], [0.03], [2, 7]), r"E must lie in \[0, 6\]"),
], ids=["K", "lambda", "E"])
def test_grid_configs_refuse_a_bad_cell_before_returning_any(grid, message):
    with pytest.raises(ConfigError, match=message):
        grid_configs(tiny_cfg(), *grid)


def test_single_cell_sweep_equals_direct_evaluation():
    tr, te, _ = tiny_sets()
    cfg = tiny_cfg()
    rows = sweep(tr, te, grid_configs(cfg, [4], [0.03], [2]), 1)
    mean, std, _ = run_protocol(tr, te, cfg)
    assert rows == [(4, 0.03, 2, mean, std)]


def test_sweep_row_count_is_grid_product():
    tr, te, _ = tiny_sets()
    cfg = tiny_cfg(total_epochs=3, cutoff_epoch=1)
    rows = sweep(tr, te, grid_configs(cfg, [2, 4], [0.1, 0.01, 0.001], [1]), 1)
    assert len(rows) == 6
    assert [r[:3] for r in rows][0] == (2, 0.1, 1)


def test_sweep_rerun_produces_identical_csv():
    tr, te, _ = tiny_sets()
    cells = grid_configs(tiny_cfg(total_epochs=3, cutoff_epoch=1),
                         [2, 4], [0.03], [1])
    a = sweep_csv_text(sweep(tr, te, cells, 1))
    b = sweep_csv_text(sweep(tr, te, cells, 1))
    assert a == b
    assert a.splitlines()[0] == "K,lambda,E,mean_acc,std_acc"


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_below_one_job_is_a_config_error_before_any_training(
        monkeypatch, jobs):
    tr, te, _ = tiny_sets()

    def no_training(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(training, "run_protocol", no_training)
    with pytest.raises(ConfigError, match="jobs"):
        sweep(tr, te, grid_configs(tiny_cfg(), [2, 4], [0.03], [1]), jobs)


def test_sweep_parallel_jobs_match_serial():
    tr, te, _ = tiny_sets()
    cells = grid_configs(tiny_cfg(total_epochs=2, cutoff_epoch=1),
                         [2, 4], [0.03], [1])
    assert sweep(tr, te, cells, 1) == sweep(tr, te, cells, 2)


def test_sweep_starts_at_most_one_worker_per_cell(monkeypatch):
    # a pool forks all its workers at the first submit, so more workers
    # than cells would only idle
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    tr, te, _ = tiny_sets()
    cells = grid_configs(tiny_cfg(total_epochs=2, cutoff_epoch=1),
                         [2, 4], [0.03], [1])
    rows = sweep(tr, te, cells, 8)
    assert started == [2]
    assert rows == sweep(tr, te, cells, 1)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_train_config_full(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(
        "K = 16\nlambda = 0.1\nE = 3\nlr = 0.01\nbatch_size = 4\n"
        "weight_decay = 0\ntotal_epochs = 9\nseed = 7\n"
        "attention_mode = l1_pixel_weights\n"
        "eval_protocol = cv_epoch_selection\ncv_folds = 3\n"
        "top_epochs = 2\nhidden_kernel = 5\ndepth = 3\nlast_kernel = 3\n"
        "dense_connections = true\nstages = 4,8\n")
    cfg = load_train_config(path)
    assert cfg.channels == 16 and cfg.l1_coeff == 0.1 and cfg.cutoff_epoch == 3
    assert cfg.attention_mode == "l1_pixel_weights"
    assert cfg.dense_connections and cfg.stages == (4, 8)
    assert cfg.eval_protocol == "cv_epoch_selection"


def test_parse_train_config_defaults_and_unknown_keys(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("")
    assert load_train_config(path) == TrainConfig()
    path.write_text("lamda = 0.1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_train_config(path)


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
