"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
The heavyweight synthetic scenario (criteria 5 and 6) is shared through a
module-scoped fixture.
"""

import time

import numpy as np
import pytest

from globalattn.attention import attention_forward
from globalattn.classifier import ClassifierModel, classifier_forward
from globalattn.cli import main
from globalattn.datasets import ImageBatch, load_dataset
from globalattn.optim import Adam
from globalattn.pipelinecheck import full_pipeline_gradcheck
from globalattn.preprocess import crop_columns, normalize_standardize, resize_area
from globalattn.seeding import CLASSIFIER_INIT, SHUFFLE, rng_for
from globalattn.synthetic import SyntheticSpec, generate_synthetic, split_train_test
from globalattn.tensor import GradientTape, Tensor, backward, softmax_cross_entropy
from globalattn.training import TrainConfig, build_models, train


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient oracle
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_oracle():
    start = time.monotonic()
    result = full_pipeline_gradcheck(width=8, height=8, images=2, seed=0,
                                     channels=4)
    elapsed = time.monotonic() - start
    ok = (result.passed and result.h == 1e-3 and result.tolerance == 1e-3
          and elapsed < 30.0)
    verdict(1, ok, f"max rel error {result.max_error:.2e} <= 1e-3 at h=1e-3 "
                   f"for every parameter, {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# 2. parameter-count oracle
# ---------------------------------------------------------------------------

def attention_model(n, c, k):
    """The map a default ``TrainConfig`` with ``K = k`` builds for N = n
    images of C = c channels."""
    batch = ImageBatch(np.zeros((n, c, 4, 4)), np.zeros(n), num_classes=1)
    return build_models(batch, TrainConfig(channels=k))[0]


def test_criterion_2_parameter_count():
    mismatches = []
    for k in (8, 32):
        for n in (4, 100):
            for c in (1, 3):
                model = attention_model(n, c, k)
                expected = k * (3 * 3 * n * c + 1) + (k + 1)
                if model.num_parameters() != expected:
                    mismatches.append((k, n, c))
    headline = attention_model(100, 3, 32)
    ok = not mismatches and headline.num_parameters() == 86465
    verdict(2, ok, "closed form K*(9NC+1)+(K+1) exact over the sweep; "
                   "(K=32, N=100, C=3) -> 86465")


# ---------------------------------------------------------------------------
# 3. freeze semantics
# ---------------------------------------------------------------------------

def test_criterion_3_freeze_semantics():
    start = time.monotonic()
    spec = SyntheticSpec(n=80, c=1, w=16, h=16, relevant_region=(4, 4, 11, 11),
                         num_classes=3, signal_strength=2.0, noise_std=1.0,
                         seed=0)
    batch, _ = generate_synthetic(spec)
    tr, te = split_train_test(batch, 0.8, 0)
    cfg = dict(batch_size=16, channels=4, stages=(4, 8), seed=0)
    full = train(tr, te, TrainConfig(total_epochs=20, cutoff_epoch=5, **cfg))
    joint_only = train(tr, te, TrainConfig(total_epochs=5, cutoff_epoch=5, **cfg))
    params_frozen = all(
        np.array_equal(a.data, b.data)
        for a, b in zip(full.final_models[0].params,
                        joint_only.final_models[0].params))
    snaps_equal = np.array_equal(full.snapshots[5], full.snapshots[20])
    elapsed = time.monotonic() - start
    ok = params_frozen and snaps_equal and elapsed < 120.0
    verdict(3, ok, "map parameters bitwise unchanged over epochs 6-20 and "
                   f"snapshots at 5 and 20 bitwise equal, {elapsed:.1f}s < 2min")


# ---------------------------------------------------------------------------
# 4. identity-attention transparency
# ---------------------------------------------------------------------------

def test_criterion_4_identity_attention_transparency():
    spec = SyntheticSpec(n=48, c=1, w=16, h=16, relevant_region=(4, 4, 11, 11),
                         num_classes=3, signal_strength=2.0, noise_std=1.0,
                         seed=2)
    batch, _ = generate_synthetic(spec)
    tr, te = split_train_test(batch, 0.75, 2)
    cfg = TrainConfig(attention_mode="none", total_epochs=8, cutoff_epoch=2,
                      batch_size=8, stages=(4,), seed=5)
    report = train(tr, te, cfg)

    classifier = ClassifierModel(1, tr.w, tr.h, 3, cfg.stages,
                                 rng=rng_for(cfg.seed, CLASSIFIER_INIT))
    opt = Adam(classifier.params, cfg.lr, weight_decay=cfg.weight_decay)
    shuffle = rng_for(cfg.seed, SHUFFLE)
    twin = []
    for _ in range(cfg.total_epochs):
        order = shuffle.permutation(tr.n)
        total = 0.0
        for s in range(0, tr.n, cfg.batch_size):
            idx = order[s:s + cfg.batch_size]
            with GradientTape() as tape:
                loss = softmax_cross_entropy(
                    classifier_forward(classifier, Tensor(tr.images[idx])),
                    tr.labels[idx])
            backward(loss, tape)
            opt.step()
            tape.clear()
            total += loss.item() * len(idx)
        twin.append(total / tr.n)

    rel = max(abs(a - b) / abs(b)
              for a, b in zip([r.train_loss for r in report.rows], twin))
    ok = rel <= 1e-6
    verdict(4, ok, f"per-epoch losses match the attention-free classifier, "
                   f"max rel diff {rel:.2e} <= 1e-6 at fp64")


# ---------------------------------------------------------------------------
# 5 & 6. localization and directional gain on the shared scenario
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def synthetic_scenario():
    start = time.monotonic()
    ratios, acc_attn, acc_none = [], [], []
    for seed in range(5):
        spec = SyntheticSpec(n=200, c=1, w=32, h=32,
                             relevant_region=(12, 12, 19, 19), num_classes=3,
                             signal_strength=2.0, noise_std=1.0, seed=seed)
        batch, mask = generate_synthetic(spec)
        tr, te = split_train_test(batch, 0.8, seed)
        inside = mask.astype(bool)

        rep = train(tr, te, TrainConfig(seed=seed, attention_mode="pixel_cnn"))
        final = rep.snapshots[TrainConfig().total_epochs][0, 0]
        ratios.append(final[inside].mean() / final[~inside].mean())
        acc_attn.append(rep.rows[-1].test_acc)

        rep_none = train(tr, te, TrainConfig(seed=seed, attention_mode="none"))
        acc_none.append(rep_none.rows[-1].test_acc)
    return ratios, acc_attn, acc_none, time.monotonic() - start


def test_criterion_5_attention_localization(synthetic_scenario):
    ratios, _, _, elapsed = synthetic_scenario
    hits = sum(r >= 1.5 for r in ratios)
    ok = hits >= 4 and elapsed < 600.0
    verdict(5, ok, f"mean map value inside the relevant region >= 1.5x the "
                   f"outside mean in {hits}/5 seeds "
                   f"(ratios {[f'{r:.2f}' for r in ratios]}), "
                   f"{elapsed:.0f}s < 10min")


def test_criterion_6_directional_accuracy_gain(synthetic_scenario):
    _, acc_attn, acc_none, _ = synthetic_scenario
    med_attn = float(np.median(acc_attn))
    med_none = float(np.median(acc_none))
    ok = med_attn >= med_none and med_attn >= 100.0 / 3.0 + 20.0
    verdict(6, ok, f"median test accuracy with attention {med_attn:.1f}% >= "
                   f"without {med_none:.1f}%, and exceeds chance by "
                   f"{med_attn - 100.0 / 3.0:.1f} >= 20 points")


# ---------------------------------------------------------------------------
# 7. preprocessing bit-exactness
# ---------------------------------------------------------------------------

def test_criterion_7_preprocessing_bit_exactness():
    cropped = crop_columns(np.zeros((3, 4288, 4)), 260, 3685)
    crop_ok = cropped.shape[1] == 3426

    std = normalize_standardize(np.full((1, 1, 1), 123.675), ((0.485, 0.229),))
    std_ok = abs(std[0, 0, 0]) <= 1e-12

    const = resize_area(np.full((2, 6, 6), 7.5), (4, 3))
    const_ok = np.array_equal(const, np.full((2, 4, 3), 7.5))
    box = resize_area(np.array([[[1.0, 2.0], [3.0, 4.0]]]), (1, 1))
    box_ok = box[0, 0, 0] == 2.5

    ok = crop_ok and std_ok and const_ok and box_ok
    verdict(7, ok, "crop(260, 3685) on width 4288 -> 3426; 123.675 -> 0.0 "
                   "within 1e-12; area resize preserves constants and the "
                   "2x2 -> 1x1 box average exactly")


# ---------------------------------------------------------------------------
# 8. determinism of commands
# ---------------------------------------------------------------------------

def test_criterion_8_command_determinism(tmp_path):
    spec = tmp_path / "synth.cfg"
    spec.write_text("N = 40\nC = 1\nW = 8\nH = 8\nrelevant_region = 2,2,5,5\n"
                    "num_classes = 3\nsignal_strength = 3.0\nnoise_std = 1.0\n"
                    "seed = 4\n")
    cfg = tmp_path / "train.cfg"
    cfg.write_text("K = 4\nlambda = 0.03\nE = 2\ntotal_epochs = 5\n"
                   "batch_size = 8\nstages = 4\nseed = 9\n")
    outputs = []
    for run in ("a", "b"):
        data = tmp_path / f"data_{run}"
        out = tmp_path / f"run_{run}"
        assert main(["gen", "--spec", str(spec), "--out", str(data)]) == 0
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        outputs.append({
            "dataset": (data / "train.gten").read_bytes(),
            "report": (out / "report.csv").read_bytes(),
            "attention": (out / "attention.ckpt").read_bytes(),
            "classifier": (out / "classifier.ckpt").read_bytes(),
            "map": (out / "attention_epoch5.pgm").read_bytes(),
        })
    same = {k for k in outputs[0] if outputs[0][k] == outputs[1][k]}
    ok = same == set(outputs[0])
    verdict(8, ok, "rerun with identical config and seed produced "
                   "byte-identical datasets, report CSVs, checkpoints and maps")


# ---------------------------------------------------------------------------
# 9. architecture variants
# ---------------------------------------------------------------------------

def test_criterion_9_architecture_variants():
    variants = ({"hidden_kernel": 5}, {"hidden_kernel": 7}, {"depth": 3},
                {"depth": 4}, {"last_kernel": 3}, {"last_kernel": 5},
                {"dense_connections": True})
    failures = []
    for kw in variants:
        result = full_pipeline_gradcheck(width=8, height=8, images=2, seed=0,
                                         channels=4, **kw)
        batch = ImageBatch(np.zeros((2, 1, 8, 8)), np.zeros(2), num_classes=1)
        model, _, _ = build_models(batch, TrainConfig(channels=4, **kw))
        out = attention_forward(
            model, Tensor(np.random.default_rng(1).standard_normal((1, 2, 8, 8))))
        if not result.passed or out.shape != (1, 1, 8, 8):
            failures.append(kw)
    ok = not failures
    verdict(9, ok, "kernel 5/7, depth 3/4, last kernel 3/5 and dense "
                   "connections all build, preserve W x H and pass the "
                   "gradient oracle at toy size")
