"""Joint optimization of the classifier and the attention map.

The schedule has two phases controlled by the cut-off epoch E: through
epoch E both networks update together; afterwards the pixel classifier is
fixed (parameters and optimizer state frozen, gradients no longer taken)
and only the image classifier keeps training on the weighted images.  The
per-step cost is the mini-batch mean cross-entropy plus ``lambda`` times
the mean absolute value of the current weight map, which is always
evaluated from the full training set.

Also here: the cross-validation epoch-selection protocol, evaluation at
chosen epochs, and hyperparameter grid sweeps.
"""

from __future__ import annotations

import ctypes
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .attention import (AttentionModel, attention_forward,
                        attention_l1_penalty, build_pixel_representation)
from .classifier import ClassifierModel, accuracy, classifier_forward, predict
from .config import (Field, field_keys, format_bool, format_fields,
                     format_ints, load_kv_file, parse_bool, parse_fields,
                     parse_float, parse_ints, parse_kv_text)
from .datasets import ImageBatch
from .errors import ConfigError, ContractError, DivergenceError
from .optim import Adam
from .seeding import (ATTENTION_INIT, CLASSIFIER_INIT, CV_FOLDS, SHUFFLE,
                      rng_for)
from .tensor import (GradientTape, Tensor, add, backward, broadcast_mul,
                     scale, softmax_cross_entropy)

__all__ = [
    "TrainConfig",
    "EpochRow",
    "TrainReport",
    "compute_cost",
    "train",
    "select_epochs_cv",
    "evaluate_at_epochs",
    "run_protocol",
    "sweep",
    "sweep_csv_text",
    "parse_train_config",
    "load_train_config",
]

PROTOCOLS = ("simple_holdout", "cv_epoch_selection")


@dataclass(frozen=True)
class TrainConfig:
    """All optimization hyperparameters for one run.

    Defaults are desk-scale: 60 total epochs with cut-off 15 and 5 selected
    epochs keep roughly the 250/60/30 proportions of full-scale runs while
    finishing in seconds.
    """

    channels: int = 8              # hidden channels K of the pixel classifier
    l1_coeff: float = 0.03         # weight of the map's L1 penalty
    cutoff_epoch: int = 15         # E: last epoch that updates the map
    lr: float = 0.003
    batch_size: int = 32
    weight_decay: float = 0.0001   # image classifier only
    total_epochs: int = 60
    seed: int = 0
    attention_mode: str = "pixel_cnn"
    eval_protocol: str = "simple_holdout"
    cv_folds: int = 5
    top_epochs: int = 5
    hidden_kernel: int = 3
    depth: int = 2
    last_kernel: int = 1
    dense_connections: bool = False
    stages: tuple[int, ...] = (8, 16)

    FIELDS = (
        Field("K", "channels", int),
        Field("lambda", "l1_coeff", parse_float),
        Field("E", "cutoff_epoch", int),
        Field("lr", "lr", parse_float),
        Field("batch_size", "batch_size", int),
        Field("weight_decay", "weight_decay", parse_float),
        Field("total_epochs", "total_epochs", int),
        Field("seed", "seed", int),
        Field("attention_mode", "attention_mode"),
        Field("eval_protocol", "eval_protocol"),
        Field("cv_folds", "cv_folds", int),
        Field("top_epochs", "top_epochs", int),
        Field("hidden_kernel", "hidden_kernel", int),
        Field("depth", "depth", int),
        Field("last_kernel", "last_kernel", int),
        Field("dense_connections", "dense_connections", parse_bool,
              format_bool),
        Field("stages", "stages", parse_ints, format_ints),
    )

    def __post_init__(self):
        if not 0 <= self.cutoff_epoch <= self.total_epochs:
            raise ConfigError(
                f"E must lie in [0, {self.total_epochs}], got {self.cutoff_epoch}")
        if self.l1_coeff < 0:
            raise ConfigError(f"lambda must be >= 0, got {self.l1_coeff}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.total_epochs < 1:
            raise ConfigError("total_epochs must be >= 1")
        if self.eval_protocol not in PROTOCOLS:
            raise ConfigError(
                f"eval_protocol must be one of {PROTOCOLS}, got {self.eval_protocol!r}")
        if not self.stages:
            raise ConfigError("stages must not be empty")


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float
    l1_penalty: float


@dataclass
class TrainReport:
    """Per-epoch metrics plus weight-map snapshots at epochs {0, E, final}."""

    rows: list[EpochRow]
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)
    final_models: tuple[AttentionModel, ClassifierModel] | None = None

    def test_accuracies(self) -> list[float]:
        return [r.test_acc for r in self.rows]

    def csv_text(self) -> str:
        lines = ["epoch,train_loss,train_acc,test_acc,l1_penalty"]
        for r in self.rows:
            lines.append(f"{r.epoch},{r.train_loss!r},{r.train_acc!r},"
                         f"{r.test_acc!r},{r.l1_penalty!r}")
        return "\n".join(lines) + "\n"


def compute_cost(images: Tensor, labels, attention: AttentionModel,
                 classifier: ClassifierModel, p: Tensor, l1_coeff: float,
                 weight_map: Tensor | None = None) -> Tensor:
    """Mini-batch cross-entropy plus the weighted map penalty, one tape.

    ``p`` must be the pixel representation of the full training set; the
    loss term alone is mini-batched.  Passing a precomputed ``weight_map``
    (a constant) skips re-evaluating the pixel classifier, which is how the
    frozen phase runs.
    """
    if p.shape[2:] != images.shape[2:]:
        raise ContractError(
            f"pixel representation spatial dims {p.shape[2:]} do not match "
            f"batch {images.shape[2:]}")
    if weight_map is None:
        weight_map = attention_forward(attention, p)
    weighted = broadcast_mul(images, weight_map)
    logits = classifier_forward(classifier, weighted)
    ce = softmax_cross_entropy(logits, labels)
    penalty = attention_l1_penalty(attention, weight_map)
    return add(ce, scale(penalty, l1_coeff))


def _check_compatible(train_set: ImageBatch, test_set: ImageBatch) -> None:
    if train_set.images.shape[1:] != test_set.images.shape[1:]:
        raise ContractError("train and test sets differ in C, W or H")
    if train_set.num_classes != test_set.num_classes:
        raise ContractError("train and test sets differ in class count")


def _eval_accuracy(classifier: ClassifierModel, map_data: np.ndarray,
                   batch: ImageBatch, batch_size: int) -> float:
    preds: list[int] = []
    for start in range(0, batch.n, batch_size):
        chunk = batch.images[start:start + batch_size] * map_data
        logits = classifier_forward(classifier, Tensor(chunk))
        preds.extend(predict(logits))
    return accuracy(preds, batch.labels)


def build_models(train_set: ImageBatch, cfg: TrainConfig
                 ) -> tuple[AttentionModel, ClassifierModel, Tensor]:
    """Seed-derived attention model, classifier, and pixel representation."""
    attention = AttentionModel(
        mode=cfg.attention_mode,
        in_channels=train_set.n * train_set.c,
        width=train_set.w, height=train_set.h,
        channels=cfg.channels, hidden_kernel=cfg.hidden_kernel,
        depth=cfg.depth, last_kernel=cfg.last_kernel,
        dense_connections=cfg.dense_connections,
        rng=rng_for(cfg.seed, ATTENTION_INIT))
    classifier = ClassifierModel(
        in_channels=train_set.c, width=train_set.w, height=train_set.h,
        num_classes=train_set.num_classes, stages=cfg.stages,
        rng=rng_for(cfg.seed, CLASSIFIER_INIT))
    return attention, classifier, build_pixel_representation(train_set)


# glibc's mallopt parameters, from <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _retain_freed_heap() -> None:
    """Let glibc keep a step's freed arrays for the next step's reuse.

    A step allocates and frees some tens of MB of arrays.  Until glibc has
    seen a large buffer freed, its default maps each large array afresh and
    hands freed heap back to the OS, so every step faults all those pages
    in again: a third of wall in ``attention_mode = none``.  These are the
    values glibc's own policy adapts to at most; a C library without
    ``mallopt`` keeps its default.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def train(train_set: ImageBatch, test_set: ImageBatch,
          cfg: TrainConfig) -> TrainReport:
    """Run the two-phase schedule and record one report row per epoch.

    Epochs 1..E step both parameter groups; afterwards the map parameters
    and their optimizer state stay untouched bit for bit, and the cached
    constant map keeps multiplying the inputs.  Raises
    :class:`DivergenceError` with the epoch index if the loss goes
    non-finite.  On glibc it sets the process's heap policy (see
    :func:`_retain_freed_heap`).
    """
    _check_compatible(train_set, test_set)
    _retain_freed_heap()
    attention, classifier, p = build_models(train_set, cfg)
    opt_f = Adam(classifier.params, cfg.lr, weight_decay=cfg.weight_decay)
    opt_m = Adam(attention.params, cfg.lr) if attention.params else None
    shuffle_rng = rng_for(cfg.seed, SHUFFLE)

    def current_map() -> np.ndarray:
        return attention_forward(attention, p).data

    map_now = current_map()
    snapshots = {0: map_now.copy()}
    rows: list[EpochRow] = []
    for epoch in range(1, cfg.total_epochs + 1):
        joint = epoch <= cfg.cutoff_epoch and opt_m is not None
        # after the last joint epoch the map no longer changes
        frozen_map = None if joint else Tensor(map_now)
        order = shuffle_rng.permutation(train_set.n)
        loss_sum = 0.0
        for start in range(0, train_set.n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb = Tensor(train_set.images[idx])
            yb = train_set.labels[idx]
            # a diverging step overflows; the finite-loss check reports it
            with (np.errstate(over="ignore", invalid="ignore",
                              divide="ignore"),
                  GradientTape() as tape):
                cost = compute_cost(xb, yb, attention, classifier, p,
                                    cfg.l1_coeff, weight_map=frozen_map)
                if not np.isfinite(cost.data).all():
                    raise DivergenceError(epoch)
                backward(cost, tape)
            opt_f.step()
            if joint:
                opt_m.step()
            tape.clear()
            loss_sum += cost.item() * len(idx)
        if joint:
            map_now = current_map()
        rows.append(EpochRow(
            epoch=epoch,
            train_loss=loss_sum / train_set.n,
            train_acc=_eval_accuracy(classifier, map_now, train_set,
                                     cfg.batch_size),
            test_acc=_eval_accuracy(classifier, map_now, test_set,
                                    cfg.batch_size),
            l1_penalty=float(
                attention_l1_penalty(attention, Tensor(map_now)).data)))
        if epoch in (cfg.cutoff_epoch, cfg.total_epochs):
            snapshots[epoch] = map_now.copy()
    return TrainReport(rows, snapshots, final_models=(attention, classifier))


def rank_epochs(mean_accuracy, top: int) -> list[int]:
    """Top 1-indexed epochs by accuracy; ties favor the earlier epoch."""
    order = sorted(range(len(mean_accuracy)),
                   key=lambda e: (-mean_accuracy[e], e))
    return [e + 1 for e in order[:top]]


def select_epochs_cv(train_set: ImageBatch, cfg: TrainConfig) -> list[int]:
    """Rank epochs by mean validation accuracy over ``cfg.cv_folds`` folds.

    Returns the ``cfg.top_epochs`` best 1-indexed epochs; ties favor the
    earlier epoch.
    """
    folds, top = cfg.cv_folds, cfg.top_epochs
    if folds < 2:
        raise ConfigError(f"cv_folds must be >= 2, got {folds}")
    if not 1 <= top <= cfg.total_epochs:
        raise ConfigError(
            f"top_epochs must lie in [1, {cfg.total_epochs}], got {top}")
    if train_set.n // folds < cfg.batch_size:
        raise ConfigError(
            f"fold size {train_set.n // folds} smaller than one mini-batch "
            f"({cfg.batch_size})")
    perm = rng_for(cfg.seed, CV_FOLDS).permutation(train_set.n)
    folds_idx = np.array_split(perm, folds)
    acc = np.zeros((folds, cfg.total_epochs))
    for f, val_idx in enumerate(folds_idx):
        tr_idx = np.concatenate([folds_idx[j] for j in range(folds) if j != f])
        report = train(train_set.subset(tr_idx), train_set.subset(val_idx), cfg)
        acc[f] = report.test_accuracies()
    return rank_epochs(acc.mean(axis=0), top)


def evaluate_at_epochs(train_set: ImageBatch, test_set: ImageBatch,
                       cfg: TrainConfig, epochs: list[int]
                       ) -> tuple[float, float]:
    """Retrain on the full training set; mean and population std of the
    test accuracies observed at the listed epochs."""
    if not epochs:
        raise ContractError("epochs list must not be empty")
    if any(not 1 <= e <= cfg.total_epochs for e in epochs):
        raise ContractError(
            f"epochs must lie in [1, {cfg.total_epochs}], got {epochs}")
    report = train(train_set, test_set, cfg)
    accs = np.array([report.rows[e - 1].test_acc for e in epochs])
    return float(accs.mean()), float(accs.std())


def run_protocol(train_set: ImageBatch, test_set: ImageBatch,
                 cfg: TrainConfig) -> tuple[float, float, list[int]]:
    """Evaluate per the configured protocol: (mean, std, epochs used).

    ``simple_holdout`` reports the final epoch's test accuracy with std 0;
    ``cv_epoch_selection`` picks epochs by cross-validation first.
    """
    if cfg.eval_protocol == "simple_holdout":
        report = train(train_set, test_set, cfg)
        return report.rows[-1].test_acc, 0.0, [cfg.total_epochs]
    epochs = select_epochs_cv(train_set, cfg)
    mean, std = evaluate_at_epochs(train_set, test_set, cfg, epochs)
    return mean, std, epochs


def _sweep_cell(args):
    train_set, test_set, cfg = args
    mean, std, _ = run_protocol(train_set, test_set, cfg)
    return mean, std


def sweep(train_set: ImageBatch, test_set: ImageBatch, base_cfg: TrainConfig,
          k_values: list[int], lambda_values: list[float],
          e_values: list[int], jobs: int = 1
          ) -> list[tuple[int, float, int, float, float]]:
    """Evaluate every (K, lambda, E) grid cell; rows follow grid order."""
    cells = []
    for k, lam, e in itertools.product(k_values, lambda_values, e_values):
        cfg = replace(base_cfg, channels=k, l1_coeff=lam, cutoff_epoch=e)
        cells.append((k, lam, e, cfg))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(
                _sweep_cell,
                [(train_set, test_set, cfg) for _, _, _, cfg in cells]))
    else:
        results = [_sweep_cell((train_set, test_set, cfg))
                   for _, _, _, cfg in cells]
    return [(k, lam, e, mean, std)
            for (k, lam, e, _), (mean, std) in zip(cells, results)]


def sweep_csv_text(rows: list[tuple[int, float, int, float, float]]) -> str:
    lines = ["K,lambda,E,mean_acc,std_acc"]
    for k, lam, e, mean, std in rows:
        lines.append(f"{k},{lam!r},{e},{mean!r},{std!r}")
    return "\n".join(lines) + "\n"


def parse_train_config(text: str) -> TrainConfig:
    """Build a config from flat ``key = value`` text; absent keys keep
    their defaults.  The keys are those of ``TrainConfig.FIELDS``."""
    kv = parse_kv_text(text, field_keys(TrainConfig.FIELDS))
    return TrainConfig(**parse_fields(TrainConfig.FIELDS, kv))


def load_train_config(path: str | Path) -> TrainConfig:
    kv = load_kv_file(path, field_keys(TrainConfig.FIELDS))
    return TrainConfig(**parse_fields(TrainConfig.FIELDS, kv))


def config_kv(cfg: TrainConfig) -> dict[str, str]:
    """The fully resolved config as manifest-ready key-value pairs."""
    return format_fields(TrainConfig.FIELDS, cfg)
