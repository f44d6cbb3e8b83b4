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

import copy
import ctypes
import itertools
import os
import pickle
import signal
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .attention import (AttentionModel, attention_forward,
                        attention_l1_penalty, build_pixel_representation,
                        check_attention_arch)
from .classifier import (ClassifierModel, accuracy, check_classifier_arch,
                         classifier_forward, predict)
from .config import (Field, field_keys, format_bool, format_fields,
                     format_ints, load_kv_file, parse_bool, parse_fields,
                     parse_float, parse_ints)
from .datasets import ImageBatch
from .errors import ConfigError, ContractError, DivergenceError
from .optim import Adam
from .seeding import (ATTENTION_INIT, CLASSIFIER_INIT, CV_FOLDS, SHUFFLE,
                      check_seed, rng_for)
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
    "grid_configs",
    "sweep",
    "sweep_csv_text",
    "load_train_config",
]

PROTOCOLS = ("simple_holdout", "cv_epoch_selection")


@dataclass(frozen=True)
class TrainConfig:
    """All optimization hyperparameters for one run.

    Defaults are desk-scale: 60 total epochs with cut-off 15 and 5 selected
    epochs keep roughly the 250/60/30 proportions of full-scale runs while
    finishing in seconds.  Every value, the architecture included, is
    checked when the config is made; ``cv_folds`` and ``top_epochs`` only
    under ``cv_epoch_selection``, since no other protocol reads them.
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
        if self.total_epochs < 1:
            raise ConfigError("total_epochs must be >= 1")
        if not 0 <= self.cutoff_epoch <= self.total_epochs:
            raise ConfigError(
                f"E must lie in [0, {self.total_epochs}], got {self.cutoff_epoch}")
        if self.l1_coeff < 0:
            raise ConfigError(f"lambda must be >= 0, got {self.l1_coeff}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.eval_protocol not in PROTOCOLS:
            raise ConfigError(
                f"eval_protocol must be one of {PROTOCOLS}, got {self.eval_protocol!r}")
        if self.weight_decay < 0:
            raise ConfigError(
                f"weight_decay must be >= 0, got {self.weight_decay}")
        check_seed(self.seed)
        check_attention_arch(self.attention_mode, self.channels,
                             self.hidden_kernel, self.depth, self.last_kernel)
        check_classifier_arch(self.stages)
        if self.eval_protocol == "cv_epoch_selection":
            if self.cv_folds < 2:
                raise ConfigError(f"cv_folds must be >= 2, got {self.cv_folds}")
            if not 1 <= self.top_epochs <= self.total_epochs:
                raise ConfigError(
                    f"top_epochs must lie in [1, {self.total_epochs}], "
                    f"got {self.top_epochs}")


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
    snapshots: dict[int, np.ndarray]
    final_models: tuple[AttentionModel, ClassifierModel]

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


def _score(classifier: ClassifierModel, map_data: np.ndarray,
           batch: ImageBatch, batch_size: int) -> float:
    """Accuracy (%) on ``batch`` of its images weighted by ``map_data``."""
    preds: list[int] = []
    for start in range(0, batch.n, batch_size):
        chunk = batch.images[start:start + batch_size] * map_data
        logits = classifier_forward(classifier, Tensor(chunk))
        preds.extend(predict(logits))
    return accuracy(preds, batch.labels)


def _eval_accuracy(classifier: ClassifierModel, map_data: np.ndarray,
                   batch: ImageBatch, scorer: _Scorer) -> None:
    """Hand ``batch`` to ``scorer`` for this epoch; :func:`train` calls it
    once per split and epoch, so a tracer can wrap each hand-off."""
    scorer.queue(classifier, map_data, batch)


def _answer(classifier: ClassifierModel, splits: tuple[ImageBatch, ...],
            batch_size: int, message: bytes) -> list[float]:
    """The accuracies that one epoch's message asks for, in its order."""
    params, map_data, which = pickle.loads(message)
    model = copy.copy(classifier)
    model.params = [Tensor(a) for a in params]
    return [_score(model, map_data, splits[i], batch_size) for i in which]


def _serve(conn, parent_end, parent_cpu: int, classifier: ClassifierModel,
           splits: tuple[ImageBatch, ...], batch_size: int) -> None:
    """The scorer process: answer each message until the parent's end
    closes, which also happens when the parent dies."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    parent_end.close()
    # Linux wakes a socket's reader on the writer's CPU, where the two
    # would take turns, so the scorer waits for each message off the
    # parent's CPU.  It scores with every CPU allowed: the BLAS threads
    # it starts then inherit that, and more of them than allowed CPUs
    # spin against each other.
    allowed = (os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity")
               else set())
    waiting = allowed - {parent_cpu}
    try:
        while True:
            if waiting:
                os.sched_setaffinity(0, waiting)
            message = conn.recv_bytes()
            if waiting:
                os.sched_setaffinity(0, allowed)
            conn.send(_answer(classifier, splits, batch_size, message))
    except (EOFError, OSError):
        pass


def _current_cpu() -> int:
    """The CPU this thread runs on, or -1 where the C library cannot say."""
    try:
        sched_getcpu = ctypes.CDLL(None).sched_getcpu
    except (AttributeError, OSError, TypeError):
        return -1
    sched_getcpu.argtypes, sched_getcpu.restype = [], ctypes.c_int
    return sched_getcpu()


def _fork_context():
    """multiprocessing's fork context, or None where no scorer can start:
    without ``fork`` (Windows), or in a daemonic process, which may have no
    children (a ``multiprocessing.Pool`` worker)."""
    import multiprocessing
    if (multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()):
        return None
    return multiprocessing.get_context("fork")


class _Scorer:
    """Scores each epoch's splits in one forked process while the parent
    runs the next epoch, or in the parent where that process cannot start.

    The process inherits the splits and the classifier at the fork, so
    each epoch sends it only the classifier's parameters, the map and the
    indices of the splits to score, in one message, which the socket's
    buffer (about 200 KB on Linux) holds while the process is busy with
    the last one at the sizes here.  A message stays with the parent
    until it is answered, so if the process dies, the parent scores what
    it left unanswered, and the accuracies are the same bits either way.
    Used as a context manager: on leaving it no process is left.
    """

    def __init__(self, classifier: ClassifierModel,
                 splits: tuple[ImageBatch, ...], batch_size: int):
        self.classifier = classifier
        self.splits = splits
        self.batch_size = batch_size
        self.queued: list[int] = []      # this epoch's split indices
        self.map_data: np.ndarray | None = None
        self.answers: list[list[float] | None] = []
        self.owed: dict[int, bytes] = {}   # epoch index -> unanswered message
        self.conn = self.process = None

    def __enter__(self) -> _Scorer:
        try:
            self._start()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _start(self) -> None:
        ctx = _fork_context()
        if ctx is None:
            return
        self.conn, child_end = ctx.Pipe()
        process = ctx.Process(
            target=_serve, args=(child_end, self.conn, _current_cpu(),
                                 self.classifier, self.splits,
                                 self.batch_size))
        # A terminal's Ctrl-C reaches the whole process group.  The scorer
        # starts with SIGINT blocked and ignores it before unblocking, so
        # only the parent raises KeyboardInterrupt.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            with warnings.catch_warnings():
                # Python >= 3.12 warns at a fork with threads running.
                # OpenBLAS's, the ones a run has, shut down at the fork and
                # restart on use, so the scorer inherits no held lock.
                warnings.filterwarnings(
                    "ignore", r"This process .* is multi-threaded, use of "
                    r"fork\(\) may lead to deadlocks", DeprecationWarning)
                process.start()
            self.process = process
        except OSError:   # no fork to be had: score in this process
            self.close()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            child_end.close()

    def queue(self, classifier: ClassifierModel, map_data: np.ndarray,
              batch: ImageBatch) -> None:
        """Add ``batch``, to be scored by ``classifier`` at ``map_data``, to
        this epoch's message."""
        self.classifier, self.map_data = classifier, map_data
        self.queued.append(next(i for i, s in enumerate(self.splits)
                                if s is batch))

    def end_epoch(self) -> None:
        """Send this epoch's message, and take the answers already in."""
        epoch = len(self.answers)
        self.answers.append(None)
        self.owed[epoch] = pickle.dumps(
            ([p.data for p in self.classifier.params], self.map_data,
             self.queued), pickle.HIGHEST_PROTOCOL)
        self.queued = []
        if self.conn is None:
            self._score_owed()
            return
        try:
            self.conn.send_bytes(self.owed[epoch])
            while self.conn.poll():
                self._take_answer()
        except (EOFError, OSError):
            self._score_owed()

    def results(self) -> list[list[float]]:
        """Every epoch's accuracies, once the process has answered."""
        try:
            while self.owed:
                self._take_answer()
        except (EOFError, OSError):
            self._score_owed()
        return self.answers

    def _take_answer(self) -> None:
        epoch = next(iter(self.owed))
        self.answers[epoch] = self.conn.recv()
        del self.owed[epoch]

    def _score_owed(self) -> None:
        """Score the unanswered epochs here: no process started, or it is
        gone, and then the parent scores the rest of the run too."""
        self.close()
        for epoch, message in self.owed.items():
            self.answers[epoch] = _answer(self.classifier, self.splits,
                                          self.batch_size, message)
        self.owed.clear()

    def close(self) -> None:
        if self.conn is None:
            return
        self.conn.close()
        if self.process is not None:
            if self.owed:
                self.process.kill()
            self.process.join()
        self.conn = self.process = None


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


# glibc's mallopt parameters, from <malloc.h>, and the value each starts at
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_GLIBC_DEFAULT_THRESHOLD = 128 << 10


@contextmanager
def _heap_policy_for_run():
    """Let glibc keep a step's freed arrays for the next step's reuse, for
    the length of one run, and hand the freed heap back when it ends.

    A step allocates and frees some tens of MB of arrays.  Until glibc has
    seen a large buffer freed, its default maps each large array afresh and
    hands freed heap back to the OS, so every step faults all those pages
    in again: a third of wall in ``attention_mode = none``.  Inside the
    block the mmap and trim thresholds are 32 and 64 MB, the most glibc's
    own policy adapts to.  On exit, also by an exception, both go back to
    glibc's starting 128 KiB and ``malloc_trim(0)`` returns the free heap
    to the OS.  The trim hands back only what is already freed, so by then
    the block should hold no array of the run: :func:`train` runs its
    epochs in a helper whose frame is gone, on return and on divergence,
    before the block ends.  glibc has no getter for these values, so a
    caller's own ``mallopt`` settings are not restored, and glibc stops
    adapting the thresholds once they are set.  A C library without
    ``mallopt`` and ``malloc_trim`` keeps its default.
    """
    try:
        libc = ctypes.CDLL(None)
        mallopt, malloc_trim = libc.mallopt, libc.malloc_trim
    except (AttributeError, OSError, TypeError):
        yield
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    malloc_trim.argtypes = [ctypes.c_size_t]
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    try:
        yield
    finally:
        mallopt(_M_MMAP_THRESHOLD, _GLIBC_DEFAULT_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _GLIBC_DEFAULT_THRESHOLD)
        malloc_trim(0)


def train(train_set: ImageBatch, test_set: ImageBatch,
          cfg: TrainConfig) -> TrainReport:
    """Run the two-phase schedule and record one report row per epoch.

    Epochs 1..E step both parameter groups; afterwards the map parameters
    and their optimizer state stay untouched bit for bit, and the cached
    constant map keeps multiplying the inputs.  Raises
    :class:`DivergenceError` with the epoch index if the loss goes
    non-finite; numpy's overflow, invalid and divide warnings are silenced
    for the whole run, so a diverging run reports only that error.  On
    glibc the steps reuse each other's freed arrays, and the call returns,
    or raises, with glibc's starting heap thresholds and its free heap
    handed back to the OS, after the run has freed every array but the
    report's (see :func:`_heap_policy_for_run`).  Each epoch is scored in
    a process forked for the run while the next epoch's steps run, and no
    process outlives the call (see :class:`_Scorer`).
    """
    _check_compatible(train_set, test_set)
    with (_heap_policy_for_run(),
          np.errstate(over="ignore", invalid="ignore", divide="ignore")):
        outcome = _run_schedule(train_set, test_set, cfg)
    if isinstance(outcome, int):
        raise DivergenceError(outcome)
    return outcome


def _run_schedule(train_set: ImageBatch, test_set: ImageBatch,
                  cfg: TrainConfig) -> TrainReport | int:
    """The epochs of :func:`train`: its report, or the epoch whose loss went
    non-finite.

    The run's batches, tape, optimizer state and pixel representation live
    in this frame, so they are freed when it returns.  The epoch is returned,
    not raised, because a raised error's traceback would keep the frame and
    its arrays alive past the heap policy's hand-back.
    """
    attention, classifier, p = build_models(train_set, cfg)
    # fork before the run puts its arrays on the heap: heap pages shared
    # with the scorer would be copied when the steps reuse them
    with _Scorer(classifier, (train_set, test_set), cfg.batch_size) as scorer:
        opt_f = Adam(classifier.params, cfg.lr, weight_decay=cfg.weight_decay)
        opt_m = Adam(attention.params, cfg.lr) if attention.params else None
        shuffle_rng = rng_for(cfg.seed, SHUFFLE)

        def current_map() -> np.ndarray:
            return attention_forward(attention, p).data

        map_now = current_map()
        snapshots = {0: map_now.copy()}
        losses: list[float] = []
        penalties: list[float] = []
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
                with GradientTape() as tape:
                    cost = compute_cost(xb, yb, attention, classifier, p,
                                        cfg.l1_coeff, weight_map=frozen_map)
                    if not np.isfinite(cost.data).all():
                        return epoch
                    backward(cost, tape)
                opt_f.step()
                if joint:
                    opt_m.step()
                tape.clear()
                loss_sum += cost.item() * len(idx)
            if joint:
                map_now = current_map()
            for split in (train_set, test_set):
                _eval_accuracy(classifier, map_now, split, scorer)
            scorer.end_epoch()
            losses.append(loss_sum / train_set.n)
            penalties.append(float(
                attention_l1_penalty(attention, Tensor(map_now)).data))
            if epoch in (cfg.cutoff_epoch, cfg.total_epochs):
                snapshots[epoch] = map_now.copy()
        accuracies = scorer.results()
    rows = [EpochRow(epoch, loss, train_acc, test_acc, penalty)
            for epoch, (loss, (train_acc, test_acc), penalty)
            in enumerate(zip(losses, accuracies, penalties), start=1)]
    return TrainReport(rows, snapshots, (attention, classifier))


def rank_epochs(mean_accuracy, top: int) -> list[int]:
    """Top 1-indexed epochs by accuracy; ties favor the earlier epoch."""
    order = sorted(range(len(mean_accuracy)),
                   key=lambda e: (-mean_accuracy[e], e))
    return [e + 1 for e in order[:top]]


def select_epochs_cv(train_set: ImageBatch, cfg: TrainConfig) -> list[int]:
    """Rank epochs by mean validation accuracy over ``cfg.cv_folds`` folds.

    Returns the ``cfg.top_epochs`` best 1-indexed epochs; ties favor the
    earlier epoch.  ``cfg`` is checked as a cross-validated config, whatever
    its protocol; the fold size is checked against the data.
    """
    cfg = replace(cfg, eval_protocol="cv_epoch_selection")
    folds, top = cfg.cv_folds, cfg.top_epochs
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

    Both report one retrain: ``simple_holdout`` its final epoch (std 0),
    ``cv_epoch_selection`` the epochs that cross-validation picks.
    """
    epochs = ([cfg.total_epochs] if cfg.eval_protocol == "simple_holdout"
              else select_epochs_cv(train_set, cfg))
    mean, std = evaluate_at_epochs(train_set, test_set, cfg, epochs)
    return mean, std, epochs


def grid_configs(base_cfg: TrainConfig, k_values: list[int],
                 lambda_values: list[float], e_values: list[int]
                 ) -> list[TrainConfig]:
    """The checked (K, lambda, E) cells over ``base_cfg``, in grid order."""
    cells = itertools.product(k_values, lambda_values, e_values)
    return [replace(base_cfg, channels=k, l1_coeff=lam, cutoff_epoch=e)
            for k, lam, e in cells]


def _sweep_row(train_set: ImageBatch, test_set: ImageBatch, cfg: TrainConfig
               ) -> tuple[int, float, int, float, float]:
    # module-level, so a pool can send it even when run_protocol is traced
    mean, std, _ = run_protocol(train_set, test_set, cfg)
    return cfg.channels, cfg.l1_coeff, cfg.cutoff_epoch, mean, std


def check_sweep(jobs: int) -> None:
    """Raise :class:`ConfigError` unless ``jobs`` >= 1, the one sweep rule
    that no :class:`TrainConfig` holds."""
    if jobs < 1:
        raise ConfigError(f"sweep needs jobs >= 1, got {jobs}")


def sweep(train_set: ImageBatch, test_set: ImageBatch,
          cells: list[TrainConfig], jobs: int
          ) -> list[tuple[int, float, int, float, float]]:
    """Evaluate every cell of :func:`grid_configs`, once :func:`check_sweep`
    passes; rows follow ``cells``.  With ``jobs`` > 1 and more than one cell,
    the cells run in a process pool of ``min(jobs, cells)`` workers."""
    check_sweep(jobs)
    args = (itertools.repeat(train_set), itertools.repeat(test_set), cells)
    workers = min(jobs, len(cells))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_row, *args))
    return list(map(_sweep_row, *args))


def sweep_csv_text(rows: list[tuple[int, float, int, float, float]]) -> str:
    lines = ["K,lambda,E,mean_acc,std_acc"]
    for k, lam, e, mean, std in rows:
        lines.append(f"{k},{lam!r},{e},{mean!r},{std!r}")
    return "\n".join(lines) + "\n"


def load_train_config(path: str | Path) -> TrainConfig:
    """Build a config from the flat ``key = value`` file ``path``; absent
    keys keep their defaults.  The keys are those of
    ``TrainConfig.FIELDS``."""
    kv = load_kv_file(path, field_keys(TrainConfig.FIELDS))
    return TrainConfig(**parse_fields(TrainConfig.FIELDS, kv))


def config_kv(cfg: TrainConfig) -> dict[str, str]:
    """The fully resolved config as manifest-ready key-value pairs."""
    return format_fields(TrainConfig.FIELDS, cfg)
