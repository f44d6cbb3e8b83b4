"""End-to-end gradient check of the full training cost.

Builds a tiny synthetic instance and its models the way training does
(``build_models``), and compares every parameter gradient that the tape
produces for ``compute_cost`` against central finite differences.  This is
the user-facing oracle behind the ``gradcheck`` CLI command and the
architecture-variant checks.

Central differences are only a valid oracle where the cost is smooth, so
the evaluation point is conditioned first, on the forward pass that
training runs: every bias that feeds a ReLU is shifted, in forward order,
until none of its preactivations sits inside the perturbation window, and
instances whose max-pool windows hold a near-tie are redrawn
(deterministically) until the margins clear.  The backward rules under test
are never touched by this.
"""

from __future__ import annotations

import numpy as np

from .attention import AttentionModel, attention_forward
from .classifier import ClassifierModel, classifier_forward
from .datasets import ImageBatch
from .errors import ConfigError
from .gradcheck import GradCheckResult, finite_diff_grad, grad_discrepancy
from .seeding import mix_seed
from .synthetic import SyntheticSpec, generate_synthetic
from .tensor import GradientTape, Tensor, backward, broadcast_mul, conv2d
from .training import TrainConfig, build_models, compute_cost

__all__ = ["full_pipeline_gradcheck"]

MAX_SIZE = 16
MAX_IMAGES = 4
_REDRAW = 0x3B1B448D3C0633DD  # seeding.stream_tag("gradcheck-redraw")
# Draws per step size; the default 8x8, 2-image check clears at h = 1e-3
# after 215 failed draws, and a larger budget only delays the next step.
_MAX_REDRAWS = 250


def _clearing_shift(preacts: np.ndarray, margin: float) -> float | None:
    """Bias shift placing every preactivation at least ``margin`` from zero."""
    vals = np.sort(preacts.ravel())
    for step in range(200):
        for sign in ((1.0,) if step == 0 else (1.0, -1.0)):
            s = sign * step * 2.5 * margin
            lo = np.searchsorted(vals, -s - margin)
            hi = np.searchsorted(vals, -s + margin)
            if lo == hi:
                return s
    return None


def _pool_gaps_clear(preacts: np.ndarray, margin: float) -> bool:
    """True when every pool window whose top two ``preacts`` (the conv output
    that a stage pools before its ReLU) are positive separates them by margin.

    A window can flip under a single-coordinate perturbation only when its
    gap is below about 2h times the largest input tap, since the two
    competitors shift by at most h times their own taps.
    """
    b, c, w, hh = preacts.shape
    windows = (preacts.reshape(b, c, w // 2, 2, hh // 2, 2)
               .transpose(0, 1, 2, 4, 3, 5).reshape(b, c, -1, 4))
    top2 = np.sort(windows, axis=-1)[..., -2:]
    gap = top2[..., 1] - top2[..., 0]
    # the bias shift puts a non-positive runner-up margin below zero, and
    # the ReLU clamps a non-positive max, so those windows cannot flip
    contested = top2[..., 0] > 0.0
    return bool((gap[contested] >= margin).all()) if contested.any() else True


def _conv_io(attention: AttentionModel, classifier: ClassifierModel,
             p: Tensor, batch: ImageBatch
             ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Input and preactivation of every conv in an untaped forward pass of
    ``compute_cost``, keyed by the id of the conv's bias."""
    io = {}

    def conv(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
        out = conv2d(x, kernel, bias)
        io[id(bias)] = x.data, out.data
        return out

    weight_map = attention_forward(attention, p, conv=conv)
    classifier_forward(classifier, broadcast_mul(Tensor(batch.images),
                                                 weight_map), conv=conv)
    return io


def _condition_instance(attention: AttentionModel, classifier: ClassifierModel,
                        p: Tensor, batch: ImageBatch, h: float) -> bool:
    """Make the evaluation point locally smooth; False if pools stay tied.

    Visits every bias that feeds a ReLU in forward order, re-running the
    forward pass each time so that later layers see the shifted
    activations.  The conv whose bias it is gives the input and the
    preactivations that the shift must clear.
    """
    stage_biases = classifier.params[1:-2:2]
    for bias in attention.params[1:-2:2] + stage_biases:
        x, preacts = _conv_io(attention, classifier, p, batch)[id(bias)]
        margin = 2.5 * h * (1.0 + float(np.abs(x).max()))
        for ch in range(bias.size):
            shift = _clearing_shift(preacts[:, ch], margin)
            if shift is None:
                return False
            bias.data[ch] += shift
        if bias in stage_biases:
            _, preacts = _conv_io(attention, classifier, p, batch)[id(bias)]
            if not _pool_gaps_clear(preacts, margin):
                return False
    return True


def _draw_instance(batch: ImageBatch, seed: int, h: float, **arch
                   ) -> tuple[AttentionModel, ClassifierModel, Tensor, float]:
    """Models built as training builds them from ``arch`` (``TrainConfig``
    fields), conditioned at the first step that admits a smooth instance."""
    # Larger instances hold more pool windows, so near-ties get ever more
    # likely at a fixed step; shrinking h shrinks the flip window while fp64
    # central differences stay far more accurate than the tolerance.
    for h_try in (h, h * 0.1, h * 0.01):
        for attempt in range(_MAX_REDRAWS):
            cfg = TrainConfig(seed=mix_seed(seed, _REDRAW + attempt), **arch)
            attention, classifier, p = build_models(batch, cfg)
            if _condition_instance(attention, classifier, p, batch, h_try):
                return attention, classifier, p, h_try
    raise ConfigError(
        "could not draw a locally smooth check instance; adjust the seed")


def full_pipeline_gradcheck(width: int = 8, height: int = 8, images: int = 2,
                            seed: int = 0, channels: int = 4,
                            hidden_kernel: int = 3, depth: int = 2,
                            last_kernel: int = 1,
                            dense_connections: bool = False,
                            l1_coeff: float = 0.05, h: float = 1e-3,
                            tolerance: float = 1e-3,
                            corrupt: bool = False) -> GradCheckResult:
    """Check d(cost)/d(param) for every parameter of both networks.

    Finite differences re-run the whole composite per element, so the
    instance must stay tiny.  ``corrupt`` deliberately damages one analytic
    gradient, as a negative control proving the check can fail.
    """
    if width > MAX_SIZE or height > MAX_SIZE:
        raise ConfigError(
            f"gradcheck instances are capped at {MAX_SIZE}x{MAX_SIZE}, "
            f"got {width}x{height}")
    if images > MAX_IMAGES:
        raise ConfigError(
            f"gradcheck instances are capped at {MAX_IMAGES} images, got {images}")
    if width < 4 or height < 4 or images < 1:
        raise ConfigError("gradcheck needs at least 4x4 images and 1 image")

    region = (1, 1, max(2, width // 2), max(2, height // 2))
    spec = SyntheticSpec(n=images, c=1, w=width, h=height,
                         relevant_region=region, num_classes=3,
                         signal_strength=1.0, noise_std=1.0, seed=seed)
    batch, _ = generate_synthetic(spec)
    stages = (4, 8) if width % 4 == 0 and height % 4 == 0 else (4,)
    attention, classifier, p, h = _draw_instance(
        batch, seed, h, channels=channels, hidden_kernel=hidden_kernel,
        depth=depth, last_kernel=last_kernel,
        dense_connections=dense_connections, stages=stages)
    images_t = Tensor(batch.images)

    def cost_value(_=None) -> float:
        return compute_cost(images_t, batch.labels, attention, classifier,
                            p, l1_coeff).item()

    with GradientTape() as tape:
        cost = compute_cost(images_t, batch.labels, attention, classifier,
                            p, l1_coeff)
    backward(cost, tape)

    named = [(f"attention.p{i}", t) for i, t in enumerate(attention.params)]
    named += [(f"classifier.p{i}", t) for i, t in enumerate(classifier.params)]
    analytic = {name: t.grad.copy() for name, t in named}
    if corrupt:
        bad = analytic["attention.p0"]
        bad += 0.01 * (np.abs(bad) + 1.0)

    errors: dict[str, float] = {}
    for name, param in named:
        numeric = finite_diff_grad(cost_value, param, h)
        errors[name] = grad_discrepancy(analytic[name], numeric,
                                        rel_tol=tolerance)
    return GradCheckResult(errors, tolerance, h=h)
