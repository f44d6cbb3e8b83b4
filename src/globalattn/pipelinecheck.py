"""End-to-end gradient check of the full training cost.

Builds a tiny synthetic instance and its models the way training does
(``build_models``), and compares every parameter gradient that the tape
produces for ``compute_cost`` against central finite differences.  This is
the user-facing oracle behind the ``gradcheck`` CLI command and the
architecture-variant checks.

Central differences are only a valid oracle where the cost is smooth, so
the evaluation point is conditioned first, in one untaped forward pass of
the cost that training runs: every bias that feeds a ReLU is shifted, in
forward order, until none of its preactivations sits inside the
perturbation window, and instances whose max-pool windows hold a near-tie
are redrawn (deterministically) until the margins clear.  The backward
rules under test are never touched by this.
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
# the cost's lambda, the finite-difference step tried first, and the worst
# scaled discrepancy (see grad_discrepancy) that passes
L1_COEFF = 0.05
H = 1e-3
TOLERANCE = 1e-3
# the TrainConfig fields that full_pipeline_gradcheck takes from its caller
_ARCH_KEYS = ("hidden_kernel", "depth", "last_kernel", "dense_connections")
_REDRAW = 0x3B1B448D3C0633DD  # FNV-1a of "gradcheck-redraw", as in seeding
# Draws per step size; the CLI's default 8x8, 2-image check clears at h = 1e-3
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


def _condition_instance(attention: AttentionModel, classifier: ClassifierModel,
                        p: Tensor, batch: ImageBatch, h: float) -> bool:
    """Make the evaluation point locally smooth; False if pools stay tied.

    One untaped forward pass of ``compute_cost`` visits the convs in forward
    order.  Each conv whose bias feeds a ReLU has that bias shifted, channel
    by channel, until its preactivations clear a margin set by the conv's
    input, and is re-run with the shifted bias, so later layers see the
    shifted activations.  After the first failure nothing more is shifted.
    """
    stages = classifier.params[1:-2:2]
    relu_fed = attention.params[1:-2:2] + stages
    smooth = True

    def conv(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
        nonlocal smooth
        out = conv2d(x, kernel, bias)
        if not smooth or bias not in relu_fed:
            return out
        margin = 2.5 * h * (1.0 + float(np.abs(x.data).max()))
        for ch in range(bias.size):
            shift = _clearing_shift(out.data[:, ch], margin)
            if shift is None:
                smooth = False
                return out
            bias.data[ch] += shift
        out = conv2d(x, kernel, bias)
        if bias in stages:
            smooth = _pool_gaps_clear(out.data, margin)
        return out

    weight_map = attention_forward(attention, p, conv=conv)
    classifier_forward(classifier, broadcast_mul(Tensor(batch.images),
                                                 weight_map), conv=conv)
    return smooth


def _draw_instance(batch: ImageBatch, seed: int, **arch
                   ) -> tuple[AttentionModel, ClassifierModel, Tensor, float]:
    """Models built as training builds them from ``arch`` (``TrainConfig``
    fields), conditioned at the first step that admits a smooth instance."""
    # Larger instances hold more pool windows, so near-ties get ever more
    # likely at a fixed step; shrinking h shrinks the flip window while fp64
    # central differences stay far more accurate than the tolerance.
    for h_try in (H, H * 0.1, H * 0.01):
        for attempt in range(_MAX_REDRAWS):
            cfg = TrainConfig(seed=mix_seed(seed, _REDRAW + attempt), **arch)
            attention, classifier, p = build_models(batch, cfg)
            if _condition_instance(attention, classifier, p, batch, h_try):
                return attention, classifier, p, h_try
    raise ConfigError(
        "could not draw a locally smooth check instance; adjust the seed")


def full_pipeline_gradcheck(width: int, height: int, images: int, seed: int,
                            channels: int, **arch) -> GradCheckResult:
    """Check d(cost)/d(param) for every parameter of both networks.

    ``arch`` sets the pixel classifier's ``hidden_kernel``, ``depth``,
    ``last_kernel`` and ``dense_connections``; each one it leaves out keeps
    its ``TrainConfig`` default, and any other key raises ``TypeError``.
    Finite differences re-run the whole composite per element, so the
    instance must stay tiny.
    """
    for key in arch:
        if key not in _ARCH_KEYS:
            raise TypeError(f"unexpected architecture keyword {key!r}")
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
        batch, seed, channels=channels, stages=stages, **arch)
    images_t = Tensor(batch.images)

    def cost_value(_=None) -> float:
        return compute_cost(images_t, batch.labels, attention, classifier,
                            p, L1_COEFF).item()

    with GradientTape() as tape:
        cost = compute_cost(images_t, batch.labels, attention, classifier,
                            p, L1_COEFF)
    backward(cost, tape)

    named = [(f"attention.p{i}", t) for i, t in enumerate(attention.params)]
    named += [(f"classifier.p{i}", t) for i, t in enumerate(classifier.params)]
    errors: dict[str, float] = {}
    for name, param in named:
        numeric = finite_diff_grad(cost_value, param, h)
        errors[name] = grad_discrepancy(param.grad, numeric,
                                        rel_tol=TOLERANCE)
    return GradCheckResult(errors, TOLERANCE, h)
