"""Dense tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a float64 numpy array plus an optional gradient
buffer of the same shape.  Differentiable operations append one record to
the innermost active :class:`GradientTape`; :func:`backward` replays the
tape in reverse execution order, accumulating gradients additively, so a
tensor consumed by k operations receives the sum of k contributions.

Only the layer types the two networks need are provided: a same-size
conv2d (stride 1, padding k // 2, so every convolution keeps W x H; its
layers come from :func:`conv_params`; its GEMM unrolls the thinner side,
so the wide pixel representation is never copied k*k times and is read
once per product, by one GEMM over all kernel taps), relu,
sigmoid, 2x2 max-pooling, reshape/flatten, fully-connected, channel
concatenation, softmax cross-entropy, the broadcast attention multiply
and mean-absolute-value; ``mul`` and the ``tensor_sum`` reduction serve
the tests and demos that build scalar losses by hand.  Everything runs on
the CPU in float64; shapes are fixed at call time.  A bad operand
(mismatched shapes, an out-of-range label) raises :class:`ContractError`.

Spatial tensors are laid out ``(batch, channels, width, height)`` in
row-major order.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ContractError

__all__ = [
    "Tensor",
    "GradientTape",
    "backward",
    "add",
    "scale",
    "mul",
    "relu",
    "sigmoid",
    "tensor_sum",
    "l1_mean",
    "reshape",
    "flatten",
    "concat_channels",
    "conv2d",
    "conv_params",
    "maxpool2x2",
    "linear",
    "softmax_cross_entropy",
    "broadcast_mul",
]


class Tensor:
    """A dense float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError("item() requires a single-element tensor")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        # one pass, same bytes as zeros + g (a -0.0 becomes +0.0)
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t.grad += g


class _Record:
    """One executed operation: output, inputs, and its backward rule."""

    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output: Tensor, inputs: tuple[Tensor, ...],
                 backward_fn: Callable[[np.ndarray], None]):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


# Innermost active tape last.  Forward/backward is single-threaded by
# contract, so a plain module-level stack suffices.
_TAPES: list["GradientTape"] = []


class GradientTape:
    """Ordered record of executed operations for one backward pass.

    Use as a context manager; operations executed inside the ``with`` block
    whose output requires a gradient are recorded.  ``clear()`` empties the
    record, zeroes the gradient buffers of the tensors it only read
    (parameters and inputs) and drops those of the tensors it produced.
    """

    def __init__(self):
        self._records: list[_Record] = []

    def __enter__(self) -> "GradientTape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPES.pop()

    def __len__(self) -> int:
        return len(self._records)

    def _record(self, rec: _Record) -> None:
        self._records.append(rec)

    def clear(self) -> None:
        # each step makes its record outputs anew, so their buffers are
        # dropped, not zeroed: a first gradient is stored as zeros + g
        produced = {id(rec.output) for rec in self._records}
        for rec in self._records:
            rec.output.grad = None
            for t in rec.inputs:
                if id(t) not in produced:
                    t.zero_grad()
        self._records.clear()


def backward(loss: Tensor, tape: GradientTape) -> None:
    """Accumulate d(loss)/d(tensor) into every tensor reachable on ``tape``.

    ``loss`` must be a single-element tensor produced through the tape.
    Gradients add onto existing buffers; callers zero them between steps
    with ``tape.clear()``.
    """
    if loss.data.size != 1:
        raise ContractError(
            f"backward() requires a scalar loss, got shape {loss.shape}")
    _accumulate(loss, np.ones_like(loss.data))
    for rec in reversed(tape._records):
        g = rec.output.grad
        if g is None:
            continue
        rec.backward_fn(g)


def _apply(out_data: np.ndarray, inputs: tuple[Tensor, ...],
           backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    if out.requires_grad and _TAPES:
        _TAPES[-1]._record(_Record(out, inputs, backward_fn))
    return out


# ---------------------------------------------------------------------------
# elementwise and reduction ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.shape != b.shape:
        raise ContractError(f"add: shapes {a.shape} and {b.shape} differ")

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g)

    return _apply(a.data + b.data, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    c = float(c)

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g * c)

    return _apply(a.data * c, (a,), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    if a.shape != b.shape:
        raise ContractError(f"mul: shapes {a.shape} and {b.shape} differ")

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return _apply(a.data * b.data, (a, b), bw)


def relu(x: Tensor) -> Tensor:
    """max(0, x); the subgradient at 0 is 0."""
    mask = x.data > 0

    def bw(g):
        if x.requires_grad:
            _accumulate(x, g * mask)

    return _apply(np.where(mask, x.data, 0.0), (x,), bw)


def _sigmoid_stable(x: np.ndarray) -> np.ndarray:
    # Split by sign so neither branch exponentiates a large positive value.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function 1/(1+e^-x), overflow-safe for large |x|."""
    s = _sigmoid_stable(x.data)

    def bw(g):
        if x.requires_grad:
            _accumulate(x, g * s * (1.0 - s))

    return _apply(s, (x,), bw)


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of all elements, as a rank-0 tensor."""

    def bw(g):
        if x.requires_grad:
            _accumulate(x, np.full_like(x.data, float(g)))

    return _apply(np.asarray(x.data.sum()), (x,), bw)


def l1_mean(x: Tensor) -> Tensor:
    """Mean absolute value; backward is sign(x)/n with sign(0) = 0."""
    n = x.data.size

    def bw(g):
        if x.requires_grad:
            _accumulate(x, (float(g) / n) * np.sign(x.data))

    return _apply(np.asarray(np.abs(x.data).mean()), (x,), bw)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    """View the same values under a new shape of equal element count."""
    shape = tuple(shape)

    def bw(g):
        if x.requires_grad:
            _accumulate(x, g.reshape(x.data.shape))

    return _apply(x.data.reshape(shape), (x,), bw)


def flatten(x: Tensor) -> Tensor:
    """Collapse all but the leading (batch) dimension."""
    return reshape(x, (x.shape[0], -1))


def concat_channels(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate (B, C_i, W, H) tensors along the channel axis."""
    parts = tuple(parts)
    if not parts:
        raise ContractError("concat_channels: empty input list")
    base = parts[0].shape
    for p in parts[1:]:
        if p.shape[0] != base[0] or p.shape[2:] != base[2:]:
            raise ContractError("concat_channels: non-channel dims differ")
    sizes = [p.shape[1] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accumulate(p, g[:, lo:hi])

    return _apply(np.concatenate([p.data for p in parts], axis=1), parts, bw)


# ---------------------------------------------------------------------------
# convolution / pooling / linear
# ---------------------------------------------------------------------------

def conv_params(rng: np.random.Generator, cout: int, cin: int,
                k: int) -> list[Tensor]:
    """Trainable ``[kernel, bias]`` of one conv layer: the kernel is drawn
    uniform in +-1/sqrt(cin*k*k), the bias starts at zero."""
    bound = 1.0 / np.sqrt(cin * k * k)
    return [Tensor(rng.uniform(-bound, bound, size=(cout, cin, k, k)),
                   requires_grad=True),
            Tensor(np.zeros(cout), requires_grad=True)]


def _zero_pad(x: np.ndarray, p: int, extra_rows: int = 0) -> np.ndarray:
    """x inside a zero border of p on both spatial axes, plus ``extra_rows``
    more zero rows at the end of W."""
    b, c, w, h = x.shape
    xp = np.zeros((b, c, w + 2 * p + extra_rows, h + 2 * p))
    xp[:, :, p:p + w, p:p + h] = x
    return xp


def _im2col(xp: np.ndarray, k: int, wo: int, ho: int) -> np.ndarray:
    b, c = xp.shape[:2]
    col = np.empty((b, c, k, k, wo, ho), dtype=xp.dtype)
    for i in range(k):
        for j in range(k):
            col[:, :, i, j] = xp[:, :, i:i + wo, j:j + ho]
    return col


def _conv_im2col(x: Tensor, kernel: Tensor, bias: Tensor, p: int):
    """One GEMM over a k*k-times copy of the input; returns (out, backward)."""
    b, cin, w, h = x.shape
    cout, _, k, _ = kernel.shape
    # a 1x1 kernel reads x in place rather than through a padded copy
    xp = _zero_pad(x.data, p) if p else x.data
    col = _im2col(xp, k, w, h)
    colm = col.reshape(b, cin * k * k, w * h)
    km = kernel.data.reshape(cout, cin * k * k)
    out = np.matmul(km, colm).reshape(b, cout, w, h)
    out += bias.data.reshape(1, cout, 1, 1)

    def bw(g):
        gm = g.reshape(b, cout, w * h)
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=(0, 2, 3)))
        if kernel.requires_grad:
            gk = np.matmul(gm, colm.transpose(0, 2, 1)).sum(axis=0)
            _accumulate(kernel, gk.reshape(kernel.data.shape))
        if x.requires_grad:
            dcol = np.matmul(km.T, gm).reshape(b, cin, k, k, w, h)
            gxp = np.zeros_like(xp)
            for i in range(k):
                for j in range(k):
                    gxp[:, :, i:i + w, j:j + h] += dcol[:, :, i, j]
            _accumulate(x, gxp[:, :, p:p + w, p:p + h])

    return out, bw


def _conv_taps(x: Tensor, kernel: Tensor, bias: Tensor, p: int):
    """One GEMM over all k*k kernel taps stacked, reading one padded copy of
    the input once; returns (out, backward).

    Each padded plane is flattened with rows of length hp = H + 2p.  Tap
    (i, j) is then the contiguous slice at offset i * hp + j, read as if
    the output were W x hp; the hp - H columns past H wrap into the next
    row and are cropped.  One extra zero row keeps the last tap's slice
    inside the plane.  The taps' kernels stack tap-major into one
    (k*k*Cout, Cin) matrix, so the GEMM gives every tap's product over the
    whole plane, and the output adds each tap's rows at its offset.
    """
    b, cin, w, h = x.shape
    cout, _, k, _ = kernel.shape
    hp = h + 2 * p
    n = w * hp
    xp = _zero_pad(x.data, p, extra_rows=1) if p else x.data
    xf = xp.reshape(b, cin, -1)
    ks = kernel.data.transpose(2, 3, 0, 1).reshape(k * k * cout, cin)
    offsets = [i * hp + j for i in range(k) for j in range(k)]
    y = np.matmul(ks, xf).reshape(b, k * k, cout, -1)
    acc = np.zeros((b, cout, n))
    for t, off in enumerate(offsets):
        acc += y[:, t, :, off:off + n]
    out = (acc.reshape(b, cout, w, hp)[..., :h]
           + bias.data.reshape(1, cout, 1, 1))

    def bw(g):
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=(0, 2, 3)))
        # each tap's rows hold g at that tap's offset; the cropped columns
        # stay zero, so they add nothing below
        gs = np.zeros((b, k * k, cout, xf.shape[2]))
        for t, off in enumerate(offsets):
            gs[:, t, :, off:off + n].reshape(b, cout, w, hp)[..., :h] = g
        gs = gs.reshape(b, k * k * cout, -1)
        if kernel.requires_grad:
            gk = np.matmul(gs, xf.transpose(0, 2, 1)).sum(axis=0)
            _accumulate(kernel,
                        gk.reshape(k, k, cout, cin).transpose(2, 3, 0, 1))
        if x.requires_grad:
            gxf = np.matmul(ks.T, gs)
            _accumulate(x, gxf.reshape(xp.shape)[:, :, p:p + w, p:p + h])

    return out, bw


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Same-size 2-D cross-correlation: stride 1, zero padding p = k // 2.

    ``x`` is (B, Cin, W, H), ``kernel`` is (Cout, Cin, k, k) with k odd,
    ``bias`` is (Cout,); the output is (B, Cout, W, H).  out[b,o,x,y] =
    bias[o] + sum_{c,i,j} x[b,c,x+i-p, y+j-p] * kernel[o,c,i,j], reading
    out-of-range input as zero.

    The GEMM unrolls whichever side is thinner: with fewer input than
    output channels, im2col copies the input k*k times into one GEMM;
    otherwise, as for the wide pixel representation, the kernel's k*k taps
    stack into one GEMM over one padded copy of the input, and the output
    adds each tap's product at that tap's offset.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ContractError("conv2d: input and kernel must be rank 4")
    cin = x.shape[1]
    cout, kc, k, k2 = kernel.shape
    if k != k2:
        raise ConfigError(f"conv2d: kernel must be square, got {k}x{k2}")
    if k % 2 == 0:
        raise ConfigError(f"conv2d: kernel size must be odd, got {k}")
    if kc != cin:
        raise ContractError(
            f"conv2d: input has {cin} channels but kernel expects {kc}")
    if bias.shape != (cout,):
        raise ContractError(f"conv2d: bias shape {bias.shape} != ({cout},)")

    # At Cin < Cout each tap would be a thin, memory-bound GEMM (a rank-1
    # update at Cin = 1), so one im2col GEMM is faster; at Cin >= Cout the
    # k*k-times input copy dominates time and memory, so the taps stack on
    # the kernel side instead.
    unroll = _conv_im2col if cin < cout else _conv_taps
    out, bw = unroll(x, kernel, bias, k // 2)
    return _apply(out, (x, kernel, bias), bw)


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2: max(max(a, b), max(c, d)) over strided
    views of each window's rows a, b and c, d; the gradient goes to the first
    max in the order a, b, c, d (first row on a tie, then left entry)."""
    w, h = x.shape[2:]
    if w % 2 or h % 2:
        raise ContractError(f"maxpool2x2: spatial size {w}x{h} not even")
    windows = x.data.reshape(*x.shape[:2], w // 2, 2, h // 2, 2)
    a, b, c, d = (windows[:, :, :, i, :, j] for i in (0, 1) for j in (0, 1))
    # np.maximum keeps its second operand on a +-0 tie: the first max wins
    top, bot = np.maximum(b, a), np.maximum(d, c)
    out = np.maximum(bot, top)

    def bw(g):
        if not x.requires_grad:
            return
        up, left_top, left_bot = top >= bot, a >= b, c >= d
        firsts = up & left_top, up > left_top, left_bot > up, ~(up | left_bot)
        gx = np.empty_like(x.data)  # the four masks partition the windows
        gw = gx.reshape(windows.shape)
        for k, first in enumerate(firsts):
            np.multiply(g, first, out=gw[:, :, :, k // 2, :, k % 2])
        _accumulate(x, gx)

    return _apply(out, (x,), bw)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fully-connected layer: (B, D) @ (D, L) + (L,)."""
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ContractError("linear: input and weight must be rank 2")
    if x.shape[1] != weight.shape[0]:
        raise ContractError(
            f"linear: {x.shape[1]} input features but weight expects {weight.shape[0]}")
    if bias.shape != (weight.shape[1],):
        raise ContractError(f"linear: bias shape {bias.shape} mismatched")

    def bw(g):
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=0))
        if weight.requires_grad:
            _accumulate(weight, x.data.T @ g)
        if x.requires_grad:
            _accumulate(x, g @ weight.data.T)

    return _apply(x.data @ weight.data + bias.data, (x, weight, bias), bw)


def softmax_cross_entropy(logits: Tensor, labels: Sequence[int]) -> Tensor:
    """Mean negative log-softmax of the true class over the batch.

    Computed in the max-shifted form, so logits of any magnitude stay finite.
    """
    if logits.data.ndim != 2:
        raise ContractError("softmax_cross_entropy: logits must be (B, L)")
    b, l = logits.shape
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (b,):
        raise ContractError(
            f"softmax_cross_entropy: {b} rows but {y.size} labels")
    if y.size and (y.min() < 0 or y.max() >= l):
        raise ContractError(
            f"softmax_cross_entropy: label out of range [0, {l})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    denom = exps.sum(axis=1, keepdims=True)
    logp = shifted - np.log(denom)
    loss = -logp[np.arange(b), y].mean()
    softmax = exps / denom

    def bw(g):
        if logits.requires_grad:
            delta = softmax.copy()
            delta[np.arange(b), y] -= 1.0
            _accumulate(logits, (float(g) / b) * delta)

    return _apply(np.asarray(loss), (logits,), bw)


def broadcast_mul(images: Tensor, weight_map: Tensor) -> Tensor:
    """Multiply every image and channel by one shared (1, 1, W, H) map.

    The map gradient sums the upstream gradient over batch and channel, one
    contribution per broadcast copy.
    """
    if images.data.ndim != 4 or weight_map.data.ndim != 4:
        raise ContractError("broadcast_mul: operands must be rank 4")
    if weight_map.shape[0] != 1 or weight_map.shape[1] != 1:
        raise ContractError(
            f"broadcast_mul: map must be (1, 1, W, H), got {weight_map.shape}")
    if images.shape[2:] != weight_map.shape[2:]:
        raise ContractError(
            f"broadcast_mul: spatial dims {images.shape[2:]} != {weight_map.shape[2:]}")

    def bw(g):
        if images.requires_grad:
            _accumulate(images, g * weight_map.data)
        if weight_map.requires_grad:
            _accumulate(weight_map,
                        (g * images.data).sum(axis=(0, 1), keepdims=True))

    return _apply(images.data * weight_map.data, (images, weight_map), bw)
