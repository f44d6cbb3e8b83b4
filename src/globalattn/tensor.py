"""Dense tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a float64 numpy array plus a gradient slot that
holds its shape and optional gradient buffer, but not its data.
Differentiable operations append one record to the innermost active
:class:`GradientTape`; :func:`backward` replays the tape in reverse
execution order, accumulating gradients additively, so a tensor consumed
by k operations receives the sum of k contributions.

A record holds the slots of its output and inputs, and its backward rule
takes the input slots and closes over only the arrays it reads: a conv its
input and kernel, a relu its bool mask, a max-pool which entry of each
window won, a sigmoid its output.  So a taped step keeps no conv or pool
output alive that no later layer reads.  :func:`backward` drops each
record's rule once it has run, or has been skipped because its output got
no gradient, so the arrays that rule read are freed while the replay moves
on to earlier layers; it drops each produced tensor's gradient at the same
point.  A tape therefore replays once: a second :func:`backward` on it
raises :class:`ContractError`.

Only the layer types the two networks need are provided: a same-size
conv2d (stride 1, padding k // 2, so every convolution keeps W x H; its
layers come from :func:`conv_params`; its GEMM unrolls the thinner side
and reads the input unpadded, so the wide pixel representation is never
copied and is read in place once per product, by one GEMM over all kernel
taps; the thin side's k*k-times lowered copy is made about _LOWERED_BYTES
at a time, so it stays near the cache that its GEMM reads it from, and
lives only through its pass; both branches re-read the input in the
backward, so a conv input must not be written to between forward and
backward), relu, sigmoid, 2x2
max-pooling, reshape/flatten, fully-connected,
channel concatenation, softmax cross-entropy, the broadcast attention
multiply and mean-absolute-value; ``mul`` and the ``tensor_sum``
reduction serve the tests and demos that build scalar losses by hand.
Everything runs on the CPU in float64; shapes are fixed at call time.  A
bad operand (mismatched shapes, an out-of-range label) raises
:class:`ContractError`.

Spatial tensors are laid out ``(batch, channels, width, height)`` in
row-major order.
"""

from __future__ import annotations

import functools
import math
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
    "check_indexable",
    "maxpool2x2",
    "linear",
    "softmax_cross_entropy",
    "broadcast_mul",
]


class _Slot:
    """Where a tensor's gradient accumulates: the tensor's shape, whether it
    takes a gradient, and the gradient buffer, but not its data.

    Tape records hold slots, not tensors, and hand the input slots to the
    backward rule, so a taped step keeps alive only the arrays that some
    backward rule closes over to read.
    """

    __slots__ = ("shape", "requires_grad", "grad")

    def __init__(self, shape: tuple[int, ...], requires_grad: bool):
        self.shape = shape
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)


class Tensor:
    """A dense float64 array with an optional gradient buffer.

    ``data`` may be replaced only by an array of the same shape, since the
    gradient slot keeps the shape the tensor was made with.
    """

    __slots__ = ("data", "_slot")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._slot = _Slot(self.data.shape, bool(requires_grad))

    @property
    def requires_grad(self) -> bool:
        return self._slot.requires_grad

    @property
    def grad(self) -> np.ndarray | None:
        return self._slot.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._slot.grad = value

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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _accumulate(s: _Slot, g: np.ndarray, fresh: bool = False) -> None:
    """Add ``g`` to the gradient in slot ``s``.

    A first gradient is stored as zeros + g, so a -0.0 becomes +0.0.  A
    ``fresh`` g, one that its backward rule made itself and hands over,
    becomes the buffer in place; any other g may be a view or go to several
    slots, so it is copied.
    """
    if s.grad is None:
        s.grad = np.add(g, 0.0, out=g if fresh else np.empty(s.shape))
    else:
        s.grad += g


class _Record:
    """One executed operation: the gradient slots of its output and inputs,
    and its backward rule, which takes the output's gradient and the input
    slots.  :func:`backward` sets the rule to None once it has replayed
    the record."""

    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output: _Slot, inputs: tuple[_Slot, ...],
                 backward_fn: Callable[..., None] | None):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


# Innermost active tape last.  Forward/backward is single-threaded by
# contract, so a plain module-level stack suffices.
_TAPES: list["GradientTape"] = []


class GradientTape:
    """Ordered record of executed operations for one backward pass.

    Use as a context manager; operations executed inside the ``with`` block
    whose output requires a gradient are recorded.  :func:`backward`
    replays it once.  ``clear()`` empties the record, zeroes the gradient
    buffers of the tensors it only read (parameters and inputs), drops
    those of the tensors it produced, and makes the tape ready for a new
    recording and replay.
    """

    def __init__(self):
        self._records: list[_Record] = []
        self._replayed = False

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
            for s in rec.inputs:
                if id(s) not in produced:
                    s.zero_grad()
        self._records.clear()
        self._replayed = False


def backward(loss: Tensor, tape: GradientTape) -> None:
    """Accumulate d(loss)/d(tensor) into every tensor reachable on ``tape``.

    ``loss`` must be a single-element tensor produced through the tape.
    Gradients add onto the buffers of the tensors the tape only read;
    callers zero them between steps with ``tape.clear()``.  A tensor that
    the tape produced has its gradient dropped once its own record's
    backward has run, since every use of it was recorded after it.  Each
    record's rule is dropped at the same point, or when it is skipped
    because its output got no gradient, so the arrays it closed over (conv
    inputs and kernels, pool choices, ReLU masks) are freed before the
    earlier layers replay.  So a tape replays once: calling this again
    before ``tape.clear()`` raises :class:`ContractError` and changes no
    gradient.
    """
    if loss.data.size != 1:
        raise ContractError(
            f"backward() requires a scalar loss, got shape {loss.shape}")
    if tape._replayed:
        raise ContractError(
            "backward() has already replayed this tape; clear() it first")
    tape._replayed = True
    _accumulate(loss._slot, np.ones_like(loss.data), fresh=True)
    for rec in reversed(tape._records):
        rule, rec.backward_fn = rec.backward_fn, None
        out = rec.output
        if out.grad is not None:
            rule(out.grad, *rec.inputs)
            out.grad = None


def _apply(out_data: np.ndarray, inputs: tuple[Tensor, ...],
           backward_fn: Callable[..., None]) -> Tensor:
    # an op is recorded only when an input takes a gradient, so the rule of
    # a one-input op never tests its input's requires_grad
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    if out.requires_grad and _TAPES:
        _TAPES[-1]._record(_Record(out._slot, tuple(t._slot for t in inputs),
                                   backward_fn))
    return out


# ---------------------------------------------------------------------------
# elementwise and reduction ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.shape != b.shape:
        raise ContractError(f"add: shapes {a.shape} and {b.shape} differ")

    def bw(g, sa, sb):
        if sa.requires_grad:
            _accumulate(sa, g)
        if sb.requires_grad:
            _accumulate(sb, g)

    return _apply(a.data + b.data, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    c = float(c)

    def bw(g, sa):
        _accumulate(sa, g * c)

    return _apply(a.data * c, (a,), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    if a.shape != b.shape:
        raise ContractError(f"mul: shapes {a.shape} and {b.shape} differ")
    ad, bd = a.data, b.data

    def bw(g, sa, sb):
        if sa.requires_grad:
            _accumulate(sa, g * bd)
        if sb.requires_grad:
            _accumulate(sb, g * ad)

    return _apply(ad * bd, (a, b), bw)


def relu(x: Tensor) -> Tensor:
    """max(0, x); the subgradient at 0 is 0.  Its backward keeps the mask."""
    mask = x.data > 0

    def bw(g, sx):
        _accumulate(sx, g * mask, fresh=True)

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

    def bw(g, sx):
        _accumulate(sx, g * s * (1.0 - s))

    return _apply(s, (x,), bw)


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of all elements, as a rank-0 tensor."""

    def bw(g, sx):
        _accumulate(sx, np.full(sx.shape, float(g)))

    return _apply(np.asarray(x.data.sum()), (x,), bw)


def l1_mean(x: Tensor) -> Tensor:
    """Mean absolute value; backward is sign(x)/n with sign(0) = 0."""
    xd = x.data

    def bw(g, sx):
        _accumulate(sx, (float(g) / xd.size) * np.sign(xd))

    return _apply(np.asarray(np.abs(xd).mean()), (x,), bw)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    """View the same values under a new shape of equal element count."""
    shape = tuple(shape)

    def bw(g, sx):
        _accumulate(sx, g.reshape(sx.shape))

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

    def bw(g, *slots):
        for s, lo, hi in zip(slots, offsets[:-1], offsets[1:]):
            if s.requires_grad:
                _accumulate(s, g[:, lo:hi])

    return _apply(np.concatenate([p.data for p in parts], axis=1), parts, bw)


# ---------------------------------------------------------------------------
# convolution / pooling / linear
# ---------------------------------------------------------------------------

def check_indexable(shape: tuple[int, ...]) -> None:
    """Raise MemoryError if a float64 array of ``shape`` has more bytes than
    numpy can index, counted in Python ints, where numpy would raise a
    ValueError (and ``np.sqrt`` of a fan-in past 64 bits a TypeError)."""
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"a float64 array of shape {shape} is too large "
                          "to index")


def conv_params(rng: np.random.Generator, cout: int, cin: int,
                k: int) -> list[Tensor]:
    """Trainable ``[kernel, bias]`` of one conv layer: the kernel is drawn
    uniform in +-1/sqrt(cin*k*k), the bias starts at zero."""
    check_indexable((cout, cin, k, k))
    bound = 1.0 / np.sqrt(cin * k * k)
    return [Tensor(rng.uniform(-bound, bound, size=(cout, cin, k, k)),
                   requires_grad=True),
            Tensor(np.zeros(cout), requires_grad=True)]


@functools.cache
def _tap_runs(k: int, w: int, h: int) -> tuple[tuple[slice, ...], ...]:
    """Each kernel tap's (output run, input run, wrapped output columns,
    wrapped input columns) on the flattened W*H plane, in tap order.

    Tap (i, j) of a same-size conv reads the flat input shifted by
    s = (i - p) * H + (j - p); its runs are [lo, hi) and [lo + s, hi + s),
    clipped to the plane and empty when the shift reaches past it, so no
    padded copy of the input is needed.  A horizontal shift dy = j - p != 0
    wraps |dy| output columns round to a neighbouring row; those outputs,
    and the input columns they read, are the caller's to zero.  Tap
    k*k - 1 - t shifts by -s, so its output run is tap t's input run.
    Memoised per plane, so it returns a tuple.
    """
    p, n = k // 2, w * h

    def run(s: int) -> slice:  # the q with 0 <= q + s < n; lo == hi if none
        return slice(min(max(0, -s), n), max(min(n, n - s), 0))

    def wrapped(dy: int) -> slice:  # the columns c with c + dy outside [0, H)
        return slice(max(h - dy, 0), h) if dy > 0 else slice(0, min(-dy, h))

    shifts = [(dx * h + dy, dy)
              for dx in range(-p, p + 1) for dy in range(-p, p + 1)]
    return tuple((run(s), run(-s), wrapped(dy), wrapped(-dy))
                 for s, dy in shifts)


def _lower(x: np.ndarray, runs: Sequence[tuple[slice, ...]], h: int,
           out: np.ndarray) -> None:
    """Fill ``out`` (B, C, k*k, W*H), which may be uninitialised, with the
    im2col lowering of the flat planes ``x`` (B, C, W*H): each tap's input
    run copied to its output run, zeros elsewhere."""
    for t, (dst, src, wrap, _) in enumerate(runs):
        block = out[:, :, t]
        block[..., :dst.start] = 0.0
        block[..., dst] = x[..., src]
        block[..., dst.stop:] = 0.0
        block.reshape(*block.shape[:-1], -1, h)[..., wrap] = 0.0


# Bytes of the k*k-fold im2col copy, or of its gradient, made at a time.
# A whole-batch copy runs to tens of MB, so its lowering writes far past the
# cache that the GEMM then reads it back from; a chunk the size of a core's
# L2 stays close to it (2 MiB was faster end to end than 4 or 8 MiB).
_LOWERED_BYTES = 2 << 20


def _conv_im2col(x: Tensor, kernel: Tensor, bias: Tensor):
    """One GEMM per image over a k*k-times copy of the input; returns (out,
    backward).

    The copy is made in near-equal chunks of images, each at most one
    image's lowering past _LOWERED_BYTES, in one buffer per pass that the
    chunks reuse and that is freed before the next pass makes its own.  The
    backward lowers ``x.data`` again for the kernel's gradient and makes
    the copy's gradient in chunks too.  Each image's products are summed in
    image order, as for one chunk, so the chunking changes no bit.
    """
    b, cin, w, h = x.shape
    cout, _, k, _ = kernel.shape
    runs = _tap_runs(k, w, h)
    xf = x.data.reshape(b, cin, w * h)
    km = kernel.data.reshape(cout, cin * k * k)
    parts = -(-xf.nbytes * k * k // _LOWERED_BYTES)  # near-equal chunks
    step = -(-b // parts)
    chunks = [slice(i, i + step) for i in range(0, b, step)]

    def lowered():
        col = np.empty((step, cin, k * k, w * h))
        for c in chunks:
            part = col[:len(xf[c])]
            _lower(xf[c], runs, h, part)
            yield c, part.reshape(-1, cin * k * k, w * h)

    out = np.empty((b, cout, w * h))
    for c, part in lowered():
        np.matmul(km, part, out=out[c])
    out = out.reshape(b, cout, w, h)
    out += bias.data.reshape(1, cout, 1, 1)

    def bw(g, sx, sk, sb):
        gm = g.reshape(b, cout, w * h)
        if sb.requires_grad:
            _accumulate(sb, g.sum(axis=(0, 2, 3)))
        if sk.requires_grad:
            # rows 1.. take a chunk's per-image products and row 0 the sum
            # so far, so one sum over rows adds them in image order
            rows = np.empty((step + 1, cout, cin * k * k))
            first = 1
            for c, part in lowered():
                last = len(gm[c]) + 1
                np.matmul(gm[c], part.transpose(0, 2, 1), out=rows[1:last])
                rows[0] = rows[first:last].sum(axis=0)
                first = 0
            del part  # the rebuilt col is freed before dcol is made
            _accumulate(sk, rows[0].reshape(sk.shape))
        if sx.requires_grad:
            gx = np.zeros((b, cin, w * h))
            dcol = np.empty((step, cin * k * k, w * h))
            for c in chunks:
                d = np.matmul(km.T, gm[c], out=dcol[:len(gm[c])])
                d = d.reshape(-1, cin, k * k, w * h)
                for t, (dst, src, wrap, _) in enumerate(runs):
                    block = d[:, :, t]
                    block.reshape(-1, cin, w, h)[..., wrap] = 0.0
                    gx[c, :, src] += block[..., dst]
            del dcol, d
            _accumulate(sx, gx.reshape(sx.shape), fresh=True)

    return out, bw


def _conv_taps(x: Tensor, kernel: Tensor, bias: Tensor):
    """One GEMM over all k*k kernel taps stacked, reading the input in place
    once; returns (out, backward).

    The taps' kernels stack tap-major into one (k*k*Cout, Cin) matrix, so
    the GEMM gives every tap's product over the whole W x H plane, and the
    output adds each tap's input run, wrapped columns zeroed, onto its
    output run.
    """
    b, cin, w, h = x.shape
    cout, _, k, _ = kernel.shape
    runs = _tap_runs(k, w, h)
    xf = x.data.reshape(b, cin, w * h)
    kd = kernel.data
    ks = kd.transpose(2, 3, 0, 1).reshape(k * k * cout, cin)
    y = np.matmul(ks, xf).reshape(b, k * k, cout, w * h)
    out = np.zeros((b, cout, w * h))
    for t, (dst, src, _, wrap) in enumerate(runs):
        y[:, t].reshape(b, cout, w, h)[..., wrap] = 0.0
        out[..., dst] += y[:, t, :, src]
    out = out.reshape(b, cout, w, h)
    out += bias.data.reshape(1, cout, 1, 1)

    def bw(g, sx, sk, sb):
        if sb.requires_grad:
            _accumulate(sb, g.sum(axis=(0, 2, 3)))
        # each tap's rows hold g at the input pixels that tap read: the
        # lowering of g under the mirrored taps, which shift by -s
        gs = np.empty((b, k * k, cout, w * h))
        _lower(g.reshape(b, cout, w * h), runs[::-1], h,
               gs.transpose(0, 2, 1, 3))
        gs = gs.reshape(b, k * k * cout, w * h)
        if sx.requires_grad:  # ks made anew, so no tape record keeps it
            ks = kd.transpose(2, 3, 0, 1).reshape(k * k * cout, cin)
            _accumulate(sx, np.matmul(ks.T, gs).reshape(sx.shape), fresh=True)
        if sk.requires_grad:
            gk = gs[0] @ xf[0].T
            for i in range(1, b):
                gk += gs[i] @ xf[i].T
            del gs  # freed before the kernel's gradient buffer is made
            _accumulate(sk, gk.reshape(k, k, cout, cin).transpose(2, 3, 0, 1))

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
    stack into one GEMM that reads the input in place.  Either way each
    tap's shift is one contiguous run of the flattened W*H plane, clipped
    at its ends, not padded.  The im2col copy is made a chunk of images at
    a time, about _LOWERED_BYTES, because a whole-batch copy of tens of MB
    would be written far past the cache and read back from memory by the
    GEMM; each image's products sum in the same order, so chunking changes
    no bit.  The copy lives only through its pass: the backward lowers
    ``x.data`` again for the kernel's gradient, and the stacked taps read
    it again too, so ``x.data`` must not be written to between this call
    and the backward.
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
    out, bw = unroll(x, kernel, bias)
    return _apply(out, (x, kernel, bias), bw)


def _pool_choice(top: np.ndarray, bot: np.ndarray, left: np.ndarray,
                 right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each window's first max lies: per window, whether the top row
    wins (max(b, a) >= max(d, c)), and per row pair, whether the left entry
    wins (a >= b on top rows, c >= d on bottom rows)."""
    return top >= bot, left >= right


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2 over windows [[a, b], [c, d]].

    One np.maximum over the column pairs of the whole plane puts max(b, a)
    in each window's top row and max(d, c) in its bottom row; one over the
    row pairs then gives max(max(d, c), max(b, a)).  The gradient goes to
    the first max in the order a, b, c, d (first row on a tie, then left
    entry).  Only a taped call keeps that choice (:func:`_pool_choice`),
    3/32 of the input's bytes, and no view of the input.
    """
    w, h = x.shape[2:]
    if w % 2 or h % 2:
        raise ContractError(f"maxpool2x2: spatial size {w}x{h} not even")
    left, right = x.data[..., 0::2], x.data[..., 1::2]
    # np.maximum keeps its second operand on a +-0 tie: the first max wins
    rows = np.maximum(right, left)
    top, bot = rows[:, :, 0::2], rows[:, :, 1::2]
    out = np.maximum(bot, top)
    taped = x.requires_grad and _TAPES  # as _apply records it
    choice = _pool_choice(top, bot, left, right) if taped else None

    def bw(g, sx):
        up, left_wins = choice
        left_top, left_bot = left_wins[:, :, 0::2], left_wins[:, :, 1::2]
        firsts = up & left_top, up > left_top, left_bot > up, ~(up | left_bot)
        gx = np.empty(sx.shape)  # the four masks partition the windows
        gw = gx.reshape(*sx.shape[:2], w // 2, 2, h // 2, 2)
        for k, first in enumerate(firsts):
            np.multiply(g, first, out=gw[:, :, :, k // 2, :, k % 2])
        _accumulate(sx, gx, fresh=True)

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

    xd, wd = x.data, weight.data

    def bw(g, sx, sw, sb):
        if sb.requires_grad:
            _accumulate(sb, g.sum(axis=0))
        if sw.requires_grad:
            _accumulate(sw, xd.T @ g)
        if sx.requires_grad:
            _accumulate(sx, g @ wd.T)

    return _apply(xd @ wd + bias.data, (x, weight, bias), bw)


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

    def bw(g, sl):
        delta = softmax.copy()
        delta[np.arange(b), y] -= 1.0
        _accumulate(sl, (float(g) / b) * delta)

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

    imd, md = images.data, weight_map.data

    def bw(g, si, sm):
        if si.requires_grad:
            _accumulate(si, g * md, fresh=True)
        if sm.requires_grad:
            _accumulate(sm, (g * imd).sum(axis=(0, 1), keepdims=True))

    return _apply(imd * md, (images, weight_map), bw)
