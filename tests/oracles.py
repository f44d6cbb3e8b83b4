"""Independent reference implementations used as test oracles.

These stay deliberately naive (plain loops, no shared code with the
library) so they can arbitrate when the fast paths are wrong.
"""

import struct

import numpy as np


def conv2d_reference(x, kernel, bias, stride=1, padding=0):
    """Direct-sum convolution: out-of-range input reads as zero."""
    b, cin, w, h = x.shape
    cout, _, k, _ = kernel.shape
    wo = (w + 2 * padding - k) // stride + 1
    ho = (h + 2 * padding - k) // stride + 1
    out = np.zeros((b, cout, wo, ho))
    for bi in range(b):
        for o in range(cout):
            for xo in range(wo):
                for yo in range(ho):
                    acc = bias[o]
                    for c in range(cin):
                        for i in range(k):
                            for j in range(k):
                                xi = xo * stride + i - padding
                                yj = yo * stride + j - padding
                                if 0 <= xi < w and 0 <= yj < h:
                                    acc += x[bi, c, xi, yj] * kernel[o, c, i, j]
                    out[bi, o, xo, yo] = acc
    return out


def adam_reference_step(p, g, m, v, t, lr, b1, b2, eps, wd):
    """One hand-written Adam recurrence step on scalars."""
    g = g + wd * p
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    return p - lr * m_hat / (v_hat ** 0.5 + eps), m, v


def maxpool2x2_reference(x, g):
    """2x2 stride-2 max pool and its input gradient for upstream ``g``.

    Each window is scanned in row-major order; its first maximum gives the
    output and alone receives the gradient.
    """
    b, c, w, h = x.shape
    out = np.zeros((b, c, w // 2, h // 2))
    gx = np.zeros_like(x)
    for bi, ci, xo, yo in np.ndindex(out.shape):
        best = None
        for i in range(2):
            for j in range(2):
                at = (bi, ci, 2 * xo + i, 2 * yo + j)
                if best is None or x[at] > x[best]:
                    best = at
        out[bi, ci, xo, yo] = x[best]
        gx[best] = g[bi, ci, xo, yo]
    return out, gx


def fnv1a64_reference(data):
    """64-bit FNV-1a, one byte per step."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) % 2**64
    return h


def gten_bytes_reference(array):
    """A ``.gten`` file's bytes: ``GTEN``, a little-endian u32 rank and dims,
    then the values as little-endian float32 in row-major order."""
    array = np.asarray(array)
    head = struct.pack(f"<{array.ndim + 1}I", array.ndim, *array.shape)
    return b"GTEN" + head + array.astype("<f4").tobytes()
