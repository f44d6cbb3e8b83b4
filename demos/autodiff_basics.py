"""A walk through the tensor engine: forward ops, the tape, and gradients.

Run: python3 demos/autodiff_basics.py
"""

import numpy as np

from globalattn import (GradientTape, Tensor, backward, conv2d,
                        finite_diff_grad, relu, sigmoid,
                        softmax_cross_entropy)
from globalattn.tensor import tensor_sum

# Tensors wrap float64 numpy arrays.  Only tensors created with
# requires_grad=True receive gradients.
x = Tensor(np.linspace(-2, 2, 5), requires_grad=True)
print("x       =", x.data)
print("relu(x) =", relu(x).data)
print("sigm(x) =", sigmoid(x).data.round(4))

# Operations executed inside a GradientTape are recorded; backward() replays
# the record in reverse and accumulates d(loss)/d(tensor) into .grad buffers.
with GradientTape() as tape:
    loss = tensor_sum(relu(x))
backward(loss, tape)
print("d sum(relu(x)) / dx =", x.grad, " (zero where x <= 0)")
tape.clear()

# The same machinery drives a convolution.  Gradients of every parameter can
# be cross-checked against central finite differences, the package's
# independent oracle.
rng = np.random.default_rng(0)
image = Tensor(rng.standard_normal((1, 1, 6, 6)))
kernel = Tensor(rng.standard_normal((2, 1, 3, 3)) * 0.5, requires_grad=True)
bias = Tensor(np.zeros(2), requires_grad=True)


def build_loss():
    return tensor_sum(relu(conv2d(image, kernel, bias)))


with GradientTape() as tape:
    loss = build_loss()
backward(loss, tape)
analytic = kernel.grad.copy()
numeric = finite_diff_grad(lambda _: build_loss().item(), kernel, h=1e-5)
print("conv kernel gradient, max |analytic - numeric| =",
      float(np.abs(analytic - numeric).max()))
tape.clear()

# Cross-entropy is computed in the max-shifted form, so extreme logits stay
# finite instead of overflowing.
extreme = softmax_cross_entropy(Tensor([[1000.0, 0.0]]), [0])
print("cross-entropy of logits [1000, 0], label 0:", extreme.item() + 0.0)
