"""Adam optimizer with classic L2-style weight decay.

Weight decay is added to the gradient before the moment updates (it is not
decoupled from them).  ``Adam.step`` never touches the gradient buffers;
callers zero them between steps with ``GradientTape.clear()``.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import Tensor

__all__ = ["BETAS", "EPS", "Adam"]

BETAS = (0.9, 0.999)
EPS = 1e-8


class Adam:
    """Bias-corrected Adam over a fixed parameter list.

    ``m`` and ``v`` hold the first and second moment buffers, one per
    parameter; ``t`` counts the steps taken.
    """

    def __init__(self, params: list[Tensor], lr: float,
                 weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """Apply one update from the current gradients."""
        self.t += 1
        b1, b2 = BETAS
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                raise ContractError("Adam.step: parameter has no gradient")
            g = p.grad + self.weight_decay * p.data if self.weight_decay else p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)
