"""Finite-difference gradient oracle.

``finite_diff_grad`` estimates gradients by central differences and is the
independent check every backward rule is validated against.  Comparison
rule: elements whose reference magnitude reaches ``ABS_FLOOR`` are compared
relatively, smaller ones absolutely at the floor (central differences carry
an absolute noise floor regardless of the true gradient size).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractError
from .tensor import Tensor

__all__ = ["finite_diff_grad", "grad_discrepancy", "GradCheckResult"]

ABS_FLOOR = 1e-6


def finite_diff_grad(f: Callable[[Tensor], float], x: Tensor,
                     h: float) -> np.ndarray:
    """Central differences (f(x + h*e_i) - f(x - h*e_i)) / (2h) per element.

    ``f`` re-evaluates the target from scratch and returns it as a float;
    ``x.data`` is perturbed in place and restored.
    """
    if h <= 0:
        raise ContractError(f"finite_diff_grad: h must be > 0, got {h}")

    grad = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def grad_discrepancy(analytic: np.ndarray, numeric: np.ndarray,
                     rel_tol: float) -> float:
    """Worst-case mismatch, scaled so that a value <= ``rel_tol`` passes.

    Elements with |numeric| >= ABS_FLOOR contribute |diff| / |numeric|;
    smaller elements contribute |diff| * rel_tol / ABS_FLOOR, which stays
    under ``rel_tol`` exactly when |diff| <= ABS_FLOOR.
    """
    diff = np.abs(analytic - numeric)
    ref = np.abs(numeric)
    small = ref < ABS_FLOOR
    scaled = np.where(small,
                      diff * (rel_tol / ABS_FLOOR),
                      diff / np.where(small, 1.0, ref))
    return float(scaled.max()) if scaled.size else 0.0


class GradCheckResult:
    """Per-parameter worst errors from a full-model gradient check."""

    def __init__(self, errors: dict[str, float], tolerance: float, h: float):
        self.errors = errors
        self.tolerance = tolerance
        self.h = h

    @property
    def max_error(self) -> float:
        return max(self.errors.values()) if self.errors else 0.0

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

    def lines(self) -> list[str]:
        out = [f"{name}: max rel error {err:.3e}"
               for name, err in self.errors.items()]
        verdict = "PASS" if self.passed else "FAIL"
        out.append(f"overall max rel error {self.max_error:.3e} "
                   f"(tolerance {self.tolerance:.1e}): {verdict}")
        return out
