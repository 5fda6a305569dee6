"""Gradient verification: taped backward gradients against central
differences, the check behind criterion 1 (every gradient within 1e-4)."""

from __future__ import annotations

from typing import Callable

import numpy as np

from statetrack.autodiff import ComputationTape, Tensor

_FD_EPS = 1e-5  # the central-difference step
_REL_FLOOR = 1e-6  # the scale below which relative_error treats a component as zero


def finite_difference(f: Callable[[], float], t: Tensor) -> np.ndarray:
    """Central-difference gradient of f() w.r.t. every entry of t.

    Perturbs t.values in place, entry by entry in C order, and restores it
    (t.values may be a strided view, which reshape would copy); f must be a
    pure forward evaluation (no tape needed).
    """
    values = t.values
    out = np.zeros(t.shape)
    for i in np.ndindex(t.shape):
        orig = values[i]
        values[i] = orig + _FD_EPS
        fp = f()
        values[i] = orig - _FD_EPS
        fm = f()
        values[i] = orig
        out[i] = (fp - fm) / (2.0 * _FD_EPS)
    return out


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise |a-b| / max(|a|, |b|, _REL_FLOOR).

    The floor treats components below it as zero-scale so that exact-zero
    gradients compare against finite-difference noise sensibly.
    """
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), _REL_FLOOR)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def check_gradients(build_loss: Callable[[], Tensor],
                    tensors: dict[str, Tensor]) -> dict[str, float]:
    """Compare backward gradients of build_loss() against central differences.

    Returns the worst relative error per named tensor.  build_loss is called
    once under a fresh tape for the backward pass and 2*size times per tensor
    for the finite differences.
    """
    for t in tensors.values():
        if t.grad is not None:
            t.grad[...] = 0.0
    with ComputationTape() as tape:
        loss = build_loss()
    tape.backward(loss)

    def forward() -> float:
        return build_loss().item()

    errors = {}
    for name, t in tensors.items():
        fd = finite_difference(forward, t)
        ad = t.grad if t.grad is not None else np.zeros_like(t.values)
        errors[name] = relative_error(ad, fd)
    return errors
