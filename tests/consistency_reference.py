"""A frozen copy of the op-by-op consistency term and loss combination: the
generic `add`, `mul`, `scale`, `matmul` and `total` ops, with the
`consistency_sum` and `combine_losses` built from them, kept as the bitwise
reference for the fused `autodiff.consistency` and `autodiff.combine`.  They
record on the same tape, so both can be differentiated side by side."""

from __future__ import annotations

import numpy as np

from statetrack.autodiff import DimensionError, Tensor, _record


def _check_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {list(a.shape)} and {list(b.shape)} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_shapes(a, b, "add")
    out = Tensor(a.values + b.values)

    def fn(g, get_adj):
        get_adj(a)[...] += g
        get_adj(b)[...] += g

    return _record(out, fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_shapes(a, b, "mul")
    out = Tensor(a.values * b.values)

    def fn(g, get_adj):
        get_adj(a)[...] += g * b.values
        get_adj(b)[...] += g * a.values

    return _record(out, fn)


def scale(a: Tensor, k: float) -> Tensor:
    """Multiply by a plain Python constant (no gradient for k)."""
    out = Tensor(a.values * k)

    def fn(g, get_adj):
        get_adj(a)[...] += g * k

    return _record(out, fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise DimensionError(f"matmul: expected 2-D operands, got {list(a.shape)} and {list(b.shape)}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree: {list(a.shape)} x {list(b.shape)}")
    out = Tensor(a.values @ b.values)

    def fn(g, get_adj):
        get_adj(a)[...] += g @ b.values.T
        get_adj(b)[...] += a.values.T @ g

    return _record(out, fn)


def total(a: Tensor) -> Tensor:
    out = Tensor(a.values.sum())

    def fn(g, get_adj):
        get_adj(a)[...] += g

    return _record(out, fn)


def consistency_sum(primary: Tensor, members: Tensor,
                    matrices: tuple[np.ndarray, np.ndarray, np.ndarray]) -> Tensor:
    """Sum over members of the mean over shared entities of the mean squared
    difference between member and primary summary distributions, given the
    batch's `consistency_matrices`.  Each side is summarized by its own matmul
    before subtracting, so a self-pair gives 0."""
    member_avg, primary_avg, weight = map(Tensor, matrices)
    diff = add(matmul(member_avg, members), scale(matmul(primary_avg, primary), -1.0))
    return total(mul(mul(diff, diff), weight))


def combine_losses(sup: Tensor, con_sum: Tensor, lambda_weight: float) -> Tensor:
    """lambda*sup + (1-lambda)*con_sum; with lambda=1 this equals sup exactly."""
    return add(scale(sup, lambda_weight), scale(con_sum, 1.0 - lambda_weight))
