"""A scalar probe for gradient tests: one tape node whose gradient is fixed
by a constant, so a test can differentiate any op's tensor output."""

from __future__ import annotations

from statetrack.autodiff import Tensor, _record


def weighted_sum(x: Tensor, r: Tensor) -> Tensor:
    """sum(x * r) for a constant r of x's shape, as one tape node."""
    if x.shape != r.shape:
        raise ValueError(f"weighted_sum: shapes {list(x.shape)} and {list(r.shape)} differ")
    out = Tensor((x.values * r.values).sum())

    def fn(g, get_adj):
        get_adj(x)[...] += g * r.values

    return _record(out, fn)
