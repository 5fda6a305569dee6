"""A frozen copy of the per-tensor SGD step and of the tape's backward from
before the parameters shared one flat vector: backward hands every tensor a
new zeroed adjoint, and the step updates each tensor on its own with two
numpy calls.  Kept as the bitwise reference for `training._sgd_step` and for
backward adding into grads that view the gradient vector; install both with
`installed`."""

from __future__ import annotations

import contextlib

import numpy as np

from statetrack import training
from statetrack.autodiff import ComputationTape, ContractError, Tensor


def sgd_step(params, lr: float) -> None:
    for t in params.tensors.values():
        if t.requires_grad and t.grad is not None:
            t.grad *= lr  # the grad is dropped next, so it holds lr * grad
            t.values -= t.grad
            t.grad = None


def backward(tape: ComputationTape, loss: Tensor) -> None:
    if loss.size != 1:
        raise ContractError(f"backward() needs a scalar loss, got shape {list(loss.shape)}")
    if not any(node.out is loss for node in tape.nodes):
        raise ContractError("backward() loss was not produced on this tape")

    adjoints: dict[Tensor, np.ndarray] = {}

    def get_adj(t: Tensor) -> np.ndarray:
        buf = adjoints.get(t)
        if buf is None:
            buf = adjoints[t] = np.zeros(t.shape)
        return buf

    get_adj(loss)[...] = 1.0
    for node in reversed(tape.nodes):
        g = adjoints.get(node.out)
        if g is not None:
            node.backward_fn(g, get_adj)

    for t, buf in adjoints.items():
        if t.requires_grad:
            if t.grad is None:
                t.grad = buf
            else:
                t.grad += buf


@contextlib.contextmanager
def installed(monkeypatch):
    """Train with the reference step and backward inside the block."""
    with monkeypatch.context() as m:
        m.setattr(training, "_sgd_step", sgd_step)
        m.setattr(ComputationTape, "backward", backward)
        yield
