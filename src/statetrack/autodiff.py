"""Reverse-mode automatic differentiation over small dense float64 tensors.

Operations record onto an explicit :class:`ComputationTape` when one is
active (``with ComputationTape() as tape:``); with no tape active they run
forward-only, which is what evaluation paths use.  Only the operations the
model actually needs are provided, and broadcasting is restricted to
exact-shape operands, scalars, and one row added to every row (biases).
"""

from __future__ import annotations

import math
import threading
from typing import Callable

import numpy as np


class DimensionError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class ContractError(RuntimeError):
    """An operation was used outside its documented contract."""


class Tensor:
    """A dense float64 array with an optional accumulated gradient.

    Leaves created with ``requires_grad=True`` receive gradients from
    :meth:`ComputationTape.backward`; everything else is treated as a
    constant or an intermediate.
    """

    __slots__ = ("values", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.values.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={list(self.shape)}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("out", "backward_fn")

    def __init__(self, out: Tensor, backward_fn):
        self.out = out
        self.backward_fn = backward_fn


class _TapeState(threading.local):
    current: "ComputationTape | None" = None


_STATE = _TapeState()


class ComputationTape:
    """Append-only record of operations; append order is topological order.

    A tape belongs to the single thread that opened it (the active tape is
    thread-local).  Tensors holding frozen values may be read from any thread.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._produced: set[int] = set()
        self._outer: ComputationTape | None = None

    def __enter__(self) -> "ComputationTape":
        self._outer = _STATE.current
        _STATE.current = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _STATE.current = self._outer
        self._outer = None

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into every requires_grad leaf.

        Repeated calls without clearing leaf grads accumulate additively.
        """
        if loss.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {list(loss.shape)}")
        if id(loss) not in self._produced:
            raise ContractError("backward() loss was not produced on this tape")

        adjoints: dict[int, np.ndarray] = {}
        holders: dict[int, Tensor] = {}

        def get_adj(t: Tensor) -> np.ndarray:
            buf = adjoints.get(id(t))
            if buf is None:
                buf = np.zeros(t.shape)  # float64, as every Tensor is
                adjoints[id(t)] = buf
                holders[id(t)] = t
            return buf

        get_adj(loss)[...] = 1.0
        for node in reversed(self.nodes):
            g = adjoints.get(id(node.out))
            if g is not None:
                node.backward_fn(g, get_adj)

        for tid, buf in adjoints.items():
            t = holders[tid]
            if t.requires_grad:
                if t.grad is None:
                    t.grad = buf.copy()
                else:
                    t.grad += buf


def active_tape() -> ComputationTape | None:
    return _STATE.current


def _record(out: Tensor, backward_fn) -> Tensor:
    tape = _STATE.current
    if tape is not None:
        tape.nodes.append(_Node(out, backward_fn))
        tape._produced.add(id(out))
    return out


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64))


# ---------------------------------------------------------------------------
# elementwise ops (exact-shape, scalar, or trailing-row broadcast only)

def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    # b may also be one row broadcast over a's leading axes (a bias)
    if (a.shape != b.shape and a.size != 1 and b.size != 1
            and not (b.values.ndim == 1 and a.shape[-1:] == b.shape)):
        raise DimensionError(
            f"{op}: shapes {list(a.shape)} and {list(b.shape)} are not broadcastable")


def _accumulate(t: Tensor, g: np.ndarray, get_adj) -> None:
    # sum-reduce the upstream gradient over the axes t was broadcast along
    buf = get_adj(t)
    if g.shape == buf.shape:
        buf += g
    elif buf.size == 1:
        buf += g.sum()
    else:
        buf += g.reshape(-1, buf.size).sum(axis=0)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    out = Tensor(a.values + b.values)

    def fn(g, get_adj):
        _accumulate(a, g, get_adj)
        _accumulate(b, g, get_adj)

    return _record(out, fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")
    out = Tensor(a.values * b.values)

    def fn(g, get_adj):
        _accumulate(a, g * b.values, get_adj)
        _accumulate(b, g * a.values, get_adj)

    return _record(out, fn)


def scale(a: Tensor, k: float) -> Tensor:
    """Multiply by a plain Python constant (no gradient for k)."""
    out = Tensor(a.values * k)

    def fn(g, get_adj):
        get_adj(a)[...] += g * k

    return _record(out, fn)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 0.5*(tanh(x/2)+1) saturates cleanly instead of overflowing exp
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def bilstm(inputs, recurrent, cells: int) -> Tensor:
    """Both directions of a BiLSTM over every time step, as one tape node.

    inputs: one [steps * cells, 4h] tensor of input pre-activations (input
    projection plus bias) per direction, time-major (row tau * cells + c),
    gate order [input, forget, cell, output]; recurrent: one [h, 4h] weight
    per direction.  The directions run stacked, each from a zero state.
    Returns the hidden states as [directions * steps * cells, h], row
    k * steps * cells + tau * cells + c.  With no tape active no gate
    activations are kept; with one, backward is backpropagation through time.
    """
    if not inputs or len(inputs) != len(recurrent):
        raise DimensionError(f"bilstm: {len(inputs)} inputs for {len(recurrent)} recurrent weights")
    hd, rows = recurrent[0].shape[0], inputs[0].shape[0]
    if (cells < 1 or rows % cells
            or any(r.shape != (hd, 4 * hd) for r in recurrent)
            or any(a.shape != (rows, 4 * hd) for a in inputs)):
        raise DimensionError(f"bilstm: inputs {[list(a.shape) for a in inputs]} and recurrent "
                             f"{[list(r.shape) for r in recurrent]} do not fit {cells} cells")
    steps, dirs = rows // cells, len(inputs)
    x = np.stack([a.values for a in inputs]).reshape(dirs, steps, cells, 4 * hd)
    w = np.stack([r.values for r in recurrent])
    hs = np.empty((dirs, steps, cells, hd))
    h = c = np.zeros((dirs, cells, hd))
    saved = [] if _STATE.current is not None else None
    for tau in range(steps):
        z = x[:, tau] + h @ w
        gates = _sigmoid(z)  # the cell candidate block uses tanh instead
        i, f, o = gates[..., :hd], gates[..., hd:2 * hd], gates[..., 3 * hd:]
        g = np.tanh(z[..., 2 * hd:3 * hd])
        c_prev, h_prev = c, h
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = hs[:, tau] = o * tc
        if saved is not None:
            saved.append((h_prev, c_prev, i, f, g, o, tc))
    out = Tensor(hs.reshape(-1, hd))

    def fn(grad, get_adj):
        grad = grad.reshape(dirs, steps, cells, hd)
        x_adj = [get_adj(a).reshape(steps, cells, 4 * hd) for a in inputs]
        w_adj = [get_adj(r) for r in recurrent]
        w_t = w.transpose(0, 2, 1)
        dh = gc = 0.0
        for tau in reversed(range(steps)):
            h_prev, c_prev, i, f, g, o, tc = saved[tau]
            gh = grad[:, tau] + dh
            dc = gc + gh * o * (1.0 - tc * tc)
            dz = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                                 dc * i * (1.0 - g * g), gh * tc * o * (1.0 - o)], axis=-1)
            for k in range(dirs):
                x_adj[k][tau] += dz[k]
            if tau:  # the zero initial state takes no gradient
                # into the adjoint step by step: a local sum would round
                # differently once another call's gradient is in the buffer
                dw = h_prev.transpose(0, 2, 1) @ dz
                for k in range(dirs):
                    w_adj[k] += dw[k]
                dh, gc = dz @ w_t, dc * f

    return _record(out, fn)


# ---------------------------------------------------------------------------
# linear algebra

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


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul: [n, p, k] x [n, k, q] -> [n, p, q]."""
    if (a.values.ndim != 3 or b.values.ndim != 3 or a.shape[0] != b.shape[0]
            or a.shape[2] != b.shape[1]):
        raise DimensionError(f"bmm: shapes {list(a.shape)} and {list(b.shape)} do not chain")
    out = Tensor(a.values @ b.values)

    def fn(g, get_adj):
        get_adj(a)[...] += g @ b.values.transpose(0, 2, 1)
        get_adj(b)[...] += a.values.transpose(0, 2, 1) @ g

    return _record(out, fn)


def transpose(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise DimensionError(f"transpose: expected a 2-D tensor, got shape {list(a.shape)}")
    out = Tensor(a.values.T.copy())

    def fn(g, get_adj):
        get_adj(a)[...] += g.T

    return _record(out, fn)


# ---------------------------------------------------------------------------
# shape ops

def narrow(a: Tensor, start: int, length: int) -> Tensor:
    """The rows [start, start + length)."""
    if a.values.ndim < 1 or start < 0 or length < 1 or start + length > a.shape[0]:
        raise DimensionError(
            f"narrow: rows [{start}, {start + length}) out of range for shape {list(a.shape)}")
    out = Tensor(a.values[start:start + length].copy())

    def fn(g, get_adj):
        get_adj(a)[start:start + length] += g

    return _record(out, fn)


def gather_rows(a: Tensor, index) -> Tensor:
    """Rows a[index[0]], a[index[1]], ... stacked; an index may repeat."""
    index = np.asarray(index, dtype=np.intp)
    if a.values.ndim < 1 or index.ndim != 1 or np.any((index < 0) | (index >= a.shape[0])):
        raise DimensionError(f"gather_rows: index out of range for shape {list(a.shape)}")
    out = Tensor(a.values[index])

    def fn(g, get_adj):
        np.add.at(get_adj(a), index, g)

    return _record(out, fn)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if math.prod(shape) != a.size:
        raise DimensionError(f"reshape: cannot view size {a.size} as {list(shape)}")
    out = Tensor(a.values.reshape(shape).copy())

    def fn(g, get_adj):
        get_adj(a)[...] += g.reshape(a.shape)

    return _record(out, fn)


# ---------------------------------------------------------------------------
# reductions and losses

def total(a: Tensor) -> Tensor:
    out = Tensor(a.values.sum())

    def fn(g, get_adj):
        get_adj(a)[...] += g

    return _record(out, fn)


def mean(a: Tensor) -> Tensor:
    n = a.size
    out = Tensor(a.values.sum() / n)

    def fn(g, get_adj):
        get_adj(a)[...] += g / n

    return _record(out, fn)


def softmax(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Max-shifted softmax along the last axis, row by row.

    Entries where `mask` is False get probability exactly 0 and no gradient;
    every row must keep at least one entry.  Kept entries are strictly
    positive and each row sums to 1.
    """
    if a.values.ndim < 1 or a.shape[-1] < 1:
        raise DimensionError(f"softmax: expected non-empty rows, got shape {list(a.shape)}")
    mask = np.ones(a.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if mask.shape != a.shape or not mask.any(axis=-1).all():
        raise DimensionError(f"softmax: mask must match {list(a.shape)} and keep an entry per row")
    top = np.where(mask, a.values, -np.inf).max(axis=-1, keepdims=True)
    e = np.where(mask, np.exp(np.where(mask, a.values - top, 0.0)), 0.0)
    out = Tensor(e / e.sum(axis=-1, keepdims=True))
    y = out.values

    def fn(g, get_adj):
        get_adj(a)[...] += y * (g - (g * y).sum(axis=-1, keepdims=True))

    return _record(out, fn)


def nll(dist: Tensor, index) -> Tensor:
    """Negative log likelihood of class index[r] under each row r of dist.

    `index` has dist's shape without the last (class) axis, so a 1-D
    distribution with an int index gives a scalar and a [rows, classes]
    grid with one index per row gives one loss per row.
    """
    index = np.asarray(index, dtype=np.intp)
    if dist.values.ndim < 1 or index.shape != dist.shape[:-1]:
        raise DimensionError(
            f"nll: index shape {list(index.shape)} does not match distributions {list(dist.shape)}")
    if np.any((index < 0) | (index >= dist.shape[-1])):
        raise DimensionError(f"nll: index out of range for {dist.shape[-1]} classes")
    picked = index[..., None]
    p = np.take_along_axis(dist.values, picked, axis=-1)[..., 0]
    with np.errstate(divide="ignore"):
        # -log(0) = inf is deliberate: the training loop aborts on it
        out = Tensor(-np.log(p))

    def fn(g, get_adj):
        grad = np.zeros_like(dist.values)
        np.put_along_axis(grad, picked, (-g / p)[..., None], axis=-1)
        get_adj(dist)[...] += grad

    return _record(out, fn)


# ---------------------------------------------------------------------------
# gradient verification

def finite_difference(f: Callable[[], float], t: Tensor, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of f() w.r.t. every entry of t.

    Perturbs t.values in place and restores it; f must be a pure forward
    evaluation (no tape needed).
    """
    flat = t.values.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        out[i] = (fp - fm) / (2.0 * eps)
    return out.reshape(t.shape)


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Max elementwise |a-b| / max(|a|, |b|, floor).

    The floor treats components below it as zero-scale so that exact-zero
    gradients compare against finite-difference noise sensibly.
    """
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def check_gradients(build_loss: Callable[[], Tensor], tensors: dict[str, Tensor],
                    eps: float = 1e-5, floor: float = 1e-6) -> dict[str, float]:
    """Compare backward gradients of build_loss() against central differences.

    Returns the worst relative error per named tensor.  build_loss is called
    once under a fresh tape for the backward pass and 2*size times per tensor
    for the finite differences.
    """
    for t in tensors.values():
        t.zero_grad()
    with ComputationTape() as tape:
        loss = build_loss()
    tape.backward(loss)

    def forward() -> float:
        return build_loss().item()

    errors = {}
    for name, t in tensors.items():
        fd = finite_difference(forward, t, eps=eps)
        ad = t.grad if t.grad is not None else np.zeros_like(t.values)
        errors[name] = relative_error(ad, fd, floor=floor)
    return errors
