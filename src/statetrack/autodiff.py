"""Reverse-mode automatic differentiation over small dense float64 tensors.

Operations record onto an explicit :class:`ComputationTape` when one is
active (``with ComputationTape() as tape:``); with no tape active they run
forward-only, which is what evaluation paths use.  Only the operations the
model actually calls are provided, each one model stage recorded as a single
tape node; nothing is broadcast.
"""

from __future__ import annotations

import threading

import numpy as np


class DimensionError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class ContractError(RuntimeError):
    """An operation was used outside its documented contract."""


class Tensor:
    """A dense float64 array with an optional accumulated gradient.

    Leaves created with ``requires_grad=True`` receive gradients from
    :meth:`ComputationTape.backward`; everything else is treated as a
    constant or an intermediate.  Backward adds into a leaf's existing grad
    in place, so a grad may be a view of a larger array (a parameter's run of
    `ModelParams.grads`): zero a grad in place, and
    never replace the grad of a tensor whose grad is such a view.
    """

    __slots__ = ("values", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

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

        Repeated calls without zeroing leaf grads accumulate additively: a
        leaf's adjoint is its grad, added into in place; a leaf without a grad
        is given a new zeroed one, which no other tensor shares.
        """
        if loss.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {list(loss.shape)}")
        if not any(node.out is loss for node in self.nodes):
            raise ContractError("backward() loss was not produced on this tape")

        adjoints: dict[Tensor, np.ndarray] = {}  # Tensor has no __eq__: keyed by identity

        def get_adj(t: Tensor) -> np.ndarray:
            buf = adjoints.get(t)
            if buf is None:  # new buffers are float64, as every Tensor is
                if t.requires_grad and t.grad is None:
                    t.grad = np.zeros(t.shape)
                buf = adjoints[t] = t.grad if t.requires_grad else np.zeros(t.shape)
            return buf

        get_adj(loss)[...] = 1.0
        for node in reversed(self.nodes):
            g = adjoints.get(node.out)
            if g is not None:
                node.backward_fn(g, get_adj)


def _record(out: Tensor, backward_fn) -> Tensor:
    tape = _STATE.current
    if tape is not None:
        tape.nodes.append(_Node(out, backward_fn))
    return out


def project(embedding: Tensor, wx: Tensor, b: Tensor,
            word_ids: np.ndarray, rows: np.ndarray, flags: np.ndarray) -> Tensor:
    """Every direction's LSTM input pre-activations, as one tape node.

    word_ids: the vocabulary row of every token; rows[k]: the token each read
    of direction k takes; flags[k]: that read's indicator reals.  Direction k's
    input weight wx[k] ([directions, in, 4h]) holds the word rows first and the
    flag rows last; b[k] ([directions, 4h]) is its bias.  Each token's word
    projection is computed once and shared by every read of it.  Returns the
    reads stacked as [directions, reads, 4h].
    """
    d = embedding.shape[-1]
    if (embedding.values.ndim != 2 or wx.values.ndim != 3 or not wx.shape[0]
            or word_ids.ndim != 1 or rows.ndim != 2 or rows.shape[0] != wx.shape[0]
            or flags.ndim != 3 or flags.shape[:2] != rows.shape
            or wx.shape[1] != d + flags.shape[2] or b.shape != (wx.shape[0], wx.shape[2])):
        raise DimensionError(
            f"project: embedding {list(embedding.shape)}, input weights {list(wx.shape)}, "
            f"biases {list(b.shape)} and flags {list(flags.shape)} do not fit "
            f"{list(rows.shape)} reads")
    dirs, h4 = b.shape
    words = embedding.values[word_ids]
    w = wx.values
    out = Tensor(np.empty((dirs, rows.shape[1], h4)))
    for k in range(dirs):
        np.add((words @ w[k, :d])[rows[k]] + flags[k] @ w[k, d:], b.values[k], out=out.values[k])

    def fn(grad, get_adj):
        get_adj(b)[...] += grad.sum(axis=1)
        w_adj = get_adj(wx)
        w_adj[:, d:] += flags.transpose(0, 2, 1) @ grad
        # a token is read by every cell of its sentence; direction k's reads
        # scatter into rows k * tokens + token
        tokens = words.shape[0]
        proj_grad = np.zeros((dirs, tokens, h4))
        np.add.at(proj_grad.reshape(-1, h4), (rows + tokens * np.arange(dirs)[:, None]).reshape(-1),
                  grad.reshape(-1, h4))
        w_adj[:, :d] += words.T @ proj_grad
        np.add.at(get_adj(embedding), word_ids,
                  (proj_grad @ w[:, :d].transpose(0, 2, 1)).sum(axis=0))

    return _record(out, fn)


# sigmoid(z) = 0.5 * (tanh(0.5 * z) + 1), which saturates cleanly instead of
# overflowing exp, on the input, forget and output gate blocks, tanh(z) on the
# cell block: both scalings are exact
_GATE_SCALE = np.array([0.5, 0.5, 1.0, 0.5]).reshape(4, 1, 1, 1)
_GATE_SCALE.flags.writeable = False


def bilstm(inputs: Tensor, wh: Tensor, cells: int) -> Tensor:
    """Both directions of a BiLSTM over every time step, as one tape node.

    inputs: the input pre-activations (input projection plus bias) as
    [directions, steps * cells, 4h], time-major (row tau * cells + c), gate
    order [input, forget, cell, output]; wh: the recurrent weights as
    [directions, h, 4h].  The directions run stacked, each from a zero state.
    Returns the hidden states as [directions * steps * cells, h], row
    k * steps * cells + tau * cells + c.  With no tape active no gate
    activations are kept; with one, the forward keeps them in time-major
    slabs whose every per-step slice is contiguous, and backward is
    backpropagation through time.
    """
    if (wh.values.ndim != 3 or not wh.shape[0] or wh.shape[2] != 4 * wh.shape[1]
            or inputs.values.ndim != 3 or inputs.shape[0] != wh.shape[0] or cells < 1
            or inputs.shape[1] % cells or inputs.shape[2] != wh.shape[2]):
        raise DimensionError(f"bilstm: inputs {list(inputs.shape)} and recurrent weights "
                             f"{list(wh.shape)} do not fit {cells} cells")
    dirs, hd = wh.shape[:2]
    steps = inputs.shape[1] // cells
    x = inputs.values.reshape(dirs, steps, cells, 4, hd)
    w = wh.values
    hs = np.empty((dirs, steps, cells, hd))
    # a step's activations are gate-major rows of [dirs, cells, hd], ordered
    # (g, c_prev, i, f, spare, o) so that backward's factors p = (g, c_prev, i)
    # and q = (i, f, 1 - g^2, o) are windows of rows; the gates are computed in
    # place over rows 2 to 5, the spare row holding tanh(z_g) until g is copied
    # out.  Under a tape every step keeps its rows, plus a last entry for the
    # final cell state; without one, two entries alternate.
    kept = steps if _STATE.current is not None else 1
    acts = np.empty((kept + 1, 6, dirs, cells, hd))
    acts[0, 1] = 0.0  # the zero initial cell state
    tcs = np.empty((kept, dirs, cells, hd))  # tanh(c)
    gates_in = acts[:, 2:].transpose(0, 2, 3, 1, 4)  # (i, f, g, o) rows, in the inputs' layout
    z = np.empty((dirs, cells, 4 * hd))
    z4 = z.reshape(dirs, cells, 4, hd)
    h = np.zeros((dirs, cells, hd))
    for tau in range(steps):
        j = tau % (kept + 1)
        a, c, tc = acts[j], acts[(tau + 1) % (kept + 1), 1], tcs[tau % kept]
        gates = a[2:]
        np.matmul(h, w, out=z)
        np.add(z4, x[:, tau], out=gates_in[j])
        gates *= _GATE_SCALE
        np.tanh(gates, out=gates)
        a[0] = a[4]
        gates += 1.0
        gates *= 0.5
        np.multiply(a[3], a[1], out=c)
        c += a[2] * a[0]
        np.tanh(c, out=tc)
        h = np.multiply(a[5], tc, out=hs[:, tau])
    out = Tensor(hs.reshape(-1, hd))

    def fn(grad, get_adj):
        grad = grad.reshape(dirs, steps, cells, hd)
        a = acts[:steps]
        g, f, o = a[:, 0], a[:, 3], a[:, 5]
        # every factor of dz = (((dc|dc|dc|gh) * p) * q) * r, for all steps at
        # once, in the step form's multiplication order: p = (g, c_prev, i) =
        # a[:, :3] plus tanh(c) for the output gate's gh, q = (i, f, 1 - g^2, o)
        # = a[:, 2:] and r = (1 - i, 1 - f, 1, 1 - o); the spare row is
        # rewritten on every backward, so repeated backward calls agree
        np.multiply(g, g, out=a[:, 4])
        np.subtract(1.0, a[:, 4], out=a[:, 4])
        r = np.subtract(1.0, a[:, 2:])
        r[:, 2] = 1.0
        u = np.multiply(tcs, tcs)
        np.subtract(1.0, u, out=u)  # 1 - tanh(c)^2
        # each step's dz, in the inputs' gate layout
        dz = np.empty((steps, dirs, cells, 4 * hd))
        dz_gates = dz.reshape(steps, dirs, cells, 4, hd).transpose(0, 3, 1, 2, 4)
        dzg = np.empty((4, dirs, cells, hd))
        w_t = w.transpose(0, 2, 1)
        dh = gc = 0.0
        for tau in reversed(range(steps)):
            gh = grad[:, tau] + dh
            dc = gc + gh * o[tau] * u[tau]
            np.multiply(dc, a[tau, :3], out=dzg[:3])
            np.multiply(gh, tcs[tau], out=dzg[3])
            dzg *= a[tau, 2:]
            np.multiply(dzg, r[tau], out=dz_gates[tau])
            if tau:  # the zero initial state takes no gradient
                dh, gc = dz[tau] @ w_t, dc * f[tau]
        get_adj(inputs).reshape(dirs, steps, cells, 4 * hd)[...] += dz.transpose(1, 0, 2, 3)
        # h_prev^T dz of every step as one matmul, added into the adjoint step
        # by step in reverse: a local sum would round differently once another
        # call's gradient is in the buffer
        dw = hs[:, :-1].transpose(0, 1, 3, 2) @ dz[1:].transpose(1, 0, 2, 3)
        w_adj = get_adj(wh)
        for tau in reversed(range(steps - 1)):
            w_adj += dw[:, tau]

    return _record(out, fn)


def _softmax(x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Max-shifted softmax along the last axis; entries where `mask` is False
    get exactly 0, kept entries are strictly positive and each row sums to 1."""
    if mask is not None:
        x = np.where(mask, x, -np.inf)  # exp(-inf) is exactly 0
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(y: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The gradient through a row softmax with output y (masked entries get 0)."""
    return y * (grad - (grad * y).sum(axis=-1, keepdims=True))


def head(states: Tensor, attn_w: Tensor, attn_b: Tensor, dec_w: Tensor, dec_b: Tensor,
         unshuffle: np.ndarray, pool: np.ndarray,
         mask: np.ndarray) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """From BiLSTM states to one class distribution per cell, as one tape node.

    `unshuffle` permutes the two directions' `bilstm` states into each cell's
    [forward | backward] contextual vectors over its `mask.shape[1]`
    positions; `pool` [cells, 2, positions] averages them into the mention
    and verb vectors, whose concatenation queries a bilinear attention
    (attn_w, attn_b) that gives masked positions exactly 0.  The pooled
    vector goes through the affine decoder and a softmax.  Returns
    (distributions [cells, classes], attention, pooled [cells, 2h]); only
    the distributions are on the tape.
    """
    n, width = mask.shape
    hidden = 2 * states.shape[-1]
    if (states.values.ndim != 2 or states.shape[0] != 2 * n * width
            or unshuffle.shape != (2 * n * width,)
            or pool.shape != (n, 2, width) or attn_w.shape != (hidden, 2 * hidden)
            or attn_b.size != 1 or dec_w.values.ndim != 2 or dec_w.shape[0] != hidden
            or dec_b.shape != dec_w.shape[1:]):
        raise DimensionError(
            f"head: states {list(states.shape)}, attention {list(attn_w.shape)} and decoder "
            f"{list(dec_w.shape)} weights do not fit {n} cells of {width} positions")
    if not mask.any(axis=-1).all():
        raise DimensionError("head: the mask must keep a position in every cell")
    ctx = states.values[unshuffle].reshape(n, width, hidden)
    focus = (pool @ ctx).reshape(n, 2 * hidden)
    query = (focus @ attn_w.values.T).reshape(n, hidden, 1)
    attention = _softmax((ctx @ query).reshape(n, width) + attn_b.values, mask)
    weights = attention.reshape(n, 1, width)
    pooled = (weights @ ctx).reshape(n, hidden)
    out = Tensor(_softmax(pooled @ dec_w.values + dec_b.values))

    def fn(grad, get_adj):
        logits_grad = _softmax_grad(out.values, grad)
        get_adj(dec_b)[...] += logits_grad.sum(axis=0)
        get_adj(dec_w)[...] += pooled.T @ logits_grad
        pooled_grad = (logits_grad @ dec_w.values.T).reshape(n, 1, hidden)
        scores_grad = _softmax_grad(
            attention, (pooled_grad @ ctx.transpose(0, 2, 1)).reshape(n, width))
        get_adj(attn_b)[...] += scores_grad.sum()
        scores_grad = scores_grad.reshape(n, width, 1)
        # the context has three uses; their gradients are always summed in this
        # order, since another order would round differently
        ctx_grad = weights.transpose(0, 2, 1) @ pooled_grad
        ctx_grad += scores_grad @ query.transpose(0, 2, 1)
        query_grad = (ctx.transpose(0, 2, 1) @ scores_grad).reshape(n, hidden)
        get_adj(attn_w)[...] += (focus.T @ query_grad).T
        ctx_grad += pool.transpose(0, 2, 1) @ (query_grad @ attn_w.values).reshape(n, 2, hidden)
        get_adj(states)[unshuffle] += ctx_grad.reshape(-1, hidden // 2)  # a permutation

    return _record(out, fn), attention, pooled


# ---------------------------------------------------------------------------
# losses

def mean_nll(dists: Tensor, labels) -> Tensor:
    """Mean over rows r of the negative log likelihood of class labels[r]
    under the distribution dists[r] ([rows, classes])."""
    labels = np.asarray(labels, dtype=np.intp)
    if dists.values.ndim != 2 or labels.shape != dists.shape[:1] or not labels.size:
        raise DimensionError(
            f"mean_nll: labels of shape {list(labels.shape)} do not match distributions "
            f"{list(dists.shape)}")
    if labels.min() < 0 or labels.max() >= dists.shape[1]:
        raise DimensionError(f"mean_nll: label out of range for {dists.shape[1]} classes")
    rows, n = np.arange(labels.size), labels.size
    p = dists.values[rows, labels]
    with np.errstate(divide="ignore"):
        # -log(0) = inf is deliberate: the training loop aborts on it
        out = Tensor((-np.log(p)).sum() / n)

    def fn(g, get_adj):
        get_adj(dists)[rows, labels] += -(g / n) / p

    return _record(out, fn)


def consistency(primary: Tensor, members: Tensor, member_avg: np.ndarray,
                primary_avg: np.ndarray, weight: np.ndarray) -> Tensor:
    """sum(weight * (member_avg @ members - primary_avg @ primary)^2) over
    [rows, classes] cells, as one tape node.  Each side is summarized before
    subtracting, so a self-pair gives exactly 0; the matrices are constants."""
    if (primary.values.ndim != 2 or members.values.ndim != 2 or weight.ndim != 2
            or not primary.shape[1] == members.shape[1] == weight.shape[1]
            or member_avg.shape != (len(weight), members.shape[0])
            or primary_avg.shape != (len(weight), primary.shape[0])):
        raise DimensionError(
            f"consistency: primary {list(primary.shape)}, members {list(members.shape)}, "
            f"averaging {list(primary_avg.shape)} and {list(member_avg.shape)} and weight "
            f"{list(weight.shape)} do not fit")
    # a - b rounds as a + b * -1.0 and 2.0 * d as d + d, so this rounds bitwise
    # as the op-by-op form in tests/consistency_reference.py
    diff = member_avg @ members.values - primary_avg @ primary.values
    out = Tensor(((diff * diff) * weight).sum())

    def fn(g, get_adj):
        d = (g * weight) * diff * 2.0
        get_adj(primary)[...] += primary_avg.T @ -d
        get_adj(members)[...] += member_avg.T @ d

    return _record(out, fn)


def combine(a: Tensor, b: Tensor, k: float) -> Tensor:
    """k*a + (1-k)*b for a plain Python weight k (no gradient for k), as one
    tape node; with k = 1 this equals a exactly."""
    if a.shape != b.shape:
        raise DimensionError(f"combine: shapes {list(a.shape)} and {list(b.shape)} differ")
    out = Tensor(a.values * k + b.values * (1.0 - k))

    def fn(g, get_adj):
        get_adj(a)[...] += g * k
        get_adj(b)[...] += g * (1.0 - k)

    return _record(out, fn)

