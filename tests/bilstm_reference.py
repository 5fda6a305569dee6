"""A frozen copy of the step-form `autodiff.bilstm` (one list of saved gate
arrays per time step, every derivative factor computed inside the time loop),
kept as the bitwise reference for the slab form in `statetrack.autodiff`.
It records on the same tape, so both can be differentiated side by side."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from statetrack.autodiff import _STATE, DimensionError, Tensor, _record


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 0.5*(tanh(x/2)+1) saturates cleanly instead of overflowing exp
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def bilstm(inputs: Tensor, recurrent: Sequence[Tensor], cells: int) -> Tensor:
    """Both directions of a BiLSTM over every time step, as one tape node.

    inputs: the input pre-activations (input projection plus bias) as
    [directions, steps * cells, 4h], time-major (row tau * cells + c), gate
    order [input, forget, cell, output]; recurrent: one [h, 4h] weight per
    direction.  The directions run stacked, each from a zero state.
    Returns the hidden states as [directions * steps * cells, h], row
    k * steps * cells + tau * cells + c.  With no tape active no gate
    activations are kept; with one, backward is backpropagation through time.
    """
    dirs = len(recurrent)
    hd = recurrent[0].shape[0] if dirs else 0
    if (not dirs or inputs.values.ndim != 3 or inputs.shape[0] != dirs or cells < 1
            or inputs.shape[1] % cells or inputs.shape[2] != 4 * hd
            or any(r.shape != (hd, 4 * hd) for r in recurrent)):
        raise DimensionError(f"bilstm: inputs {list(inputs.shape)} and recurrent "
                             f"{[list(r.shape) for r in recurrent]} do not fit {cells} cells")
    steps = inputs.shape[1] // cells
    x = inputs.values.reshape(dirs, steps, cells, 4 * hd)
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
        x_adj = get_adj(inputs).reshape(dirs, steps, cells, 4 * hd)
        w_adj = [get_adj(r) for r in recurrent]
        w_t = w.transpose(0, 2, 1)
        dh = gc = 0.0
        for tau in reversed(range(steps)):
            h_prev, c_prev, i, f, g, o, tc = saved[tau]
            gh = grad[:, tau] + dh
            dc = gc + gh * o * (1.0 - tc * tc)
            dz = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                                 dc * i * (1.0 - g * g), gh * tc * o * (1.0 - o)], axis=-1)
            x_adj[:, tau] += dz
            if tau:  # the zero initial state takes no gradient
                # into the adjoint step by step: a local sum would round
                # differently once another call's gradient is in the buffer
                dw = h_prev.transpose(0, 2, 1) @ dz
                for k in range(dirs):
                    w_adj[k] += dw[k]
                dh, gc = dz @ w_t, dc * f

    return _record(out, fn)
