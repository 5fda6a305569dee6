"""A frozen copy of the per-direction `autodiff.project` (one input weight and
one bias tensor per direction, every stage of backward run once per
direction), kept as the bitwise reference for the stacked form in
`statetrack.autodiff`.  It records on the same tape, so both can be
differentiated side by side.

`directions` splits a stacked `[directions, ...]` parameter into one tensor
per direction whose values and grad view the stacked ones, so that gradients
reach the stacked tensor; `installed` runs the model on this op and on
`bilstm_reference.bilstm` through it."""

from __future__ import annotations

import contextlib
from typing import Sequence

import numpy as np

import bilstm_reference
from statetrack import autodiff
from statetrack.autodiff import DimensionError, Tensor, _record


def project(embedding: Tensor, wx: Sequence[Tensor], b: Sequence[Tensor],
            word_ids: np.ndarray, rows: np.ndarray, flags: np.ndarray) -> Tensor:
    """Every direction's LSTM input pre-activations, as one tape node.

    word_ids: the vocabulary row of every token; rows[k]: the token each read
    of direction k takes; flags[k]: that read's indicator reals.  Direction k's
    input weight wx[k] holds the word rows first and the flag rows last; b[k]
    is its bias.  Each token's word projection is computed once and shared by
    every read of it.  Returns the reads stacked as [directions, reads, 4h].
    """
    dirs, d = len(wx), embedding.shape[-1]
    if (embedding.values.ndim != 2 or not dirs or len(b) != dirs or word_ids.ndim != 1
            or rows.ndim != 2 or rows.shape[0] != dirs or flags.shape[:2] != rows.shape
            or flags.ndim != 3 or any(w.shape != wx[0].shape for w in wx)
            or wx[0].values.ndim != 2 or wx[0].shape[0] != d + flags.shape[2]
            or any(v.shape != wx[0].shape[1:] for v in b)):
        raise DimensionError(
            f"project: embedding {list(embedding.shape)}, input weights "
            f"{[list(w.shape) for w in wx]}, biases {[list(v.shape) for v in b]} and flags "
            f"{list(flags.shape)} do not fit {list(rows.shape)} reads")
    words = embedding.values[word_ids]
    out = Tensor(np.empty((dirs, rows.shape[1], wx[0].shape[1])))
    for k, (w, v) in enumerate(zip(wx, b)):
        np.add((words @ w.values[:d])[rows[k]] + flags[k] @ w.values[d:], v.values,
               out=out.values[k])

    def fn(grad, get_adj):
        words_grad = 0.0
        for k, (w, v) in enumerate(zip(wx, b)):
            get_adj(v)[...] += grad[k].sum(axis=0)
            w_adj = get_adj(w)
            w_adj[d:] += flags[k].T @ grad[k]
            proj_grad = np.zeros((words.shape[0], w.shape[1]))
            np.add.at(proj_grad, rows[k], grad[k])  # a token is read by every cell of its sentence
            w_adj[:d] += words.T @ proj_grad
            words_grad = words_grad + proj_grad @ w.values[:d].T
        np.add.at(get_adj(embedding), word_ids, words_grad)

    return _record(out, fn)


def directions(stacked: Tensor) -> list[Tensor]:
    """One tensor per direction of `stacked`, viewing its values and, when it
    takes a gradient, its grad (given a zeroed one if it has none)."""
    if stacked.requires_grad and stacked.grad is None:
        stacked.grad = np.zeros(stacked.shape)
    parts = [Tensor(v, requires_grad=stacked.requires_grad) for v in stacked.values]
    if stacked.requires_grad:
        for part, grad in zip(parts, stacked.grad):
            part.grad = grad
    return parts


def stacked_project(embedding, wx, b, word_ids, rows, flags):
    return project(embedding, directions(wx), directions(b), word_ids, rows, flags)


def stacked_bilstm(inputs, wh, cells):
    return bilstm_reference.bilstm(inputs, directions(wh), cells)


@contextlib.contextmanager
def installed(monkeypatch):
    """Run the model on both reference encoder ops inside the block."""
    with monkeypatch.context() as m:
        m.setattr(autodiff, "project", stacked_project)
        m.setattr(autodiff, "bilstm", stacked_bilstm)
        yield
