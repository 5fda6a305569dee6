"""Base predictor: encode each (step, entity) pair and emit a 4-way
state-change distribution.

Per token the input is its word vector plus two indicator reals (is this
token a mention of the conditioned entity / is it a verb).  A bidirectional
LSTM produces contextual vectors; a bilinear attention conditioned on the
mean entity-mention vector and mean verb vector pools them; a single affine
layer plus softmax yields the cell distribution.  Every grid cell is
predicted independently, but all cells of a batch are computed together:
one tape op per layer (per time step inside the LSTM), not per cell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import (N_CHANGES, ChangeGrid, EmbeddingTable, ProcessExample,
                     TopicGroup)

UNK_TOKEN = "<unk>"

CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is malformed or internally inconsistent."""


@dataclass
class LstmWeights:
    """Packed single-direction LSTM weights; gate order is [input, forget, cell, output]."""

    wx: Tensor  # [input_dim, 4*hidden]
    wh: Tensor  # [hidden, 4*hidden]
    b: Tensor   # [4*hidden]


@dataclass
class ModelParams:
    vocab: dict[str, int]
    embedding: Tensor  # [V, embedding_dim]
    embedding_frozen: bool
    fwd: LstmWeights
    bwd: LstmWeights
    attn_w: Tensor  # [hidden_size, 2*hidden_size]
    attn_b: Tensor  # scalar
    dec_w: Tensor   # [hidden_size, 4]
    dec_b: Tensor   # [4]
    hidden_size: int
    embedding_dim: int

    def named_tensors(self) -> dict[str, Tensor]:
        return {
            "embedding": self.embedding,
            "fwd_wx": self.fwd.wx, "fwd_wh": self.fwd.wh, "fwd_b": self.fwd.b,
            "bwd_wx": self.bwd.wx, "bwd_wh": self.bwd.wh, "bwd_b": self.bwd.b,
            "attn_w": self.attn_w, "attn_b": self.attn_b,
            "dec_w": self.dec_w, "dec_b": self.dec_b,
        }

    def trainable(self) -> list[Tensor]:
        return [t for t in self.named_tensors().values() if t.requires_grad]

    def copy(self) -> "ModelParams":
        return _assemble(dict(self.vocab), self.embedding_frozen,
                         {name: t.values.copy() for name, t in self.named_tensors().items()})


def param_layout(vocab_size: int, embedding_dim: int,
                 hidden_size: int) -> list[tuple[str, tuple[int, ...], int | None]]:
    """Every parameter tensor as (name, shape, init fan-in), in checkpoint and
    seeded-init draw order; a fan-in of None marks a zero-initialized bias."""
    hd = hidden_size // 2
    in_dim = embedding_dim + 2

    def lstm(direction: str):
        return [(f"{direction}_wx", (in_dim, 4 * hd), in_dim),
                (f"{direction}_wh", (hd, 4 * hd), hd),
                (f"{direction}_b", (4 * hd,), None)]

    return [("embedding", (vocab_size, embedding_dim), embedding_dim),
            *lstm("fwd"), *lstm("bwd"),
            ("attn_w", (hidden_size, 2 * hidden_size), 2 * hidden_size),
            ("attn_b", (), None),
            ("dec_w", (hidden_size, N_CHANGES), hidden_size),
            ("dec_b", (N_CHANGES,), None)]


def _assemble(vocab: dict[str, int], embedding_frozen: bool,
              arrays: dict[str, np.ndarray]) -> ModelParams:
    """ModelParams from the named arrays of `param_layout`; a frozen embedding gets no gradient."""
    t = {name: Tensor(a, requires_grad=not (name == "embedding" and embedding_frozen))
         for name, a in arrays.items()}
    return ModelParams(
        vocab=vocab, embedding=t["embedding"], embedding_frozen=embedding_frozen,
        fwd=LstmWeights(t["fwd_wx"], t["fwd_wh"], t["fwd_b"]),
        bwd=LstmWeights(t["bwd_wx"], t["bwd_wh"], t["bwd_b"]),
        attn_w=t["attn_w"], attn_b=t["attn_b"], dec_w=t["dec_w"], dec_b=t["dec_b"],
        hidden_size=t["dec_w"].shape[0], embedding_dim=t["embedding"].shape[1])


def build_vocab(groups: Iterable[TopicGroup]) -> dict[str, int]:
    """Sorted training vocabulary with the unknown token at index 0."""
    tokens: set[str] = set()
    for g in groups:
        for ex in g.members:
            for sent in ex.steps:
                tokens.update(sent)
    vocab = {UNK_TOKEN: 0}
    for tok in sorted(tokens):
        if tok != UNK_TOKEN:
            vocab[tok] = len(vocab)
    return vocab


def init_params(vocab: dict[str, int], embedding_dim: int, hidden_size: int,
                seed: int, embeddings: EmbeddingTable | None = None) -> ModelParams:
    """Seeded parameter init: weights uniform in [-1/sqrt(fan_in), +], biases zero.

    With an embedding table the word vectors are copied from it and frozen;
    otherwise they are randomly initialized and trained.
    """
    if hidden_size % 2 != 0:
        raise ValueError("hidden_size must be even (half per direction)")
    if embeddings is not None and embeddings.dimension != embedding_dim:
        raise ValueError(
            f"embedding file dimension {embeddings.dimension} != configured {embedding_dim}")
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape, fan_in in param_layout(len(vocab), embedding_dim, hidden_size):
        if name == "embedding" and embeddings is not None:
            arrays[name] = np.stack([embeddings.lookup(tok) if tok != UNK_TOKEN
                                     else embeddings.unk_vector for tok in vocab])
        elif fan_in is None:
            arrays[name] = np.zeros(shape)
        else:
            r = 1.0 / np.sqrt(fan_in)
            arrays[name] = rng.uniform(-r, r, size=shape)
    return _assemble(vocab, embeddings is not None, arrays)


# ---------------------------------------------------------------------------
# forward pass

@dataclass
class CellBatch:
    """Encoder outputs for a batch of cells, one row per cell.

    Rows run item by item and step-major within an item, so item k's rows
    reshape to [n_steps, len(entities_k), ...].  Attention columns past a
    sentence's end hold exactly 0.
    """

    attention: Tensor  # [cells, longest sentence], each row sums to 1
    pooled: Tensor     # [cells, hidden_size], attention-weighted contextual vectors
    dists: Tensor      # [cells, N_CHANGES], state-change distributions


def _lstm_over_time(w: LstmWeights, words: Tensor, token_rows: np.ndarray,
                    flags: np.ndarray, unshuffle: np.ndarray, n_cells: int) -> Tensor:
    """One LSTM direction over every cell at once.

    Input row `tau * n_cells + c` is cell c's token at time tau.  Each
    cell's tokens come first and its padding last, so a cell's valid states
    never depend on its padding and no mask is needed.  The hidden outputs
    come back in the rows `unshuffle` picks from the time-major states.
    """
    d = words.shape[1]
    # the word projection is shared by every cell reading the token; the two
    # indicator flags go through the last two rows of wx
    xs = ad.add(ad.add(ad.gather_rows(ad.matmul(words, ad.narrow(w.wx, 0, d)), token_rows),
                       ad.matmul(ad.constant(flags), ad.narrow(w.wx, d, 2))), w.b)
    state = ad.zeros((n_cells, 2 * w.wh.shape[0]))
    states = []
    for tau in range(len(token_rows) // n_cells):
        state = ad.lstm_step(ad.narrow(xs, tau * n_cells, n_cells), state, w.wh)
        states.append(state)
    return ad.narrow(ad.gather_rows(ad.concat(states), unshuffle), 0, w.wh.shape[0], axis=1)


def encode_cells(params: ModelParams,
                 items: Sequence[tuple[ProcessExample, Sequence[int]]]) -> CellBatch:
    """Encode and decode every (step, entity) cell of every item in one pass.

    Each item pairs a paragraph with the entity indices whose columns are
    wanted.  A cell's result depends only on its own sentence and entity,
    never on the other cells it is batched with.
    """
    unk = params.vocab[UNK_TOKEN]
    word_ids: list[int] = []
    cells = []   # (first token row, sentence length) per cell
    marked = []  # (cell, token position, 0 = entity mention / 1 = verb)
    for example, entities in items:
        for t, tokens in enumerate(example.steps):
            first = len(word_ids)
            word_ids.extend(params.vocab.get(tok, unk) for tok in tokens)
            verbs = example.verb_tokens(t)
            for j in entities:
                if not 0 <= j < example.n_entities:
                    raise IndexError(f"entity {j} out of range for {example.id}")
                c = len(cells)
                cells.append((first, len(tokens)))
                marked.extend((c, i, 0) for i in example.entities[j].mention_tokens(t))
                marked.extend((c, i, 1) for i in verbs)

    first, lengths = np.array(cells, dtype=np.intp).T[:, :, None]
    n, width = len(cells), int(lengths.max())
    marks = np.zeros((n, width, 2))  # the two indicator flags, in token order
    marks[tuple(np.array(marked, dtype=np.intp).reshape(-1, 3).T)] = 1.0
    pos = np.arange(width)
    mask = pos < lengths
    # order[k, c, tau]: the token position direction k reads at time tau; the
    # backward direction reverses each cell's tokens and leaves padding last
    order = np.stack([np.broadcast_to(pos, (n, width)), np.where(mask, lengths - 1 - pos, pos)])
    # time-major inputs (row tau * n + c); padding reads token row 0 with no flags
    rows = np.where(mask, first + order, 0).transpose(0, 2, 1).reshape(2, -1)
    flags = np.take_along_axis(marks[None], order[..., None], axis=2)
    flags = flags.transpose(0, 2, 1, 3).reshape(2, -1, 2)
    # reversal is its own inverse, so the same order gathers the outputs back
    # to cell-major rows (c * width + position)
    unshuffle = (order * n + np.arange(n)[:, None]).reshape(2, -1)
    # mean over the mention / verb positions; an empty selection gives the zero vector
    pool = marks.transpose(0, 2, 1) / np.maximum(marks.sum(axis=1), 1.0)[:, :, None]

    words = ad.gather_rows(params.embedding, word_ids)
    hidden = params.hidden_size
    outputs = [_lstm_over_time(w, words, rows[k], flags[k], unshuffle[k], n)
               for k, w in enumerate((params.fwd, params.bwd))]
    ctx = ad.reshape(ad.concat(outputs, axis=1), (n, width, hidden))

    focus = ad.reshape(ad.bmm(ad.constant(pool), ctx), (n, 2 * hidden))
    query = ad.reshape(ad.matmul(focus, ad.transpose(params.attn_w)), (n, hidden, 1))
    scores = ad.add(ad.reshape(ad.bmm(ctx, query), (n, width)), params.attn_b)
    attention = ad.softmax(scores, mask)
    pooled = ad.reshape(ad.bmm(ad.reshape(attention, (n, 1, width)), ctx), (n, hidden))
    dists = ad.softmax(ad.add(ad.matmul(pooled, params.dec_w), params.dec_b))
    return CellBatch(attention=attention, pooled=pooled, dists=dists)


def predict_grid(params: ModelParams, example: ProcessExample) -> ChangeGrid:
    """Distribution grid for a whole paragraph.

    Pure function of (params, example): given immutable params it is safe to
    call concurrently across examples.
    """
    batch = encode_cells(params, [(example, range(example.n_entities))])
    return ChangeGrid.from_dists(
        batch.dists.values.reshape(example.n_steps, example.n_entities, N_CHANGES))


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(params: ModelParams, path) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "hidden_size": params.hidden_size,
        "embedding_dim": params.embedding_dim,
        "embedding_frozen": params.embedding_frozen,
        "vocab": list(params.vocab),
        "tensors": {
            name: {"shape": list(t.shape), "values": t.values.reshape(-1).tolist()}
            for name, t in params.named_tensors().items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_checkpoint(path) -> ModelParams:
    """Rebuild params from a checkpoint, rejecting shape mismatches and non-finite values."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"{path}: invalid JSON: {exc.msg}") from exc
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {payload.get('version')}")
    try:
        hidden = int(payload["hidden_size"])
        emb_dim = int(payload["embedding_dim"])
        frozen = bool(payload["embedding_frozen"])
        vocab = {tok: i for i, tok in enumerate(payload["vocab"])}
        raw = payload["tensors"]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: missing checkpoint field: {exc}") from exc

    arrays = {}
    for name, shape, _ in param_layout(len(vocab), emb_dim, hidden):
        if name not in raw:
            raise CheckpointError(f"{path}: missing tensor '{name}'")
        got = tuple(raw[name]["shape"])
        if got != shape:
            raise CheckpointError(
                f"{path}: tensor '{name}' has shape {list(got)}, expected {list(shape)}")
        values = np.asarray(raw[name]["values"], dtype=np.float64)
        if values.size != int(np.prod(shape)):
            raise CheckpointError(f"{path}: tensor '{name}' has wrong number of values")
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: tensor '{name}' holds a non-finite value")
        arrays[name] = values.reshape(shape)
    return _assemble(vocab, frozen, arrays)
