"""Base predictor: encode each (step, entity) pair and emit a 4-way
state-change distribution.

Per token the input is its word vector plus two indicator reals (is this
token a mention of the conditioned entity / is it a verb).  A bidirectional
LSTM produces contextual vectors; a bilinear attention conditioned on the
mean entity-mention vector and mean verb vector pools them; a single affine
layer plus softmax yields the cell distribution.  The parameters are the
named arrays of `param_layout`, the one list of their names and shapes; in
memory each LSTM weight kind is one tensor over both directions, and the
trained tensors are runs of one vector.
Every grid cell is predicted independently, but all cells of a batch are
computed together, as three tape ops: the input projection, the whole
BiLSTM and the attention-decoder head.  A batch's index data depends only
on the vocabulary and the paragraphs, so it is planned once (`plan_cells`)
and then run with the current weights as often as needed (`run_cells`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import (N_CHANGES, UNK_TOKEN, CorpusError, EmbeddingTable, ProcessExample,
                     TopicGroup, atomic_open, echo, matches, mismatch, read_json)

CHECKPOINT_VERSION = 1

PREDICT_CHUNK = 64  # paragraphs per encoder pass in predict_chunks
_SUM_TOL = 1e-9  # how far a predicted cell's sum may be from 1


class CheckpointError(ValueError):
    """A checkpoint file is malformed or internally inconsistent."""


class NumericalError(RuntimeError):
    """Training produced a non-finite loss, or a model a non-finite prediction."""


@dataclass
class ModelParams:
    """The vocabulary plus the parameter tensors by name.

    One tensor per `param_layout` array, but each LSTM weight kind is one
    [2, ...] tensor whose rows 0 and 1 are the fwd and bwd arrays (`wx`, `wh`
    and `b`); `named` reads the layout's arrays back.  Every trained tensor is
    one C-contiguous run of `flat`, and its grad the same run of `grads`, so
    the two vectors hold exactly what a training step updates.  Zero a grad in
    place and never replace one: a tensor whose grad no longer views `grads`
    drops out of the training step.  A frozen embedding is a constant tensor
    outside both vectors.  The sizes and the embedding's freezing are read off
    the tensors themselves.
    """

    vocab: dict[str, int]
    tensors: dict[str, Tensor]
    flat: np.ndarray
    grads: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.tensors["dec_w"].shape[0]

    @property
    def embedding_dim(self) -> int:
        return self.tensors["embedding"].shape[1]

    @property
    def embedding_frozen(self) -> bool:
        return not self.tensors["embedding"].requires_grad

    def named(self) -> dict[str, np.ndarray]:
        """Every `param_layout` array by name, in layout order: a tensor's
        values, or for a per-direction name its row of the kind's tensor."""
        arrays = {}
        for name, _, _ in param_layout(len(self.vocab), self.embedding_dim, self.hidden_size):
            direction, _, kind = name.partition("_")
            arrays[name] = (self.tensors[kind].values[("fwd", "bwd").index(direction)]
                            if direction in ("fwd", "bwd") else self.tensors[name].values)
        return arrays


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


def check_sizes(hidden_size: int, embedding_dim: int) -> None:
    """The model's size rules: hidden_size splits evenly over the two directions."""
    if hidden_size < 2 or hidden_size % 2 != 0:
        raise ValueError(f"hidden_size must be a positive even integer, got {echo(hidden_size)}")
    if embedding_dim < 1:
        raise ValueError(f"embedding_dim must be >= 1, got {echo(embedding_dim)}")


def _assemble(vocab: dict[str, int], embedding_frozen: bool,
              arrays: dict[str, np.ndarray]) -> ModelParams:
    """ModelParams from the named arrays of `param_layout`.  Each LSTM weight
    kind, named without its direction, stacks its fwd and bwd arrays; every
    trained tensor is copied into its run of one vector, in `tensors` order,
    with a zeroed grad viewing the same run of a second one."""
    stacked = {}
    for name, a in arrays.items():
        direction, _, kind = name.partition("_")
        if direction == "fwd":
            stacked[kind] = np.stack([a, arrays[f"bwd_{kind}"]])
        elif direction != "bwd":
            stacked[name] = a
    tensors = {"embedding": Tensor(stacked.pop("embedding"))} if embedding_frozen else {}
    flat = np.concatenate([a.reshape(-1) for a in stacked.values()], dtype=np.float64)
    grads = np.zeros(flat.size)
    start = 0
    for name, a in stacked.items():
        run, start = slice(start, start + a.size), start + a.size
        t = tensors[name] = Tensor(flat[run].reshape(a.shape), requires_grad=True)
        t.grad = grads[run].reshape(a.shape)
    return ModelParams(vocab, tensors, flat, grads)


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
    check_sizes(hidden_size, embedding_dim)
    if embeddings is not None and embeddings.dimension != embedding_dim:
        raise ValueError(
            f"embedding file dimension {embeddings.dimension} != configured {embedding_dim}")
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape, fan_in in param_layout(len(vocab), embedding_dim, hidden_size):
        if name == "embedding" and embeddings is not None:
            arrays[name] = np.stack([embeddings.lookup(tok) for tok in vocab])
        elif fan_in is None:
            arrays[name] = np.zeros(shape)
        else:
            r = 1.0 / np.sqrt(fan_in)
            arrays[name] = rng.uniform(-r, r, size=shape)
    return _assemble(vocab, embeddings is not None, arrays)


# ---------------------------------------------------------------------------
# forward pass

@dataclass(frozen=True, eq=False)
class CellPlan:
    """The encoder's index data for a batch of cells: everything `run_cells`
    needs that depends only on the vocabulary and the paragraphs, never on the
    weights, so one plan serves every epoch.  Its arrays are read-only."""

    word_ids: np.ndarray   # [tokens], vocabulary row of every token, item by item
    rows: np.ndarray       # [2, width * cells], token row each direction reads, time-major
    flags: np.ndarray      # [2, width * cells, 2], the indicator flags of those reads
    unshuffle: np.ndarray  # [2 * cells * width], gathers the states back cell-major
    pool: np.ndarray       # [cells, 2, width], mention / verb averaging weights
    mask: np.ndarray       # [cells, width], True where the cell's sentence has a token


_BACKWARD = np.array([False, True])[:, None, None]  # the direction axis of `plan_cells`' order


def plan_cells(vocab: dict[str, int],
               items: Sequence[tuple[ProcessExample, Sequence[int]]]) -> CellPlan:
    """Plan every (step, entity) cell of every item, one row per cell, item by
    item and step-major within an item.

    Each item pairs a paragraph with the entity indices whose columns are
    wanted.  A cell's result depends only on its own sentence and entity, up
    to rounding: the other cells it is batched with may move its last bits.
    """
    for example, entities in items:
        for j in entities:
            if not 0 <= j < example.n_entities:
                raise IndexError(f"entity {j} out of range for {example.id}")
    unk = vocab[UNK_TOKEN]
    steps = [tokens for example, _ in items for tokens in example.steps]
    words = list(chain.from_iterable(steps))
    word_ids = np.fromiter(map(vocab.get, words, repeat(unk)), np.intp, len(words))
    step_lengths = np.fromiter(map(len, steps), np.intp, len(steps))
    step_first = np.cumsum(step_lengths) - step_lengths  # each step's first token row
    columns = [len(entities) for example, entities in items for _ in example.steps]
    # each cell's first token row and sentence length, one cell per step and column
    first, lengths = (np.repeat(a, columns)[:, None] for a in (step_first, step_lengths))
    n, width = len(first), int(lengths.max())
    pos = np.arange(width)
    mask = pos < lengths
    # order[k, c, tau]: the token position direction k reads at time tau; the
    # backward direction reverses each cell's tokens and leaves padding last, so
    # a cell's valid states never depend on its padding and no mask is needed
    order = np.where(mask & _BACKWARD, lengths - 1 - pos, pos)
    tokens = np.where(mask, first + order, 0)  # their token rows; padding reads row 0
    # the two indicator flags of every cell, kind-major: kind 0 marks the
    # mentions of the cell's entity, kind 1 the verbs of its sentence, which
    # are flagged once per token and read by every cell of the sentence
    marks = np.zeros((n, 2, width))
    bases = [0, *accumulate(example.n_steps * len(entities) for example, entities in items)]
    cell, position = np.fromiter(chain.from_iterable(
        (base + t * len(entities) + col, p) for (example, entities), base in zip(items, bases)
        for col, j in enumerate(entities)
        for t, a, b in example.entities[j].mentions for p in range(a, b)),
        np.intp).reshape(-1, 2).T
    marks[cell, 0, position] = 1.0
    offsets = [0, *accumulate(example.n_steps for example, _ in items)]
    step, at = np.fromiter(chain.from_iterable(
        (offset + t, i) for (example, _), offset in zip(items, offsets)
        for t, i in example.verbs), np.intp).reshape(-1, 2).T
    verbs = np.zeros(len(words))
    verbs[step_first[step] + at] = 1.0
    marks[:, 1] = verbs[tokens[0]] * mask
    # time-major inputs (row tau * n + c) and their flags
    cells = np.arange(n)[:, None]
    reads = (cells * width + order).transpose(0, 2, 1).reshape(-1)
    rows = tokens.transpose(0, 2, 1).reshape(2, -1)
    flags = np.take(marks.transpose(0, 2, 1).reshape(-1, 2), reads, axis=0).reshape(2, -1, 2)
    # reversal is its own inverse, so the same order gathers the states of
    # direction k (rows k * width * n + tau * n + c) back to cell-major rows
    # (c * width + position); row r of direction k is gathered as row 2r + k
    unshuffle = (order * n + cells + _BACKWARD * (width * n)).transpose(1, 2, 0).reshape(-1)
    # mean over the mention / verb positions; an empty selection gives the zero vector
    pool = marks / np.maximum(marks.sum(axis=2, keepdims=True), 1.0)
    plan = CellPlan(word_ids=word_ids, rows=rows, flags=flags,
                    unshuffle=unshuffle, pool=pool, mask=mask)
    for array in vars(plan).values():
        array.flags.writeable = False
    return plan


def run_cells(params: ModelParams, plan: CellPlan) -> Tensor:
    """The [cells, N_CHANGES] distributions of every cell of a plan, as three
    tape nodes; `plan` must come from `plan_cells(params.vocab, ...)`."""
    t = params.tensors
    inputs = ad.project(t["embedding"], t["wx"], t["b"], plan.word_ids, plan.rows, plan.flags)
    states = ad.bilstm(inputs, t["wh"], plan.mask.shape[0])
    return ad.head(states, t["attn_w"], t["attn_b"], t["dec_w"], t["dec_b"],
                   plan.unshuffle, plan.pool, plan.mask)[0]


def plan_chunks(vocab: dict[str, int], examples: Sequence[ProcessExample]) -> list[CellPlan]:
    """One plan over every cell of each PREDICT_CHUNK consecutive paragraphs."""
    return [plan_cells(vocab, [(ex, range(ex.n_entities))
                               for ex in examples[start:start + PREDICT_CHUNK]])
            for start in range(0, len(examples), PREDICT_CHUNK)]


def predict_chunks(params: ModelParams, examples: Sequence[ProcessExample],
                   plans: Sequence[CellPlan] | None = None
                   ) -> Iterator[tuple[Sequence[ProcessExample], np.ndarray]]:
    """Each PREDICT_CHUNK consecutive paragraphs with the [cells, N_CHANGES]
    distributions of all their cells, paragraph by paragraph and step-major,
    from one encoder pass, which bounds the memory.  `plans` are the
    examples' `plan_chunks`, built here when not given.  A chunk with a
    non-finite cell is a NumericalError, one that is not a distribution a CorpusError."""
    if plans is None:
        plans = plan_chunks(params.vocab, examples)
    for start, plan in zip(range(0, len(examples), PREDICT_CHUNK), plans, strict=True):
        with np.errstate(all="ignore"):  # an overflow shows as a non-finite value
            dists = run_cells(params, plan).values
        if not np.isfinite(dists).all():
            raise NumericalError("the model predicts non-finite distributions")
        if dists.min() < 0.0:
            raise CorpusError("distribution cells must be nonnegative")
        if np.max(np.abs(dists.sum(axis=1) - 1.0)) > _SUM_TOL:
            raise CorpusError("distribution cells must sum to 1")
        yield examples[start:start + PREDICT_CHUNK], dists


def predict_grid(params: ModelParams, example: ProcessExample) -> np.ndarray:
    """The [steps, entities, N_CHANGES] distributions of a whole paragraph, from
    one `predict_chunks` pass over it alone: a pure function of (params,
    example), safe to call concurrently given immutable params."""
    [(_, dists)] = predict_chunks(params, [example])
    return dists.reshape(example.n_steps, example.n_entities, N_CHANGES)


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
            name: {"shape": list(a.shape), "values": a.reshape(-1).tolist()}
            for name, a in params.named().items()
        },
    }
    text = json.dumps(payload)  # one call takes the C encoder, which `json.dump` never does
    with atomic_open(path) as fh:
        fh.write(text + "\n")


_CHECKPOINT = {"version": Literal[CHECKPOINT_VERSION], "hidden_size": int, "embedding_dim": int,
               "embedding_frozen": bool, "vocab": list, "tensors": dict}
_TENSOR = {"shape": list[int], "values": list[float]}


def load_checkpoint(path) -> ModelParams:
    """Rebuild params from a checkpoint, rejecting malformed structure, shape
    mismatches and non-finite values with a CheckpointError naming the file."""
    with open(path, "rb") as fh:
        payload = read_json(fh.read(), str(path), CheckpointError)
    key = mismatch(payload, _CHECKPOINT)
    if key is not None and key not in _CHECKPOINT:
        raise CheckpointError(f"{path}: unknown field '{echo(key)}'")
    if key == "version":
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {echo(repr(payload.get(key)))}")
    if key is not None:
        raise CheckpointError(f"{path}: field '{key}' must be {_CHECKPOINT[key].__name__}, "
                              f"got {type(payload.get(key)).__name__}")
    try:
        check_sizes(payload["hidden_size"], payload["embedding_dim"])
    except ValueError as exc:
        raise CheckpointError(f"{path}: field {exc}") from exc
    if not matches(payload["vocab"], list[str]) or UNK_TOKEN not in payload["vocab"]:
        raise CheckpointError(f"{path}: vocab must list token strings including {UNK_TOKEN}")
    vocab = {tok: i for i, tok in enumerate(payload["vocab"])}
    if len(vocab) != len(payload["vocab"]):
        repeated = next(tok for i, tok in enumerate(payload["vocab"]) if vocab[tok] != i)
        raise CheckpointError(f"{path}: vocab lists token {echo(repr(repeated))} twice")
    raw = payload["tensors"]

    arrays = {}
    for name, shape, _ in param_layout(len(vocab), payload["embedding_dim"],
                                       payload["hidden_size"]):
        entry = raw.get(name)
        if not isinstance(entry, dict):
            raise CheckpointError(f"{path}: tensor '{name}' is missing or not an object")
        key = mismatch(entry, _TENSOR)
        if key is not None and key not in _TENSOR:
            raise CheckpointError(f"{path}: tensor '{name}' has unknown field '{echo(key)}'")
        got, values = entry.get("shape"), entry.get("values")
        if key == "shape" or tuple(got) != shape:
            raise CheckpointError(
                f"{path}: tensor '{name}' has shape {echo(got)}, expected {list(shape)}")
        if key == "values":
            raise CheckpointError(f"{path}: tensor '{name}' values must be a list of numbers")
        if len(values) != int(np.prod(shape)):
            raise CheckpointError(f"{path}: tensor '{name}' has wrong number of values")
        try:
            values = np.asarray(values, dtype=np.float64)
        except OverflowError:  # an integer past the float range
            values = np.array(np.inf)
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: tensor '{name}' holds a non-finite value")
        arrays[name] = values.reshape(shape)
    for name in raw:
        if name not in arrays:
            raise CheckpointError(f"{path}: unknown tensor '{echo(name)}'")
    return _assemble(vocab, payload["embedding_frozen"], arrays)
