"""A frozen copy of the per-paragraph output path of `predict` and
`eval --out` from before labels and summaries were taken once per chunk:
each paragraph's rows of `model.predict_chunks` are labelled alone by their
argmax, written through `dataclasses.replace` and `example_to_json` with its
summary sets read cell by cell, and encoded line by line with `json.dumps`;
`eval`'s metrics come from the per-cell reference scorers.  Kept as the byte
oracle for `cli.cmd_predict` and `cli.cmd_eval`."""

from __future__ import annotations

import dataclasses
import json
from typing import Sequence

import evaluation_reference
import numpy as np

from statetrack import corpus, model
from statetrack.corpus import N_CHANGES, ChangeGrid, ProcessExample, TopicGroup


def grids(params: model.ModelParams, examples: Sequence[ProcessExample]) -> list[np.ndarray]:
    """Each paragraph's [steps, entities, N_CHANGES] distributions, as views
    of the rows of `model.predict_chunks`."""
    out = []
    for chunk, dists in model.predict_chunks(params, examples):
        ends = np.cumsum([ex.n_steps * ex.n_entities for ex in chunk])[:-1]
        out += [rows.reshape(ex.n_steps, ex.n_entities, N_CHANGES)
                for ex, rows in zip(chunk, np.split(dists, ends))]
    return out


def _hard_grids(params: model.ModelParams,
                examples: Sequence[ProcessExample]) -> list[ChangeGrid]:
    return [ChangeGrid.from_labels(np.argmax(grid, axis=2)) for grid in grids(params, examples)]


def predict_bytes(params: model.ModelParams, examples: Sequence[ProcessExample]) -> bytes:
    """The bytes `predict` writes for `examples`."""
    lines = []
    for ex, hard in zip(examples, _hard_grids(params, examples)):
        obj = corpus.example_to_json(dataclasses.replace(ex, gold=hard))
        obj["summary"] = {
            ent.name: sorted(c.name for c in evaluation_reference.summary_set(hard, j))
            for j, ent in enumerate(ex.entities)}
        lines.append(json.dumps(obj, ensure_ascii=False) + "\n")
    return "".join(lines).encode("utf-8")


def eval_bytes(params: model.ModelParams, groups: Sequence[TopicGroup]) -> bytes:
    """The bytes `eval --out` writes for a corpus loaded as `groups`."""
    examples = corpus.flatten_groups(groups)
    hard = dict(zip((ex.id for ex in examples), _hard_grids(params, examples)))
    metrics = evaluation_reference.score_corpus(
        (hard[ex.id], ex.gold) for ex in examples if ex.gold is not None)
    consistency = evaluation_reference.consistency_score(groups, hard)
    return (json.dumps({**metrics.to_json(), **consistency.to_json()}, indent=2)
            + "\n").encode("utf-8")
