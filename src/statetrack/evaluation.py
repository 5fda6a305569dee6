"""Metrics: micro precision/recall/F1 over predicted state changes, and the
cross-paragraph consistency score.

A positive is any cell whose label is not NONE.  The consistency score asks,
for every unordered pair of paragraphs within a topic and every entity named
in both, whether the two predicted summary sets (the non-NONE labels an
entity receives anywhere in a paragraph) are equal.  Summary sets are kept
as summary masks, one 3-bit int per entity with bit b set iff label b occurs
in its column, so comparing two sets compares ints.  `predict`, `eval` and
dev scoring take labels and masks a chunk of paragraphs at a time from
`label_chunk`; `discretize` and `summary_set` give those of one grid.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import accumulate, chain, combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import (CHANGE_NAMES, N_CHANGES, ChangeGrid, ProcessExample, StateChange,
                     TopicGroup, shared_entities)

_NONE = StateChange.NONE.value

# the alphabetically sorted names of each summary mask's set, indexed by mask
SUMMARY_NAMES = tuple(tuple(sorted(name for b, name in enumerate(CHANGE_NAMES) if mask >> b & 1))
                      for mask in range(1 << _NONE))


@dataclass
class MetricsReport:
    precision: float
    recall: float
    f1: float
    gold_positives: int
    predicted_positives: int
    matched: int

    @classmethod
    def from_counts(cls, gold_positives: int, predicted_positives: int,
                    matched: int) -> "MetricsReport":
        p = matched / predicted_positives if predicted_positives else 0.0
        r = matched / gold_positives if gold_positives else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        return cls(precision=p, recall=r, f1=f1, gold_positives=gold_positives,
                   predicted_positives=predicted_positives, matched=matched)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class ConsistencyReport:
    score: float  # percentage, 0..100
    matches: int
    comparisons: int
    per_topic: list[dict]

    def to_json(self) -> dict:
        return {"consistency_score": self.score, "matches": self.matches,
                "comparisons": self.comparisons, "per_topic": self.per_topic}


def discretize(dists: np.ndarray) -> ChangeGrid:
    """The hard grid of a paragraph's [steps, entities, N_CHANGES] distributions:
    argmax per cell, ties to the earliest label in canonical order."""
    return ChangeGrid.from_labels(np.argmax(dists, axis=2))


def score_corpus(pairs: Iterable[tuple[ChangeGrid, ChangeGrid]]) -> MetricsReport:
    """Micro-aggregated P/R/F1 of (pred, gold) pairs: counts over all cells before the ratios."""
    preds, golds = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for pred, gold in pairs:
        if pred.shape != gold.shape:
            raise ValueError(f"grid shapes differ: {list(pred.shape)} vs {list(gold.shape)}")
        preds.append(pred.labels.reshape(-1))
        golds.append(gold.labels.reshape(-1))
    pred, gold = np.concatenate(preds), np.concatenate(golds)
    gold_pos = gold != _NONE
    return MetricsReport.from_counts(int(np.count_nonzero(gold_pos)),
                                     int(np.count_nonzero(pred != _NONE)),
                                     int(np.count_nonzero(gold_pos & (pred == gold))))


def _column_masks(labels: np.ndarray, columns: np.ndarray, n_columns: int) -> np.ndarray:
    """The summary mask of each of `n_columns` entity columns from hard
    labels and the column of each label (broadcast against the labels)."""
    seen = np.zeros((n_columns, N_CHANGES), dtype=bool)  # label b occurs in column c
    seen[columns, labels] = True
    return seen[:, :_NONE] @ (1 << np.arange(_NONE))


def label_chunk(examples: Sequence[ProcessExample],
                dists: np.ndarray) -> list[tuple[np.ndarray, list[int]]]:
    """Each paragraph's hard labels, [steps, entities], and the summary masks
    of its entity columns, from the [cells, N_CHANGES] distributions of a chunk
    of paragraphs whose cells run paragraph by paragraph, step-major.  One
    argmax labels the chunk, with ties to the earliest label as in
    `discretize`; one pass over its entity columns gives every mask."""
    labels = np.argmax(dists, axis=1)
    ends = [0, *accumulate(ex.n_steps * ex.n_entities for ex in examples)]
    firsts = [0, *accumulate(ex.n_entities for ex in examples)]
    # the chunk's entity column of every cell
    columns = np.fromiter(chain.from_iterable(
        [*range(first, last)] * ex.n_steps
        for ex, first, last in zip(examples, firsts, firsts[1:])), np.intp, len(labels))
    masks = _column_masks(labels, columns, firsts[-1]).tolist()
    return [(labels[start:end].reshape(ex.n_steps, -1), masks[first:last])
            for ex, start, end, first, last in zip(examples, ends, ends[1:], firsts, firsts[1:])]


def summary_set(grid: ChangeGrid, entity: int) -> frozenset[StateChange]:
    """Non-NONE labels appearing anywhere in the entity's column."""
    mask = int(_column_masks(grid.labels[:, entity], 0, 1)[0])
    return frozenset(c for c in StateChange if mask >> c & 1)


def consistency_score(groups: Sequence[TopicGroup],
                      masks: Mapping[str, Sequence[int]]) -> ConsistencyReport:
    """Percentage of shared-entity paragraph pairs whose summary sets match
    exactly, from each paragraph's summary masks by id (`label_chunk`).

    Counting is per entity pair: a paragraph pair sharing two entities
    contributes two comparisons.  Topics with no comparisons are skipped.
    """
    total_matches = total_comparisons = 0
    per_topic = []
    for g in groups:
        pairs = [(a, b, shared) for a, b in combinations(g.members, 2)
                 if (shared := shared_entities(a, b))]
        comparisons = sum(len(shared) for _, _, shared in pairs)
        matches = sum(masks[a.id][ia] == masks[b.id][ib]
                      for a, b, shared in pairs for ia, ib in shared)
        if comparisons:
            per_topic.append({"topic": g.topic, "matches": matches,
                              "comparisons": comparisons,
                              "score": 100.0 * matches / comparisons})
            total_matches += matches
            total_comparisons += comparisons
    score = 100.0 * total_matches / total_comparisons if total_comparisons else 0.0
    return ConsistencyReport(score=score, matches=total_matches,
                             comparisons=total_comparisons, per_topic=per_topic)
