"""Metrics: micro precision/recall/F1 over predicted state changes, and the
cross-paragraph consistency score.

A positive is any cell whose label is not NONE.  The consistency score asks,
for every unordered pair of paragraphs within a topic and every entity named
in both, whether the two predicted summary sets (the non-NONE labels an
entity receives anywhere in a paragraph) are equal.  A grid's summary sets
are computed all at once as summary masks, one 3-bit int per entity with bit
b set iff label b occurs in its column, so comparing two sets compares ints.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import CHANGE_NAMES, ChangeGrid, StateChange, TopicGroup, shared_entities

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


def discretize(grid: ChangeGrid) -> ChangeGrid:
    """Argmax per cell; ties resolve to the earliest label in canonical order.

    Hard grids pass through unchanged, so re-discretizing is a no-op.
    """
    if grid.is_hard:
        return grid
    return ChangeGrid.from_labels(np.argmax(grid.dists, axis=2))


def score_grids(pred: ChangeGrid, gold: ChangeGrid) -> MetricsReport:
    return score_corpus([(pred, gold)])


def score_corpus(pairs: Iterable[tuple[ChangeGrid, ChangeGrid]]) -> MetricsReport:
    """Micro-aggregated P/R/F1: counts over all grids' cells before the ratios."""
    preds, golds = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for pred, gold in pairs:
        if not (pred.is_hard and gold.is_hard):
            raise ValueError("score_grids needs hard grids; discretize first")
        if pred.shape != gold.shape:
            raise ValueError(f"grid shapes differ: {list(pred.shape)} vs {list(gold.shape)}")
        preds.append(pred.labels.reshape(-1))
        golds.append(gold.labels.reshape(-1))
    pred, gold = np.concatenate(preds), np.concatenate(golds)
    gold_pos = gold != _NONE
    return MetricsReport.from_counts(int(np.count_nonzero(gold_pos)),
                                     int(np.count_nonzero(pred != _NONE)),
                                     int(np.count_nonzero(gold_pos & (pred == gold))))


def summary_masks(grid: ChangeGrid) -> np.ndarray:
    """Every entity's summary set as a 3-bit int: bit b is set iff label b,
    not NONE, appears anywhere in the entity's column."""
    if not grid.is_hard:
        raise ValueError("summary_set needs a hard grid; discretize first")
    labels = grid.labels
    return np.bitwise_or.reduce(np.where(labels == _NONE, 0, 1 << labels), axis=0)


def summary_set(grid: ChangeGrid, entity: int) -> frozenset[StateChange]:
    """Non-NONE labels appearing anywhere in the entity's column."""
    mask = int(summary_masks(grid)[entity])
    return frozenset(c for c in StateChange if mask >> c & 1)


def consistency_score(groups: Sequence[TopicGroup],
                      preds: Mapping[str, ChangeGrid]) -> ConsistencyReport:
    """Percentage of shared-entity paragraph pairs whose summary sets match exactly.

    Counting is per entity pair: a paragraph pair sharing two entities
    contributes two comparisons.  Topics with no comparisons are skipped.
    """
    total_matches = total_comparisons = 0
    per_topic = []
    for g in groups:
        pairs = [(a, b, shared) for a, b in combinations(g.members, 2)
                 if (shared := shared_entities(a, b))]
        masks = {ex.id: summary_masks(preds[ex.id]).tolist()
                 for a, b, _ in pairs for ex in (a, b)}
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
