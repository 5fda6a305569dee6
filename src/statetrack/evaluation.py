"""Metrics: micro precision/recall/F1 over predicted state changes, and the
cross-paragraph consistency score.

A positive is any cell whose label is not NONE.  The consistency score asks,
for every unordered pair of paragraphs within a topic and every entity named
in both, whether the two predicted summary sets (the non-NONE labels an
entity receives anywhere in a paragraph) are equal.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import ChangeGrid, StateChange, TopicGroup, shared_entities


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


def _positive_counts(pred: ChangeGrid, gold: ChangeGrid) -> tuple[int, int, int]:
    if not (pred.is_hard and gold.is_hard):
        raise ValueError("score_grids needs hard grids; discretize first")
    if pred.shape != gold.shape:
        raise ValueError(f"grid shapes differ: {list(pred.shape)} vs {list(gold.shape)}")
    none = StateChange.NONE.value
    gold_pos = int(np.sum(gold.labels != none))
    pred_pos = int(np.sum(pred.labels != none))
    matched = int(np.sum((gold.labels != none) & (pred.labels == gold.labels)))
    return gold_pos, pred_pos, matched


def score_grids(pred: ChangeGrid, gold: ChangeGrid) -> MetricsReport:
    return MetricsReport.from_counts(*_positive_counts(pred, gold))


def score_corpus(pairs: Iterable[tuple[ChangeGrid, ChangeGrid]]) -> MetricsReport:
    """Micro-aggregated P/R/F1: counts summed across grids before the ratios."""
    gold_pos = pred_pos = matched = 0
    for pred, gold in pairs:
        g, p, m = _positive_counts(pred, gold)
        gold_pos += g
        pred_pos += p
        matched += m
    return MetricsReport.from_counts(gold_pos, pred_pos, matched)


def summary_set(grid: ChangeGrid, entity: int) -> frozenset[StateChange]:
    """Non-NONE labels appearing anywhere in the entity's column."""
    if not grid.is_hard:
        raise ValueError("summary_set needs a hard grid; discretize first")
    return frozenset(StateChange(v) for v in grid.labels[:, entity]
                     if v != StateChange.NONE.value)


def consistency_score(groups: Sequence[TopicGroup],
                      preds: Mapping[str, ChangeGrid]) -> ConsistencyReport:
    """Percentage of shared-entity paragraph pairs whose summary sets match exactly.

    Counting is per entity pair: a paragraph pair sharing two entities
    contributes two comparisons.  Topics with no comparisons are skipped.
    """
    total_matches = total_comparisons = 0
    per_topic = []
    for g in groups:
        members = g.members
        matches = comparisons = 0
        for a_idx in range(len(members)):
            for b_idx in range(a_idx + 1, len(members)):
                a, b = members[a_idx], members[b_idx]
                for ia, ib in shared_entities(a, b):
                    comparisons += 1
                    if summary_set(preds[a.id], ia) == summary_set(preds[b.id], ib):
                        matches += 1
        if comparisons:
            per_topic.append({"topic": g.topic, "matches": matches,
                              "comparisons": comparisons,
                              "score": 100.0 * matches / comparisons})
            total_matches += matches
            total_comparisons += comparisons
    score = 100.0 * total_matches / total_comparisons if total_comparisons else 0.0
    return ConsistencyReport(score=score, matches=total_matches,
                             comparisons=total_comparisons, per_topic=per_topic)
