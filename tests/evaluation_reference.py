"""A frozen copy of the per-cell `summary_set`, `score_corpus` and
`consistency_score` (summary sets as frozensets of `StateChange`, counts
summed grid by grid), kept as the reference for the mask form in
`statetrack.evaluation`."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from statetrack.corpus import ChangeGrid, StateChange, TopicGroup, shared_entities
from statetrack.evaluation import ConsistencyReport, MetricsReport


def _positive_counts(pred: ChangeGrid, gold: ChangeGrid) -> tuple[int, int, int]:
    if pred.shape != gold.shape:
        raise ValueError(f"grid shapes differ: {list(pred.shape)} vs {list(gold.shape)}")
    none = StateChange.NONE.value
    gold_pos = int(np.sum(gold.labels != none))
    pred_pos = int(np.sum(pred.labels != none))
    matched = int(np.sum((gold.labels != none) & (pred.labels == gold.labels)))
    return gold_pos, pred_pos, matched


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
