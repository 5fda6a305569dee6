import evaluation_reference as reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from statetrack.corpus import (ChangeGrid, Entity, ProcessExample, StateChange,
                               TopicGroup)
from statetrack.evaluation import (SUMMARY_NAMES, MetricsReport, consistency_score,
                                   discretize, score_corpus, score_grids, summary_masks,
                                   summary_set)

M, C, D, N = (StateChange.MOVE.value, StateChange.CREATE.value,
              StateChange.DESTROY.value, StateChange.NONE.value)


def hard(rows):
    return ChangeGrid.from_labels(rows)


def paragraph(id, topic, entities, gold_rows=None):
    steps = tuple(("the", e, "is") for e in entities)
    ents = tuple(Entity(name=e, mentions=((t, 1, 2),))
                 for t, e in enumerate(entities))
    gold = hard(gold_rows) if gold_rows is not None else None
    ex = ProcessExample(id=id, topic=topic, steps=steps, entities=ents,
                        verbs=(), gold=gold)
    ex.validate()
    return ex


# ---------------------------------------------------------------------------
# discretize

def test_discretize_argmax():
    grid = ChangeGrid.from_dists([[[0.7, 0.1, 0.1, 0.1]]])
    assert discretize(grid).labels[0, 0] == M


def test_discretize_tie_breaks_canonical():
    grid = ChangeGrid.from_dists([[[0.25, 0.25, 0.25, 0.25]]])
    assert discretize(grid).labels[0, 0] == M
    grid = ChangeGrid.from_dists([[[0.1, 0.45, 0.45, 0.0]]])
    assert discretize(grid).labels[0, 0] == C


def test_discretize_idempotent():
    grid = ChangeGrid.from_dists([[[0.7, 0.1, 0.1, 0.1], [0.1, 0.2, 0.3, 0.4]]])
    once = discretize(grid)
    again = discretize(once)
    assert np.array_equal(once.labels, again.labels)


# ---------------------------------------------------------------------------
# P/R/F1

def test_perfect_prediction_scores_one():
    g = hard([[C, N], [N, D]])
    report = score_grids(g, g)
    assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)


def test_all_none_prediction_scores_zero():
    pred = hard([[N, N], [N, N]])
    gold = hard([[C, N], [N, D]])
    report = score_grids(pred, gold)
    assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)


def test_half_right_scores_half():
    gold = hard([[C], [D]])
    pred = hard([[C], [M]])
    report = score_grids(pred, gold)
    assert report.precision == 0.5
    assert report.recall == 0.5
    assert report.f1 == 0.5


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shapes differ"):
        score_grids(hard([[N]]), hard([[N, N]]))


def test_micro_aggregation_equals_concatenation():
    pred1, gold1 = hard([[C, N]]), hard([[C, D]])
    pred2, gold2 = hard([[M], [N]]), hard([[M], [D]])
    combined = score_corpus([(pred1, gold1), (pred2, gold2)])
    concat_pred = hard([[C, N], [M, N]])
    concat_gold = hard([[C, D], [M, D]])
    single = score_grids(concat_pred, concat_gold)
    assert combined == single


def test_f1_zero_iff_no_matches():
    report = MetricsReport.from_counts(gold_positives=3, predicted_positives=2,
                                       matched=0)
    assert report.f1 == 0.0
    report = MetricsReport.from_counts(3, 2, 1)
    assert report.f1 > 0.0


# ---------------------------------------------------------------------------
# summary sets

def test_summary_set_collects_non_none():
    grid = hard([[M], [N], [D]])
    assert summary_set(grid, 0) == {StateChange.MOVE, StateChange.DESTROY}


def test_summary_set_all_none_is_empty():
    assert summary_set(hard([[N], [N]]), 0) == frozenset()


def test_summary_set_deduplicates():
    assert summary_set(hard([[C], [C]]), 0) == {StateChange.CREATE}


# ---------------------------------------------------------------------------
# consistency score

def topic_with_predictions(summaries_per_paragraph, topic="trees"):
    """One topic, one shared entity, each paragraph predicting a given column."""
    group = TopicGroup(topic=topic)
    preds = {}
    for k, column in enumerate(summaries_per_paragraph):
        ex = paragraph(f"{topic}-{k}", topic, ("tree",))
        ex = ProcessExample(id=ex.id, topic=topic,
                            steps=tuple(ex.steps) * len(column),
                            entities=(Entity(name="tree", mentions=((0, 1, 2),)),),
                            verbs=(), gold=None)
        group.unlabeled.append(ex)
        preds[ex.id] = hard([[v] for v in column])
    return group, preds


def test_all_agree_scores_100():
    group, preds = topic_with_predictions([[C, N], [N, C], [C, C]])
    report = consistency_score([group], preds)
    assert report.score == 100.0
    assert report.comparisons == 3


def test_subset_summary_does_not_match():
    group, preds = topic_with_predictions([[M, N], [M, D]])
    report = consistency_score([group], preds)
    assert report.score == 0.0
    assert report.comparisons == 1


def test_two_of_three_agree_scores_third():
    group, preds = topic_with_predictions([[C, N], [C, N], [D, N]])
    report = consistency_score([group], preds)
    assert report.comparisons == 3
    assert report.matches == 1
    assert report.score == pytest.approx(100.0 / 3.0, abs=1e-9)


def test_consistency_invariant_to_paragraph_order():
    group, preds = topic_with_predictions([[C, N], [D, N], [C, C], [C, N]])
    reordered = TopicGroup(topic=group.topic,
                           unlabeled=list(reversed(group.unlabeled)))
    a = consistency_score([group], preds)
    b = consistency_score([reordered], preds)
    assert a.score == b.score
    assert a.comparisons == b.comparisons


def test_topics_without_comparisons_are_skipped():
    group, preds = topic_with_predictions([[C]])  # one paragraph: no pairs
    report = consistency_score([group], preds)
    assert report.comparisons == 0
    assert report.score == 0.0
    assert report.per_topic == []


def test_unshared_entities_do_not_count():
    a = paragraph("a", "t", ("water",))
    b = paragraph("b", "t", ("sugar",))
    group = TopicGroup(topic="t", unlabeled=[a, b])
    preds = {"a": hard([[M]]), "b": hard([[M]])}
    report = consistency_score([group], preds)
    assert report.comparisons == 0


# ---------------------------------------------------------------------------
# the mask form against the frozen per-cell reference

# names that align only after lowercasing and trimming, and one that never aligns
NAMES = ("water", "Water", " water", "WATER\t", "sugar", "Sugar ", "salt")


@hst.composite
def scored_topics(draw):
    """1-3 topics of 1-4 paragraphs, each with a hard prediction of at most
    8 steps x 5 entities; a paragraph is labeled or not, and a topic may
    share no entity at all."""
    groups, preds = [], {}
    for ti in range(draw(hst.integers(1, 3))):
        group = TopicGroup(topic=f"t{ti}")
        for k in range(draw(hst.integers(1, 4))):
            n_steps = draw(hst.integers(1, 8))
            names = draw(hst.lists(hst.sampled_from(NAMES), min_size=1, max_size=5))
            row = hst.lists(hst.sampled_from([N, N, M, C, D]), min_size=len(names),
                            max_size=len(names))
            grids = hst.lists(row, min_size=n_steps, max_size=n_steps).map(hard)
            gold = draw(hst.none() | grids)
            ex = ProcessExample(id=f"t{ti}-{k}", topic=group.topic, steps=(("w",),) * n_steps,
                                entities=tuple(Entity(name=n, mentions=()) for n in names),
                                verbs=(), gold=gold)
            (group.unlabeled if gold is None else group.labeled).append(ex)
            preds[ex.id] = draw(grids)
        groups.append(group)
    return groups, preds


def scored_pairs(groups, preds):
    return [(preds[ex.id], ex.gold) for g in groups for ex in g.labeled]


def outcome(score, *args):
    """What a scoring call returns, or the class and text of its ValueError."""
    try:
        return score(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scored_topics())
def test_mask_scoring_equals_the_per_cell_reference(case):
    groups, preds = case
    for grid in preds.values():
        masks = summary_masks(grid)
        assert masks.shape == (grid.shape[1],)
        for j, mask in enumerate(masks.tolist()):
            want = reference.summary_set(grid, j)
            assert summary_set(grid, j) == want
            assert mask == sum(1 << c for c in want)
            assert list(SUMMARY_NAMES[mask]) == sorted(c.name for c in want)
    pairs = scored_pairs(groups, preds)
    assert score_corpus(iter(pairs)) == reference.score_corpus(iter(pairs))
    got, want = consistency_score(groups, preds), reference.consistency_score(groups, preds)
    assert got == want and got.to_json() == want.to_json()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scored_topics(), hst.data())
def test_soft_and_mismatched_grids_fail_like_the_reference(case, data):
    # a soft grid fails consistency scoring only when some comparison reads it
    groups, preds = case
    soft_id = data.draw(hst.sampled_from(sorted(preds)))
    steps, entities = preds[soft_id].shape
    preds = {**preds, soft_id: ChangeGrid.from_dists(np.full((steps, entities, 4), 0.25))}
    assert (outcome(consistency_score, groups, preds)
            == outcome(reference.consistency_score, groups, preds))
    pairs = scored_pairs(groups, preds)
    if pairs:
        k = data.draw(hst.integers(0, len(pairs) - 1))
        pred, gold = pairs[k]
        if pred.is_hard:
            pred = data.draw(hst.sampled_from([
                hard(pred.labels[1:]), hard(pred.labels[:, 1:]),
                ChangeGrid.from_dists(np.eye(4)[pred.labels])]))
        pairs[k] = data.draw(hst.sampled_from([(pred, gold), (gold, pred)]))
    assert outcome(score_corpus, pairs) == outcome(reference.score_corpus, pairs)
