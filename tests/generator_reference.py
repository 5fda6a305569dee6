"""A frozen copy of `corpus.generate_synthetic` with one `rng.choice` per drawn
verb, place and filler word and `StateChange` members in its per-cell loops,
kept as the reference for the integer-draw form in `statetrack.corpus`.  The
corpus a `gen` seed writes is pinned by comparing the two."""

from __future__ import annotations

import numpy as np

from statetrack.corpus import ChangeGrid, Entity, ProcessExample, StateChange, TopicGroup


_NOUNS = ("water", "oxygen", "sugar", "carbon", "light", "soil",
          "energy", "rain", "rock", "cell", "salt", "heat")
_PLACES = ("sea", "air", "leaf", "ground", "cloud", "root")
_CHANGE_VERBS = {
    StateChange.MOVE: ("moves", "travels", "flows", "drifts", "migrates", "spreads"),
    StateChange.CREATE: ("forms", "appears", "emerges", "develops", "arises", "originates"),
    StateChange.DESTROY: ("vanishes", "dissolves", "decays", "collapses", "disappears", "erodes"),
}
_NONE_VERBS = ("remains", "rests", "waits")
_PREPOSITION = {StateChange.MOVE: "to", StateChange.CREATE: "in", StateChange.DESTROY: "near"}


def _sentence(entity: str, verb: str, prep: str, place: str):
    tokens = ("the", entity, verb, prep, "the", place)
    return tokens, 1, 2  # mention index, verb index


def generate_synthetic(seed: int, topics: int, paragraphs_per_topic: int,
                       noise: float) -> list[TopicGroup]:
    """Build a labeled corpus where paragraphs of one topic share hidden per-entity summaries.

    Each topic fixes one state change per entity; each paragraph realizes every
    change as one templated sentence (wording and step order vary per
    paragraph) plus one no-change filler sentence.  With probability `noise` a
    paragraph swaps one entity's change for a different one, violating the
    cross-paragraph agreement the training loss expects; the paragraph's own
    gold grid always matches its own text.
    """
    if topics < 1 or paragraphs_per_topic < 1:
        raise ValueError("topics and paragraphs_per_topic must be >= 1")
    if not 0.0 <= noise <= 1.0:
        raise ValueError("noise must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    changes = (StateChange.MOVE, StateChange.CREATE, StateChange.DESTROY)
    groups = []
    for ti in range(topics):
        topic = f"process-{ti:03d}"
        k = int(rng.integers(2, 4))
        entities = [str(n) for n in rng.choice(_NOUNS, size=k, replace=False)]
        summary = {e: changes[int(rng.integers(0, 3))] for e in entities}
        group = TopicGroup(topic=topic)
        for pi in range(paragraphs_per_topic):
            realized = dict(summary)
            # perturbation draws are consumed unconditionally so that corpora
            # generated from the same seed align paragraph-for-paragraph
            # across noise levels
            perturb = rng.random() < noise
            victim = entities[int(rng.integers(0, k))]
            replacement = int(rng.integers(0, 2))
            if perturb:
                others = [c for c in changes if c != summary[victim]]
                realized[victim] = others[replacement]
            sentences = []
            cell_changes = []  # per sentence: (entity index, change)
            for j, e in enumerate(entities):
                change = realized[e]
                verb = str(rng.choice(_CHANGE_VERBS[change]))
                place = str(rng.choice(_PLACES))
                sentences.append(_sentence(e, verb, _PREPOSITION[change], place))
                cell_changes.append((j, change))
            filler_j = int(rng.integers(0, k))
            sentences.append(_sentence(entities[filler_j], str(rng.choice(_NONE_VERBS)),
                                       "in", str(rng.choice(_PLACES))))
            cell_changes.append((filler_j, StateChange.NONE))

            order = rng.permutation(len(sentences))
            steps, mentions, verbs, gold = [], {j: [] for j in range(k)}, [], []
            for t, src in enumerate(order):
                tokens, m_idx, v_idx = sentences[src]
                j, change = cell_changes[src]
                steps.append(tokens)
                mentions[j].append((t, m_idx, m_idx + 1))
                verbs.append((t, v_idx))
                row = [StateChange.NONE.value] * k
                row[j] = change.value
                gold.append(row)

            ex = ProcessExample(
                id=f"{topic}-p{pi}",
                topic=topic,
                steps=tuple(steps),
                entities=tuple(Entity(name=e, mentions=tuple(mentions[j]))
                               for j, e in enumerate(entities)),
                verbs=tuple(verbs),
                gold=ChangeGrid.from_labels(gold),
            )
            ex.validate()
            group.labeled.append(ex)
        groups.append(group)
    return groups
