"""Benchmark inputs: the training corpus and the seeded long-paragraph corpus.

The training corpus is what `statetrack gen --seed 42` writes for 10/3/3
topics with 3 paragraphs per topic and noise 0.15, the setting of the
semi-supervised acceptance criteria; it does not depend on the workload
seed, so training does the same work and reaches the same dev scores on
every seed.  The workload seed shapes the long paragraphs that `predict`
reads: each topic's three paragraphs are concatenated in a seeded order and
the topics are written in a seeded order.  Every seed gives the same 16
paragraphs' worth of cells, in different arrangements.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from statetrack import cli, corpus
from statetrack.corpus import ChangeGrid, Entity, ProcessExample, StateChange

GEN_ARGS = ["--seed", "42", "--train-topics", "10", "--dev-topics", "3", "--test-topics", "3",
            "--paragraphs", "3", "--noise", "0.15"]
SPLITS = ("train", "dev", "test")


def concat_topic(members: list[ProcessExample]) -> ProcessExample:
    """One long paragraph from a topic's paragraphs, steps in member order.

    Entities are the union by name in first-appearance order; mentions and
    verbs are shifted by each member's step offset and gold rows are
    concatenated, with NONE for an entity a member does not name.
    """
    names: list[str] = []
    for ex in members:
        names.extend(e.name for e in ex.entities if e.name not in names)
    mentions: dict[str, list] = {n: [] for n in names}
    steps, verbs, gold = [], [], []
    for ex in members:
        offset = len(steps)
        steps.extend(ex.steps)
        verbs.extend((s + offset, i) for s, i in ex.verbs)
        col = {e.name: j for j, e in enumerate(ex.entities)}
        for e in ex.entities:
            mentions[e.name].extend((s + offset, a, b) for s, a, b in e.mentions)
        for row in ex.gold.labels:
            gold.append([int(row[col[n]]) if n in col else StateChange.NONE.value
                         for n in names])
    long_ex = ProcessExample(
        id=members[0].topic + "-long", topic=members[0].topic, steps=tuple(steps),
        entities=tuple(Entity(name=n, mentions=tuple(mentions[n])) for n in names),
        verbs=tuple(verbs), gold=ChangeGrid.from_labels(gold))
    long_ex.validate()
    return long_ex


def build(workdir: Path, seed: int) -> dict:
    """Write the train/dev/test splits and the seeded long-paragraph corpus.

    Returns the paths plus, per corpus, the paragraph ids and cells per paragraph.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    if cli.main(["gen", "--out-dir", str(workdir), *GEN_ARGS]) != 0:
        raise RuntimeError("statetrack gen failed")
    paths = {s: workdir / f"{s}.jsonl" for s in SPLITS}
    examples = {s: corpus.load_examples(p) for s, p in paths.items()}
    rng = np.random.default_rng(seed)
    groups = corpus.group_by_topic(ex for s in SPLITS for ex in examples[s])
    examples["long"] = [concat_topic([g.members[int(i)] for i in rng.permutation(len(g.members))])
                        for g in (groups[int(k)] for k in rng.permutation(len(groups)))]
    paths["long"] = workdir / "long.jsonl"
    corpus.save_examples(paths["long"], examples["long"])
    return {"paths": paths,
            "ids": {name: [ex.id for ex in exs] for name, exs in examples.items()},
            "cells": {name: [ex.n_steps * ex.n_entities for ex in exs]
                      for name, exs in examples.items()}}
