"""A frozen copy of `corpus._parse_example` (one closure per checked field,
gold names looked up with `CHANGE_NAMES.index`) and of
`ProcessExample.validate`, kept as the reference for the parser in
`statetrack.corpus`: both must raise the same `CorpusError` text or return
equal examples."""

from __future__ import annotations

from itertools import chain

import numpy as np

from statetrack.corpus import CHANGE_NAMES, ChangeGrid, CorpusError, Entity, ProcessExample


def _is_list_of(value, item: type) -> bool:
    # types match exactly, so JSON true/false never pass as integers
    return type(value) is list and set(map(type, value)) <= {item}


def _is_rows(value, item: type, length: int | None = None) -> bool:
    """Whether parsed JSON is a list of lists of `item`, each `length` long if given."""
    return (_is_list_of(value, list) and (length is None or set(map(len, value)) <= {length})
            and set(map(type, chain.from_iterable(value))) <= {item})


def _echo(value) -> str:
    """str(value) echoed up to 80 characters, then "..."."""
    text = str(value)
    return text if len(text) <= 80 else text[:80] + "..."


def _parse_example(obj: dict, where: str) -> ProcessExample:
    def get(container: dict, key: str, ok, expected: str):
        if key not in container:
            raise CorpusError(f"{where}: missing field {key!r}")
        if not ok(container[key]):
            raise CorpusError(
                f"{where}: field {key!r} must be {expected}, got {_echo(repr(container[key]))}")
        return container[key]

    def is_str(value) -> bool:
        return type(value) is str

    entities = tuple(
        Entity(name=get(e, "name", is_str, "a string"),
               mentions=tuple(map(tuple, get(e, "mentions", lambda v: _is_rows(v, int, 3),
                                             "a list of [step, start, end]"))))
        for e in get(obj, "entities", lambda v: _is_list_of(v, dict), "a list of objects"))
    gold = None
    if obj.get("gold") is not None:
        rows = get(obj, "gold", lambda v: _is_rows(v, str, len(entities)),
                   f"a list of rows of {len(entities)} labels")
        labels = list(chain.from_iterable(rows))
        if unknown := sorted(set(labels) - set(CHANGE_NAMES)):
            raise CorpusError(f"{where}: unknown state change {_echo(repr(unknown[0]))}")
        gold = ChangeGrid.from_labels(np.array([CHANGE_NAMES.index(label) for label in labels],
                                               dtype=np.int64).reshape(len(rows), len(entities)))
    ex = ProcessExample(
        id=get(obj, "id", is_str, "a string"),
        topic=get(obj, "topic", is_str, "a string"),
        steps=tuple(map(tuple, get(obj, "steps", lambda v: _is_rows(v, str),
                                   "a list of token lists"))),
        entities=entities,
        verbs=tuple(map(tuple, get(obj, "verbs", lambda v: _is_rows(v, int, 2),
                                   "a list of [step, token index]"))),
        gold=gold,
    )
    try:
        validate(ex)
    except CorpusError as exc:
        raise CorpusError(f"{where}: {exc}") from exc
    return ex


def validate(self: ProcessExample) -> None:
    if self.n_steps < 1:
        raise CorpusError(f"example {_echo(self.id)}: needs at least one step")
    if self.n_entities < 1:
        raise CorpusError(f"example {_echo(self.id)}: needs at least one entity")
    seen = set()
    for ent in self.entities:
        if ent.name in seen:
            raise CorpusError(f"example {_echo(self.id)}: two entities are named "
                              f"'{_echo(ent.name)}'")
        seen.add(ent.name)
    for t, sent in enumerate(self.steps):
        if len(sent) < 1:
            raise CorpusError(f"example {_echo(self.id)}: step {t} is empty")
    for ent in self.entities:
        for s, a, b in ent.mentions:
            if not (0 <= s < self.n_steps) or not (0 <= a < b <= len(self.steps[s])):
                raise CorpusError(
                    f"example {_echo(self.id)}: mention {[s, a, b]} of '{_echo(ent.name)}' "
                    f"outside its sentence")
    for s, i in self.verbs:
        if not (0 <= s < self.n_steps) or not (0 <= i < len(self.steps[s])):
            raise CorpusError(
                f"example {_echo(self.id)}: verb index {[s, i]} outside its sentence")
    if self.gold is not None and self.gold.shape != (self.n_steps, self.n_entities):
        raise CorpusError(
            f"example {_echo(self.id)}: gold grid shape {list(self.gold.shape)} does not "
            f"match {self.n_steps} steps x {self.n_entities} entities")
