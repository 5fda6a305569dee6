"""A frozen copy of `corpus.shared_entities` as it stood with its own
`normalize_entity` helper and a separate `seen` set for the first paragraph,
kept as the reference for the single first-occurrence index in
`statetrack.corpus`: both must return equal pairs."""

from __future__ import annotations

from statetrack.corpus import ProcessExample


def normalize_entity(name: str) -> str:
    return name.strip().lower()


def shared_entities(a: ProcessExample, b: ProcessExample) -> list[tuple[int, int]]:
    """Index pairs of entities whose names match exactly after lowercasing/trimming."""
    b_index: dict[str, int] = {}
    for j, ent in enumerate(b.entities):
        b_index.setdefault(normalize_entity(ent.name), j)
    pairs = []
    seen: set[str] = set()
    for i, ent in enumerate(a.entities):
        key = normalize_entity(ent.name)
        if key in b_index and key not in seen:
            seen.add(key)
            pairs.append((i, b_index[key]))
    return pairs
