"""Data model for procedural-text paragraphs, JSONL ingestion, and a seeded
synthetic corpus generator.

Corpus files are UTF-8 JSON Lines, one paragraph per line:

    {"id": "...", "topic": "...",
     "steps": [["the", "water", "moves", ...], ...],
     "entities": [{"name": "water", "mentions": [[step, start, end], ...]}, ...],
     "verbs": [[step, token_index], ...],
     "gold": [["NONE", "MOVE"], ...]}          # optional, T rows x |E| labels

Mention spans are half-open token ranges within one sentence.  Everything is
immutable after load.
"""

from __future__ import annotations

import dataclasses
import json
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import chain
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

N_CHANGES = 4

UNK_TOKEN = "<unk>"  # the vocabulary and embedding entry of every unknown word


class StateChange(IntEnum):
    """The four per-step state changes, in the canonical order used for all 4-vectors."""

    MOVE = 0
    CREATE = 1
    DESTROY = 2
    NONE = 3


CHANGE_NAMES = tuple(c.name for c in StateChange)


class CorpusError(ValueError):
    """A corpus or embedding file failed to parse or validate."""


@dataclass(frozen=True)
class Entity:
    name: str
    mentions: tuple[tuple[int, int, int], ...]  # (step, start, end) half-open

    def mention_tokens(self, step: int) -> list[int]:
        out = []
        for s, a, b in self.mentions:
            if s == step:
                out.extend(range(a, b))
        return out


def normalize_entity(name: str) -> str:
    return name.strip().lower()


@dataclass
class ChangeGrid:
    """T x E grid of state changes: hard labels or per-cell 4-way distributions."""

    labels: np.ndarray | None = None  # int array [T, E]
    dists: np.ndarray | None = None   # float array [T, E, 4]

    @classmethod
    def from_labels(cls, labels) -> "ChangeGrid":
        arr = np.asarray(labels, dtype=np.int64)
        if arr.ndim != 2:
            raise CorpusError(f"hard grid must be 2-D, got shape {list(arr.shape)}")
        if arr.min(initial=0) < 0 or arr.max(initial=0) >= N_CHANGES:
            raise CorpusError("hard grid labels must be in [0, 3]")
        return cls(labels=arr)

    @classmethod
    def from_dists(cls, dists, tol: float = 1e-9) -> "ChangeGrid":
        arr = np.asarray(dists, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != N_CHANGES:
            raise CorpusError(f"distribution grid must be [T, E, 4], got shape {list(arr.shape)}")
        if arr.min(initial=0.0) < 0.0:
            raise CorpusError("distribution cells must be nonnegative")
        sums = arr.sum(axis=2)
        if arr.size and np.max(np.abs(sums - 1.0)) > tol:
            raise CorpusError("distribution cells must sum to 1")
        return cls(dists=arr)

    @property
    def is_hard(self) -> bool:
        return self.labels is not None

    @property
    def shape(self) -> tuple[int, int]:
        arr = self.labels if self.labels is not None else self.dists
        return (arr.shape[0], arr.shape[1])


@dataclass(frozen=True)
class ProcessExample:
    """One paragraph: tokenized steps plus entity/verb annotations and optional gold grid."""

    id: str
    topic: str
    steps: tuple[tuple[str, ...], ...]
    entities: tuple[Entity, ...]
    verbs: tuple[tuple[int, int], ...]
    gold: ChangeGrid | None = None

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    def verb_tokens(self, step: int) -> list[int]:
        return [i for s, i in self.verbs if s == step]

    def validate(self) -> None:
        if self.n_steps < 1:
            raise CorpusError(f"example {self.id}: needs at least one step")
        if self.n_entities < 1:
            raise CorpusError(f"example {self.id}: needs at least one entity")
        for t, sent in enumerate(self.steps):
            if len(sent) < 1:
                raise CorpusError(f"example {self.id}: step {t} is empty")
        for ent in self.entities:
            for s, a, b in ent.mentions:
                if not (0 <= s < self.n_steps) or not (0 <= a < b <= len(self.steps[s])):
                    raise CorpusError(
                        f"example {self.id}: mention {[s, a, b]} of '{ent.name}' "
                        f"outside its sentence")
        for s, i in self.verbs:
            if not (0 <= s < self.n_steps) or not (0 <= i < len(self.steps[s])):
                raise CorpusError(f"example {self.id}: verb index {[s, i]} outside its sentence")
        if self.gold is not None:
            if not self.gold.is_hard:
                raise CorpusError(f"example {self.id}: gold grid must hold hard labels")
            if self.gold.shape != (self.n_steps, self.n_entities):
                raise CorpusError(
                    f"example {self.id}: gold grid shape {list(self.gold.shape)} does not match "
                    f"{self.n_steps} steps x {self.n_entities} entities")


@dataclass
class TopicGroup:
    """All paragraphs sharing one topic, split by gold-label availability."""

    topic: str
    labeled: list[ProcessExample] = field(default_factory=list)
    unlabeled: list[ProcessExample] = field(default_factory=list)

    @property
    def members(self) -> list[ProcessExample]:
        return self.labeled + self.unlabeled


# ---------------------------------------------------------------------------
# serialization

def _is_list_of(value, item: type) -> bool:
    # types match exactly, so JSON true/false never pass as integers
    return type(value) is list and set(map(type, value)) <= {item}


def _is_rows(value, item: type, length: int | None = None) -> bool:
    """Whether parsed JSON is a list of lists of `item`, each `length` long if given."""
    return (_is_list_of(value, list) and (length is None or set(map(len, value)) <= {length})
            and set(map(type, chain.from_iterable(value))) <= {item})


def _parse_example(obj: dict, where: str) -> ProcessExample:
    def get(container: dict, key: str, ok, expected: str):
        if key not in container:
            raise CorpusError(f"{where}: missing field {key!r}")
        if not ok(container[key]):
            raise CorpusError(f"{where}: field {key!r} must be {expected}, got {container[key]!r}")
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
            raise CorpusError(f"{where}: unknown state change {unknown[0]!r}")
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
        ex.validate()
    except CorpusError as exc:
        raise CorpusError(f"{where}: {exc}") from exc
    return ex


def example_to_json(ex: ProcessExample) -> dict:
    obj: dict = {
        "id": ex.id,
        "topic": ex.topic,
        "steps": [list(s) for s in ex.steps],
        "entities": [{"name": e.name, "mentions": [list(m) for m in e.mentions]}
                     for e in ex.entities],
        "verbs": [list(v) for v in ex.verbs],
    }
    if ex.gold is not None:
        obj["gold"] = [[StateChange(v).name for v in row] for row in ex.gold.labels]
    return obj


def read_lines(path) -> Iterator[tuple[int, str]]:
    """The lines of a UTF-8 text file, numbered from 1; a line that is not
    UTF-8 raises a CorpusError naming the file, the line and the byte."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for n, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:  # an undecodable byte b became U+DC00 + b
                raise CorpusError(f"{path} line {n}: not UTF-8: "
                                  f"byte 0x{ord(line[exc.start]) - 0xDC00:02x}") from None
            yield n, line


def load_examples(path) -> list[ProcessExample]:
    """Parse a JSONL corpus file, in file order; paragraph ids must be unique."""
    out = []
    first_line: dict[str, int] = {}
    for n, line in read_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path} line {n}: invalid JSON: {exc.msg}") from exc
        if not isinstance(obj, dict):
            raise CorpusError(f"{path} line {n}: expected a JSON object")
        ex = _parse_example(obj, where=f"{path} line {n}")
        if ex.id in first_line:
            raise CorpusError(f"{path} line {n}: duplicate paragraph id {ex.id!r} "
                              f"(first on line {first_line[ex.id]})")
        first_line[ex.id] = n
        out.append(ex)
    return out


def group_by_topic(examples: Iterable[ProcessExample]) -> list[TopicGroup]:
    """Group by exact topic string; group order is first appearance, member order file order."""
    groups: dict[str, TopicGroup] = {}
    for ex in examples:
        g = groups.get(ex.topic)
        if g is None:
            g = groups[ex.topic] = TopicGroup(topic=ex.topic)
        (g.labeled if ex.gold is not None else g.unlabeled).append(ex)
    return list(groups.values())


def load_corpus(path) -> list[TopicGroup]:
    return group_by_topic(load_examples(path))


@contextmanager
def atomic_open(path) -> Iterator[TextIO]:
    """Write a UTF-8 text file that appears whole or not at all.

    The text goes to a temporary file in the target's directory, which
    replaces the target once the block ends; on any error it is removed and
    the old file is left as it was.  Like `open(path, "w")`, this writes
    through a symlink, keeps an existing file's mode and gives a new file
    the umask's.  A pipe or device (say /dev/stdout) cannot be replaced and
    is written in place.  There is no fsync, so this holds against a crashed
    process, not against power loss.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    directory, name = os.path.split(os.path.realpath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            if mode is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            yield fh
        os.replace(tmp, os.path.join(directory, name))
    except BaseException:
        os.unlink(tmp)
        raise


def save_examples(path, examples: Iterable[ProcessExample]) -> None:
    with atomic_open(path) as fh:
        for ex in examples:
            fh.write(json.dumps(example_to_json(ex), ensure_ascii=False))
            fh.write("\n")


def flatten_groups(groups: Iterable[TopicGroup]) -> list[ProcessExample]:
    out = []
    for g in groups:
        out.extend(g.members)
    return out


# ---------------------------------------------------------------------------
# entity alignment

def shared_entities(a: ProcessExample, b: ProcessExample) -> list[tuple[int, int]]:
    """Index pairs of entities whose names match exactly after lowercasing/trimming.

    No synonym matching: "CO2" and "carbon dioxide" never align.
    """
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


# ---------------------------------------------------------------------------
# embeddings

@dataclass
class EmbeddingTable:
    """Token -> vector map; lookups never fail (OOV maps to unk_vector)."""

    dimension: int
    vectors: dict[str, np.ndarray]
    unk_vector: np.ndarray

    @classmethod
    def load(cls, path, dimension: int | None = None) -> "EmbeddingTable":
        """Parse a text embedding file: one token plus D space-separated decimals per line.

        D is `dimension` when given, else the first line's.  A token may appear
        once.  The unknown-token vector is the file's UNK_TOKEN line when it has
        one, else the mean of all loaded vectors.
        """
        vectors: dict[str, np.ndarray] = {}
        first_line: dict[str, int] = {}
        dim = dimension
        for n, line in read_lines(path):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                raise CorpusError(f"{path} line {n}: expected token plus decimals")
            try:
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise CorpusError(f"{path} line {n}: bad decimal") from exc
            if not np.isfinite(vec).all():
                raise CorpusError(f"{path} line {n}: non-finite decimal")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise CorpusError(f"{path} line {n}: vector length {vec.size} != "
                                  f"{'configured ' if dimension else ''}{dim}")
            if parts[0] in first_line:
                raise CorpusError(f"{path} line {n}: duplicate token {parts[0]!r} "
                                  f"(first on line {first_line[parts[0]]})")
            first_line[parts[0]] = n
            vectors[parts[0]] = vec
        if not vectors:
            raise CorpusError(f"{path}: empty embedding file")
        unk = vectors.get(UNK_TOKEN)
        if unk is None:
            unk = np.mean(np.stack(list(vectors.values())), axis=0)
        return cls(dimension=int(dim), vectors=vectors, unk_vector=unk)

    def lookup(self, token: str) -> np.ndarray:
        return self.vectors.get(token, self.unk_vector)


# ---------------------------------------------------------------------------
# synthetic corpus

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


def demote_labels(groups: Sequence[TopicGroup], fraction: float, seed: int,
                  reuse_unlabeled: bool) -> tuple[list[TopicGroup], int]:
    """Deterministically demote labeled paragraphs down to `fraction` per topic.

    At least one labeled paragraph is kept per topic.  Demoted paragraphs are
    either kept as unlabeled group members (reuse_unlabeled) or dropped.
    Returns the new groups plus how many paragraphs were demoted.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    out = []
    demoted_count = 0
    for g in groups:
        m = len(g.labeled)
        keep = m if fraction == 1.0 else max(1, int(round(fraction * m)))
        if keep >= m:
            out.append(TopicGroup(topic=g.topic, labeled=list(g.labeled),
                                  unlabeled=list(g.unlabeled)))
            continue
        kept_idx = set(int(i) for i in rng.choice(m, size=keep, replace=False))
        labeled, extra = [], []
        for i, ex in enumerate(g.labeled):
            if i in kept_idx:
                labeled.append(ex)
            else:
                demoted_count += 1
                if reuse_unlabeled:
                    extra.append(dataclasses.replace(ex, gold=None))
        out.append(TopicGroup(topic=g.topic, labeled=labeled,
                              unlabeled=extra + list(g.unlabeled)))
    return out, demoted_count
