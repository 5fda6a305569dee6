"""Data model for procedural-text paragraphs, JSONL ingestion, and a seeded
synthetic corpus generator.

Corpus files are UTF-8 JSON Lines, one paragraph per line:

    {"id": "...", "topic": "...",
     "steps": [["the", "water", "moves", ...], ...],
     "entities": [{"name": "water", "mentions": [[step, start, end], ...]}, ...],
     "verbs": [[step, token_index], ...],
     "gold": [["NONE", "MOVE"], ...]}          # optional, T rows x |E| labels

Mention spans are half-open token ranges within one sentence.  A grid
(`ChangeGrid`) holds hard labels only; a model's per-cell distributions are
plain [..., N_CHANGES] arrays.  Everything is immutable after load.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import re
import stat
import sys
import types
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

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


@dataclass
class ChangeGrid:
    """T x E grid of hard state-change labels, one `StateChange` value per cell."""

    labels: np.ndarray  # int array [T, E]

    @classmethod
    def from_labels(cls, labels) -> "ChangeGrid":
        arr = np.asarray(labels, dtype=np.int64)
        if arr.ndim != 2:
            raise CorpusError(f"hard grid must be 2-D, got shape {list(arr.shape)}")
        if arr.min(initial=0) < 0 or arr.max(initial=0) >= N_CHANGES:
            raise CorpusError("hard grid labels must be in [0, 3]")
        return cls(labels=arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape


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
        lengths = [len(sent) for sent in self.steps]
        n = len(lengths)
        if n < 1:
            raise CorpusError(f"example {echo(self.id)}: needs at least one step")
        if self.n_entities < 1:
            raise CorpusError(f"example {echo(self.id)}: needs at least one entity")
        names = [ent.name for ent in self.entities]
        if len(set(names)) < len(names):  # a summary is keyed by its entity's name
            twice = next(name for i, name in enumerate(names) if name in names[:i])
            raise CorpusError(f"example {echo(self.id)}: two entities are named '{echo(twice)}'")
        if 0 in lengths:
            raise CorpusError(f"example {echo(self.id)}: step {lengths.index(0)} is empty")
        for ent in self.entities:
            for s, a, b in ent.mentions:
                if not (0 <= s < n and 0 <= a < b <= lengths[s]):
                    raise CorpusError(
                        f"example {echo(self.id)}: mention {[s, a, b]} of '{echo(ent.name)}' "
                        f"outside its sentence")
        for s, i in self.verbs:
            if not (0 <= s < n and 0 <= i < lengths[s]):
                raise CorpusError(
                    f"example {echo(self.id)}: verb index {[s, i]} outside its sentence")
        if self.gold is not None and self.gold.shape != (self.n_steps, self.n_entities):
            raise CorpusError(
                f"example {echo(self.id)}: gold grid shape {list(self.gold.shape)} does not "
                f"match {self.n_steps} steps x {self.n_entities} entities")


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

_CHANGE_INDEX = {name: i for i, name in enumerate(CHANGE_NAMES)}
_INT_ROWS, _STR_ROWS = list[list[int]], list[list[str]]
_ECHO_CHARS = 80  # the most characters of an input value an error echoes


def echo(value: object) -> str:
    """str(value) for an error message, cut after _ECHO_CHARS characters with
    "..." appended, so that no value read from a file makes a long message."""
    text = str(value)
    return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "..."


def _get(container: dict, key: str, where: str, expected: str, spec,
         length: int | None = None):
    """`container[key]` if present and matching `spec`, in rows of `length`
    items when given, else a CorpusError `echo`ing the value's repr."""
    if key not in container:
        raise CorpusError(f"{where}: missing field {key!r}")
    value = container[key]
    if not matches(value, spec) or length is not None and set(map(len, value)) - {length}:
        raise CorpusError(f"{where}: field {key!r} must be {expected}, got {echo(repr(value))}")
    return value


def _parse_example(obj: dict, where: str) -> ProcessExample:
    entities = tuple(
        Entity(name=_get(e, "name", where, "a string", str),
               mentions=tuple(map(tuple, _get(e, "mentions", where, "a list of [step, start, end]",
                                              _INT_ROWS, 3))))
        for e in _get(obj, "entities", where, "a list of objects", list[dict]))
    gold = None
    if obj.get("gold") is not None:
        n = len(entities)
        rows = _get(obj, "gold", where, f"a list of rows of {n} labels", _STR_ROWS, n)
        try:
            labels = [_CHANGE_INDEX[label] for row in rows for label in row]
        except KeyError:
            unknown = sorted(set(chain.from_iterable(rows)) - _CHANGE_INDEX.keys())
            raise CorpusError(f"{where}: unknown state change {echo(repr(unknown[0]))}") from None
        gold = ChangeGrid(labels=np.array(labels, dtype=np.int64).reshape(len(rows), n))
    ex = ProcessExample(
        id=_get(obj, "id", where, "a string", str),
        topic=_get(obj, "topic", where, "a string", str),
        steps=tuple(map(tuple, _get(obj, "steps", where, "a list of token lists",
                                    _STR_ROWS))),
        entities=entities,
        verbs=tuple(map(tuple, _get(obj, "verbs", where, "a list of [step, token index]",
                                    _INT_ROWS, 2))),
        gold=gold,
    )
    try:
        ex.validate()
    except CorpusError as exc:
        raise CorpusError(f"{where}: {exc}") from exc
    return ex


_LABEL_NAMES = np.array(CHANGE_NAMES, dtype=object)


def example_to_json(ex: ProcessExample, labels: np.ndarray | None = None) -> dict:
    """The paragraph as the object of a corpus line.  With `labels`, a hard
    [steps, entities] grid, its `gold` field holds them in place of the
    paragraph's own."""
    obj: dict = {
        "id": ex.id,
        "topic": ex.topic,
        "steps": list(map(list, ex.steps)),
        "entities": [{"name": e.name, "mentions": list(map(list, e.mentions))}
                     for e in ex.entities],
        "verbs": list(map(list, ex.verbs)),
    }
    if labels is None and ex.gold is not None:
        labels = ex.gold.labels
    if labels is not None:
        obj["gold"] = _LABEL_NAMES[labels].tolist()
    return obj


def _decode(data: bytes, where: str, error: type[Exception]) -> str:
    """`data` decoded as UTF-8; a byte that is not UTF-8 raises `error` naming
    `where` and the byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{where}: not UTF-8: byte 0x{data[exc.start]:02x}") from None


def read_lines(path) -> Iterator[tuple[int, bytes]]:
    """The lines of a file, with their ends and numbered from 1, for the caller
    to `_decode`.  A line ends where text mode ends one, at \\n, \\r or \\r\\n,
    and nowhere else."""
    with open(path, "rb") as fh:
        return enumerate(fh.read().splitlines(keepends=True), start=1)


# an escaped backslash, a surrogate pair, or (group 1) a surrogate escape outside a pair
_ESCAPE = re.compile(r"\\(?:\\|u[dD][89abAB]..\\u[dD][c-fC-F]..|(u[dD][89a-fA-F]..))")


class _RepeatedKey(Exception):
    """(key, name): a key that sets its object's field `name` a second time,
    raised from inside the decoder for `read_json` to name the file."""


def _pairs_hook(aliases: Mapping[str, str]):
    """An object_pairs_hook in which a key and its name in `aliases` are one
    key, and a key set twice raises _RepeatedKey."""
    def hook(pairs):
        obj = {aliases.get(key, key): value for key, value in pairs} if aliases else dict(pairs)
        if len(obj) < len(pairs):
            names = [aliases.get(key, key) for key, _ in pairs]
            i = next(i for i, name in enumerate(names) if name in names[:i])
            raise _RepeatedKey(pairs[i][0], names[i])
        return obj
    return hook


_DECODER = json.JSONDecoder(object_pairs_hook=_pairs_hook({}))


def read_json(text: str | bytes, where: str, error: type[Exception],
              aliases: Mapping[str, str] = types.MappingProxyType({})) -> dict:
    """The JSON object in `text`, a whole file's bytes or a decoded corpus
    line, under I-JSON's rules (RFC 7493): UTF-8, no key twice in one
    object, no lone surrogate.  A key and its name in `aliases` are one key.
    Any other document, one nested past the recursion limit, or an integer
    past Python's digit limit, raises `error` naming `where`.  NaN and
    Infinity parse, for the callers' checks to name the field that holds one."""
    if isinstance(text, bytes):
        text = _decode(text, where, error)
    if text.startswith("\ufeff"):  # as json.loads, which checks this before decoding
        raise error(f"{where}: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)")
    decoder = _DECODER if not aliases else json.JSONDecoder(
        object_pairs_hook=_pairs_hook(aliases))
    try:
        obj = decoder.decode(text)
    except _RepeatedKey as exc:
        key, name = exc.args
        raise error(f"{where}: key {echo(repr(key))} sets {echo(repr(name))} "
                    f"a second time") from None
    except json.JSONDecodeError as exc:
        raise error(f"{where}: invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise error(f"{where}: invalid JSON: nested too deeply") from None
    except ValueError:  # the one other error of the decoder: int()'s digit limit
        raise error(f"{where}: invalid JSON: an integer of more than "
                    f"{sys.get_int_max_str_digits()} digits") from None
    for escape in _ESCAPE.finditer(text) if "\\" in text else ():
        if escape[1]:
            raise error(f"{where}: invalid JSON: lone surrogate \\{escape[1].lower()} in a string")
    if type(obj) is not dict:
        raise error(f"{where}: expected a JSON object")
    return obj


def matches(value, spec) -> bool:
    """Whether parsed JSON `value` has the type `spec`: a JSON type (str, int,
    float, bool, NoneType, list, dict), a union of them, a `Literal`, or a
    `list` of a JSON type or of such lists.  Types match exactly, so a bool is
    never an int, but an int stands for a float.  A list is checked by the set
    of its items' types, with no Python loop over the items."""
    if type(spec) is type:
        return type(value) is spec or spec is float and type(value) is int
    if type(spec) is types.UnionType:
        return any(matches(value, arm) for arm in spec.__args__)
    if type(spec) is not types.GenericAlias:  # a Literal
        return any(type(value) is type(a) and value == a for a in spec.__args__)
    (item,) = spec.__args__
    if type(value) is not list:
        return False
    while type(item) is types.GenericAlias:  # the rows, then all their items as one list
        if not set(map(type, value)) <= {list}:
            return False
        value, (item,) = list(chain.from_iterable(value)), item.__args__
    return set(map(type, value)) <= ({float, int} if item is float else {item})


def mismatch(obj: dict, spec: dict) -> str | None:
    """The first key of the JSON object `obj` that the object spec `spec`
    (key -> spec) lacks, else the first key of `spec` whose value in `obj`,
    None where absent, does not match; None when `obj` matches `spec`."""
    unknown = (key for key in obj if key not in spec)
    wrong = (key for key, item in spec.items() if not matches(obj.get(key), item))
    return next(chain(unknown, wrong), None)


def load_examples(path) -> list[ProcessExample]:
    """Parse a JSONL corpus file, in file order; paragraph ids must be unique."""
    out = []
    first_line: dict[str, int] = {}
    for n, data in read_lines(path):
        where = f"{path} line {n}"
        line = _decode(data, where, CorpusError)  # first, so Unicode whitespace is blank
        if not line.strip():
            continue
        ex = _parse_example(read_json(line, where, CorpusError), where)
        if ex.id in first_line:
            raise CorpusError(f"{where}: duplicate paragraph id {echo(repr(ex.id))} "
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

    A temporary file is created in the target's directory when the block
    opens, and the block writes to an in-memory buffer.  When the block ends
    the text is encoded once, the temporary file is preallocated to its
    length with `posix_fallocate` (where the platform has it), written, and
    moved over the target; on any error, encoding included, it is removed
    and the old file is left as it was.  An OSError that names no file or
    the temporary one (preallocating, writing, moving) is raised again
    naming the target.  The preallocation matters: ext4 with its default
    `auto_da_alloc` flushes a file whose blocks are not yet allocated to
    disk when it is renamed over an existing file, and the rename waits
    tens of milliseconds for it.  The price is one copy of the output in
    memory.

    Like `open(path, "w")`, this writes through a symlink, keeps an
    existing file's mode and gives a new file the umask's.  A pipe or
    device (say /dev/stdout) cannot be replaced and is written in place.
    There is no fsync, so this holds against a crashed process, not against
    power loss.
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
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the file the caller asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with open(fd, "wb") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            text = io.StringIO()
            yield text
            data = text.getvalue().encode("utf-8")
            if data and hasattr(os, "posix_fallocate"):  # a zero length is EINVAL
                os.posix_fallocate(fd, 0, len(data))
            fh.write(data)
        os.replace(tmp, os.path.join(directory, name))
    except BaseException as exc:
        os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename in (None, tmp):
            raise OSError(exc.errno, exc.strerror, str(path)) from None
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
    first_a, first_b = {}, {}
    for first, ex in ((first_a, a), (first_b, b)):
        for i, ent in enumerate(ex.entities):
            first.setdefault(ent.name.strip().lower(), i)
    return [(i, first_b[key]) for key, i in first_a.items() if key in first_b]


# ---------------------------------------------------------------------------
# embeddings

@dataclass
class EmbeddingTable:
    """Token -> vector map; lookups never fail (OOV maps to unk_vector)."""

    dimension: int
    vectors: dict[str, np.ndarray]
    unk_vector: np.ndarray

    @classmethod
    def load(cls, path, dimension: int) -> "EmbeddingTable":
        """Parse a text embedding file: a token plus `dimension` space-separated decimals a line.

        A token may appear once.  The unknown-token vector is the file's
        UNK_TOKEN line when it has one, else the mean of all loaded vectors.
        """
        vectors: dict[str, np.ndarray] = {}
        first_line: dict[str, int] = {}
        for n, data in read_lines(path):
            line = _decode(data, f"{path} line {n}", CorpusError)
            parts = line.rstrip("\r\n").split(" ")
            if len(parts) < 2:
                raise CorpusError(f"{path} line {n}: expected token plus decimals")
            try:
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise CorpusError(f"{path} line {n}: bad decimal") from exc
            if not np.isfinite(vec).all():
                raise CorpusError(f"{path} line {n}: non-finite decimal")
            if vec.size != dimension:
                raise CorpusError(f"{path} line {n}: vector length {vec.size} != "
                                  f"configured {dimension}")
            if parts[0] in first_line:
                raise CorpusError(f"{path} line {n}: duplicate token {echo(repr(parts[0]))} "
                                  f"(first on line {first_line[parts[0]]})")
            first_line[parts[0]] = n
            vectors[parts[0]] = vec
        if not vectors:
            raise CorpusError(f"{path}: empty embedding file")
        unk = vectors.get(UNK_TOKEN)
        if unk is None:
            unk = np.mean(np.stack(list(vectors.values())), axis=0)
        return cls(dimension=dimension, vectors=vectors, unk_vector=unk)

    def lookup(self, token: str) -> np.ndarray:
        return self.vectors.get(token, self.unk_vector)


# ---------------------------------------------------------------------------
# synthetic corpus

_NOUNS = ("water", "oxygen", "sugar", "carbon", "light", "soil",
          "energy", "rain", "rock", "cell", "salt", "heat")
_PLACES = ("sea", "air", "leaf", "ground", "cloud", "root")
# indexed by StateChange value: MOVE, CREATE, DESTROY
_CHANGE_VERBS = (("moves", "travels", "flows", "drifts", "migrates", "spreads"),
                 ("forms", "appears", "emerges", "develops", "arises", "originates"),
                 ("vanishes", "dissolves", "decays", "collapses", "disappears", "erodes"))
_PREPOSITION = ("to", "in", "near")
_NONE_VERBS = ("remains", "rests", "waits")


def generate_synthetic(seed: int, topics: int, paragraphs_per_topic: int,
                       noise: float) -> list[TopicGroup]:
    """Build a labeled corpus where paragraphs of one topic share hidden per-entity summaries.

    Each topic fixes one state change per entity; each paragraph realizes every
    change as one templated sentence (wording and step order vary per
    paragraph) plus one no-change filler sentence.  With probability `noise` a
    paragraph swaps one entity's change for a different one, violating the
    cross-paragraph agreement the training loss expects; the paragraph's own
    gold grid always matches its own text.

    Each word is drawn as `pool[rng.integers(0, len(pool))]`, which consumes
    the generator's stream exactly as `rng.choice(pool)` does at a fraction
    of its cost; the corpus of a seed is pinned by a test.
    """
    if topics < 1 or paragraphs_per_topic < 1:
        raise ValueError("topics and paragraphs_per_topic must be >= 1")
    if not 0.0 <= noise <= 1.0:
        raise ValueError("noise must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    integers = rng.integers
    none = int(StateChange.NONE)
    groups = []
    for ti in range(topics):
        topic = f"process-{ti:03d}"
        k = int(integers(2, 4))
        entities = [str(n) for n in rng.choice(_NOUNS, size=k, replace=False)]
        summary = [int(integers(0, 3)) for _ in entities]  # a change per entity
        group = TopicGroup(topic=topic)
        for pi in range(paragraphs_per_topic):
            realized = list(summary)
            # perturbation draws are consumed unconditionally so that corpora
            # generated from the same seed align paragraph-for-paragraph
            # across noise levels
            perturb = rng.random() < noise
            victim = int(integers(0, k))
            replacement = int(integers(0, 2))
            if perturb:
                realized[victim] = [c for c in range(3) if c != summary[victim]][replacement]
            sentences = []
            # every sentence is "the <entity> <verb> <preposition> the <place>"
            for e, change in zip(entities, realized):
                pool = _CHANGE_VERBS[change]
                verb = pool[int(integers(0, len(pool)))]
                place = _PLACES[int(integers(0, len(_PLACES)))]
                sentences.append(("the", e, verb, _PREPOSITION[change], "the", place))
            filler_j = int(integers(0, k))
            verb = _NONE_VERBS[int(integers(0, len(_NONE_VERBS)))]
            place = _PLACES[int(integers(0, len(_PLACES)))]
            sentences.append(("the", entities[filler_j], verb, "in", "the", place))
            columns = [*range(k), filler_j]  # per sentence: its entity, and in
            realized.append(none)            # realized its change

            order = rng.permutation(k + 1).tolist()
            mentions = [[] for _ in entities]
            gold = []
            for t, src in enumerate(order):
                j = columns[src]
                mentions[j].append((t, 1, 2))
                row = [none] * k
                row[j] = realized[src]
                gold.append(row)

            ex = ProcessExample(
                id=f"{topic}-p{pi}",
                topic=topic,
                steps=tuple(sentences[src] for src in order),
                entities=tuple(Entity(name=e, mentions=tuple(m))
                               for e, m in zip(entities, mentions)),
                verbs=tuple((t, 2) for t in range(k + 1)),
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
