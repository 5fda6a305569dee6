import contextlib
import dataclasses
import inspect
import io
import json
import os
import re
import stat
import threading
from pathlib import Path

import alignment_reference
import corpus_reference
import generator_reference
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from statetrack import cli, corpus, model
from statetrack.corpus import (UNK_TOKEN, ChangeGrid, CorpusError, EmbeddingTable, Entity,
                               ProcessExample, StateChange, demote_labels,
                               generate_synthetic, shared_entities)
from statetrack.model import init_params


def make_example(id="x1", topic="photosynthesis", entities=("water", "oxygen"),
                 gold_rows=None):
    steps = (("the", entities[0], "moves"), ("the", entities[1], "forms"))
    ents = tuple(
        Entity(name=e, mentions=((t, 1, 2),)) for t, e in enumerate(entities))
    gold = ChangeGrid.from_labels(gold_rows) if gold_rows is not None else None
    ex = ProcessExample(id=id, topic=topic, steps=steps, entities=ents,
                        verbs=((0, 2), (1, 2)), gold=gold)
    ex.validate()
    return ex


def write_corpus(path, examples):
    corpus.save_examples(path, examples)
    return path


# ---------------------------------------------------------------------------
# loading and grouping

def test_grouping_by_topic(tmp_path):
    examples = [make_example(id=f"p{i}", topic="photosynthesis") for i in range(3)]
    examples += [make_example(id=f"c{i}", topic="cake") for i in range(2)]
    path = write_corpus(tmp_path / "c.jsonl", examples)
    groups = corpus.load_corpus(path)
    assert [g.topic for g in groups] == ["photosynthesis", "cake"]
    assert [len(g.members) for g in groups] == [3, 2]
    assert [ex.id for ex in groups[0].members] == ["p0", "p1", "p2"]


def test_generator_groups_are_typical_propara_size():
    groups = generate_synthetic(seed=0, topics=4, paragraphs_per_topic=3, noise=0.0)
    assert all(len(g.members) == 3 for g in groups)


def test_gold_shape_mismatch_names_example(tmp_path):
    obj = corpus.example_to_json(make_example())
    obj["gold"] = [["NONE", "NONE"]]  # 1 row for 2 steps
    obj["id"] = "bad-grid"
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="bad-grid"):
        corpus.load_corpus(path)


def test_malformed_line_reports_line_number(tmp_path):
    good = json.dumps(corpus.example_to_json(make_example()))
    path = tmp_path / "c.jsonl"
    path.write_text(good + "\n{not json\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="line 2"):
        corpus.load_corpus(path)


@pytest.mark.parametrize("field, value, message", [
    ("steps", 5, "field 'steps' must be a list of token lists"),
    ("entities", None, "field 'entities' must be a list of objects"),
    ("verbs", [[0, "2"], [1, 2]], "field 'verbs' must be a list of [step, token index]"),
    ("entities", [{"name": "water", "mentions": [[0, 1]]},
                  {"name": "oxygen", "mentions": [[1, 1, 2]]}],
     "field 'mentions' must be a list of [step, start, end]"),
    ("gold", [["JUMP", "NONE"], ["NONE", "NONE"]], "unknown state change 'JUMP'"),
])
def test_malformed_record_names_file_and_line(tmp_path, field, value, message):
    good = corpus.example_to_json(make_example(id="good"))
    bad = corpus.example_to_json(make_example(id="bad"))
    bad[field] = value
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as info:
        corpus.load_examples(path)
    assert str(info.value).startswith(f"{path} line 2: ")
    assert message in str(info.value)


@pytest.mark.parametrize("value, got", [
    (5, "5"),
    (["a", "b"], "['a', 'b']"),
    (["abcdefghij"] * 400, repr(["abcdefghij"] * 400)[:corpus._ECHO_CHARS] + "..."),
], ids=["int", "short-list", "long-list"])
def test_mistyped_field_echoes_its_value_up_to_a_cap(tmp_path, value, got):
    bad = corpus.example_to_json(make_example(id="bad"))
    bad["id"] = value
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as info:
        corpus.load_examples(path)
    assert str(info.value) == f"{path} line 1: field 'id' must be a string, got {got}"


def test_duplicate_paragraph_id_rejected(tmp_path):
    examples = [make_example(id="p0"), make_example(id="p1"), make_example(id="p0")]
    path = write_corpus(tmp_path / "c.jsonl", examples)
    with pytest.raises(CorpusError, match=r"line 3: duplicate paragraph id 'p0' \(first on line 1\)"):
        corpus.load_examples(path)


def test_mention_outside_sentence_rejected():
    ex = ProcessExample(
        id="oops", topic="t", steps=(("a", "b"),),
        entities=(Entity(name="b", mentions=((0, 1, 5),)),), verbs=())
    with pytest.raises(CorpusError, match="oops"):
        ex.validate()


def test_unknown_fields_are_ignored(tmp_path):
    obj = corpus.example_to_json(make_example())
    obj["summary"] = {"water": ["MOVE"]}
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    assert len(corpus.load_examples(path)) == 1


@pytest.mark.parametrize("text, message", [
    ('{"a": "\\ud83d\\ude00"}', None),
    ('{"a": "\\uD83D\\uDE00"}', None),
    ('{"a": "\\\\ud800"}', None),
    ('{"a": NaN, "b": [Infinity]}', None),
    ('{"a": ["\\uDBFF"]}', "invalid JSON: lone surrogate \\udbff in a string"),
    ('{"a": "\\udc00\\ud800"}', "invalid JSON: lone surrogate \\udc00 in a string"),
    ('{"a": "\\\\\\ud800"}', "invalid JSON: lone surrogate \\ud800 in a string"),
    ('{"a": "\\ud800\\\\udc00"}', "invalid JSON: lone surrogate \\ud800 in a string"),
    ('{"a": {"b": 1, "b": 1}}', "key 'b' sets 'b' a second time"),
    ('[{}]', "expected a JSON object"),
    (b'{"a": "\xe9"}', "not UTF-8: byte 0xe9"),
    ('{"a": ' + "[" * 100_000, "invalid JSON: nested too deeply"),
], ids=["surrogate-pair", "upper-case-pair", "escaped-backslash", "non-finite", "lone-high",
        "reversed-pair", "backslash-then-lone", "high-then-backslash", "nested-duplicate",
        "array", "latin-1", "deep"])
def test_read_json_applies_the_i_json_rules(text, message):
    if message is None:
        assert corpus.read_json(text, "f", CorpusError) == json.loads(text)
    else:
        with pytest.raises(CorpusError) as info:
            corpus.read_json(text, "f", CorpusError)
        assert str(info.value) == f"f: {message}"


ESCAPE_PIECES = ["\\ud800", "\\uDBFF", "\\udc00", "\\uDFFF", "\\\\", "\\u005c", "\\u0041",
                 "\\n", "u", "d800", "a", "\U0001F600"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hst.lists(hst.sampled_from(ESCAPE_PIECES), max_size=8))
def test_read_json_rejects_exactly_the_strings_that_decode_to_a_lone_surrogate(pieces):
    text = '{"a": "' + "".join(pieces) + '"}'
    try:
        json.loads(text)["a"].encode("utf-8")
        lone = False
    except UnicodeEncodeError:
        lone = True
    try:
        corpus.read_json(text, "f", CorpusError)
        rejected = False
    except CorpusError as exc:
        assert "lone surrogate" in str(exc)
        rejected = True
    assert rejected == lone, text


def test_read_json_is_the_only_json_decode_call_site():
    """No module of the package parses JSON but through `corpus.read_json`:
    no `json.load`/`json.loads`, and no `.decode(` or `.raw_decode(` but a
    UTF-8 bytes decode, which is how a JSON decoder object is called."""
    decode = re.compile(r"json\.loads?\(|\.(?:raw_)?decode\((?![\"']utf-8[\"'])")
    for call in ["json.loads(text)", "json.load(fh)", "_DECODER.decode(text)",
                 "json.JSONDecoder().raw_decode(text, 0)", "decoder.decode(s)"]:
        assert decode.search(call), call
    for call in ['data.decode("utf-8")', "corpus._decode(data, where, error)"]:
        assert not decode.search(call), call
    reader = inspect.getsource(corpus.read_json)
    assert len(decode.findall(reader)) == 1
    for path in sorted(Path(corpus.__file__).parent.glob("*.py")):
        assert not decode.findall(path.read_text(encoding="utf-8").replace(reader, "")), path


def test_roundtrip_is_byte_identical(tmp_path):
    groups = generate_synthetic(seed=5, topics=4, paragraphs_per_topic=3, noise=0.3)
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    corpus.save_examples(p1, corpus.flatten_groups(groups))
    reloaded = corpus.load_corpus(p1)
    corpus.save_examples(p2, corpus.flatten_groups(reloaded))
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_groups_nonempty_and_homogeneous(tmp_path):
    groups = generate_synthetic(seed=9, topics=5, paragraphs_per_topic=2, noise=0.5)
    path = write_corpus(tmp_path / "c.jsonl", corpus.flatten_groups(groups))
    for g in corpus.load_corpus(path):
        assert g.members
        assert all(ex.topic == g.topic for ex in g.members)


# ---------------------------------------------------------------------------
# shared entities

def test_shared_entities_intersection():
    a = make_example(entities=("water", "oxygen"))
    b = make_example(entities=("oxygen", "sugar"))
    assert shared_entities(a, b) == [(1, 0)]


def test_shared_entities_no_synonyms():
    a = make_example(entities=("CO2", "water"))
    b = make_example(entities=("carbon dioxide", "sugar"))
    assert shared_entities(a, b) == []


def test_shared_entities_identical_lists_pair_in_order():
    a = make_example(entities=("water", "oxygen"))
    b = make_example(entities=("water", "oxygen"))
    assert shared_entities(a, b) == [(0, 0), (1, 1)]


def test_shared_entities_case_and_space_insensitive():
    a = make_example(entities=("Water ", "oxygen"))
    b = make_example(entities=("water", "sugar"))
    assert shared_entities(a, b) == [(0, 0)]


# a few names, each in several cases and paddings, so that lists repeat a name
# under its variants as well as verbatim
ENTITY_NAMES = hst.builds(
    lambda base, case, pad: pad[0] + case(base) + pad[1],
    hst.sampled_from(["water", "oxygen", "carbon dioxide", "Straße", "İ", ""]),
    hst.sampled_from([str, str.upper, str.title, str.lower]),
    hst.sampled_from([("", ""), (" ", ""), ("", "  "), ("\t", "\n"), ("\u2003", "")]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hst.lists(ENTITY_NAMES, max_size=6), hst.lists(ENTITY_NAMES, max_size=6))
def test_shared_entities_matches_the_reference(names_a, names_b):
    a, b = (ProcessExample(id="p", topic="t", steps=(("w",),), verbs=(),
                           entities=tuple(Entity(name=n, mentions=()) for n in names))
            for names in (names_a, names_b))
    assert shared_entities(a, b) == alignment_reference.shared_entities(a, b)


# ---------------------------------------------------------------------------
# synthetic generator

def gold_summaries(ex):
    out = {}
    for j, ent in enumerate(ex.entities):
        col = ex.gold.labels[:, j]
        out[ent.name] = frozenset(StateChange(v) for v in col
                                  if v != StateChange.NONE.value)
    return out


def test_noise_free_summaries_identical_across_members():
    groups = generate_synthetic(seed=7, topics=5, paragraphs_per_topic=3, noise=0.0)
    for g in groups:
        summaries = [gold_summaries(ex) for ex in g.members]
        assert all(s == summaries[0] for s in summaries)


def test_full_noise_perturbs_every_paragraph():
    # same-seed corpora align paragraph-for-paragraph across noise levels,
    # so the noise-free twin exposes each topic's hidden summary
    noisy = generate_synthetic(seed=7, topics=6, paragraphs_per_topic=3, noise=1.0)
    clean = generate_synthetic(seed=7, topics=6, paragraphs_per_topic=3, noise=0.0)
    for g_noisy, g_clean in zip(noisy, clean):
        for ex_n, ex_c in zip(g_noisy.members, g_clean.members):
            diffs = [name for name, s in gold_summaries(ex_n).items()
                     if s != gold_summaries(ex_c)[name]]
            assert len(diffs) == 1


def test_full_noise_summaries_differ_within_group():
    groups = generate_synthetic(seed=3, topics=8, paragraphs_per_topic=2, noise=1.0)
    differing = sum(
        1 for g in groups
        if gold_summaries(g.members[0]) != gold_summaries(g.members[1]))
    assert differing >= 1


def test_generator_is_deterministic(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    corpus.save_examples(a, corpus.flatten_groups(
        generate_synthetic(seed=42, topics=4, paragraphs_per_topic=3, noise=0.25)))
    corpus.save_examples(b, corpus.flatten_groups(
        generate_synthetic(seed=42, topics=4, paragraphs_per_topic=3, noise=0.25)))
    assert a.read_bytes() == b.read_bytes()


def test_generator_validates_inputs():
    with pytest.raises(ValueError):
        generate_synthetic(seed=0, topics=0, paragraphs_per_topic=1, noise=0.0)
    with pytest.raises(ValueError):
        generate_synthetic(seed=0, topics=1, paragraphs_per_topic=1, noise=1.5)


def assert_same_examples(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.id, x.topic, x.steps, x.entities, x.verbs) == (y.id, y.topic, y.steps,
                                                               y.entities, y.verbs)
        assert (x.gold is None and y.gold is None
                or x.gold.labels.dtype == y.gold.labels.dtype
                and np.array_equal(x.gold.labels, y.gold.labels))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=hst.integers(0, 2**32), sizes=hst.tuples(*[hst.integers(0, 2)] * 3).filter(any),
       paragraphs=hst.integers(1, 4),
       noise=hst.sampled_from([0.0, 1.0]) | hst.floats(0.0, 1.0))
def test_generator_equals_the_rng_choice_reference(tmp_path_factory, seed, sizes, paragraphs,
                                                   noise):
    """generate_synthetic draws the corpus of the frozen rng.choice form, and
    gen writes each split as save_examples of the reference's groups."""
    groups = generate_synthetic(seed, sum(sizes), paragraphs, noise)
    reference = generator_reference.generate_synthetic(seed, sum(sizes), paragraphs, noise)
    assert [g.topic for g in groups] == [g.topic for g in reference]
    for g, r in zip(groups, reference):
        assert_same_examples(g.members, r.members)
    out = tmp_path_factory.mktemp("gen")
    argv = ["gen", "--out-dir", str(out), "--seed", str(seed), "--paragraphs", str(paragraphs),
            "--noise", repr(noise)]
    for split, count in zip(("train", "dev", "test"), sizes):
        argv += [f"--{split}-topics", str(count)]
    assert cli.main(argv) == cli.EXIT_OK
    offset = 0
    for split, count in zip(("train", "dev", "test"), sizes):
        expected = out / f"{split}.expected"
        corpus.save_examples(expected, corpus.flatten_groups(reference[offset:offset + count]))
        offset += count
        assert (out / f"{split}.jsonl").read_bytes() == expected.read_bytes()


# ---------------------------------------------------------------------------
# label demotion

def test_demote_keeps_at_least_one_labeled():
    groups = generate_synthetic(seed=1, topics=4, paragraphs_per_topic=3, noise=0.0)
    demoted, count = demote_labels(groups, fraction=0.33, seed=0, reuse_unlabeled=True)
    assert count == 4 * 2
    for g in demoted:
        assert len(g.labeled) == 1
        assert len(g.unlabeled) == 2
        assert all(ex.gold is None for ex in g.unlabeled)


def test_demote_drop_mode_discards():
    groups = generate_synthetic(seed=1, topics=3, paragraphs_per_topic=3, noise=0.0)
    demoted, _ = demote_labels(groups, fraction=0.33, seed=0, reuse_unlabeled=False)
    assert all(len(g.members) == 1 for g in demoted)


def test_demote_is_deterministic():
    groups = generate_synthetic(seed=1, topics=5, paragraphs_per_topic=3, noise=0.0)
    a, _ = demote_labels(groups, fraction=0.66, seed=9, reuse_unlabeled=True)
    b, _ = demote_labels(groups, fraction=0.66, seed=9, reuse_unlabeled=True)
    assert [[ex.id for ex in g.labeled] for g in a] == \
           [[ex.id for ex in g.labeled] for g in b]
    assert all(len(g.labeled) == 2 for g in a)


def test_demote_full_fraction_is_identity():
    groups = generate_synthetic(seed=1, topics=2, paragraphs_per_topic=2, noise=0.0)
    out, count = demote_labels(groups, fraction=1.0, seed=0, reuse_unlabeled=True)
    assert count == 0
    assert [[ex.id for ex in g.labeled] for g in out] == \
           [[ex.id for ex in g.labeled] for g in groups]


# ---------------------------------------------------------------------------
# embeddings

def test_embedding_table_load_and_unk(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("water 1.0 2.0\noxygen 3.0 4.0\n", encoding="utf-8")
    table = EmbeddingTable.load(path, 2)
    assert table.dimension == 2
    assert np.array_equal(table.lookup("water"), [1.0, 2.0])
    assert np.array_equal(table.lookup("zzz"), [2.0, 3.0])  # mean of all vectors


def test_embedding_table_unk_line_is_the_unknown_vector(tmp_path):
    # a file's own <unk> vector, not the mean, serves every unknown word and
    # the vocabulary's <unk> row
    path = tmp_path / "emb.txt"
    path.write_text("water 1.0 2.0\n<unk> 9.0 -9.0\noxygen 3.0 4.0\n", encoding="utf-8")
    table = EmbeddingTable.load(path, 2)
    assert np.array_equal(table.unk_vector, [9.0, -9.0])
    assert np.array_equal(table.lookup("zzz"), [9.0, -9.0])
    vocab = {UNK_TOKEN: 0, "oxygen": 1, "zzz": 2}
    rows = init_params(vocab, 2, 2, seed=0, embeddings=table).tensors["embedding"].values
    assert np.array_equal(rows, [[9.0, -9.0], [3.0, 4.0], [9.0, -9.0]])


def test_embedding_table_dimension_mismatch(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("a 1.0 2.0\nb 3.0\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="line 2"):
        EmbeddingTable.load(path, 2)
    # a given dimension binds the first line too
    with pytest.raises(CorpusError, match=f"{path} line 1: vector length 2 != configured 3"):
        EmbeddingTable.load(path, 3)


def test_embedding_table_rejects_repeated_token(tmp_path):
    # keeping either vector would silently drop the other and skew unk_vector
    path = tmp_path / "emb.txt"
    path.write_text("the 1 0\nthe 0 1\nwater 1 1\n", encoding="utf-8")
    with pytest.raises(CorpusError,
                       match=f"{path} line 2: duplicate token 'the' \\(first on line 1\\)"):
        EmbeddingTable.load(path, 2)


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity", "1e400"])
def test_embedding_table_rejects_non_finite_values(tmp_path, bad):
    path = tmp_path / "emb.txt"
    path.write_text(f"water 1.0 2.0\nthe {bad} 1.0\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=f"{path} line 2"):
        EmbeddingTable.load(path, 2)


LINE_ENDS = {"lf": b"\n", "crlf": b"\r\n", "cr": b"\r"}


def write_lines(path, lines: list[str], end: bytes, bad_line: int | None = None):
    """Write `lines` as UTF-8 with `end` after each; a 0xff byte opens line `bad_line`."""
    data = [line.encode("utf-8") for line in lines]
    if bad_line is not None:
        data[bad_line - 1] = b"\xff" + data[bad_line - 1]
    path.write_bytes(b"".join(line + end for line in data))
    return path


def test_corpus_and_embeddings_load_alike_with_every_line_end(tmp_path):
    """LF, CRLF and lone-CR files load to equal results; a line splits at
    those ends only, not at the other characters `str.splitlines` splits at."""
    examples = corpus.flatten_groups(generate_synthetic(seed=4, topics=2, paragraphs_per_topic=2,
                                                        noise=0.2))
    examples[0] = dataclasses.replace(examples[0], entities=(
        Entity(name="a\u2028b\x85c\x1cd", mentions=examples[0].entities[0].mentions),
        *examples[0].entities[1:]))
    lines = [json.dumps(corpus.example_to_json(ex), ensure_ascii=False) for ex in examples]
    lines[1:1] = ["", " \u2003\t"]  # blank lines, skipped
    vectors = ["water 1.0 2.0", "x\x0by\u2028z\x85\x1c 3.0 4.0", "<unk> 0.5 -0.5"]
    loaded = []
    for name, end in LINE_ENDS.items():
        got = corpus.load_examples(write_lines(tmp_path / f"{name}.jsonl", lines, end))
        table = EmbeddingTable.load(write_lines(tmp_path / f"{name}.txt", vectors, end), 2)
        loaded.append(([corpus.example_to_json(ex) for ex in got],
                       {token: v.tolist() for token, v in table.vectors.items()},
                       table.unk_vector.tolist()))
    assert loaded[0][0] == [corpus.example_to_json(ex) for ex in examples]
    assert list(loaded[0][1]) == ["water", "x\x0by\u2028z\x85\x1c", "<unk>"]
    assert loaded[1] == loaded[0] and loaded[2] == loaded[0]


@pytest.mark.parametrize("end", LINE_ENDS.values(), ids=LINE_ENDS.keys())
def test_a_faulty_line_is_named_alike_with_every_line_end(tmp_path, end):
    """A 0xff byte on line 3 is reported on line 3; an unterminated string
    reads the same whatever ends its line, since the parser sees the end."""
    examples = generate_synthetic(seed=4, topics=2, paragraphs_per_topic=2, noise=0.2)
    lines = [json.dumps(corpus.example_to_json(ex)) for ex in corpus.flatten_groups(examples)]
    path = write_lines(tmp_path / "c.jsonl", lines, end, bad_line=3)
    with pytest.raises(CorpusError) as info:
        corpus.load_examples(path)
    assert str(info.value) == f"{path} line 3: not UTF-8: byte 0xff"
    path = write_lines(tmp_path / "c.jsonl", [lines[0], '{"id": "p'], end)
    with pytest.raises(CorpusError) as info:
        corpus.load_examples(path)
    assert str(info.value) == f"{path} line 2: invalid JSON: Invalid control character at"
    path = write_lines(tmp_path / "emb.txt", ["a 1.0", "b 2.0", "c 3.0"], end, bad_line=3)
    with pytest.raises(CorpusError) as info:
        EmbeddingTable.load(path, 1)
    assert str(info.value) == f"{path} line 3: not UTF-8: byte 0xff"


# ---------------------------------------------------------------------------
# atomic writes

def test_failed_write_keeps_old_file_and_leaves_no_stray_file(tmp_path):
    path = tmp_path / "split.jsonl"
    corpus.save_examples(path, [make_example()])
    old = path.read_bytes()

    def fails_part_way():
        yield make_example(id="x2")
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        corpus.save_examples(path, fails_part_way())
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["split.jsonl"]


def test_atomic_open_names_the_target_when_it_cannot_create_a_file(tmp_path):
    path = tmp_path / "missing" / "out.json"
    with pytest.raises(FileNotFoundError) as info:
        with corpus.atomic_open(path):
            pass
    assert info.value.filename == str(path)
    assert os.listdir(tmp_path) == []


def test_atomic_open_gives_the_modes_of_open(tmp_path):
    def mode(p):
        return stat.S_IMODE(os.stat(p).st_mode)

    reference = tmp_path / "reference"
    open(reference, "w").close()
    fresh = tmp_path / "fresh"
    with corpus.atomic_open(fresh) as fh:
        fh.write("new\n")
    assert fresh.read_text() == "new\n"
    assert mode(fresh) == mode(reference)
    os.chmod(fresh, 0o640)
    with corpus.atomic_open(fresh) as fh:
        fh.write("newer\n")
    assert fresh.read_text() == "newer\n"
    assert mode(fresh) == 0o640
    assert sorted(os.listdir(tmp_path)) == ["fresh", "reference"]


def test_atomic_open_writes_through_symlinks_and_pipes(tmp_path):
    target = tmp_path / "target.jsonl"
    target.write_text("old\n")
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    with corpus.atomic_open(link) as fh:
        fh.write("new\n")
    assert link.is_symlink() and target.read_text() == "new\n"

    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_text()), daemon=True)
    reader.start()
    with corpus.atomic_open(fifo) as fh:
        fh.write("streamed\n")
    reader.join(timeout=10)
    assert read == ["streamed\n"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "pipe", "target.jsonl"]


def test_atomic_open_writes_the_bytes_of_open(tmp_path):
    text = "Wasser fließt → ☕ 水\n\"quoted\"\ttab\n"
    reference = tmp_path / "reference"
    with open(reference, "w", encoding="utf-8") as fh:
        fh.write(text)
    path = tmp_path / "out"
    with corpus.atomic_open(path) as fh:
        fh.write(text)
    assert path.read_bytes() == reference.read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("new", ["short\n", ""])
def test_atomic_open_rewrite_leaves_exactly_the_new_bytes(tmp_path, new):
    path = tmp_path / "out"
    path.write_text("a much longer old text\n" * 100)
    with corpus.atomic_open(path) as fh:
        fh.write(new)
    assert path.read_bytes() == new.encode("utf-8")
    assert os.listdir(tmp_path) == ["out"]


def test_atomic_open_text_it_cannot_encode_keeps_the_old_file(tmp_path):
    path = tmp_path / "out"
    path.write_text("old\n")
    with pytest.raises(UnicodeEncodeError):
        with corpus.atomic_open(path) as fh:
            fh.write("lone \ud800 surrogate\n")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out"]


def test_atomic_open_preallocates_the_file_before_writing_it(tmp_path, monkeypatch):
    calls = []
    real = os.posix_fallocate

    def spy(fd, offset, length):
        calls.append((os.fstat(fd).st_ino, offset, length, os.fstat(fd).st_size))
        real(fd, offset, length)

    monkeypatch.setattr(os, "posix_fallocate", spy)
    path = tmp_path / "out"
    path.write_text("old\n")
    text = "ß" * 5000 + "\n"
    with corpus.atomic_open(path) as fh:
        fh.write(text)
    data = text.encode("utf-8")
    assert path.read_bytes() == data
    # the temporary file, now the target, with nothing written to it yet
    assert calls == [(os.stat(path).st_ino, 0, len(data), 0)]


def test_atomic_open_works_without_posix_fallocate(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "posix_fallocate", raising=False)
    path = tmp_path / "out"
    path.write_text("old\n")
    with corpus.atomic_open(path) as fh:
        fh.write("new ✓\n")
    assert path.read_text(encoding="utf-8") == "new ✓\n"
    assert os.listdir(tmp_path) == ["out"]


# ---------------------------------------------------------------------------
# grids

def test_distribution_grid_validates():
    ok = np.full((1, 1, 4), 0.25)
    ChangeGrid.from_dists(ok)
    bad = ok.copy()
    bad[0, 0, 0] = 0.5
    with pytest.raises(CorpusError):
        ChangeGrid.from_dists(bad)


def test_hard_grid_validates_label_range():
    with pytest.raises(CorpusError):
        ChangeGrid.from_labels([[4]])


# ---------------------------------------------------------------------------
# properties of the parser

SWAPS = [None, True, 0, -1, 10**6, 0.5, float("nan"), "x", "", [], [[]], {}]


def places(node, keys=()):
    """The key path of every value in a parsed JSON document, itself first."""
    yield keys
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from places(child, keys + (key,))


def mutate(data, record):
    """Drop a key, swap a value for another (mostly of another JSON type), or
    truncate a list, at a drawn place anywhere in a JSON record."""
    keys = data.draw(hst.sampled_from(list(places(record))))
    parent, node = None, record
    for key in keys:
        parent, node = node, node[key]
    choices = [v for v in SWAPS if not (type(v) is type(node) and v == node)]
    if isinstance(parent, dict):
        choices.append("<drop>")
    if isinstance(node, list) and node:
        choices += [node[:n] for n in sorted({0, len(node) - 1})]
    value = data.draw(hst.sampled_from(choices))
    if not keys:
        return value
    if value == "<drop>":
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    return record


def mutated_corpus(data, path):
    """A valid first record and a single mutation of a valid second one, as JSONL."""
    good, bad = (corpus.example_to_json(make_example(id=i, gold_rows=[[0, 3], [3, 1]]))
                 for i in ("good", "bad"))
    lines = [json.dumps(good), json.dumps(mutate(data, bad))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(hst.data())
def test_any_single_corpus_mutation_loads_or_raises_corpus_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    mutated_corpus(data, path)
    try:
        corpus.load_examples(path)
    except CorpusError as exc:
        assert str(exc).startswith(f"{path} line 2: ")


def parsed_or_error(parse, record):
    try:
        return parse(record, "where")
    except CorpusError as exc:
        return str(exc)


def targeted_mutation(data, record):
    """Drop a top-level key, empty a step, put `true` where an int belongs,
    move a mention or verb index to or past the end of its range, or give the
    gold grid an unknown label, a ragged row or null."""
    ints = [keys for keys in places(record) if keys and keys[0] in ("entities", "verbs")
            and type(lookup(record, keys)) is int]
    labels = [keys for keys in places(record) if keys[:1] == ("gold",) and len(keys) == 3]
    kind = data.draw(hst.sampled_from(["drop"] + ["empty"] * 2 * ("steps" in record)
                                      + ["true"] * 2 * bool(ints) + ["range"] * 6 * bool(ints)
                                      + ["unknown"] * 3 * bool(labels)
                                      + ["ragged", "null"] * bool(labels)))
    if kind == "drop":
        del record[data.draw(hst.sampled_from(sorted(record)))]
    elif kind == "empty":
        record["steps"][data.draw(hst.integers(0, len(record["steps"]) - 1))] = []
    elif kind in ("true", "range"):
        keys = data.draw(hst.sampled_from(ints))
        span, steps = lookup(record, keys[:-1]), record.get("steps", [])
        limit = (len(steps) if keys[-1] == 0
                 else len(steps[span[0]]) if type(span[0]) is int and 0 <= span[0] < len(steps)
                 else 1)
        # the last choice copies the field before it: a mention's end onto its start
        value = True if kind == "true" else data.draw(hst.sampled_from(
            [-1, 0, limit, limit + 1, span[keys[-1] - 1]]))
        span[keys[-1]] = value
    elif kind == "unknown":
        keys = data.draw(hst.sampled_from(labels))
        lookup(record, keys[:-1])[keys[-1]] = data.draw(hst.sampled_from(["move", "MOVED", ""]))
    elif kind == "ragged":
        row = record["gold"][data.draw(hst.integers(0, len(record["gold"]) - 1))]
        row[:] = data.draw(hst.sampled_from([row[:-1], row + row[:1]]))
    else:
        record["gold"] = None
    return record


def lookup(node, keys):
    for key in keys:
        node = node[key]
    return node


@settings(max_examples=400, deadline=None, derandomize=True)
@given(hst.data())
def test_parser_fails_and_succeeds_like_the_closure_reference(data):
    """On a valid paragraph (drawn, or generated) with one to three targeted
    mutations, and in a quarter of the cases a key dropped or a value swapped
    anywhere after them, the parser raises the reference's CorpusError text or
    returns an equal example."""
    generated = hst.integers(0, 2**32).map(
        lambda seed: generate_synthetic(seed, 1, 1, 0.5)[0].members[0])
    record = corpus.example_to_json(data.draw(examples(id="p") | generated))
    for _ in range(data.draw(hst.integers(1, 3))):
        record = targeted_mutation(data, record)
    if data.draw(hst.integers(0, 3)) == 0:
        record = mutate(data, record)
    assume(isinstance(record, dict))
    got = parsed_or_error(corpus._parse_example, json.loads(json.dumps(record)))
    expected = parsed_or_error(corpus_reference._parse_example, json.loads(json.dumps(record)))
    if isinstance(expected, str):
        assert got == expected
    else:
        assert_same_examples([got], [expected])


TOKENS = hst.text(min_size=1, max_size=6)


@hst.composite
def examples(draw, id):
    steps = draw(hst.lists(hst.lists(TOKENS, min_size=1, max_size=5).map(tuple),
                           min_size=1, max_size=4).map(tuple))

    def spans(min_size):
        return hst.lists(hst.integers(0, len(steps) - 1).flatmap(
            lambda s: hst.tuples(hst.just(s), hst.integers(0, len(steps[s]) - 1)).flatmap(
                lambda sa: hst.integers(sa[1] + 1, len(steps[s])).map(lambda b: (*sa, b)))),
            min_size=min_size, max_size=3).map(tuple)

    entities = draw(hst.lists(hst.builds(Entity, name=TOKENS, mentions=spans(0)),
                              min_size=1, max_size=3).map(tuple))
    verbs = tuple((s, a) for s, a, _ in draw(spans(0)))
    gold = draw(hst.none() | hst.lists(
        hst.lists(hst.integers(0, len(StateChange) - 1), min_size=len(entities),
                  max_size=len(entities)), min_size=len(steps), max_size=len(steps)))
    ex = ProcessExample(id=id, topic=draw(TOKENS), steps=steps, entities=entities,
                        verbs=verbs, gold=None if gold is None else ChangeGrid.from_labels(gold))
    ex.validate()
    return ex


@settings(max_examples=40, deadline=None, derandomize=True)
@given(hst.integers(1, 3).flatmap(
    lambda n: hst.tuples(*(examples(id=f"p{i}") for i in range(n)))))
def test_save_then_load_is_identity(tmp_path_factory, originals):
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    corpus.save_examples(path, originals)
    loaded = corpus.load_examples(path)
    assert len(loaded) == len(originals)
    for a, b in zip(originals, loaded):
        assert (a.id, a.topic, a.steps, a.entities, a.verbs) == (b.id, b.topic, b.steps,
                                                               b.entities, b.verbs)
        assert (a.gold is None and b.gold is None
                or np.array_equal(a.gold.labels, b.gold.labels))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(hst.sampled_from(["eval", "predict"]), hst.data())
def test_cli_on_a_mutated_corpus_never_raises(tmp_path_factory, command, data):
    """eval and predict on a corpus with one mutated record exit 0 where the
    corpus loads, and otherwise 2 with the file named; no exception escapes."""
    tmp = tmp_path_factory.mktemp("cli")
    path, checkpoint = tmp / "c.jsonl", tmp / "ck.json"
    params = model.init_params(model.build_vocab([corpus.TopicGroup("t", [make_example()])]),
                               4, 4, seed=0)
    model.save_checkpoint(params, checkpoint)
    mutated_corpus(data, path)
    try:
        corpus.load_examples(path)
        loads = True
    except CorpusError:
        loads = False
    argv = [command, str(checkpoint), str(path), "--out", str(tmp / "out.json")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if loads:
        assert code == cli.EXIT_OK, err.getvalue()
    else:
        assert code == cli.EXIT_DATA and str(path) in err.getvalue()
