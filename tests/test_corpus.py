import json
import os
import stat
import threading

import numpy as np
import pytest

from statetrack import corpus
from statetrack.corpus import (ChangeGrid, CorpusError, EmbeddingTable, Entity,
                               ProcessExample, StateChange, demote_labels,
                               generate_synthetic, shared_entities)


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
    table = EmbeddingTable.load(path)
    assert table.dimension == 2
    assert np.array_equal(table.lookup("water"), [1.0, 2.0])
    assert np.array_equal(table.lookup("zzz"), [2.0, 3.0])  # mean of all vectors


def test_embedding_table_dimension_mismatch(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("a 1.0 2.0\nb 3.0\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="line 2"):
        EmbeddingTable.load(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity", "1e400"])
def test_embedding_table_rejects_non_finite_values(tmp_path, bad):
    path = tmp_path / "emb.txt"
    path.write_text(f"water 1.0 2.0\nthe {bad} 1.0\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=f"{path} line 2"):
        EmbeddingTable.load(path)


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
