import argparse
import dataclasses
import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import predict_reference
import pytest

import statetrack
from statetrack import cli, corpus, evaluation, model, training


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def gen_dir(tmp_path):
    out = tmp_path / "data"
    assert run_cli("gen", "--out-dir", str(out), "--seed", "3",
                   "--train-topics", "3", "--dev-topics", "1",
                   "--test-topics", "1", "--paragraphs", "2") == 0
    return out


def train_small(tmp_path, gen_dir, *extra):
    ck = tmp_path / "ck.json"
    rep = tmp_path / "report.json"
    code = run_cli("train", "--train", str(gen_dir / "train.jsonl"),
                   "--dev", str(gen_dir / "dev.jsonl"),
                   "--checkpoint", str(ck), "--report", str(rep),
                   "--epochs", "3", "--seed", "5", "--hidden", "4",
                   "--emb-dim", "4", "--lr", "0.3", *extra)
    return code, ck, rep


# ---------------------------------------------------------------------------
# gen

def test_gen_writes_three_disjoint_splits(gen_dir):
    topics = {}
    for split in ("train", "dev", "test"):
        path = gen_dir / f"{split}.jsonl"
        assert path.exists()
        topics[split] = {ex.topic for ex in corpus.load_examples(path)}
    assert topics["train"] and topics["dev"] and topics["test"]
    assert not (topics["train"] & topics["dev"])
    assert not (topics["train"] & topics["test"])
    assert not (topics["dev"] & topics["test"])


def test_gen_same_seed_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("gen", "--out-dir", str(out), "--seed", "9") == 0
    for split in ("train", "dev", "test"):
        assert (a / f"{split}.jsonl").read_bytes() == (b / f"{split}.jsonl").read_bytes()


def test_gen_noise_flag_changes_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("gen", "--out-dir", str(a), "--seed", "9", "--noise", "0.0") == 0
    assert run_cli("gen", "--out-dir", str(b), "--seed", "9", "--noise", "1.0") == 0
    assert (a / "train.jsonl").read_bytes() != (b / "train.jsonl").read_bytes()


@pytest.mark.parametrize("flags, message", [
    (["--train-topics", "-1", "--dev-topics", "2", "--test-topics", "0"], "--train-topics"),
    (["--dev-topics", "-3"], "--dev-topics"),
    (["--test-topics", "-1"], "--test-topics"),
    (["--paragraphs", "0"], "--paragraphs"),
    (["--noise", "5"], "--noise"),
    (["--noise", "-0.1"], "--noise"),
    (["--noise", "nan"], "--noise"),
    (["--noise", "inf"], "--noise"),
    (["--seed", "-1"], "--seed"),
], ids=["negative-train", "negative-dev", "negative-test", "no-paragraphs", "noise-above-one",
        "negative-noise", "nan-noise", "infinite-noise", "negative-seed"])
def test_gen_rejects_bad_sizes_and_noise_as_usage_error(tmp_path, capsys, flags, message):
    out = tmp_path / "data"
    assert run_cli("gen", "--out-dir", str(out), *flags) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out_dir, line", [
    ("d", "test split d/test.jsonl is a directory"),
    ("afile", "--out-dir afile: File exists"),
    ("afile/sub", "--out-dir afile/sub: Not a directory"),
], ids=["split-is-a-directory", "out-dir-is-a-file", "out-dir-under-a-file"])
def test_gen_refuses_bad_outputs_before_generating(tmp_path, capsys, monkeypatch, out_dir, line):
    (tmp_path / "d" / "test.jsonl").mkdir(parents=True)
    (tmp_path / "d" / "train.jsonl").write_text("kept\n")
    (tmp_path / "afile").write_text("kept\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(corpus, "generate_synthetic", _input_read)
    before = {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
    assert run_cli("gen", "--out-dir", out_dir) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {line}\n"
    assert {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")} == before


@pytest.mark.parametrize("err", [errno.EACCES, errno.EROFS, errno.ENOSPC],
                         ids=["EACCES", "EROFS", "ENOSPC"])
def test_gen_out_dir_failing_in_its_environment_exits_2(tmp_path, capsys, monkeypatch, err):
    """Only a file where the directory must be is a usage error; a directory
    that cannot be made exits 2, as any command's environment failure does."""
    def mkdir(path, *args, **kwargs):
        raise OSError(err, os.strerror(err), str(path))

    monkeypatch.setattr(Path, "mkdir", mkdir)
    monkeypatch.setattr(corpus, "generate_synthetic", _input_read)
    assert run_cli("gen", "--out-dir", str(tmp_path / "new")) == cli.EXIT_DATA
    assert os.strerror(err) in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train

def test_train_writes_checkpoint_and_report(tmp_path, gen_dir):
    code, ck, rep = train_small(tmp_path, gen_dir)
    assert code == 0
    assert ck.exists()
    report = json.loads(rep.read_text())
    assert len(report["epochs"]) == 3
    assert report["config"]["seed"] == 5
    assert report["config"]["demoted_paragraphs"] == 0


def test_train_is_reproducible(tmp_path, gen_dir):
    (tmp_path / "r1").mkdir()
    (tmp_path / "r2").mkdir()
    _, ck1, rep1 = train_small(tmp_path / "r1", gen_dir)
    _, ck2, rep2 = train_small(tmp_path / "r2", gen_dir)
    assert ck1.read_bytes() == ck2.read_bytes()
    assert json.loads(rep1.read_text())["epochs"] == json.loads(rep2.read_text())["epochs"]


# the benchmark's corpus and model settings (perfbench/inputs.py and run.py)
BENCH_GEN = ["--train-topics", "10", "--dev-topics", "3", "--test-topics", "3",
             "--paragraphs", "3", "--noise", "0.15"]
BENCH_MODEL = ["--lr", "0.5", "--hidden", "8", "--emb-dim", "16", "--seed", "1"]


@pytest.mark.parametrize("flags", [["--no-consistency"],
                                   ["--label-fraction", "0.33", "--use-unlabeled"]],
                         ids=["supervised", "semi"])
def test_train_repeats_in_one_process_after_a_run_on_other_data(tmp_path, flags):
    """Many `train` commands in one interpreter, as the benchmark runs them: a
    run on another corpus of the same shapes in between leaves the next run's
    outputs unchanged."""
    for seed in ("42", "43"):
        assert run_cli("gen", "--out-dir", str(tmp_path / seed), "--seed", seed, *BENCH_GEN) == 0
    outputs = []
    for seed in ("42", "43", "42"):
        ck, rep = tmp_path / f"ck{seed}.json", tmp_path / f"report{seed}.json"
        assert run_cli("train", "--train", str(tmp_path / seed / "train.jsonl"),
                       "--dev", str(tmp_path / seed / "dev.jsonl"), "--checkpoint", str(ck),
                       "--report", str(rep), "--epochs", "3", *BENCH_MODEL, *flags) == 0
        outputs.append((ck.read_bytes(), rep.read_bytes()))
    assert outputs[2] == outputs[0] != outputs[1]


def test_train_label_fraction_demotes(tmp_path, gen_dir):
    code, _, rep = train_small(tmp_path, gen_dir, "--label-fraction", "0.5",
                               "--use-unlabeled")
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["config"]["demoted_paragraphs"] == 3  # 1 of 2 per topic
    assert report["config"]["use_unlabeled"] is True


@pytest.mark.parametrize("source", ["flag", "config"])
def test_train_rejects_use_unlabeled_with_every_label_kept(tmp_path, gen_dir, capsys, source):
    # with label-fraction 1 nothing is demoted, so the setting would be ignored
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"use_unlabeled": True}))
    extra = ["--use-unlabeled"] if source == "flag" else ["--config", str(cfg_path)]
    code, ck, _ = train_small(tmp_path, gen_dir, *extra)
    assert code == cli.EXIT_USAGE
    assert "use-unlabeled needs a label-fraction below 1" in capsys.readouterr().err
    assert not ck.exists()


def test_train_config_use_unlabeled_with_label_fraction_flag(tmp_path, gen_dir):
    # the rule between fields runs once the flags are merged in
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"use_unlabeled": True}))
    code, _, rep = train_small(tmp_path, gen_dir, "--config", str(cfg_path),
                               "--label-fraction", "0.33")
    assert code == 0
    config = json.loads(rep.read_text())["config"]
    assert config["use_unlabeled"] is True and config["label_fraction"] == 0.33


def test_train_no_consistency_flag(tmp_path, gen_dir):
    code, _, rep = train_small(tmp_path, gen_dir, "--no-consistency")
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["config"]["consistency_enabled"] is False
    assert all(r["mean_con_loss"] == 0.0 for r in report["epochs"])


def test_train_config_file_with_flag_override(tmp_path, gen_dir):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "train": str(gen_dir / "train.jsonl"),
        "dev": str(gen_dir / "dev.jsonl"),
        "checkpoint": str(tmp_path / "ck.json"),
        "report": str(tmp_path / "rep.json"),
        "epochs": 2, "seed": 7, "hidden_size": 4, "embedding_dim": 4,
        "lambda": 0.10,
    }))
    assert run_cli("train", "--config", str(cfg_path), "--seed", "8") == 0
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["config"]["seed"] == 8          # flag wins
    assert report["config"]["lambda_weight"] == 0.10  # file value kept


def test_train_rejects_bad_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"nonsense": 1}))
    assert run_cli("train", "--config", str(cfg_path)) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: config file {cfg_path}: unknown key 'nonsense'\n"


@pytest.mark.parametrize("data, flags, message", [
    ({"seed": 1, "bogus": 1}, [], "unknown key 'bogus'"),
    ({"seed": "x"}, ["--seed", "3"], "'seed' must be int, got 'x'"),  # a flag does not hide it
    ({"epochs": 0}, [], "epochs must be >= 1"),
    ({"epochs": 0}, ["--epochs", "2"], "epochs must be >= 1"),
], ids=["unknown-after-known", "mistyped-under-flag", "out-of-range", "out-of-range-under-flag"])
def test_config_file_is_checked_before_the_flags(tmp_path, gen_dir, capsys, data, flags,
                                                  message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert run_cli("train", "--config", str(cfg_path), "--train", str(gen_dir / "train.jsonl"),
                   "--checkpoint", str(tmp_path / "ck.json"),
                   "--report", str(tmp_path / "r.json"), *flags) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: config file {cfg_path}: {message}\n"
    assert not (tmp_path / "ck.json").exists()


@pytest.mark.parametrize("text, key", [
    ('{"lambda": 0.5, "lambda_weight": 0.9}', "lambda_weight"),
    ('{"lambda_weight": 0.9, "lambda": 0.5}', "lambda"),
    ('{"seed": 1, "epochs": 2, "seed": 3}', "seed"),
    ('{"lambda": 0.5, "lambda": 0.9}', "lambda"),
], ids=["alias-after-name", "name-after-alias", "repeated-key", "repeated-alias"])
def test_train_rejects_config_setting_a_field_twice(tmp_path, gen_dir, capsys, text, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert run_cli("train", "--config", str(cfg_path), "--train", str(gen_dir / "train.jsonl"),
                   "--checkpoint", str(tmp_path / "ck.json"),
                   "--report", str(tmp_path / "r.json")) == cli.EXIT_USAGE
    assert f"key {key!r} sets" in capsys.readouterr().err
    assert not (tmp_path / "ck.json").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_train_rejects_negative_seed_as_usage_error(tmp_path, gen_dir, capsys, source):
    argv = ["train", "--train", str(gen_dir / "train.jsonl"),
            "--checkpoint", str(tmp_path / "ck.json"), "--report", str(tmp_path / "r.json")]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(cfg_path)]
    assert run_cli(*argv) == cli.EXIT_USAGE
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "ck.json").exists()


@pytest.mark.parametrize("key, value", [
    ("seed", "x"), ("epochs", 1.5), ("hidden_size", True), ("use_unlabeled", 1),
    ("consistency_enabled", "no"), ("train", ["t.jsonl"]), ("label_fraction", None),
    ("sup_threshold", float("nan")), ("learning_rate", float("inf")),
    ("lambda_weight", float("-inf")), ("label_fraction", float("nan")),
])
def test_train_rejects_mistyped_config_value(tmp_path, gen_dir, capsys, key, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"train": str(gen_dir / "train.jsonl"), key: value}))
    assert run_cli("train", "--config", str(cfg_path), "--checkpoint", str(tmp_path / "ck.json"),
                   "--report", str(tmp_path / "r.json")) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    if isinstance(value, float) and not math.isfinite(value):
        # the right type: the range checks refuse it, before the flags are merged in
        assert err == f"error: config file {cfg_path}: '{key}' must be finite, got {value!r}\n"
    else:
        kind = next(f.type for f in dataclasses.fields(cli.RunConfig) if f.name == key)
        assert err == f"error: config file {cfg_path}: '{key}' must be {kind}, got {value!r}\n"


@pytest.mark.parametrize("flag, value, field", [
    ("--lr", "inf", "learning_rate"), ("--sup-threshold", "nan", "sup_threshold"),
    ("--lambda", "nan", "lambda_weight"), ("--label-fraction", "inf", "label_fraction"),
])
def test_train_rejects_non_finite_flag_value(tmp_path, gen_dir, capsys, flag, value, field):
    assert run_cli("train", "--train", str(gen_dir / "train.jsonl"), flag, value,
                   "--checkpoint", str(tmp_path / "ck.json"),
                   "--report", str(tmp_path / "r.json")) == cli.EXIT_USAGE
    assert f"'{field}' must be finite" in capsys.readouterr().err
    assert not (tmp_path / "ck.json").exists()


def test_run_config_fields_are_the_config_keys_and_flag_dests(tmp_path, gen_dir):
    # a valid non-default value for every field, ints standing in for floats
    wanted = {"train": "t.jsonl", "dev": "d.jsonl", "embeddings": "e.txt",
              "checkpoint": "c.json", "report": "r.json", "label_fraction": 0.5,
              "use_unlabeled": True, "lambda_weight": 1, "sup_threshold": 0.5,
              "learning_rate": 2, "epochs": 3, "seed": 4, "hidden_size": 6,
              "embedding_dim": 5, "consistency_enabled": False}
    fields = [f.name for f in dataclasses.fields(cli.RunConfig)]
    assert sorted(fields) == sorted(wanted)

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(wanted))
    args = cli.build_parser().parse_args(["train", "--config", str(cfg_path)])
    assert dataclasses.asdict(cli._build_run_config(args)) == wanted

    flags = argparse.ArgumentParser()
    cli._add_common_train_flags(flags)
    actions = {a.dest: a for a in flags._actions}
    argv = ["train"]
    for name in fields:
        argv.append(actions[name].option_strings[0])
        if actions[name].nargs != 0:
            argv.append(str(wanted[name]))
    args = cli.build_parser().parse_args(argv)
    assert dataclasses.asdict(cli._build_run_config(args)) == wanted

    _, _, rep = train_small(tmp_path, gen_dir)
    assert set(json.loads(rep.read_text())["config"]) == set(fields) | {"demoted_paragraphs"}


def test_train_test_option_is_gone(tmp_path, gen_dir):
    outputs = ["--checkpoint", str(tmp_path / "ck.json"), "--report", str(tmp_path / "r.json"),
               "--epochs", "1"]
    assert run_cli("train", "--train", str(gen_dir / "train.jsonl"),
                   "--test", str(gen_dir / "test.jsonl"), *outputs) == cli.EXIT_USAGE
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"train": str(gen_dir / "train.jsonl"),
                                    "test": str(gen_dir / "test.jsonl")}))
    assert run_cli("train", "--config", str(cfg_path), *outputs) == cli.EXIT_USAGE


def test_train_requires_corpus_path(tmp_path):
    assert run_cli("train", "--epochs", "1") == cli.EXIT_USAGE


def test_train_numerical_failure_exit_code(tmp_path, gen_dir):
    code, _, _ = train_small(tmp_path, gen_dir, "--lr", "1e9")
    assert code == cli.EXIT_NUMERIC


def test_train_overflow_is_one_line_and_exit_3(tmp_path, capsys):
    # an overflow inside the model shows only as the non-finite loss: no numpy
    # warning is printed (and none is raised here, where warnings are errors)
    data = tmp_path / "data"
    assert run_cli("gen", "--out-dir", str(data)) == 0
    capsys.readouterr()
    code = run_cli("train", "--train", str(data / "train.jsonl"), "--lr", "1e300",
                   "--checkpoint", str(tmp_path / "ck.json"),
                   "--report", str(tmp_path / "report.json"))
    assert code == cli.EXIT_NUMERIC == 3
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite loss at epoch 1, ") and err.count("\n") == 1


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("command", ["train", "predict"])
def test_out_of_memory_is_a_one_line_usage_error(tmp_path, gen_dir, capsys, monkeypatch,
                                                 command):
    # the sizes stay small: the allocation failure is simulated, never provoked
    _, ck, _ = train_small(tmp_path, gen_dir)
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setattr(model, "predict_chunks", _out_of_memory)
    monkeypatch.setattr(training, "train", _out_of_memory)
    capsys.readouterr()
    if command == "train":
        code, _, _ = train_small(out, gen_dir)
    else:
        code = run_cli("predict", str(ck), str(gen_dir / "test.jsonl"),
                       "--out", str(out / "preds.jsonl"))
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert "--hidden" in err and "--emb-dim" in err
    assert list(out.iterdir()) == []  # no output and no temporary file left behind


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


@pytest.mark.parametrize("command", ["train", "predict"])
def test_ctrl_c_is_one_error_line_with_no_output(tmp_path, gen_dir, capsys, monkeypatch,
                                                 command):
    # the interrupt is raised in process; predict's comes while its output is open
    _, ck, _ = train_small(tmp_path, gen_dir)
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setattr(model, "predict_chunks", _interrupt)
    monkeypatch.setattr(training, "train", _interrupt)
    capsys.readouterr()
    if command == "train":
        code, _, _ = train_small(out, gen_dir)
    else:
        code = run_cli("predict", str(ck), str(gen_dir / "test.jsonl"),
                       "--out", str(out / "preds.jsonl"))
    assert code == cli.EXIT_INTERRUPT == 130
    assert capsys.readouterr().err == "error: interrupted\n"
    assert list(out.iterdir()) == []  # no output and no temporary file left behind


def _no_space(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("call", ["posix_fallocate", "replace"])
def test_a_failed_write_names_its_file_and_leaves_no_temporary(tmp_path, gen_dir, capsys,
                                                               monkeypatch, call):
    # the failure is simulated; no disk is filled
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setattr(os, call, _no_space, raising=False)
    capsys.readouterr()
    code, ck, _ = train_small(out, gen_dir)
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{ck}'\n")
    assert list(out.iterdir()) == []


def test_unknown_flag_is_usage_error():
    assert run_cli("train", "--bogus") == cli.EXIT_USAGE


def test_missing_subcommand_is_usage_error():
    assert run_cli() == cli.EXIT_USAGE


def test_train_malformed_corpus_is_data_error(tmp_path, gen_dir, capsys):
    lines = (gen_dir / "train.jsonl").read_text().splitlines()
    bad = json.loads(lines[1])
    bad["steps"] = 5
    lines[1] = json.dumps(bad)
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    code = run_cli("train", "--train", str(path), "--checkpoint", str(tmp_path / "ck.json"),
                   "--report", str(tmp_path / "rep.json"), "--epochs", "1")
    assert code == cli.EXIT_DATA
    assert f"{path} line 2: field 'steps'" in capsys.readouterr().err


def ragged_corpus(rng: np.random.Generator, paragraphs: int) -> list[corpus.ProcessExample]:
    """`paragraphs` paragraphs in topics of three, with 1-4 sentences of 1-7
    tokens, 1-3 entities from a pool with a non-ASCII name, mentions and verbs
    at random (so some entities are never mentioned), and gold labels on all
    but every seventh paragraph."""
    words = ("the", "water", "café", "moves", "forms", "melts", "into", "sea", "leaf")
    names = ("water", "café glacé", "Salt ", "salt", "sugar")
    examples = []
    for k in range(paragraphs):
        steps = tuple(tuple(str(w) for w in rng.choice(words, size=rng.integers(1, 8)))
                      for _ in range(rng.integers(1, 5)))
        entities = []
        for name in rng.choice(names, size=rng.integers(1, 4), replace=False):
            mentions = []
            for t, sent in enumerate(steps):
                if rng.random() < 0.4:
                    a = int(rng.integers(0, len(sent)))
                    mentions.append((t, a, int(rng.integers(a + 1, len(sent) + 1))))
            entities.append(corpus.Entity(name=str(name), mentions=tuple(mentions)))
        verbs = tuple((t, int(rng.integers(0, len(sent)))) for t, sent in enumerate(steps)
                      if rng.random() < 0.7)
        gold = None if k % 7 == 3 else corpus.ChangeGrid.from_labels(
            rng.integers(0, 4, size=(len(steps), len(entities))))
        ex = corpus.ProcessExample(id=f"p{k}", topic=f"topic-{k // 3}", steps=steps,
                                   entities=tuple(entities), verbs=verbs, gold=gold)
        ex.validate()
        examples.append(ex)
    return examples


def test_predict_and_eval_write_the_per_paragraph_reference_bytes(tmp_path):
    # one paragraph past a chunk, so that the labels and summaries of two
    # encoder passes are taken; "water" and one word are unknown to the model
    examples = ragged_corpus(np.random.default_rng(11), model.PREDICT_CHUNK + 1)
    assert any(not ent.mentions for ex in examples for ent in ex.entities)
    path = tmp_path / "corpus.jsonl"
    corpus.save_examples(path, examples)
    vocab = {tok: i for i, tok in enumerate(
        t for t in model.build_vocab(corpus.group_by_topic(examples)) if t not in ("water", "sea"))}
    ck = tmp_path / "ck.json"
    model.save_checkpoint(model.init_params(vocab, 4, 6, seed=8), ck)
    params = model.load_checkpoint(ck)
    assert run_cli("predict", str(ck), str(path), "--out", str(tmp_path / "p.jsonl")) == 0
    assert (tmp_path / "p.jsonl").read_bytes() == predict_reference.predict_bytes(
        params, corpus.load_examples(path))
    assert run_cli("eval", str(ck), str(path), "--out", str(tmp_path / "e.json")) == 0
    assert (tmp_path / "e.json").read_bytes() == predict_reference.eval_bytes(
        params, corpus.load_corpus(path))


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_entity_named_twice_is_a_data_error_with_no_output(tmp_path, gen_dir, capsys, command):
    # predict's summary is keyed by entity name, so a second "water" would
    # silently replace the first one's summary
    _, ck, _ = train_small(tmp_path, gen_dir)
    line = {"id": "p", "topic": "t", "steps": [["the", "water", "moves"], ["water", "forms"]],
            "entities": [{"name": "water", "mentions": [[0, 1, 2]]},
                         {"name": "water", "mentions": [[1, 0, 1]]}],
            "verbs": [[0, 2], [1, 1]], "gold": [["MOVE", "NONE"], ["NONE", "CREATE"]]}
    path = tmp_path / "twice.jsonl"
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert run_cli(command, str(ck), str(path), "--out", str(out / "result")) == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {path} line 1: example p: two entities are named 'water'\n")
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# eval

def test_eval_reports_metrics(tmp_path, gen_dir, capsys):
    _, ck, _ = train_small(tmp_path, gen_dir)
    out = tmp_path / "metrics.json"
    code = run_cli("eval", str(ck), str(gen_dir / "test.jsonl"), "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    for key in ("precision", "recall", "f1", "consistency_score", "per_topic"):
        assert key in payload
    assert 0.0 <= payload["f1"] <= 1.0
    printed = json.loads(capsys.readouterr().out)
    assert printed == payload


def test_eval_empty_corpus_is_data_error(tmp_path, gen_dir):
    _, ck, _ = train_small(tmp_path, gen_dir)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert run_cli("eval", str(ck), str(empty)) == cli.EXIT_DATA


@pytest.mark.parametrize("dev_kind, message", [
    ("empty", "corpus is empty"), ("unlabeled", "no gold labels to evaluate against")],
    ids=["empty", "unlabeled"])
def test_train_rejects_dev_corpus_it_cannot_score(tmp_path, gen_dir, capsys, dev_kind, message):
    # model selection needs dev F1, so the dev file is checked as eval checks its corpus
    dev = gen_dir / "dev.jsonl"
    if dev_kind == "empty":
        dev.write_text("")
    else:
        corpus.save_examples(dev, [dataclasses.replace(ex, gold=None)
                                   for ex in corpus.load_examples(dev)])
    code, ck, rep = train_small(tmp_path, gen_dir)
    assert code == cli.EXIT_DATA
    assert f"{dev}: {message}" in capsys.readouterr().err
    assert not ck.exists() and not rep.exists()


def test_eval_corrupt_checkpoint_is_data_error(tmp_path, gen_dir):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"version\": 99}")
    assert run_cli("eval", str(bad), str(gen_dir / "test.jsonl")) == cli.EXIT_DATA


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("hidden, emb_dim, field", [
    (3, 4, "hidden_size"), (0, 4, "hidden_size"), (4, 0, "embedding_dim"),
], ids=["odd-hidden", "zero-hidden", "zero-embedding-dim"])
def test_checkpoint_with_invalid_sizes_is_data_error(tmp_path, gen_dir, capsys, command,
                                                     hidden, emb_dim, field):
    """A checkpoint whose tensors all fit its sizes, but whose sizes break the
    model's rules, is rejected when loaded, naming the file and the field."""
    _, ck, _ = train_small(tmp_path, gen_dir)
    payload = json.loads(ck.read_text())
    payload.update(hidden_size=hidden, embedding_dim=emb_dim)
    rng = np.random.default_rng(0)
    for name, shape, _ in model.param_layout(len(payload["vocab"]), emb_dim, hidden):
        payload["tensors"][name] = {"shape": list(shape),
                                    "values": rng.normal(size=shape).reshape(-1).tolist()}
    bad = tmp_path / "sizes.json"
    bad.write_text(json.dumps(payload))
    out = ["--out", str(tmp_path / "out.json")] if command == "predict" else []
    capsys.readouterr()
    assert run_cli(command, str(bad), str(gen_dir / "test.jsonl"), *out) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(bad) in err and field in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_checkpoint_predicting_nan_is_a_numerical_failure(tmp_path, gen_dir, capsys, command):
    """Finite weights can still overflow the decoder's logits, and a softmax
    of infinite logits is NaN: eval and predict must stop, naming the
    checkpoint, not score or write labels computed from NaN.  Saturating
    LSTM biases make every state about 0.76 or more, so every cell's logits
    overflow."""
    _, ck, _ = train_small(tmp_path, gen_dir)
    payload = json.loads(ck.read_text())
    for name, value in [("fwd_b", 1e3), ("bwd_b", 1e3), ("dec_w", 1.7e308)]:
        values = payload["tensors"][name]["values"]
        values[:] = [value] * len(values)
    bad = tmp_path / "overflow.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    code = run_cli(command, str(bad), str(gen_dir / "test.jsonl"),
                   "--out", str(out / "result.json"))
    assert code == cli.EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: checkpoint {bad}: ")
    assert "non-finite" in captured.err and captured.err.count("\n") == 1
    assert captured.out == "" and list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# predict

def test_predict_roundtrips_as_labeled_corpus(tmp_path, gen_dir):
    _, ck, _ = train_small(tmp_path, gen_dir)
    out = tmp_path / "preds.jsonl"
    assert run_cli("predict", str(ck), str(gen_dir / "test.jsonl"),
                   "--out", str(out)) == 0
    reloaded = corpus.load_examples(out)
    originals = corpus.load_examples(gen_dir / "test.jsonl")
    assert len(reloaded) == len(originals)
    for ex in reloaded:
        assert ex.gold is not None
        assert ex.gold.shape == (ex.n_steps, ex.n_entities)
    first = json.loads(out.read_text().splitlines()[0])
    assert "summary" in first


def test_predict_writes_discretized_names_and_sorted_summaries(tmp_path, gen_dir):
    # one paragraph keeps its gold, one has none, and one entity has a non-ASCII name
    _, ck, _ = train_small(tmp_path, gen_dir)
    first, second = corpus.load_examples(gen_dir / "test.jsonl")[:2]
    renamed = (dataclasses.replace(first.entities[0], name="Eau glacée ❄"), *first.entities[1:])
    examples = [dataclasses.replace(first, entities=renamed),
                dataclasses.replace(second, gold=None)]
    source, out = tmp_path / "mixed.jsonl", tmp_path / "preds.jsonl"
    corpus.save_examples(source, examples)
    assert run_cli("predict", str(ck), str(source), "--out", str(out)) == 0
    text = out.read_text(encoding="utf-8")
    assert "Eau glacée ❄" in text  # written as is, not \u-escaped
    params = model.load_checkpoint(ck)
    lines = text.splitlines()
    assert len(lines) == len(examples)
    for ex, line in zip(examples, lines):
        obj = json.loads(line)
        assert list(obj) == ["id", "topic", "steps", "entities", "verbs", "gold", "summary"]
        hard = evaluation.discretize(model.predict_grid(params, ex))
        assert obj["gold"] == [[corpus.StateChange(v).name for v in row] for row in hard.labels]
        assert obj["summary"] == {ent.name: sorted(c.name for c in evaluation.summary_set(hard, j))
                                  for j, ent in enumerate(ex.entities)}


def test_predict_output_passes_the_benchmark_output_checks(tmp_path, gen_dir):
    # the calls that the benchmark makes on predict's output: every summary read
    # back from the written labels, and the labels recomputed paragraph by paragraph
    _, ck, _ = train_small(tmp_path, gen_dir, "--epochs", "2")
    source, out = gen_dir / "test.jsonl", tmp_path / "preds.jsonl"
    assert run_cli("predict", str(ck), str(source), "--out", str(out)) == 0
    params = model.load_checkpoint(ck)
    inputs, got = corpus.load_examples(source), corpus.load_examples(out)
    raw = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert [ex.id for ex in got] == [ex.id for ex in inputs] and len(raw) == len(got)
    for obj, ex, src in zip(raw, got, inputs):
        assert ex.gold.shape == (src.n_steps, src.n_entities)
        summary_sets = [evaluation.summary_set(ex.gold, j) for j in range(ex.n_entities)]
        assert obj["summary"] == {ent.name: sorted(c.name for c in summary_set)
                                  for ent, summary_set in zip(ex.entities, summary_sets)}
        want = evaluation.discretize(model.predict_grid(params, src)).labels
        assert np.array_equal(ex.gold.labels, want)


def test_train_and_predict_rewritten_over_their_outputs_are_byte_identical(tmp_path, gen_dir):
    runs = tmp_path / "runs"
    runs.mkdir()
    out = runs / "preds.jsonl"
    seen = []
    for _ in range(2):
        code, ck, rep = train_small(runs, gen_dir)
        assert code == 0
        assert run_cli("predict", str(ck), str(gen_dir / "test.jsonl"), "--out", str(out)) == 0
        seen.append([p.read_bytes() for p in (ck, rep, out)])
    assert seen[0] == seen[1]
    assert sorted(p.name for p in runs.iterdir()) == ["ck.json", "preds.jsonl", "report.json"]


def test_in_process_commands_are_unaffected_by_a_failed_parse_between_them(tmp_path, gen_dir,
                                                                        capsys):
    _, ck, _ = train_small(tmp_path, gen_dir)
    corpus_path = str(gen_dir / "test.jsonl")
    outputs = []
    for out in (tmp_path / "first.jsonl", tmp_path / "second.jsonl"):
        capsys.readouterr()
        assert run_cli("predict", str(ck), corpus_path, "--out", str(out)) == cli.EXIT_OK
        assert run_cli("eval", str(ck), corpus_path) == cli.EXIT_OK
        outputs.append((out.read_bytes(), capsys.readouterr().out))
        never = tmp_path / "never.jsonl"
        assert run_cli("predict", str(ck), corpus_path, "--out", str(never),
                       "--bogus") == cli.EXIT_USAGE
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert not never.exists()
    assert outputs[0] == outputs[1]
    # a flag given once does not become the default of a later command
    assert run_cli("gen", "--out-dir", str(tmp_path / "seeded"), "--seed", "7") == cli.EXIT_OK
    assert run_cli("gen", "--out-dir", str(tmp_path / "default")) == cli.EXIT_OK
    assert run_cli("gen", "--out-dir", str(tmp_path / "zero"), "--seed", "0") == cli.EXIT_OK
    assert ((tmp_path / "default" / "train.jsonl").read_bytes()
            == (tmp_path / "zero" / "train.jsonl").read_bytes()
            != (tmp_path / "seeded" / "train.jsonl").read_bytes())
    assert cli.build_parser() is cli.build_parser()


def test_predict_ignores_topic_for_inference(tmp_path, gen_dir):
    _, ck, _ = train_small(tmp_path, gen_dir)
    test_path = gen_dir / "test.jsonl"
    shuffled_path = tmp_path / "shuffled.jsonl"
    lines = [json.loads(l) for l in test_path.read_text().splitlines()]
    for i, obj in enumerate(lines):
        obj["topic"] = f"scrambled-{i % 2}"
    shuffled_path.write_text("\n".join(json.dumps(o) for o in lines) + "\n")

    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli("predict", str(ck), str(test_path), "--out", str(out_a)) == 0
    assert run_cli("predict", str(ck), str(shuffled_path), "--out", str(out_b)) == 0
    grids_a = [json.loads(l)["gold"] for l in out_a.read_text().splitlines()]
    grids_b = [json.loads(l)["gold"] for l in out_b.read_text().splitlines()]
    assert grids_a == grids_b


def test_predict_handles_entity_never_mentioned(tmp_path, gen_dir):
    _, ck, _ = train_small(tmp_path, gen_dir)
    ghost = {
        "id": "ghost", "topic": "t",
        "steps": [["the", "water", "moves"]],
        "entities": [{"name": "water", "mentions": [[0, 1, 2]]},
                     {"name": "phantom", "mentions": []}],
        "verbs": [[0, 2]],
    }
    path = tmp_path / "ghost.jsonl"
    path.write_text(json.dumps(ghost) + "\n")
    out = tmp_path / "ghost_pred.jsonl"
    assert run_cli("predict", str(ck), str(path), "--out", str(out)) == 0
    pred = json.loads(out.read_text())
    assert len(pred["gold"][0]) == 2


# ---------------------------------------------------------------------------
# embeddings path

def test_train_with_embedding_file(tmp_path, gen_dir):
    tokens = set()
    for ex in corpus.load_examples(gen_dir / "train.jsonl"):
        for sent in ex.steps:
            tokens.update(sent)
    emb_path = tmp_path / "emb.txt"
    rng = np.random.default_rng(0)
    with open(emb_path, "w") as fh:
        for tok in sorted(tokens):
            vec = " ".join(f"{x:.4f}" for x in rng.normal(size=4))
            fh.write(f"{tok} {vec}\n")
    code, ck, _ = train_small(tmp_path, gen_dir, "--embeddings", str(emb_path))
    assert code == 0
    from statetrack.model import load_checkpoint
    params = load_checkpoint(ck)
    assert params.embedding_frozen
    assert not params.tensors["embedding"].requires_grad


def test_train_with_non_finite_embedding_is_data_error(tmp_path, gen_dir, capsys):
    emb_path = tmp_path / "emb.txt"
    emb_path.write_text("water 1.0 0.5 0.0 2.0\nthe nan 1.0 0.0 0.0\n", encoding="utf-8")
    code, ck, _ = train_small(tmp_path, gen_dir, "--embeddings", str(emb_path))
    assert code == cli.EXIT_DATA
    assert f"{emb_path} line 2" in capsys.readouterr().err
    assert not ck.exists()


def test_train_embedding_dimension_mismatch_names_file(tmp_path, gen_dir, capsys):
    emb_path = tmp_path / "emb.txt"
    emb_path.write_text("water 1.0 0.5\nthe 0.0 1.0\n", encoding="utf-8")
    code, ck, _ = train_small(tmp_path, gen_dir, "--embeddings", str(emb_path))
    assert code == cli.EXIT_DATA
    assert f"{emb_path} line 1: vector length 2 != configured 4" in capsys.readouterr().err
    assert not ck.exists()


# ---------------------------------------------------------------------------
# inputs that are not UTF-8; outputs that name another file of the command

@pytest.mark.parametrize("bad", ["corpus-eval", "corpus-predict", "checkpoint", "embeddings",
                                 "config"])
def test_non_utf8_input_is_named_with_its_line(tmp_path, gen_dir, capsys, bad):
    """A 0xff byte in an input names the file, and the line for the files read
    line by line; in the config file it is a usage error, like every other."""
    _, ck, _ = train_small(tmp_path, gen_dir)
    path, out, test = tmp_path / "bad", tmp_path / "out.jsonl", gen_dir / "test.jsonl"
    lines = test.read_bytes().splitlines(keepends=True)
    corpus_bytes = b"".join([lines[0], b"\xff" + lines[1], *lines[2:]])
    data, argv, where = {
        "corpus-eval": (corpus_bytes, ["eval", ck, path], f"{path} line 2"),
        "corpus-predict": (corpus_bytes, ["predict", ck, path, "--out", out], f"{path} line 2"),
        "checkpoint": (b"\xff" + ck.read_bytes(), ["eval", path, test], f"{path}"),
        "embeddings": (b"water 1 0 0 0\n\xffthe 0 1 0 0\n", ["--embeddings", path],
                       f"{path} line 2"),
        "config": (b'{"epochs": \xff1}', ["--config", path], f"config file {path}"),
    }[bad]
    path.write_bytes(data)
    capsys.readouterr()
    argv = [str(a) for a in argv]
    code = train_small(tmp_path, gen_dir, *argv)[0] if argv[0].startswith("--") else run_cli(*argv)
    assert code == (cli.EXIT_USAGE if bad == "config" else cli.EXIT_DATA)
    assert f"{where}: not UTF-8: byte 0xff" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fault, message", [
    ("deep", "invalid JSON: nested too deeply"),
    ("duplicate", "key {key!r} sets {key!r} a second time"),
    ("surrogate", "invalid JSON: lone surrogate \\ud800 in a string"),
    ("long-integer", "invalid JSON: an integer of more than 4300 digits"),
], ids=["deep", "duplicate", "surrogate", "long-integer"])
@pytest.mark.parametrize("bad", ["corpus", "checkpoint", "config"])
def test_every_json_input_follows_the_same_rules(tmp_path, gen_dir, capsys, bad, fault, message):
    """A corpus line (via predict), a checkpoint (via eval) and a config file
    (via train) nested too deeply, setting a key twice, holding a lone
    surrogate or an integer literal of 5,000 digits (past Python's digit
    limit) each end in one error line naming the file, and the corpus's line,
    with the exit code of the file's other faults and no output written."""
    _, ck, _ = train_small(tmp_path, gen_dir)
    path, out, test = tmp_path / "bad", tmp_path / "out.json", gen_dir / "test.jsonl"
    lines = test.read_text(encoding="utf-8").splitlines(keepends=True)
    document, key, argv, where, code = {
        "corpus": (json.loads(lines[1]), "id", ["predict", ck, path, "--out", out],
                   f"{path} line 2", cli.EXIT_DATA),
        "checkpoint": (json.loads(ck.read_text()), "vocab",
                       ["eval", path, test, "--out", out], f"{path}", cli.EXIT_DATA),
        "config": ({"train": str(gen_dir / "train.jsonl"), "epochs": 1}, "train",
                   ["train", "--config", path, "--checkpoint", out], f"config file {path}",
                   cli.EXIT_USAGE),
    }[bad]
    if fault == "surrogate":  # json.dumps writes it as the escape \ud800
        document[key] = "\ud800"
    text = json.dumps(document)
    rest = json.dumps({name: value for name, value in document.items() if name != key})
    text = {"deep": f'{{"{key}": ' + "[" * 200_000,
            "duplicate": f'{{"{key}": {json.dumps(document[key])}, ' + text[1:],
            "surrogate": text,
            "long-integer": f'{{"{key}": {"9" * 5000}, ' + rest[1:]}[fault]
    path.write_text("".join([lines[0], text + "\n", *lines[2:]]) if bad == "corpus" else text,
                    encoding="utf-8")
    capsys.readouterr()
    assert run_cli(*map(str, argv)) == code
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: {where}: {message.format(key=key)}"]
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["train", "--checkpoint", "same.json", "--report", "same.json"],
     "report same.json is the same file as the checkpoint"),
    (["train", "--checkpoint", "train.jsonl"], "is the same file as the train corpus"),
    (["train", "--report", "./data/../dev.jsonl"], "is the same file as the dev corpus"),
    (["train", "--report", "cfg.json", "--config", "cfg.json"],
     "is the same file as the config file"),
    (["train", "--checkpoint", "emb.txt", "--embeddings", "emb.txt"],
     "is the same file as the embeddings"),
    (["predict", "ck.json", "test.jsonl", "--out", "ck.json"],
     "--out ck.json is the same file as the checkpoint"),
    (["predict", "ck.json", "test.jsonl", "--out", "test.jsonl"],
     "is the same file as the corpus"),
    (["eval", "ck.json", "test.jsonl", "--out", "link.jsonl"],
     "is the same file as the corpus"),
    (["train", "--report", "missing/r.json"], "error: report missing/r.json: no such directory\n"),
    (["predict", "ck.json", "test.jsonl", "--out", "missing/x.jsonl"],
     "error: --out missing/x.jsonl: no such directory\n"),
], ids=["checkpoint-report", "checkpoint-train", "report-dev", "report-config",
        "checkpoint-embeddings", "predict-checkpoint", "predict-corpus", "eval-symlink",
        "report-missing-directory", "predict-missing-directory"])
def test_output_naming_another_file_of_the_command_is_refused(tmp_path, gen_dir, capsys,
                                                              monkeypatch, argv, message):
    _, ck, _ = train_small(tmp_path, gen_dir)
    for split in ("train", "dev", "test"):
        (tmp_path / f"{split}.jsonl").write_bytes((gen_dir / f"{split}.jsonl").read_bytes())
    (tmp_path / "cfg.json").write_text('{"epochs": 1}')
    (tmp_path / "emb.txt").write_text("water 1 0 0 0\n")
    (tmp_path / "link.jsonl").symlink_to(tmp_path / "test.jsonl")
    monkeypatch.chdir(tmp_path)
    if argv[0] == "train":
        argv = [*argv, "--train", "train.jsonl", "--dev", "dev.jsonl", "--epochs", "1",
                "--hidden", "4", "--emb-dim", "4"]
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    capsys.readouterr()
    assert run_cli(*argv) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def _input_read(*args, **kwargs):
    raise AssertionError("an input was read")


@pytest.mark.parametrize("argv, line", [
    (["train", "--train", ""], "train corpus path is empty"),
    (["train", "--dev", ""], "dev corpus path is empty"),
    (["train", "--embeddings", ""], "embeddings path is empty"),
    (["train", "--config", ""], "config file path is empty"),
    (["train", "--checkpoint", ""], "checkpoint path is empty"),
    (["train", "--report", ""], "report path is empty"),
    (["train", "--config", "dev-empty.json"], "dev corpus path is empty"),
    (["train", "--config", "checkpoint-empty.json"], "checkpoint path is empty"),
    (["train", "--checkpoint", "adir"], "checkpoint adir is a directory"),
    (["train", "--report", "adir"], "report adir is a directory"),
    (["eval", "", "test.jsonl"], "checkpoint path is empty"),
    (["eval", "ck.json", ""], "corpus path is empty"),
    (["eval", "ck.json", "test.jsonl", "--out", ""], "--out path is empty"),
    (["eval", "ck.json", "test.jsonl", "--out", "adir"], "--out adir is a directory"),
    (["predict", "", "test.jsonl", "--out", "p.jsonl"], "checkpoint path is empty"),
    (["predict", "ck.json", "", "--out", "p.jsonl"], "corpus path is empty"),
    (["predict", "ck.json", "test.jsonl", "--out", ""], "--out path is empty"),
    (["predict", "ck.json", "test.jsonl", "--out", "adir"], "--out adir is a directory"),
    (["predict", "ck.json", "test.jsonl", "--out", "alink"], "--out alink is a directory"),
    (["gen", "--out-dir", ""], "--out-dir path is empty"),
], ids=["train-train", "train-dev", "train-embeddings", "train-config", "train-checkpoint",
        "train-report", "config-dev", "config-checkpoint", "train-checkpoint-dir",
        "train-report-dir", "eval-checkpoint", "eval-corpus", "eval-out", "eval-out-dir",
        "predict-checkpoint", "predict-corpus", "predict-out", "predict-out-dir",
        "predict-out-dir-link", "gen-out-dir"])
def test_empty_path_or_directory_output_is_refused_before_any_input_is_read(
        tmp_path, gen_dir, capsys, monkeypatch, argv, line):
    """An empty path, from a flag, an argument or a config file, and an output
    that is a directory (or a link to one) end in one usage error naming the
    flag or field, before any input is read and with no file made or changed."""
    train_small(tmp_path, gen_dir)
    for split in ("train", "dev", "test"):
        (tmp_path / f"{split}.jsonl").write_bytes((gen_dir / f"{split}.jsonl").read_bytes())
    (tmp_path / "dev-empty.json").write_text('{"dev": ""}')
    (tmp_path / "checkpoint-empty.json").write_text('{"checkpoint": ""}')
    (tmp_path / "adir").mkdir()
    (tmp_path / "adir" / "kept").write_text("kept\n")
    (tmp_path / "alink").symlink_to(tmp_path / "adir")
    monkeypatch.chdir(tmp_path)
    if argv[0] == "train":
        argv = [*argv, "--epochs", "1", "--hidden", "4", "--emb-dim", "4"]
        if "--train" not in argv:
            argv += ["--train", "train.jsonl"]
    monkeypatch.setattr(corpus, "read_lines", _input_read)
    monkeypatch.setattr(model, "load_checkpoint", _input_read)
    before = {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
    capsys.readouterr()
    assert run_cli(*argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert [e for e in captured.err.splitlines() if e.startswith("error:")] == [f"error: {line}"]
    assert "Traceback" not in captured.err and captured.out == ""
    assert {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")} == before


LONG = "x" * 3000  # far past corpus._ECHO_CHARS


@pytest.mark.parametrize("site", [
    "config-unknown-key", "config-mistyped-value", "config-seed", "corpus-mistyped-field",
    "corpus-unknown-label", "corpus-repeated-key", "corpus-duplicate-id", "corpus-example-id",
    "corpus-entity-name", "embeddings-duplicate-token", "checkpoint-version",
    "checkpoint-unknown-field", "checkpoint-sizes", "checkpoint-repeated-token",
    "tensor-unknown-field", "tensor-shape", "unknown-tensor"])
def test_every_echo_of_an_input_value_is_capped(tmp_path, gen_dir, capsys, site):
    """A value read from a file is echoed in the command's one error line up
    to corpus._ECHO_CHARS characters, then "...", with the file named and the
    exit code of any other value at that site."""
    train_path, test = gen_dir / "train.jsonl", gen_dir / "test.jsonl"
    path, ck, out = tmp_path / "bad", tmp_path / "ck.json", tmp_path / "out.json"
    params = model.init_params(model.build_vocab(corpus.load_corpus(train_path)), 4, 4, seed=0)
    model.save_checkpoint(params, ck)
    payload = json.loads(ck.read_text())
    tensors = payload["tensors"]
    example = json.loads(test.read_text(encoding="utf-8").splitlines()[0])
    steps, width = len(example["steps"]), len(example["entities"])
    huge = 10 ** 3000 + 1
    config = ["train", "--train", train_path, "--checkpoint", out,
              "--report", tmp_path / "r.json", "--config", path]
    embedded = ["train", "--train", train_path, "--checkpoint", out,
                "--report", tmp_path / "r.json", "--embeddings", path, "--emb-dim", "4"]
    predict, load = ["predict", ck, path, "--out", out], ["predict", path, test, "--out", out]

    def line(**fields):
        return json.dumps({**example, **fields})

    def checkpoint(**fields):
        return json.dumps({**payload, **fields})

    def tensor(name, entry):
        return checkpoint(tensors={**tensors, name: entry})

    text, argv, value, code = {
        "config-unknown-key": (json.dumps({LONG: 1}), config, repr(LONG), cli.EXIT_USAGE),
        "config-mistyped-value": (json.dumps({"seed": [LONG]}), config, repr([LONG]),
                                  cli.EXIT_USAGE),
        "config-seed": (json.dumps({"seed": -huge}), config, str(-huge), cli.EXIT_USAGE),
        "corpus-mistyped-field": (line(id=[LONG]), predict, repr([LONG]), cli.EXIT_DATA),
        "corpus-unknown-label": (line(gold=[[LONG] * width] * steps), predict, repr(LONG),
                                 cli.EXIT_DATA),
        "corpus-repeated-key": (f'{{"{LONG}": 1, "{LONG}": 2}}', predict, repr(LONG),
                                cli.EXIT_DATA),
        "corpus-duplicate-id": (line(id=LONG) + "\n" + line(id=LONG), predict, repr(LONG),
                                cli.EXIT_DATA),
        "corpus-example-id": (line(id=LONG, steps=[[], *example["steps"][1:]]), predict, LONG,
                              cli.EXIT_DATA),
        "corpus-entity-name": (line(entities=[{"name": LONG, "mentions": [[0, 0, 10 ** 6]]}],
                                    gold=None), predict, LONG, cli.EXIT_DATA),
        "embeddings-duplicate-token": (f"{LONG} 1 2 3 4\n" * 2, embedded, repr(LONG),
                                       cli.EXIT_DATA),
        "checkpoint-version": (checkpoint(version=LONG), load, repr(LONG), cli.EXIT_DATA),
        "checkpoint-unknown-field": (checkpoint(**{LONG: 1}), load, LONG, cli.EXIT_DATA),
        "checkpoint-sizes": (checkpoint(hidden_size=huge), load, str(huge), cli.EXIT_DATA),
        "checkpoint-repeated-token": (checkpoint(vocab=[*payload["vocab"], LONG, LONG]), load,
                                      repr(LONG), cli.EXIT_DATA),
        "tensor-unknown-field": (tensor("dec_b", {**tensors["dec_b"], LONG: 1}), load, LONG,
                                 cli.EXIT_DATA),
        "tensor-shape": (tensor("dec_b", {**tensors["dec_b"], "shape": list(range(2000))}),
                         load, str(list(range(2000))), cli.EXIT_DATA),
        "unknown-tensor": (tensor(LONG, tensors["dec_b"]), load, LONG, cli.EXIT_DATA),
    }[site]
    path.write_text(text + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli(*map(str, argv)) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith((f"error: {path}", f"error: config file {path}"))
    assert value[:corpus._ECHO_CHARS] + "..." in err[0]
    assert value[:corpus._ECHO_CHARS + 1] not in err[0]
    assert not out.exists()


def test_the_package_runs_as_a_program(tmp_path):
    """`python -m statetrack`, as a shell starts it: the exit status, and a
    failure as one error line with no traceback."""
    env = {**os.environ, "PYTHONPATH": str(Path(statetrack.__file__).parent.parent)}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "statetrack", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)

    done = run("gen", "--out-dir", "d", "--train-topics", "1", "--dev-topics", "0",
               "--test-topics", "1", "--paragraphs", "1")
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == [
        "dev.jsonl", "test.jsonl", "train.jsonl"]
    assert (tmp_path / "d" / "test.jsonl").read_text().count("\n") == 1
    missing = run("predict", "missing.json", "d/test.jsonl", "--out", "p.jsonl")
    assert missing.returncode == cli.EXIT_DATA
    assert [e for e in missing.stderr.splitlines() if e.startswith("error:")] == [
        "error: [Errno 2] No such file or directory: 'missing.json'"]
    assert "Traceback" not in missing.stderr and not (tmp_path / "p.jsonl").exists()
    usage = run("train", "--epochs", "1")
    assert usage.returncode == cli.EXIT_USAGE
    assert usage.stderr == "error: train corpus path is required (--train or config)\n"
