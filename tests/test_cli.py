import argparse
import dataclasses
import json

import numpy as np
import pytest

from statetrack import cli, corpus, model


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


def test_train_rejects_bad_config_key(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"nonsense": 1}))
    assert run_cli("train", "--config", str(cfg_path)) == cli.EXIT_USAGE


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
    assert f"'{key}' must be" in capsys.readouterr().err


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
], ids=["checkpoint-report", "checkpoint-train", "report-dev", "report-config",
        "checkpoint-embeddings", "predict-checkpoint", "predict-corpus", "eval-symlink"])
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
