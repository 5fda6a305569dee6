"""Tests of the benchmark itself: inputs, output checks, tracer and count repeatability.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from statetrack import cli, corpus, model  # noqa: E402

COUNTS = ("autodiff.backward_calls", "autodiff.tape_nodes_per_batch.p50",
          "autodiff.tape_nodes_per_batch.max", "autodiff.nodes_per_epoch",
          "model.encode_calls", "model.cells_per_paragraph", "training.batches",
          "training.consistency_batch_share", "corpus.paragraphs_loaded")


def test_inputs_repeat_per_seed_and_keep_the_work_across_seeds(tmp_path):
    a = inputs.build(tmp_path / "a", 5)
    b = inputs.build(tmp_path / "b", 5)
    c = inputs.build(tmp_path / "c", 6)
    for name in ("train", "dev", "test", "long"):
        assert a["paths"][name].read_bytes() == b["paths"][name].read_bytes()
        assert sorted(a["cells"][name]) == sorted(c["cells"][name])
    for name in ("train", "dev", "test"):
        assert a["paths"][name].read_bytes() == c["paths"][name].read_bytes()
    assert a["paths"]["long"].read_bytes() != c["paths"]["long"].read_bytes()
    assert len(a["cells"]["train"]) == 30 and len(a["cells"]["long"]) == 16


def test_concat_topic_reindexes_steps_and_keeps_gold_rows():
    group = corpus.generate_synthetic(seed=3, topics=1, paragraphs_per_topic=3, noise=0.0)[0]
    members = group.members
    long_ex = inputs.concat_topic(members)
    assert long_ex.n_steps == sum(ex.n_steps for ex in members)
    offset = 0
    for ex in members:
        for j, ent in enumerate(ex.entities):
            col = [e.name for e in long_ex.entities].index(ent.name)
            np.testing.assert_array_equal(
                long_ex.gold.labels[offset:offset + ex.n_steps, col], ex.gold.labels[:, j])
            for t in range(ex.n_steps):
                assert (long_ex.entities[col].mention_tokens(offset + t)
                        == ent.mention_tokens(t))
        for t in range(ex.n_steps):
            assert long_ex.verb_tokens(offset + t) == ex.verb_tokens(t)
        offset += ex.n_steps


def test_predict_check_rejects_wrong_labels_and_summaries(tmp_path):
    built = inputs.build(tmp_path, 2)
    examples = corpus.load_examples(built["paths"]["long"])
    params = model.init_params(model.build_vocab(corpus.group_by_topic(examples)), 16, 8, seed=1)
    checkpoint, out = tmp_path / "ck.json", tmp_path / "pred.jsonl"
    model.save_checkpoint(params, checkpoint)
    assert cli.main(["predict", str(checkpoint), str(built["paths"]["long"]),
                     "--out", str(out)]) == 0
    assert run.check_predict(0, out, examples, params, [0, 1]) == []
    assert run.check_predict(2, out, examples, params, [0, 1]) != []

    lines = out.read_text().splitlines()
    obj = json.loads(lines[0])
    obj["summary"] = {name: [] for name in obj["summary"]}
    (tmp_path / "bad_summary.jsonl").write_text("\n".join([json.dumps(obj), *lines[1:]]) + "\n")
    assert run.check_predict(0, tmp_path / "bad_summary.jsonl", examples, params, [0]) != []

    obj = json.loads(lines[0])
    obj["gold"][0][0] = "MOVE" if obj["gold"][0][0] != "MOVE" else "CREATE"
    name = obj["entities"][0]["name"]
    obj["summary"][name] = sorted({row[0] for row in obj["gold"]} - {"NONE"})
    (tmp_path / "bad_label.jsonl").write_text("\n".join([json.dumps(obj), *lines[1:]]) + "\n")
    problems = run.check_predict(0, tmp_path / "bad_label.jsonl", examples, params, [0])
    assert problems == [f"labels of {obj['id']} differ from an in-process recomputation"]


def test_timings_scale_each_piece_by_its_own_slowdown():
    setup = [(0.02, 2.0), (0.01, 1.0), (0.03, 1.0)]
    train = [[(1.0, 2.0), (0.5, 1.0), (0.1, 1.0)], [(0.5, 1.0), (1.0, 2.0), (0.1, 1.0)]]
    predict = [(0.5, 2.0), (0.25, 1.0), (0.5, 1.0)]
    scaled = run.scaled_timings(setup, train, predict, 10, 2, scale=True)
    assert scaled == pytest.approx(
        {"setup_s": 0.01, "epoch_s": 0.55, "predict_paragraphs_per_s": 40.0})
    unscaled = run.scaled_timings(setup, train, predict, 10, 2, scale=False)
    assert unscaled == pytest.approx(
        {"setup_s": 0.02, "epoch_s": 0.8, "predict_paragraphs_per_s": 20.0})
    # without one cut per epoch the whole train times are used
    assert run.epoch_seconds([[3.0], [4.0], [8.0]], 2) == 2.0


def test_tracer_marks_missing_targets_absent_and_restores_functions(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        "model.no_such_function", "autodiff.NoSuchTape.backward"))
    original = model.encode
    tr = tracing.Tracer()
    tr.install()
    try:
        assert model.encode is not original
        assert tr.absent == ["model.no_such_function", "autodiff.NoSuchTape.backward"]
    finally:
        tr.uninstall()
    assert model.encode is original


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "test_*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-semi",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _traced(seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "train-semi",
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_exactly_across_runs():
    first, second = _traced(7), _traced(7)
    assert first["correct"] and second["correct"]
    names = [k for k in first["metrics"] if k.startswith("autodiff.nodes.") or k in COUNTS]
    assert len(names) == len(tracing.KNOWN_OPS) + 1 + len(COUNTS)
    for name in names:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["autodiff.nodes.narrow"]["value"] > 0
