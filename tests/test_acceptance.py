"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The directional criteria (6, 7) train several small
models and take a few minutes.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import statetrack as st
from statetrack import autodiff as ad
from statetrack import evaluation as ev
from statetrack import model as md
from statetrack.autodiff import Tensor
from statetrack.corpus import (ChangeGrid, Entity, ProcessExample, StateChange,
                               TopicGroup)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL — {description}")
        raise
    print(f"[criterion {number}] PASS — {description}")


def hand_example(id, verb, entities=("water", "salt"), gold_rows=((0, 3), (3, 1))):
    steps, mentions, verbs = [], {j: [] for j in range(len(entities))}, []
    for t in range(len(gold_rows)):
        j = t % len(entities)
        steps.append(("the", entities[j], verb, "to", "the", "sea"))
        mentions[j].append((t, 1, 2))
        verbs.append((t, 2))
    ex = ProcessExample(
        id=id, topic="grp", steps=tuple(tuple(s) for s in steps),
        entities=tuple(Entity(name=e, mentions=tuple(mentions[j]))
                       for j, e in enumerate(entities)),
        verbs=tuple(verbs),
        gold=ChangeGrid.from_labels([list(r) for r in gold_rows]))
    ex.validate()
    return ex


# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    """Backward gradients of batch_loss (with the consistency term active)
    match central finite differences on every parameter."""
    with criterion(1, "batch_loss gradients match finite differences (<= 1e-4)"):
        started = time.time()
        a = hand_example("a", "moves")
        b = hand_example("b", "travels")
        group = TopicGroup(topic="grp", labeled=[a, b])
        vocab = md.build_vocab([group])
        params = md.init_params(vocab, embedding_dim=4, hidden_size=4, seed=12)
        # threshold above ln(4) so the consistency term participates
        cfg = st.TrainingConfig(lambda_weight=0.05, sup_threshold=10.0,
                                hidden_size=4, embedding_dim=4)
        batch = st.make_batches(vocab, group, cfg)[0]
        _, stats = st.batch_loss(params, batch, cfg)
        assert stats.con_loss > 0.0, "consistency term must be active for this check"

        errors = ad.check_gradients(lambda: st.batch_loss(params, batch, cfg)[0],
                                    params.tensors, eps=1e-5)
        elapsed = time.time() - started
        worst = max(errors.values())
        assert worst <= 1e-4, f"worst relative error {worst:.3e}: {errors}"
        assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s (budget 10s)"


def test_criterion_1_batch_tape_size():
    """The consistency-engaged batch of criterion 1 records a bounded number of
    tape nodes.  Encoding each (step, entity) cell separately, one token-vector
    op at a time, recorded 1,888 nodes on this batch; batching every cell of a
    call into one op per layer and per LSTM time step recorded 134; one op for
    the whole BiLSTM, whatever the sentence length, recorded 78.  One op each
    for the input projection, the BiLSTM and the attention-decoder head, and
    one for the supervised loss, records 17: 3 for each of the two encoder
    passes, 1 for the supervised loss, 7 for the consistency term and 3 for
    the combined loss."""
    a = hand_example("a", "moves")
    b = hand_example("b", "travels")
    group = TopicGroup(topic="grp", labeled=[a, b])
    params = md.init_params(md.build_vocab([group]), embedding_dim=4, hidden_size=4, seed=12)
    cfg = st.TrainingConfig(lambda_weight=0.05, sup_threshold=10.0,
                            hidden_size=4, embedding_dim=4)
    with st.ComputationTape() as tape:
        _, stats = st.batch_loss(params, st.make_batches(params.vocab, group, cfg)[0], cfg)
    assert not stats.switched and stats.con_loss > 0.0
    assert len(tape.nodes) <= 25, f"{len(tape.nodes)} tape nodes (bound 25)"


def test_supervised_batch_tape_size():
    """Without the consistency term a batch records the primary's encoder pass
    (projection, BiLSTM, head) and its loss: 4 nodes, whatever the paragraph."""
    a = hand_example("a", "moves")
    b = hand_example("b", "travels")
    group = TopicGroup(topic="grp", labeled=[a, b])
    params = md.init_params(md.build_vocab([group]), embedding_dim=4, hidden_size=4, seed=12)
    cfg = st.TrainingConfig(consistency_enabled=False, hidden_size=4, embedding_dim=4)
    with st.ComputationTape() as tape:
        st.batch_loss(params, st.make_batches(params.vocab, group, cfg)[0], cfg)
    assert len(tape.nodes) <= 4, f"{len(tape.nodes)} tape nodes (bound 4)"


def test_criterion_2_loss_algebra():
    """lambda=1, disabled consistency, and the threshold rule all reduce
    batch_loss to the supervised term exactly; the hand-combined value is exact."""
    with criterion(2, "loss algebra identities hold to machine precision"):
        a = hand_example("a", "moves")
        b = hand_example("b", "travels")
        group = TopicGroup(topic="grp", labeled=[a, b])
        params = md.init_params(md.build_vocab([group]), 4, 4, seed=3)
        batch = st.make_batches(params.vocab, group, st.TrainingConfig())[0]

        loss, stats = st.batch_loss(
            params, batch, st.TrainingConfig(lambda_weight=1.0, sup_threshold=100.0,
                                             hidden_size=4, embedding_dim=4))
        assert loss.item() == stats.sup_loss

        loss, stats = st.batch_loss(
            params, batch, st.TrainingConfig(consistency_enabled=False,
                                             hidden_size=4, embedding_dim=4))
        assert loss.item() == stats.sup_loss

        loss, stats = st.batch_loss(
            params, batch, st.TrainingConfig(sup_threshold=0.2,
                                             hidden_size=4, embedding_dim=4))
        assert stats.sup_loss > 0.2 and stats.switched
        assert loss.item() == stats.sup_loss

        combined = st.training.combine_losses(Tensor(0.1), Tensor(0.2), 0.05)
        assert combined.item() == 0.05 * 0.1 + 0.95 * 0.2 == 0.195


def test_criterion_3_consistency_loss_properties():
    """Zero on self, symmetric, bounded by 0.5, zero on disjoint entities,
    and the worked 0.03125 example."""
    with criterion(3, "consistency-loss properties and the 0.03125 oracle"):
        a = hand_example("a", "moves")
        b = hand_example("b", "travels")
        rng = np.random.default_rng(5)
        for _ in range(50):
            raw = rng.uniform(0.01, 1.0, size=(2, 2, 2, 4))
            raw /= raw.sum(axis=3, keepdims=True)
            ga, gb = ChangeGrid.from_dists(raw[0]), ChangeGrid.from_dists(raw[1])
            lab = st.consistency_loss(ga, a, gb, b)
            lba = st.consistency_loss(gb, b, ga, a)
            assert abs(lab - lba) <= 1e-12
            assert 0.0 <= lab <= 0.5
            assert st.consistency_loss(ga, a, ga, a) == 0.0

        one_hot = ChangeGrid.from_dists([[[1.0, 0, 0, 0], [1.0, 0, 0, 0]]])
        other = ChangeGrid.from_dists([[[0, 1.0, 0, 0], [0, 1.0, 0, 0]]])
        assert st.consistency_loss(one_hot, a, other, b) == 0.5

        disjoint = hand_example("c", "moves", entities=("iron", "coal"))
        assert st.consistency_loss(one_hot, a, other, disjoint) == 0.0

        w = hand_example("w", "moves", entities=("water",), gold_rows=((0,), (2,)))
        x = hand_example("x", "flows", entities=("water",), gold_rows=((0,), (2,)))
        gw = ChangeGrid.from_dists([[[1, 0, 0, 0]], [[0, 0, 1, 0]]])
        gx = ChangeGrid.from_dists([[[0.5, 0.5, 0, 0]], [[0, 0, 1, 0]]])
        assert st.consistency_loss(gw, w, gx, x) == pytest.approx(0.03125, abs=1e-15)


def test_criterion_4_batching_contract():
    """Every group with m labeled of n members yields exactly m batches and
    each labeled example is primary exactly once."""
    with criterion(4, "m batches per group, each labeled example primary once"):
        for seed in (0, 1, 2):
            for noise in (0.0, 0.3, 1.0):
                groups = st.generate_synthetic(seed=seed, topics=5,
                                               paragraphs_per_topic=3, noise=noise)
                for fraction in (0.33, 0.66, 1.0):
                    demoted, _ = st.demote_labels(groups, fraction, seed=seed,
                                                  reuse_unlabeled=True)
                    for g in demoted:
                        batches = st.make_batches(md.build_vocab([g]), g,
                                                  st.TrainingConfig())
                        assert len(batches) == len(g.labeled)
                        primary_ids = [b.primary.id for b in batches]
                        assert sorted(primary_ids) == sorted(ex.id for ex in g.labeled)
                        assert all(len(b.members) == len(g.members) for b in batches)
                        assert all(b.primary.gold is not None for b in batches)
        empty = TopicGroup(topic="none")
        assert st.make_batches(md.build_vocab([empty]), empty, st.TrainingConfig()) == []


def test_criterion_5_overfit_smoke():
    """A noise-free 5-topic corpus is fit to train F1 >= 0.95 well inside the
    200-epoch / 2-minute budget (supervised arm: this is a capacity check)."""
    with criterion(5, "overfit to train F1 >= 0.95 within 200 epochs, < 2 min"):
        started = time.time()
        groups = st.generate_synthetic(seed=11, topics=5, paragraphs_per_topic=3,
                                       noise=0.0)
        assert all(ex.n_steps <= 4 and ex.n_entities <= 3
                   for g in groups for ex in g.members)
        cfg = st.TrainingConfig(epochs=60, seed=1, hidden_size=8, embedding_dim=16,
                                learning_rate=0.5, consistency_enabled=False)
        result = st.train(groups, cfg, dev=groups)  # dev = train: train F1
        best_train_f1 = max(r["dev_f1"] for r in result.report["epochs"])
        elapsed = time.time() - started
        assert best_train_f1 >= 0.95, f"train F1 only reached {best_train_f1:.3f}"
        assert elapsed < 120.0, f"took {elapsed:.0f}s (budget 120s)"


def _directional_run(seed, consistency_enabled, use_unlabeled, train_groups,
                     dev_groups, epochs):
    cfg = st.TrainingConfig(epochs=epochs, seed=seed, hidden_size=8,
                            embedding_dim=16, learning_rate=0.5,
                            consistency_enabled=consistency_enabled)
    demoted, _ = st.demote_labels(train_groups, 0.33, seed=seed,
                                  reuse_unlabeled=use_unlabeled)
    result = st.train(demoted, cfg, dev=dev_groups)
    return result, demoted


def _train_consistency(params, groups):
    preds = {ex.id: ev.discretize(md.predict_grid(params, ex))
             for g in groups for ex in g.members}
    return ev.consistency_score(groups, preds).score


def _test_f1(params, groups):
    pairs = [(ev.discretize(md.predict_grid(params, ex)), ex.gold)
             for g in groups for ex in g.members]
    return ev.score_corpus(pairs).f1


def test_criterion_6_directional_ablation():
    """noise=0.15, label_fraction=0.33: the consistency-enabled run is strictly
    more self-consistent on the train split than the lambda=1 ablation at the
    pinned seed, and its test F1 stays within 0.02 for a majority of 3 seeds.

    Corpus seed 42 is pinned so the generation noise actually lands in the
    train topics (gold train consistency 79.2%, not a degenerate 100%); both
    arms reuse demoted paragraphs as unlabeled members because at 0.33 only
    one labeled paragraph per topic remains and dropping the rest would leave
    no consistency pairs in either arm.
    """
    with criterion(6, "consistency arm: strictly higher train consistency, "
                      "test F1 within 0.02 (2 of 3 seeds)"):
        all_groups = st.generate_synthetic(seed=42, topics=16,
                                           paragraphs_per_topic=3, noise=0.15)
        train_g, dev_g, test_g = all_groups[:10], all_groups[10:13], all_groups[13:]

        pinned_seed = 1
        f1_ok = 0
        strict_at_pinned = None
        for seed in (1, 2, 3):
            on, demoted = _directional_run(seed, True, True, train_g, dev_g,
                                           epochs=100)
            off, _ = _directional_run(seed, False, True, train_g, dev_g,
                                      epochs=100)
            f1_on, f1_off = _test_f1(on.params, test_g), _test_f1(off.params, test_g)
            if f1_on >= f1_off - 0.02:
                f1_ok += 1
            if seed == pinned_seed:
                cons_on = _train_consistency(on.params, demoted)
                cons_off = _train_consistency(off.params, demoted)
                strict_at_pinned = cons_on > cons_off
                print(f"  seed {seed}: train consistency {cons_on:.1f} vs "
                      f"{cons_off:.1f}, test F1 {f1_on:.3f} vs {f1_off:.3f}")
            else:
                print(f"  seed {seed}: test F1 {f1_on:.3f} vs {f1_off:.3f}")
        assert strict_at_pinned, "consistency arm not strictly more consistent"
        assert f1_ok >= 2, f"test F1 within slack at only {f1_ok} of 3 seeds"


def test_criterion_7_directional_semi_supervised():
    """label_fraction=0.33: reusing demoted paragraphs as unlabeled members
    gives dev F1 at least as good as dropping them, in >= 2 of 3 seeds."""
    with criterion(7, "unlabeled reuse >= labeled-only dev F1 (2 of 3 seeds)"):
        all_groups = st.generate_synthetic(seed=42, topics=14,
                                           paragraphs_per_topic=3, noise=0.1)
        train_g, dev_g = all_groups[:10], all_groups[10:]
        wins = 0
        for seed in (1, 2, 3):
            with_unlabeled, _ = _directional_run(seed, True, True, train_g, dev_g,
                                                 epochs=60)
            labeled_only, _ = _directional_run(seed, True, False, train_g, dev_g,
                                               epochs=60)
            f1_u = with_unlabeled.report["best_dev_f1"]
            f1_l = labeled_only.report["best_dev_f1"]
            print(f"  seed {seed}: with unlabeled {f1_u:.3f}, labeled-only {f1_l:.3f}")
            if f1_u >= f1_l:
                wins += 1
        assert wins >= 2, f"unlabeled data helped at only {wins} of 3 seeds"


def test_criterion_9_end_to_end_determinism(tmp_path):
    """Two full CLI train+eval runs with the same config produce byte-identical
    checkpoints, reports, and metrics."""
    with criterion(9, "identical config + seed => identical artifacts"):
        from statetrack import cli

        data = tmp_path / "data"
        assert cli.main(["gen", "--out-dir", str(data), "--seed", "6",
                         "--train-topics", "4", "--dev-topics", "2",
                         "--test-topics", "2", "--paragraphs", "3",
                         "--noise", "0.1"]) == 0
        outputs = []
        for run in ("one", "two"):
            out = tmp_path / run
            out.mkdir()
            assert cli.main(["train", "--train", str(data / "train.jsonl"),
                             "--dev", str(data / "dev.jsonl"),
                             "--checkpoint", str(out / "ck.json"),
                             "--report", str(out / "report.json"),
                             "--epochs", "8", "--seed", "3", "--hidden", "8",
                             "--emb-dim", "8", "--lr", "0.5",
                             "--label-fraction", "0.66", "--use-unlabeled"]) == 0
            assert cli.main(["eval", str(out / "ck.json"),
                             str(data / "test.jsonl"),
                             "--out", str(out / "metrics.json")]) == 0
            outputs.append({name: (out / name).read_bytes()
                            for name in ("ck.json", "metrics.json")})
            report = json.loads((out / "report.json").read_text())
            outputs[-1]["epochs"] = json.dumps(report["epochs"]).encode()
        assert outputs[0] == outputs[1]


def test_criterion_8_metric_sanity():
    """Perfect predictions score P=R=F1=1 and consistency 100 on a noise-free
    corpus; the evaluation module's worked examples hold exactly."""
    with criterion(8, "perfect predictions score 1.0 / 100%; metric examples exact"):
        groups = st.generate_synthetic(seed=4, topics=5, paragraphs_per_topic=3,
                                       noise=0.0)
        preds = {ex.id: ex.gold for g in groups for ex in g.members}
        report = ev.score_corpus((preds[ex.id], ex.gold)
                                 for g in groups for ex in g.members)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
        cons = ev.consistency_score(groups, preds)
        assert cons.score == 100.0 and cons.comparisons > 0

        M, C, D, N = 0, 1, 2, 3
        half = ev.score_grids(ChangeGrid.from_labels([[C], [M]]),
                              ChangeGrid.from_labels([[C], [D]]))
        assert (half.precision, half.recall, half.f1) == (0.5, 0.5, 0.5)

        degenerate = ev.score_grids(ChangeGrid.from_labels([[N], [N]]),
                                    ChangeGrid.from_labels([[C], [D]]))
        assert (degenerate.precision, degenerate.recall, degenerate.f1) == (0.0, 0.0, 0.0)

        assert ev.summary_set(ChangeGrid.from_labels([[M], [N], [D]]), 0) == \
            {StateChange.MOVE, StateChange.DESTROY}

        assert ev.discretize(ChangeGrid.from_dists([[[0.25] * 4]])).labels[0, 0] == M
