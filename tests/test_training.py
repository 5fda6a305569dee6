import dataclasses
import inspect
import json
import math
import re
from pathlib import Path

import consistency_reference
import gradcheck
import numpy as np
import project_reference
import pytest
import sgd_reference
from hypothesis import given, settings
from hypothesis import strategies as hst

from statetrack import autodiff as ad
from statetrack import cli, model, training
from statetrack.autodiff import ComputationTape, Tensor
from statetrack.corpus import (ChangeGrid, EmbeddingTable, Entity, ProcessExample,
                               StateChange, TopicGroup, demote_labels, generate_synthetic)
from statetrack.training import (NumericalError, TrainingConfig, batch_loss,
                                 consistency_matrices, make_batches, train)


def example_with(id, topic, entities, gold_rows=None, verb="moves"):
    n_steps = len(gold_rows) if gold_rows is not None else 2
    steps, mentions, verbs = [], {j: [] for j in range(len(entities))}, []
    for t in range(n_steps):
        j = t % len(entities)
        steps.append(("the", entities[j], verb, "away"))
        mentions[j].append((t, 1, 2))
        verbs.append((t, 2))
    gold = ChangeGrid.from_labels(gold_rows) if gold_rows is not None else None
    ex = ProcessExample(
        id=id, topic=topic, steps=tuple(tuple(s) for s in steps),
        entities=tuple(Entity(name=e, mentions=tuple(mentions[j]))
                       for j, e in enumerate(entities)),
        verbs=tuple(verbs), gold=gold)
    ex.validate()
    return ex


def dist_grid(cells):
    return np.asarray(cells, dtype=np.float64)


def summarize(grid, entity):
    """An entity's summary distribution, its step distributions averaged over
    steps, read through the primary averaging matrix of `consistency_matrices`."""
    steps, width, _ = grid.shape
    primary_avg = consistency_matrices(steps, width, [(steps, width, [(entity, entity)])])[1]
    return (primary_avg @ grid.reshape(-1, 4))[0]


def consistency_loss(grid_a, a, grid_b, b):
    """The consistency term of member a against primary b through
    `consistency_matrices` and `autodiff.consistency`, as `batch_loss` builds it."""
    return consistency_reference.pair_loss(consistency_reference.fused, grid_a, a, grid_b, b)


def two_paragraph_group(topic="t"):
    a = example_with("a", topic, ("water", "sugar"), gold_rows=[[0, 3], [3, 1]])
    b = example_with("b", topic, ("water", "sugar"), gold_rows=[[0, 3], [3, 1]],
                     verb="travels")
    return TopicGroup(topic=topic, labeled=[a, b])


def params_for(groups, emb_dim=4, hidden=4, seed=5):
    return model.init_params(model.build_vocab(groups), emb_dim, hidden, seed=seed)


# ---------------------------------------------------------------------------
# batching

def test_three_labeled_gives_three_batches():
    g = two_paragraph_group()
    g.labeled.append(example_with("c", "t", ("water",), gold_rows=[[0], [3]]))
    batches = make_batches(model.build_vocab([g]), g, TrainingConfig())
    assert [b.primary_index for b in batches] == [0, 1, 2]
    assert all(len(b.members) == 3 for b in batches)
    assert all(b.primary.gold is not None for b in batches)


def test_one_labeled_two_unlabeled_gives_one_batch():
    g = TopicGroup(
        topic="t",
        labeled=[example_with("a", "t", ("water",), gold_rows=[[0], [3]])],
        unlabeled=[example_with("b", "t", ("water",)),
                   example_with("c", "t", ("water",))])
    batches = make_batches(model.build_vocab([g]), g, TrainingConfig())
    assert len(batches) == 1
    assert len(batches[0].members) == 3
    assert batches[0].primary.id == "a"


def test_all_unlabeled_gives_no_batches():
    g = TopicGroup(topic="t", unlabeled=[example_with("a", "t", ("water",))])
    assert make_batches(model.build_vocab([g]), g, TrainingConfig()) == []


def test_each_labeled_primary_exactly_once():
    for seed in range(3):
        groups = generate_synthetic(seed=seed, topics=4, paragraphs_per_topic=3,
                                    noise=0.2)
        demoted, _ = demote_labels(groups, 0.66, seed=seed, reuse_unlabeled=True)
        for g in demoted:
            batches = make_batches(model.build_vocab([g]), g, TrainingConfig())
            assert len(batches) == len(g.labeled)
            primaries = [b.primary.id for b in batches]
            assert sorted(primaries) == sorted(ex.id for ex in g.labeled)
            assert all(len(b.members) == len(g.members) for b in batches)


# ---------------------------------------------------------------------------
# summaries

def test_summarize_two_step_average():
    grid = dist_grid([[[1, 0, 0, 0]], [[0, 0, 1, 0]]])
    assert summarize(grid, 0) == pytest.approx([0.5, 0, 0.5, 0], abs=1e-15)


def test_summarize_uniform_fixed_point():
    grid = dist_grid([[[0.25] * 4] * 2] * 3)
    for j in range(2):
        assert summarize(grid, j) == pytest.approx([0.25] * 4, abs=1e-15)


def test_summarize_concentrates_on_observed_changes():
    # moved in step 0, destroyed in step 1: summary mass sits on MOVE and DESTROY
    grid = dist_grid([[[0.9, 0.02, 0.04, 0.04]], [[0.04, 0.02, 0.9, 0.04]]])
    s = summarize(grid, 0)
    assert s[StateChange.MOVE] + s[StateChange.DESTROY] > 0.9
    assert abs(s.sum() - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# consistency loss

def test_consistency_loss_identical_is_zero():
    a = example_with("a", "t", ("water",))
    grid = dist_grid([[[0.7, 0.1, 0.1, 0.1]], [[0.25, 0.25, 0.25, 0.25]]])
    assert consistency_loss(grid, a, grid, a) == 0.0


def test_consistency_loss_hand_value():
    a = example_with("a", "t", ("water",), gold_rows=[[0], [2]])
    b = example_with("b", "t", ("water",), gold_rows=[[0], [2]])
    # summaries (0.5, 0, 0.5, 0) and (0.25, 0.25, 0.5, 0)
    ga = dist_grid([[[1, 0, 0, 0]], [[0, 0, 1, 0]]])
    gb = dist_grid([[[0.5, 0.5, 0, 0]], [[0, 0, 1, 0]]])
    assert consistency_loss(ga, a, gb, b) == pytest.approx(0.03125, abs=1e-15)


def test_consistency_loss_disjoint_entities_is_zero():
    a = example_with("a", "t", ("water",))
    b = example_with("b", "t", ("sugar",))
    ga = dist_grid([[[1, 0, 0, 0]], [[1, 0, 0, 0]]])
    gb = dist_grid([[[0, 1, 0, 0]], [[0, 1, 0, 0]]])
    assert consistency_loss(ga, a, gb, b) == 0.0


@settings(max_examples=40, deadline=None)
@given(hst.lists(hst.floats(min_value=0.001, max_value=1.0), min_size=8, max_size=8),
       hst.lists(hst.floats(min_value=0.001, max_value=1.0), min_size=8, max_size=8))
def test_consistency_loss_symmetric_and_bounded(raw_a, raw_b):
    def to_grid(raw):
        arr = np.array(raw).reshape(2, 1, 4)
        return arr / arr.sum(axis=2, keepdims=True)

    a = example_with("a", "t", ("water",))
    b = example_with("b", "t", ("water",))
    ga, gb = to_grid(raw_a), to_grid(raw_b)
    lab = consistency_loss(ga, a, gb, b)
    lba = consistency_loss(gb, b, ga, a)
    assert lab == pytest.approx(lba, abs=1e-12)
    assert 0.0 <= lab <= 0.5
    assert consistency_loss(ga, a, ga, a) == 0.0


def test_consistency_loss_extreme_value_is_half():
    a = example_with("a", "t", ("water",))
    b = example_with("b", "t", ("water",))
    ga = dist_grid([[[1, 0, 0, 0]]])
    gb = dist_grid([[[0, 1, 0, 0]]])
    assert consistency_loss(ga, a, gb, b) == 0.5


# ---------------------------------------------------------------------------
# batch loss

def test_uniform_predictions_give_log4_sup_loss():
    g = two_paragraph_group()
    params = params_for([g])
    params.tensors["dec_w"].values[...] = 0.0
    params.tensors["dec_b"].values[...] = 0.0
    cfg = TrainingConfig(hidden_size=4, embedding_dim=4)
    loss, stats = batch_loss(params, make_batches(params.vocab, g, cfg)[0], cfg)
    assert stats.sup_loss == pytest.approx(math.log(4.0), abs=1e-12)
    # ln 4 > 0.2, so the adaptive rule returns the supervised term alone
    assert stats.switched
    assert loss.item() == stats.sup_loss


def test_combined_loss_hand_example():
    total = ad.combine(Tensor(0.1), Tensor(0.2), 0.05)
    assert total.item() == 0.05 * 0.1 + 0.95 * 0.2
    assert total.item() == pytest.approx(0.195, abs=1e-15)


def test_lambda_one_is_identity_through_the_formula():
    g = two_paragraph_group()
    params = params_for([g])
    cfg = TrainingConfig(lambda_weight=1.0, sup_threshold=100.0,
                         hidden_size=4, embedding_dim=4)
    loss, stats = batch_loss(params, make_batches(params.vocab, g, cfg)[0], cfg)
    assert loss.item() == stats.sup_loss  # bitwise: 1*sup + 0*con


def test_disabled_consistency_returns_sup_exactly():
    g = two_paragraph_group()
    params = params_for([g])
    cfg = TrainingConfig(consistency_enabled=False, hidden_size=4, embedding_dim=4)
    loss, stats = batch_loss(params, make_batches(params.vocab, g, cfg)[0], cfg)
    assert loss.item() == stats.sup_loss
    assert stats.con_loss == 0.0 and not stats.switched


def test_threshold_rule_returns_sup_alone():
    g = two_paragraph_group()
    params = params_for([g])
    cfg = TrainingConfig(sup_threshold=0.2, hidden_size=4, embedding_dim=4)
    loss, stats = batch_loss(params, make_batches(params.vocab, g, cfg)[0], cfg)
    assert stats.sup_loss > 0.2  # random init sits near ln 4
    assert stats.switched
    assert loss.item() == stats.sup_loss


def test_active_consistency_changes_the_loss():
    g = two_paragraph_group()
    params = params_for([g])
    cfg = TrainingConfig(sup_threshold=100.0, hidden_size=4, embedding_dim=4)
    loss, stats = batch_loss(params, make_batches(params.vocab, g, cfg)[0], cfg)
    assert not stats.switched
    assert stats.con_loss > 0.0
    expected = 0.05 * stats.sup_loss + 0.95 * stats.con_loss
    assert loss.item() == pytest.approx(expected, rel=1e-12)


def test_consistency_term_equals_float_consistency_loss():
    # members with different step counts and different shared-entity sets:
    # the tape's consistency sum must equal the op-by-op reference summed over
    # members, each over its whole grid
    a = example_with("a", "t", ("water", "sugar", "salt"), gold_rows=[[0, 3, 3], [3, 1, 3]])
    b = example_with("b", "t", ("salt", "water"), verb="travels")
    c = example_with("c", "t", ("sugar", "iron"), gold_rows=[[0, 3], [3, 2], [1, 3]])
    d = example_with("d", "t", ("iron",))  # shares nothing with the primary
    g = TopicGroup(topic="t", labeled=[a, c], unlabeled=[b, d])
    params = params_for([g], seed=8)
    cfg = TrainingConfig(sup_threshold=100.0, hidden_size=4, embedding_dim=4)
    _, stats = batch_loss(params, make_batches(params.vocab, g, cfg)[0], cfg)
    grids = {ex.id: model.predict_grid(params, ex) for ex in g.members}
    expected = sum(consistency_reference.pair_loss(consistency_reference.consistency_sum,
                                                   grids[m.id], m, grids["a"], a)
                   for m in (b, c, d))
    assert stats.con_loss == pytest.approx(expected, rel=1e-12)


def test_singleton_group_goes_through_formula():
    a = example_with("a", "t", ("water",), gold_rows=[[0], [3]])
    g = TopicGroup(topic="t", labeled=[a])
    params = params_for([g])
    cfg = TrainingConfig(sup_threshold=100.0, hidden_size=4, embedding_dim=4)
    loss, stats = batch_loss(params, make_batches(params.vocab, g, cfg)[0], cfg)
    assert loss.item() == pytest.approx(0.05 * stats.sup_loss, rel=1e-12)


def test_unlabeled_member_contributes_only_through_consistency():
    a = example_with("a", "t", ("water", "sugar"), gold_rows=[[0, 3], [3, 1]])
    b = example_with("b", "t", ("water", "sugar"), verb="travels")
    g = TopicGroup(topic="t", labeled=[a], unlabeled=[b])
    params = params_for([g])
    cfg = TrainingConfig(sup_threshold=100.0, hidden_size=4, embedding_dim=4)
    _, stats = batch_loss(params, make_batches(params.vocab, g, cfg)[0], cfg)

    solo = TopicGroup(topic="t", labeled=[a])
    _, stats_solo = batch_loss(params, make_batches(params.vocab, solo, cfg)[0], cfg)
    assert stats.sup_loss == stats_solo.sup_loss
    assert stats.con_loss > 0.0


def test_batch_tape_holds_one_node_per_model_stage():
    # an engaged batch, then one whose only other member shares no entity with
    # the primary: its empty consistency sum still goes through the combination
    a = example_with("a", "t", ("water", "sugar"), gold_rows=[[0, 3], [3, 1]])
    b = example_with("b", "t", ("water", "sugar"), verb="travels")
    d = example_with("d", "t", ("iron",))
    cfg = TrainingConfig(sup_threshold=100.0, hidden_size=4, embedding_dim=4)
    encoder = ["project", "bilstm", "head"]
    for other, ops in [(b, [*encoder, "mean_nll", *encoder, "consistency", "combine"]),
                       (d, [*encoder, "mean_nll", "combine"])]:
        g = TopicGroup(topic="t", labeled=[a], unlabeled=[other])
        params = params_for([g])
        with ComputationTape() as tape:
            _, stats = batch_loss(params, make_batches(params.vocab, g, cfg)[0], cfg)
        assert not stats.switched
        assert [node.backward_fn.__qualname__.split(".<locals>")[0]
                for node in tape.nodes] == ops


def test_tape_nodes_carry_what_the_benchmark_census_reads():
    # perfbench's tracer reads `tape.nodes`, names each node's op by its
    # backward closure (`tracer.op_name`) and may read its `out`
    a = example_with("a", "t", ("water", "sugar"), gold_rows=[[0, 3], [3, 1]])
    b = example_with("b", "t", ("water", "sugar"), verb="travels")
    g = TopicGroup(topic="t", labeled=[a], unlabeled=[b])
    params = params_for([g])
    engaged = TrainingConfig(sup_threshold=100.0, hidden_size=4, embedding_dim=4)
    supervised = dataclasses.replace(engaged, consistency_enabled=False)
    pass_ops = ["project", "bilstm", "head"]
    for cfg, ops in [(engaged, [*pass_ops, "mean_nll", *pass_ops, "consistency", "combine"]),
                     (supervised, [*pass_ops, "mean_nll"])]:
        with ComputationTape() as tape:
            batch_loss(params, make_batches(params.vocab, g, cfg)[0], cfg)
        assert [node.backward_fn.__qualname__.split(".<locals>", 1)[0]
                for node in tape.nodes] == ops
        assert all(type(node.out) is Tensor for node in tape.nodes)


def test_batch_loss_gradient_matches_fd_including_consistency():
    g = two_paragraph_group()
    params = params_for([g], emb_dim=3, hidden=4, seed=2)
    cfg = TrainingConfig(sup_threshold=100.0, hidden_size=4, embedding_dim=3)
    batch = make_batches(params.vocab, g, cfg)[0]
    errs = gradcheck.check_gradients(lambda: batch_loss(params, batch, cfg)[0],
                                     params.tensors)
    assert max(errs.values()) < 1e-4, errs


def test_gradient_flows_through_nonprimary_members():
    # with consistency active, perturbing params changes the member summaries,
    # so the loss must respond to the member-only forward pass too
    a = example_with("a", "t", ("water",), gold_rows=[[0], [3]])
    b = example_with("b", "t", ("water",))
    g = TopicGroup(topic="t", labeled=[a], unlabeled=[b])
    params = params_for([g], seed=3)
    cfg = TrainingConfig(sup_threshold=100.0, hidden_size=4, embedding_dim=4)
    batch = make_batches(params.vocab, g, cfg)[0]

    with ComputationTape() as tape:
        loss, _ = batch_loss(params, batch, cfg)
    tape.backward(loss)
    with_con = {n: t.grad.copy() for n, t in params.tensors.items()}
    params.grads[...] = 0.0

    cfg_off = dataclasses.replace(cfg, consistency_enabled=False)
    with ComputationTape() as tape:
        loss, _ = batch_loss(params, batch, cfg_off)
    tape.backward(loss)
    without = {n: t.grad.copy() for n, t in params.tensors.items()}
    assert any(not np.allclose(with_con[n], without[n]) for n in with_con)


def test_batch_planned_without_consistency_is_refused_under_a_config_with_it():
    # such a batch holds no member plans, so it would silently give con_loss 0.0
    g = two_paragraph_group()
    params = params_for([g])
    cfg = TrainingConfig(sup_threshold=100.0, hidden_size=4, embedding_dim=4)
    batch = make_batches(params.vocab, g, dataclasses.replace(cfg, consistency_enabled=False))[0]
    with pytest.raises(ValueError, match="planned with consistency_enabled=False"):
        batch_loss(params, batch, cfg)


def test_plan_reused_after_an_sgd_step_equals_a_fresh_plan():
    a = example_with("a", "t", ("water", "sugar"), gold_rows=[[0, 3], [3, 1]])
    b = example_with("b", "t", ("sugar", "salt"), verb="travels")
    g = TopicGroup(topic="t", labeled=[a], unlabeled=[b])
    params = params_for([g], seed=3)
    cfg = TrainingConfig(sup_threshold=100.0, hidden_size=4, embedding_dim=4)
    batch = make_batches(params.vocab, g, cfg)[0]
    assert batch.member_cells is not None

    for _ in range(2):
        with ComputationTape() as tape:
            loss, stats = batch_loss(params, batch, cfg)
        tape.backward(loss)
        training._sgd_step(params, 0.5)
    reused, _ = batch_loss(params, batch, cfg)
    planned_now, _ = batch_loss(params, make_batches(params.vocab, g, cfg)[0], cfg)
    assert stats.con_loss > 0.0
    assert reused.values.tobytes() == planned_now.values.tobytes()


def engaged_batch_loss():
    """(params, tape, loss) of one batch whose consistency term is engaged."""
    a = example_with("a", "t", ("water", "sugar"), gold_rows=[[0, 3], [3, 1]])
    b = example_with("b", "t", ("sugar", "salt"), verb="travels")
    g = TopicGroup(topic="t", labeled=[a], unlabeled=[b])
    params = params_for([g], seed=3)
    cfg = TrainingConfig(sup_threshold=100.0, hidden_size=4, embedding_dim=4)
    with ComputationTape() as tape:
        loss, stats = batch_loss(params, make_batches(params.vocab, g, cfg)[0], cfg)
    assert stats.con_loss > 0.0
    return params, tape, loss


def test_backward_gives_every_parameter_its_own_grad_and_accumulates_exactly():
    params, tape, loss = engaged_batch_loss()
    tape.backward(loss)
    grads = [t.grad for t in params.tensors.values()]
    assert all(g is not None for g in grads)
    for i, g in enumerate(grads):
        assert not any(np.shares_memory(g, other) for other in grads[i + 1:])
        assert not any(np.shares_memory(g, t.values) for t in params.tensors.values())
    once = [g.copy() for g in grads]
    params.grads[...] = 0.0
    tape.backward(loss)
    for t, g in zip(params.tensors.values(), once):
        assert t.grad.tobytes() == g.tobytes()


@pytest.mark.parametrize("lr", [0.5, 0.1, 1 / 3])
def test_sgd_step_is_bitwise_values_minus_lr_times_grad(lr):
    # the embedding is frozen, so the step must leave it alone; the vectors
    # hold the other tensors only, and every entry of both is stepped
    g = two_paragraph_group()
    vocab = model.build_vocab([g])
    table = EmbeddingTable(4, {"water": np.ones(4)}, np.zeros(4))
    params = model.init_params(vocab, 4, 4, seed=5, embeddings=table)
    embedding = params.tensors["embedding"]
    assert params.embedding_frozen and embedding.grad is None
    rng = np.random.default_rng(11)
    params.flat[...] = rng.normal(size=params.flat.size)
    params.grads[...] = rng.normal(size=params.grads.size)
    want = {name: t.values - lr * t.grad for name, t in params.tensors.items()
            if t is not embedding}
    assert sum(w.size for w in want.values()) == params.flat.size
    frozen = embedding.values.copy()
    training._sgd_step(params, lr)
    for name, t in params.tensors.items():
        if t is not embedding:
            assert t.values.tobytes() == want[name].tobytes(), name
    assert embedding.values.tobytes() == frozen.tobytes() and embedding.grad is None
    assert not params.grads.any()


def test_sgd_step_drops_every_grad_and_zeroes_the_gradient_vector():
    # every grad must hold zeros again, or the next batch's gradient would add to this one's
    params, tape, loss = engaged_batch_loss()
    tape.backward(loss)
    grads = {name: t.grad for name, t in params.tensors.items()}
    assert params.grads.any()
    training._sgd_step(params, 0.5)
    assert all(t.grad is grads[name] for name, t in params.tensors.items())
    assert not params.grads.any()


def test_check_gradients_leaves_every_grad_a_view_of_the_gradient_vector():
    # a grad replaced by a new array would silently drop out of the step
    g = two_paragraph_group()
    params = params_for([g], emb_dim=3, hidden=4, seed=2)
    cfg = TrainingConfig(sup_threshold=100.0, hidden_size=4, embedding_dim=3)
    batch = make_batches(params.vocab, g, cfg)[0]
    gradcheck.check_gradients(lambda: batch_loss(params, batch, cfg)[0], params.tensors)
    for name, t in params.tensors.items():
        # at the place in the gradient vector that the values hold in `flat`
        assert t.grad.base is params.grads, name
        assert (t.grad.ctypes.data - params.grads.ctypes.data
                == t.values.ctypes.data - params.flat.ctypes.data), name
        assert t.grad.strides == t.values.strides, name
    before = {name: t.values.copy() for name, t in params.tensors.items()}
    training._sgd_step(params, 0.5)
    for name, t in params.tensors.items():
        assert not np.array_equal(t.values, before[name]), name


def test_only_the_tape_and_assemble_assign_a_grad():
    """A grad is zeroed in place, never replaced: no module of the package
    assigns `.grad` but `Tensor.__init__` (None), `ComputationTape.backward`
    (a leaf without a grad) and `model._assemble` (the gradient vector's views)."""
    assign = re.compile(r"\.grad\s*(?::[^=\n]*)?=(?!=)")
    sites = [inspect.getsource(f) for f in (Tensor.__init__, ComputationTape.backward,
                                            model._assemble)]
    assert [len(assign.findall(site)) for site in sites] == [1, 1, 1]
    for path in sorted(Path(ad.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for site in sites:
            text = text.replace(site, "")
        assert not assign.findall(text), path


@pytest.mark.parametrize("setting", ["engaged", "frozen-embeddings", "supervised"])
def test_train_ends_in_the_weights_of_the_per_tensor_step(monkeypatch, setting):
    """Three epochs through the flat-vector step and the homes end in the same
    bits as through `sgd_reference`'s per-tensor step and fresh adjoints: with
    the consistency term engaged (two encoder passes of shared weights a
    batch), with a frozen embedding table left out of the step, and without
    consistency."""
    groups = generate_synthetic(seed=4, topics=4, paragraphs_per_topic=3, noise=0.15)
    train_groups, dev = groups[:3], groups[3:]
    cfg = TrainingConfig(epochs=3, seed=2, hidden_size=4, embedding_dim=4, learning_rate=0.5,
                         sup_threshold=100.0, consistency_enabled=setting != "supervised")
    embeddings = None
    if setting == "frozen-embeddings":
        rng = np.random.default_rng(3)
        vocab = model.build_vocab(train_groups)
        embeddings = EmbeddingTable(4, {tok: rng.normal(size=4) for tok in list(vocab)[1::2]},
                                    rng.normal(size=4))
    got = train(train_groups, cfg, dev=dev, embeddings=embeddings)
    with sgd_reference.installed(monkeypatch):
        want = train(train_groups, cfg, dev=dev, embeddings=embeddings)
    assert got.report == want.report
    assert got.params.flat.tobytes() == want.params.flat.tobytes()
    assert got.params.embedding_frozen == (setting == "frozen-embeddings")
    engaged = [e["mean_con_loss"] > 0.0 for e in got.report["epochs"]]
    assert all(engaged) if setting != "supervised" else not any(engaged)


def test_an_engaged_batch_on_the_per_direction_ops_gives_the_same_bits(monkeypatch):
    """Both encoder passes of an engaged batch read the same stacked leaves;
    on the per-direction `project` and the step-form `bilstm` the loss and
    every gradient are the same bits."""
    def run():
        params, tape, loss = engaged_batch_loss()
        tape.backward(loss)
        return loss.values.tobytes(), params.grads.tobytes()

    got = run()
    with project_reference.installed(monkeypatch):
        want = run()
    assert got == want


# the benchmark's model flags and its two workloads' flags and epochs, the
# semi-supervised run long enough for the consistency term to engage
MODEL_FLAGS = ["--lr", "0.5", "--hidden", "8", "--emb-dim", "16", "--seed", "1"]
WORKLOADS = {"train-supervised": (4, ["--no-consistency"]),
             "train-semi": (36, ["--label-fraction", "0.33", "--use-unlabeled"])}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_train_on_the_per_direction_ops_ends_in_the_same_bits(tmp_path, monkeypatch, workload):
    """`train` with a benchmark workload's flags ends in the same weights and
    report on the stacked encoder ops as on the per-direction `project` and
    the step-form `bilstm`."""
    assert cli.main(["gen", "--out-dir", str(tmp_path), "--seed", "42", "--train-topics", "10",
                     "--dev-topics", "3", "--test-topics", "1", "--paragraphs", "3",
                     "--noise", "0.15"]) == 0
    epochs, flags = WORKLOADS[workload]
    checkpoint, report = tmp_path / "ck.json", tmp_path / "report.json"

    def run():
        assert cli.main(["train", "--train", str(tmp_path / "train.jsonl"),
                         "--dev", str(tmp_path / "dev.jsonl"), "--epochs", str(epochs),
                         "--checkpoint", str(checkpoint), "--report", str(report),
                         *MODEL_FLAGS, *flags]) == 0
        return model.load_checkpoint(checkpoint).flat.tobytes(), json.loads(report.read_text())

    got = run()
    with project_reference.installed(monkeypatch):
        want = run()
    assert got == want
    engaged = [e["mean_con_loss"] > 0.0 for e in got[1]["epochs"]]
    assert any(engaged) if workload == "train-semi" else not any(engaged)


@pytest.mark.parametrize("consistency_enabled", [True, False])
def test_train_plans_a_fixed_number_of_times_whatever_the_epochs(monkeypatch,
                                                                 consistency_enabled):
    groups = small_corpus()
    calls = []

    def counting_plan_cells(vocab, items):
        calls.append(len(items))
        return plan_cells(vocab, items)

    plan_cells = model.plan_cells
    monkeypatch.setattr(model, "plan_cells", counting_plan_cells)
    counts = []
    for epochs in (1, 3):
        calls.clear()
        train(groups, TrainingConfig(epochs=epochs, seed=1, hidden_size=4, embedding_dim=4,
                                     sup_threshold=100.0,
                                     consistency_enabled=consistency_enabled), dev=groups)
        counts.append(len(calls))
    batches = sum(len(make_batches(model.build_vocab(groups), g, TrainingConfig()))
                  for g in groups)
    # one primary plan per batch, one member plan per batch with aligned members,
    # one dev chunk
    assert counts[0] == counts[1] == (2 * batches if consistency_enabled else batches) + 1


# ---------------------------------------------------------------------------
# train loop

def small_corpus(seed=0):
    return generate_synthetic(seed=seed, topics=3, paragraphs_per_topic=2, noise=0.0)


def test_train_is_deterministic():
    groups = small_corpus()
    cfg = TrainingConfig(epochs=3, seed=4, hidden_size=4, embedding_dim=4)
    a = train(groups, cfg, dev=groups)
    b = train(groups, cfg, dev=groups)
    assert a.report == b.report
    for name, t in a.params.tensors.items():
        assert np.array_equal(t.values, b.params.tensors[name].values)


def test_train_report_structure():
    groups = small_corpus()
    cfg = TrainingConfig(epochs=2, seed=1, hidden_size=4, embedding_dim=4)
    res = train(groups, cfg, dev=groups)
    assert len(res.report["epochs"]) == 2
    row = res.report["epochs"][0]
    assert set(row) == {"epoch", "mean_sup_loss", "mean_con_loss",
                        "adaptive_switch_rate", "dev_f1", "dev_consistency"}
    assert res.report["skipped_groups"] == 0
    assert res.report["best_epoch"] is not None


def test_train_returns_the_best_epochs_weights():
    # dev F1 peaks, for the last time, at epoch 8 of 10: the returned weights
    # are an 8-epoch run's, bit for bit
    groups = generate_synthetic(0, 6, 3, 0.5)
    train_groups, dev = groups[:4], groups[4:]
    cfg = TrainingConfig(epochs=10, seed=3, hidden_size=4, embedding_dim=4, learning_rate=2.0)
    res = train(train_groups, cfg, dev=dev)
    assert res.report["best_epoch"] == 8
    best = train(train_groups, dataclasses.replace(cfg, epochs=8), dev=dev)
    assert res.params.flat.tobytes() == best.params.flat.tobytes()
    assert res.report["epochs"][:8] == best.report["epochs"]


def test_train_counts_skipped_groups():
    groups = small_corpus()
    groups.append(TopicGroup(topic="ghost",
                             unlabeled=[example_with("u", "ghost", ("water",))]))
    cfg = TrainingConfig(epochs=1, seed=1, hidden_size=4, embedding_dim=4)
    res = train(groups, cfg)
    assert res.report["skipped_groups"] == 1


def test_train_aborts_on_nonfinite_loss():
    groups = small_corpus()
    cfg = TrainingConfig(epochs=3, seed=1, hidden_size=4, embedding_dim=4,
                         learning_rate=1e9)
    with pytest.raises(NumericalError, match="epoch"):
        train(groups, cfg, dev=groups)


def test_train_requires_some_labels():
    g = TopicGroup(topic="t", unlabeled=[example_with("u", "t", ("water",))])
    with pytest.raises(ValueError):
        train([g], TrainingConfig(epochs=1, hidden_size=4, embedding_dim=4))


def test_disabled_consistency_reports_zero_con_loss():
    groups = small_corpus()
    cfg = TrainingConfig(epochs=2, seed=1, hidden_size=4, embedding_dim=4,
                         consistency_enabled=False)
    res = train(groups, cfg, dev=groups)
    assert all(r["mean_con_loss"] == 0.0 for r in res.report["epochs"])
    assert all(r["adaptive_switch_rate"] == 0.0 for r in res.report["epochs"])


def test_consistency_never_hurts_consistency_score_noise_free():
    # held-out paragraph per topic masked unlabeled; consistency arm must not
    # end up less self-consistent than the supervised arm at the same seed
    groups = generate_synthetic(seed=21, topics=5, paragraphs_per_topic=3, noise=0.0)
    masked, _ = demote_labels(groups, 0.66, seed=21, reuse_unlabeled=True)

    def final_consistency(consistency_enabled):
        cfg = TrainingConfig(epochs=25, seed=3, hidden_size=8, embedding_dim=12,
                             learning_rate=0.5, consistency_enabled=consistency_enabled)
        res = train(masked, cfg)
        return training._evaluate_split(res.params, masked)[1].score

    assert final_consistency(True) >= final_consistency(False)
