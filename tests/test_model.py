import dataclasses
import json
import sys
import threading
from contextlib import nullcontext
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from statetrack import autodiff as ad
from statetrack import cli, model, training
from statetrack.corpus import (ChangeGrid, Entity, ProcessExample, TopicGroup,
                               generate_synthetic)
from statetrack.model import (CheckpointError, build_vocab, init_params,
                              load_checkpoint, plan_cells, predict_grid,
                              predict_grids, run_cells, save_checkpoint)

RNG = np.random.default_rng(77)


def tiny_example(entities=("water", "sugar"), n_steps=2):
    steps, ents, verbs, gold = [], {e: [] for e in entities}, [], []
    verbs_list = []
    for t in range(n_steps):
        e = entities[t % len(entities)]
        steps.append(("the", e, "moves"))
        ents[e].append((t, 1, 2))
        verbs_list.append((t, 2))
        row = [3] * len(entities)
        row[t % len(entities)] = 0
        gold.append(row)
    ex = ProcessExample(
        id="tiny", topic="t", steps=tuple(tuple(s) for s in steps),
        entities=tuple(Entity(name=e, mentions=tuple(m)) for e, m in ents.items()),
        verbs=tuple(verbs_list), gold=ChangeGrid.from_labels(gold))
    ex.validate()
    return ex


def tiny_params(example, emb_dim=4, hidden=4, seed=5):
    vocab = {model.UNK_TOKEN: 0}
    for sent in example.steps:
        for tok in sorted(set(sent)):
            vocab.setdefault(tok, len(vocab))
    return init_params(vocab, emb_dim, hidden, seed=seed)


# ---------------------------------------------------------------------------
# straight-line reimplementation of the forward equations (oracle)

def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def _np_softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def oracle_cell(params, example, t, j):
    v = {name: t_.values for name, t_ in params.tensors.items()}
    tokens = example.steps[t]
    mention = set(example.entities[j].mention_tokens(t))
    verbs = set(example.verb_tokens(t))
    unk = params.vocab[model.UNK_TOKEN]
    xs = [np.concatenate([v["embedding"][params.vocab.get(tok, unk)],
                          [1.0 if i in mention else 0.0, 1.0 if i in verbs else 0.0]])
          for i, tok in enumerate(tokens)]
    hd = params.hidden_size // 2

    def lstm(wx, wh, b, seq):
        h = np.zeros(hd)
        c = np.zeros(hd)
        outs = []
        for x in seq:
            z = wx.T @ x + wh.T @ h + b
            i_g = _sig(z[0:hd])
            f_g = _sig(z[hd:2 * hd])
            g_g = np.tanh(z[2 * hd:3 * hd])
            o_g = _sig(z[3 * hd:4 * hd])
            c = f_g * c + i_g * g_g
            h = o_g * np.tanh(c)
            outs.append(h)
        return outs

    fwd = lstm(v["fwd_wx"], v["fwd_wh"], v["fwd_b"], xs)
    bwd = lstm(v["bwd_wx"], v["bwd_wh"], v["bwd_b"], xs[::-1])[::-1]
    ctx = np.stack([np.concatenate([a, b]) for a, b in zip(fwd, bwd)])
    ent_mean = ctx[sorted(mention)].mean(axis=0) if mention else np.zeros(params.hidden_size)
    verb_mean = ctx[sorted(verbs)].mean(axis=0) if verbs else np.zeros(params.hidden_size)
    focus = np.concatenate([ent_mean, verb_mean])
    scores = ctx @ (v["attn_w"] @ focus) + v["attn_b"]
    attn = _np_softmax(scores)
    pooled = ctx.T @ attn
    dist = _np_softmax(v["dec_w"].T @ pooled + v["dec_b"])
    return pooled, attn, dist


# ---------------------------------------------------------------------------
# encode

def encode_cells(params, items):
    return run_cells(params, plan_cells(params.vocab, items))


def single_pass_plan(vocab, items):
    """`plan_cells`' arrays as a dict, built with one scan of the verbs per
    step and of the entity's mentions per cell."""
    unk = vocab[model.UNK_TOKEN]
    word_ids, cells, marked = [], [], []
    for example, entities in items:
        for t, tokens in enumerate(example.steps):
            first = len(word_ids)
            word_ids.extend(vocab.get(tok, unk) for tok in tokens)
            verbs = example.verb_tokens(t)
            for j in entities:
                c = len(cells)
                cells.append((first, len(tokens)))
                marked.extend((c, i, 0) for i in example.entities[j].mention_tokens(t))
                marked.extend((c, i, 1) for i in verbs)
    first, lengths = np.array(cells, dtype=np.intp).T[:, :, None]
    n, width = len(cells), int(lengths.max())
    marks = np.zeros((n, width, 2))
    marks[tuple(np.array(marked, dtype=np.intp).reshape(-1, 3).T)] = 1.0
    pos = np.arange(width)
    mask = pos < lengths
    order = np.stack([np.broadcast_to(pos, (n, width)), np.where(mask, lengths - 1 - pos, pos)])
    rows = np.where(mask, first + order, 0).transpose(0, 2, 1).reshape(2, -1)
    flags = np.take_along_axis(marks[None], order[..., None], axis=2)
    flags = flags.transpose(0, 2, 1, 3).reshape(2, -1, 2)
    unshuffle = (order * n + np.arange(n)[:, None]
                 + np.arange(2)[:, None, None] * width * n).transpose(1, 2, 0).reshape(-1)
    pool = marks.transpose(0, 2, 1) / np.maximum(marks.sum(axis=1), 1.0)[:, :, None]
    return dict(word_ids=np.array(word_ids, dtype=np.intp), rows=rows, flags=flags,
                unshuffle=unshuffle, pool=pool, mask=mask)


def single_pass_encode_cells(params, items):
    """The encoder as one plain-numpy function that builds its index data on
    every call and computes the layers one array operation at a time, as the
    unfused op chain did; neither the plan/run split nor the fused ops may
    change a single bit."""
    plan = single_pass_plan(params.vocab, items)
    rows, flags, unshuffle, pool, mask = (plan[k] for k in ("rows", "flags", "unshuffle",
                                                            "pool", "mask"))
    n, width = mask.shape

    # one array operation per step of the unfused chain; only the recurrence
    # is the library's, run untaped
    v = {name: t.values for name, t in params.tensors.items()}
    words = v["embedding"][plan["word_ids"]]
    d, hidden = words.shape[1], params.hidden_size
    inputs = np.stack([((words @ v[f"{k}_wx"][:d].copy())[rows[i]]
                        + flags[i] @ v[f"{k}_wx"][d:].copy()) + v[f"{k}_b"]
                       for i, k in enumerate(("fwd", "bwd"))])
    states = ad.bilstm(ad.Tensor(inputs), [params.tensors[f"{k}_wh"] for k in ("fwd", "bwd")],
                       n).values
    ctx = states[unshuffle].reshape(n, width, hidden)
    focus = (pool @ ctx).reshape(n, 2 * hidden)
    query = (focus @ v["attn_w"].T.copy()).reshape(n, hidden, 1)
    scores = (ctx @ query).reshape(n, width) + v["attn_b"]
    top = np.where(mask, scores, -np.inf).max(axis=-1, keepdims=True)
    e = np.where(mask, np.exp(np.where(mask, scores - top, 0.0)), 0.0)
    attention = e / e.sum(axis=-1, keepdims=True)
    pooled = (attention.reshape(n, 1, width) @ ctx).reshape(n, hidden)
    logits = pooled @ v["dec_w"] + v["dec_b"]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    dists = ad.Tensor(e / e.sum(axis=-1, keepdims=True))
    return model.CellBatch(attention=attention, pooled=pooled, dists=dists)


def encode_one(params, example, t, j):
    """(pooled, attention over the sentence's tokens, distribution) of one cell,
    read from a batch holding every cell of the paragraph."""
    batch = encode_cells(params, [(example, range(example.n_entities))])
    row = t * example.n_entities + j
    n = len(example.steps[t])
    assert np.all(batch.attention[row, n:] == 0.0)
    return (batch.pooled[row], batch.attention[row, :n],
            batch.dists.values[row])


def assert_matches_oracle(params, items, batch):
    row = 0
    for example, entities in items:
        for t in range(example.n_steps):
            for j in entities:
                pooled_o, attn_o, dist_o = oracle_cell(params, example, t, j)
                n = len(example.steps[t])
                assert batch.pooled[row] == pytest.approx(pooled_o, abs=1e-12)
                assert batch.attention[row, :n] == pytest.approx(attn_o, abs=1e-12)
                assert np.all(batch.attention[row, n:] == 0.0)
                assert batch.dists.values[row] == pytest.approx(dist_o, abs=1e-12)
                row += 1
    assert row == batch.dists.shape[0]


def ragged_batch():
    """Two paragraphs whose sentences have unequal lengths, within and across
    paragraphs, plus matching params.  'heat' is never mentioned, step 0 of b
    has no verb, 'x' maps to <unk> and 'water' in a has a two-token mention."""
    a = ProcessExample(
        id="a", topic="t",
        steps=(("water", "moves"), ("the", "sugar", "melts", "in", "hot", "water", "x")),
        entities=(Entity(name="water", mentions=((0, 0, 1), (1, 4, 6))),
                  Entity(name="sugar", mentions=((1, 1, 2),))),
        verbs=((0, 1), (1, 2)))
    b = ProcessExample(
        id="b", topic="t",
        steps=(("salt",), ("the", "salt", "is", "gone"), ("water", "is", "warm")),
        entities=(Entity(name="salt", mentions=((0, 0, 1), (1, 1, 2))),
                  Entity(name="water", mentions=((2, 0, 1),)),
                  Entity(name="heat", mentions=())),
        verbs=((1, 3), (2, 1)))
    a.validate()
    b.validate()
    tokens = sorted({tok for ex in (a, b) for sent in ex.steps for tok in sent} - {"x"})
    vocab = {model.UNK_TOKEN: 0, **{tok: i + 1 for i, tok in enumerate(tokens)}}
    return a, b, init_params(vocab, 3, 6, seed=17)


def reference_lstm_step(x, state, wh):
    """One LSTM time step for a batch of rows, as a standalone op: state is
    [h | c]; sigmoid is written 0.5 * (tanh(x / 2) + 1)."""
    hd = wh.shape[0]
    h_prev, c_prev = state[:, :hd], state[:, hd:]
    z = x + h_prev @ wh
    gates = 0.5 * (np.tanh(0.5 * z) + 1.0)
    i, f, o = gates[:, :hd], gates[:, hd:2 * hd], gates[:, 3 * hd:]
    c = f * c_prev + i * np.tanh(z[:, 2 * hd:3 * hd])
    return np.concatenate([o * np.tanh(c), c], axis=1)


def stepwise_bilstm(inputs, recurrent, cells):
    """`ad.bilstm`'s forward values, one direction and one time step at a time."""
    states = []
    for x, wh in zip(inputs.values, recurrent):
        hd = wh.shape[0]
        state = np.zeros((cells, 2 * hd))
        for start in range(0, x.shape[0], cells):
            state = reference_lstm_step(x[start:start + cells], state, wh.values)
            states.append(state[:, :hd])
    return ad.Tensor(np.concatenate(states))


@pytest.mark.parametrize("batch", ["ragged", "generated"])
def test_encode_cells_matches_stepwise_lstm(monkeypatch, batch):
    if batch == "ragged":
        a, b, params = ragged_batch()
        items = [(a, [1, 0]), (b, range(b.n_entities)), (a, [1])]
    else:
        groups = generate_synthetic(seed=8, topics=4, paragraphs_per_topic=3, noise=0.15)
        params = init_params(build_vocab(groups), 6, 8, seed=2)
        items = [(ex, range(ex.n_entities)) for g in groups for ex in g.members]
    fused = encode_cells(params, items)
    monkeypatch.setattr(ad, "bilstm", stepwise_bilstm)
    stepwise = encode_cells(params, items)
    for name in ("attention", "pooled", "dists"):
        got, want = getattr(fused, name), getattr(stepwise, name)
        if name == "dists":
            got, want = got.values, want.values
        assert np.max(np.abs(got - want)) <= 1e-12, name


def criterion_1_batch():
    """The params and encoder calls of acceptance criterion 1's batch: every
    cell of the primary, then the member's cells of its two shared entities."""
    def paragraph(id, verb):
        return ProcessExample(
            id=id, topic="grp", steps=tuple(("the", e, verb, "to", "the", "sea")
                                            for e in ("water", "salt")),
            entities=(Entity(name="water", mentions=((0, 1, 2),)),
                      Entity(name="salt", mentions=((1, 1, 2),))),
            verbs=((0, 2), (1, 2)), gold=ChangeGrid.from_labels([[0, 3], [3, 1]]))

    a, b = paragraph("a", "moves"), paragraph("b", "travels")
    params = init_params(build_vocab([TopicGroup(topic="grp", labeled=[a, b])]), 4, 4, seed=12)
    return params, [[(a, range(2))], [(b, [0, 1])]]


def ragged_calls():
    a, b, params = ragged_batch()
    return params, [[(a, [1, 0]), (b, range(b.n_entities)), (a, [1])], [(b, [2, 0])]]


@pytest.mark.parametrize("calls", [ragged_calls, criterion_1_batch],
                         ids=["ragged", "criterion-1"])
def test_plan_then_run_equals_single_pass_encoder_bitwise(calls):
    params, all_items = calls()
    for items in all_items:
        for taped in (False, True):
            with ad.ComputationTape() if taped else nullcontext():
                got = run_cells(params, plan_cells(params.vocab, items))
                want = single_pass_encode_cells(params, items)
            assert got.attention.tobytes() == want.attention.tobytes()
            assert got.pooled.tobytes() == want.pooled.tobytes()
            assert got.dists.values.tobytes() == want.dists.values.tobytes()


def test_plan_arrays_are_read_only():
    a, b, params = ragged_batch()
    plan = plan_cells(params.vocab, [(a, [1, 0]), (b, range(b.n_entities))])
    for name, array in vars(plan).items():
        assert isinstance(array, np.ndarray) and not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.mask = None


@pytest.mark.parametrize("calls", [ragged_calls, criterion_1_batch],
                         ids=["ragged", "criterion-1"])
def test_unshuffle_is_a_permutation(calls):
    params, all_items = calls()
    for items in all_items:
        unshuffle = plan_cells(params.vocab, items).unshuffle
        assert np.array_equal(np.sort(unshuffle), np.arange(unshuffle.size))


def test_plan_against_a_smaller_vocabulary_raises():
    # a plan indexes the vocabulary it was built with; params with fewer word
    # rows must not silently read other rows
    a, b, params = ragged_batch()
    plan = plan_cells(params.vocab, [(a, [1, 0]), (b, range(b.n_entities))])
    smaller = init_params(dict(list(params.vocab.items())[:4]), 3, 6, seed=17)
    with pytest.raises(IndexError):
        run_cells(smaller, plan)


def test_plan_rejects_entity_out_of_range():
    a, _, params = ragged_batch()
    with pytest.raises(IndexError, match="entity 2 out of range for a"):
        plan_cells(params.vocab, [(a, [0, 2])])


def test_encoder_gradient_matches_fd_on_ragged_batch():
    # unequal sentence lengths pad the recurrence; both directions' weights differ
    a, b, params = ragged_batch()
    items = [(a, [1, 0]), (b, range(b.n_entities))]
    r = ad.Tensor(RNG.normal(size=(13, 4)))
    tensors = params.tensors
    assert not np.array_equal(tensors["fwd_wh"].values, tensors["bwd_wh"].values)
    errs = ad.check_gradients(lambda: ad.total(ad.mul(encode_cells(params, items).dists, r)),
                              tensors)
    assert max(errs.values()) < 1e-4, errs  # criterion 1's bound


def test_encode_cells_tape_length_does_not_depend_on_sentence_length():
    def nodes(steps):
        ex = ProcessExample(id="p", topic="t", steps=steps,
                            entities=(Entity(name="water", mentions=((0, 0, 1),)),), verbs=())
        ex.validate()
        params = init_params(build_vocab([TopicGroup(topic="t", labeled=[ex])]), 3, 4, seed=1)
        with ad.ComputationTape() as tape:
            encode_cells(params, [(ex, [0])])
        return len(tape.nodes)

    short = nodes((("water",), ("water", "boils")))
    assert nodes((("water",), ("water",) + ("boils",) * 40)) == short


def test_zero_attention_weights_give_uniform_attention():
    ex = tiny_example()
    params = tiny_params(ex)
    params.tensors["attn_w"].values[...] = 0.0
    params.tensors["attn_b"].values[...] = 0.0
    pooled, attention, _ = encode_one(params, ex, 0, 0)
    n = len(ex.steps[0])
    assert attention == pytest.approx([1.0 / n] * n, abs=1e-15)
    pooled_oracle, _, _ = oracle_cell(params, ex, 0, 0)
    assert pooled == pytest.approx(pooled_oracle, abs=1e-12)


def test_single_token_sentence_attention_is_one():
    ex = ProcessExample(
        id="one", topic="t", steps=(("water",),),
        entities=(Entity(name="water", mentions=((0, 0, 1),)),),
        verbs=())
    ex.validate()
    params = tiny_params(ex)
    pooled, attention, _ = encode_one(params, ex, 0, 0)
    assert attention == pytest.approx([1.0])
    pooled_oracle, _, _ = oracle_cell(params, ex, 0, 0)
    assert pooled == pytest.approx(pooled_oracle, abs=1e-12)


def test_encode_matches_oracle_on_random_instance():
    ex = tiny_example(entities=("water", "sugar", "salt"), n_steps=3)
    params = tiny_params(ex, emb_dim=4, hidden=4, seed=9)
    items = [(ex, range(ex.n_entities))]
    assert_matches_oracle(params, items, encode_cells(params, items))


def test_multi_paragraph_batch_matches_oracle():
    # unequal sentence lengths within and across paragraphs, entity subsets
    # and repeats, an unmentioned entity, a step without a verb, an <unk> token
    a, b, params = ragged_batch()
    items = [(a, [1, 0]), (b, range(b.n_entities)), (a, [1])]
    assert_matches_oracle(params, items, encode_cells(params, items))


def test_cell_does_not_depend_on_batch_companions():
    a, b, params = ragged_batch()
    alone = encode_cells(params, [(b, [2, 0])]).dists.values
    padded = encode_cells(params, [(a, [0, 1]), (b, [2, 0])]).dists.values
    assert padded[-alone.shape[0]:] == pytest.approx(alone, abs=1e-12)
    first = encode_cells(params, [(b, [2, 0]), (a, [1])]).dists.values
    assert first[:alone.shape[0]] == pytest.approx(alone, abs=1e-12)


def test_attention_sums_to_one():
    ex = tiny_example()
    params = tiny_params(ex, seed=123)
    pooled, attention, _ = encode_one(params, ex, 1, 1)
    assert abs(attention.sum() - 1.0) <= 1e-9
    assert len(pooled) == params.hidden_size


def test_entity_absent_from_step_uses_zero_mean_path():
    ex = tiny_example()  # entity 1 is not mentioned in step 0
    params = tiny_params(ex)
    pooled, attention, _ = encode_one(params, ex, 0, 1)
    assert np.all(np.isfinite(pooled))
    assert abs(attention.sum() - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# decode

def test_zero_decoder_gives_uniform():
    ex = tiny_example()
    params = tiny_params(ex)
    params.tensors["dec_w"].values[...] = 0.0
    params.tensors["dec_b"].values[...] = 0.0
    _, _, dist = encode_one(params, ex, 0, 0)
    assert dist == pytest.approx([0.25] * 4, abs=1e-15)


def test_decoder_bias_dominates_with_zero_weights():
    ex = tiny_example()
    params = tiny_params(ex)
    params.tensors["dec_w"].values[...] = 0.0
    params.tensors["dec_b"].values[...] = [10.0, 0.0, 0.0, 0.0]
    _, _, dist = encode_one(params, ex, 0, 0)
    assert dist[0] > 0.999


def test_full_grid_matches_oracle_cellwise():
    ex = tiny_example()
    params = tiny_params(ex, seed=31)
    grid = predict_grid(params, ex)
    for t in range(ex.n_steps):
        for j in range(ex.n_entities):
            _, _, dist_o = oracle_cell(params, ex, t, j)
            assert grid.dists[t, j] == pytest.approx(dist_o, abs=1e-12)


# ---------------------------------------------------------------------------
# predict_grid

def test_grid_cells_are_distributions():
    groups = generate_synthetic(seed=2, topics=1, paragraphs_per_topic=1, noise=0.0)
    ex = groups[0].labeled[0]
    params = init_params(build_vocab(groups), 8, 6, seed=0)
    grid = predict_grid(params, ex)
    assert grid.dists.shape == (ex.n_steps, ex.n_entities, 4)
    assert np.max(np.abs(grid.dists.sum(axis=2) - 1.0)) <= 1e-9
    assert np.all(grid.dists > 0.0)


def test_predict_grid_is_pure():
    ex = tiny_example()
    params = tiny_params(ex, seed=8)
    a = predict_grid(params, ex)
    b = predict_grid(params, ex)
    assert np.array_equal(a.dists, b.dists)


def test_deleting_an_entity_leaves_other_columns_unchanged():
    ex = tiny_example(entities=("water", "sugar", "salt"), n_steps=3)
    params = tiny_params(ex, seed=10)
    full = predict_grid(params, ex)
    reduced_ex = ProcessExample(
        id=ex.id, topic=ex.topic, steps=ex.steps,
        entities=(ex.entities[0], ex.entities[2]), verbs=ex.verbs, gold=None)
    reduced = predict_grid(params, reduced_ex)
    assert np.array_equal(reduced.dists[:, 0, :], full.dists[:, 0, :])
    assert np.array_equal(reduced.dists[:, 1, :], full.dists[:, 2, :])


def test_entity_permutation_permutes_columns():
    ex = tiny_example(entities=("water", "sugar"), n_steps=2)
    swapped = ProcessExample(
        id=ex.id, topic=ex.topic, steps=ex.steps,
        entities=(ex.entities[1], ex.entities[0]), verbs=ex.verbs, gold=None)
    params = tiny_params(ex, seed=4)
    a = predict_grid(params, ex)
    b = predict_grid(params, swapped)
    assert np.array_equal(a.dists[:, 0, :], b.dists[:, 1, :])
    assert np.array_equal(a.dists[:, 1, :], b.dists[:, 0, :])


def test_supervised_loss_gradient_matches_fd():
    ex = tiny_example()
    params = tiny_params(ex, emb_dim=3, hidden=4, seed=6)

    def loss():
        dists = encode_cells(params, [(ex, range(ex.n_entities))]).dists
        return ad.mean_nll(dists, ex.gold.labels.reshape(-1))

    errs = ad.check_gradients(loss, params.tensors, eps=1e-5)
    assert max(errs.values()) < 1e-4, errs


def test_predict_grid_is_thread_safe():
    groups = generate_synthetic(seed=42, topics=16, paragraphs_per_topic=3, noise=0.15)
    examples = [ex for g in groups for ex in g.members]
    params = init_params(build_vocab(groups), 16, 8, seed=1)
    serial = [predict_grid(params, ex).dists.tobytes() for ex in examples]
    results = [[], []]

    def work(out):
        out.extend(predict_grid(params, ex).dists.tobytes() for ex in examples)

    threads = [threading.Thread(target=work, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == [serial, serial]


def assert_grids_match_one_by_one(params, examples):
    grids = predict_grids(params, examples)
    assert len(grids) == len(examples)
    for ex, grid in zip(examples, grids):
        alone = predict_grid(params, ex).dists
        assert grid.dists.shape == alone.shape
        assert np.max(np.abs(grid.dists - alone)) <= 1e-12


def test_predict_grids_match_predict_grid_on_ragged_batch():
    a, b, params = ragged_batch()
    assert_grids_match_one_by_one(params, [a, b, a])


def test_predict_grids_match_predict_grid_across_chunk_boundary():
    groups = generate_synthetic(seed=5, topics=23, paragraphs_per_topic=3, noise=0.15)
    examples = [ex for g in groups for ex in g.members][:model.PREDICT_CHUNK + 1]
    assert len(examples) == model.PREDICT_CHUNK + 1
    assert_grids_match_one_by_one(init_params(build_vocab(groups), 6, 4, seed=3), examples)


def test_predict_grids_of_no_paragraphs_is_empty():
    _, _, params = ragged_batch()
    assert predict_grids(params, []) == []


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip(tmp_path):
    ex = tiny_example()
    params = tiny_params(ex, seed=13)
    path = tmp_path / "ck.json"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.vocab == params.vocab
    for name, t in params.tensors.items():
        other = loaded.tensors[name]
        assert np.array_equal(t.values, other.values)
        assert t.requires_grad == other.requires_grad
    a = predict_grid(params, ex)
    b = predict_grid(loaded, ex)
    assert np.array_equal(a.dists, b.dists)


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    import json

    ex = tiny_example()
    params = tiny_params(ex)
    path = tmp_path / "ck.json"
    save_checkpoint(params, path)
    payload = json.loads(path.read_text())
    payload["tensors"]["dec_w"]["shape"] = [2, 4]
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="dec_w"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                 pytest.param(10**400, id="huge-int")])
def test_checkpoint_rejects_non_finite_values(tmp_path, bad):
    import json

    params = tiny_params(tiny_example())
    path = tmp_path / "ck.json"
    save_checkpoint(params, path)
    payload = json.loads(path.read_text())
    payload["tensors"]["dec_b"]["values"][1] = bad
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="dec_b"):
        load_checkpoint(path)


def test_init_requires_even_hidden():
    with pytest.raises(ValueError):
        init_params({model.UNK_TOKEN: 0}, 4, 5, seed=0)


def saved_payload(path):
    save_checkpoint(tiny_params(tiny_example()), path)
    return json.loads(path.read_text())


DROP = object()


def mutated(payload, keys, value):
    """`payload` with the entry at the path `keys` set to `value`, or removed for DROP."""
    if not keys:
        return value
    node = payload
    for key in keys[:-1]:
        node = node[key]
    if value is DROP:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    return payload


@pytest.mark.parametrize("keys, value, field", [
    (("tensors", "dec_b", "shape"), DROP, "dec_b"),
    (("tensors", "attn_w"), [1, 2], "attn_w"),
    (("tensors", "fwd_b", "values", 0), "x", "fwd_b"),
    (("tensors", "bwd_wh", "values"), {}, "bwd_wh"),
    (("tensors",), 5, "tensors"),
    (("hidden_size",), "x", "hidden_size"),
    (("vocab", 0), "<UNK>", "vocab"),
    ((), [1, 2], "JSON object"),
    (("version",), True, "version True"),
    (("version",), 1.0, "version 1.0"),
    (("tensors", "extra_w"), {"shape": [1], "values": [1.0]}, "unknown tensor 'extra_w'"),
    (("comment",), "trained on Monday", "unknown field 'comment'"),
    (("vocab",), [model.UNK_TOKEN, "moves", "the", "water", "sugar", "the"],
     "vocab lists token 'the' twice"),
], ids=["no-shape", "entry-not-object", "string-value", "values-object", "tensors-number",
        "hidden-size-string", "no-unk-token", "top-level-array", "version-true",
        "version-float", "extra-tensor", "extra-key", "repeated-token"])
def test_checkpoint_structure_errors_name_file_and_field(tmp_path, capsys, keys, value, field):
    path = tmp_path / "ck.json"
    path.write_text(json.dumps(mutated(saved_payload(path), keys, value)))
    with pytest.raises(CheckpointError, match=field) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)
    assert cli.main(["eval", str(path), str(tmp_path / "absent.jsonl")]) == cli.EXIT_DATA
    assert str(path) in capsys.readouterr().err


SWAPS = [None, True, 0, 0.5, "x", [], {}]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hst.data())
def test_any_single_checkpoint_mutation_loads_or_raises_checkpoint_error(tmp_path_factory, data):
    """Drop a key, swap a value for one of another JSON type, or truncate a list,
    anywhere in a valid checkpoint; loading never fails any other way."""
    path = tmp_path_factory.mktemp("ck") / "ck.json"
    payload = saved_payload(path)
    keys, node = (), payload
    while isinstance(node, (dict, list)) and node and data.draw(hst.booleans()):
        key = data.draw(hst.sampled_from(sorted(node) if isinstance(node, dict)
                                         else range(len(node))))
        keys, parent, node = keys + (key,), node, node[key]
    values = [v for v in SWAPS if type(v) is not type(node)]
    if keys and isinstance(parent, dict):
        values.append(DROP)
    if isinstance(node, list) and node:
        values += [node[:n] for n in sorted({0, len(node) - 1})]
    path.write_text(json.dumps(mutated(payload, keys, data.draw(hst.sampled_from(values)))))
    try:
        load_checkpoint(path)
    except CheckpointError as exc:
        assert str(path) in str(exc)


# ---------------------------------------------------------------------------
# differential properties: the fused encoder against the per-cell oracle, the
# taped gradients against central differences, on small generated corpora

UNSEEN = "zzz"  # a corpus word left out of the vocabulary
WORDS = ("the", "water", "salt", "sugar", "moves", "melts", "into", "sea", UNSEEN)
NAMES = ("water", "salt", "sugar", "heat", "ice", "Water ")  # the last two names align


@hst.composite
def paragraphs(draw, id, labeled):
    """1-6 steps of 1-8 tokens, 1-4 entities with possibly empty or overlapping
    mentions, at most one verb per step, and gold labels when `labeled`."""
    steps = tuple(tuple(draw(hst.lists(hst.sampled_from(WORDS), min_size=1, max_size=8)))
                  for _ in range(draw(hst.integers(1, 6))))

    def spans(t):
        n = len(steps[t])
        return hst.integers(0, n - 1).flatmap(
            lambda a: hst.integers(a + 1, n).map(lambda b: (t, a, b)))

    entities = tuple(
        Entity(name=name, mentions=tuple(m for t in range(len(steps))
                                         for m in draw(hst.lists(spans(t), max_size=2))))
        for name in draw(hst.lists(hst.sampled_from(NAMES), min_size=1, max_size=4, unique=True)))
    verbs = tuple((t, i) for t, sent in enumerate(steps)
                  if (i := draw(hst.none() | hst.integers(0, len(sent) - 1))) is not None)
    gold = None
    if labeled:
        labels = draw(hst.lists(hst.integers(0, 3), min_size=len(steps) * len(entities),
                                max_size=len(steps) * len(entities)))
        gold = ChangeGrid.from_labels(np.reshape(labels, (len(steps), len(entities))).tolist())
    ex = ProcessExample(id=id, topic="t", steps=steps, entities=entities, verbs=verbs, gold=gold)
    ex.validate()
    return ex


@hst.composite
def groups_and_params(draw):
    """A topic group of 1-3 paragraphs, the first labeled and the others
    labeled or not, and seeded params of a small size whose vocabulary lacks
    one of the group's words, which maps to <unk>."""
    n = draw(hst.integers(1, 3))
    members = [draw(paragraphs(f"p{i}", i == 0 or draw(hst.booleans()))) for i in range(n)]
    group = TopicGroup(topic="t", labeled=[m for m in members if m.gold is not None],
                       unlabeled=[m for m in members if m.gold is None])
    vocab = {tok: i for i, tok in enumerate(t for t in build_vocab([group]) if t != UNSEEN)}
    params = init_params(vocab, draw(hst.sampled_from([1, 3])), draw(hst.sampled_from([2, 4])),
                         seed=draw(hst.integers(0, 2**16)))
    return group, params


@settings(max_examples=40, deadline=None, derandomize=True)
@given(groups_and_params(), hst.data())
def test_run_cells_matches_oracle_on_generated_corpora(case, data):
    group, params = case
    items = [(ex, data.draw(hst.lists(hst.integers(0, ex.n_entities - 1), min_size=1,
                                      max_size=4)))
             for ex in group.members]
    assert_matches_oracle(params, items, encode_cells(params, items))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(groups_and_params(), hst.data())
def test_plan_cells_matches_per_step_scans_on_generated_corpora(case, data):
    # verbs and mentions bucketed by step once per paragraph give the same
    # arrays, repeated entity columns included
    group, params = case
    items = [(ex, data.draw(hst.lists(hst.integers(0, ex.n_entities - 1), min_size=1,
                                      max_size=4)))
             for ex in group.members]
    plan = plan_cells(params.vocab, items)
    for name, want in single_pass_plan(params.vocab, items).items():
        got = getattr(plan, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@settings(max_examples=12, deadline=None, derandomize=True)
@given(groups_and_params(), hst.booleans())
def test_batch_loss_gradients_match_fd_on_generated_corpora(case, consistency):
    # a threshold above ln(4) lets the consistency term engage from the start
    group, params = case
    cfg = training.TrainingConfig(sup_threshold=10.0, consistency_enabled=consistency,
                                  hidden_size=params.hidden_size,
                                  embedding_dim=params.embedding_dim)
    for batch in training.make_batches(params.vocab, group, cfg):
        errs = ad.check_gradients(lambda: training.batch_loss(params, batch, cfg)[0],
                                  params.tensors)
        assert max(errs.values()) <= 1e-4, errs  # criterion 1's bound


@settings(max_examples=25, deadline=None, derandomize=True)
@given(groups_and_params())
def test_consistency_term_equals_float_losses_on_generated_corpora(case):
    # the batched term sums the float API over the members; a self-pair gives 0
    group, params = case
    cfg = training.TrainingConfig(sup_threshold=10.0, hidden_size=params.hidden_size,
                                  embedding_dim=params.embedding_dim)
    grids = predict_grids(params, group.members)
    for batch in training.make_batches(params.vocab, group, cfg):
        p, pg = batch.primary, grids[batch.primary_index]
        _, stats = training.batch_loss(params, batch, cfg)
        expected = sum(training.consistency_loss(g, m, pg, p)
                       for i, (m, g) in enumerate(zip(batch.members, grids))
                       if i != batch.primary_index)
        assert stats.con_loss == pytest.approx(expected, rel=1e-9, abs=1e-15)
        assert training.consistency_loss(pg, p, pg, p) == 0.0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(groups_and_params(), hst.randoms(use_true_random=False), hst.integers(1, 3))
def test_predict_grids_do_not_depend_on_order_or_chunking(case, rnd, chunk):
    group, params = case
    examples = group.members
    order = list(range(len(examples)))
    rnd.shuffle(order)
    grids = predict_grids(params, examples)
    with patch.object(model, "PREDICT_CHUNK", chunk):
        shuffled = predict_grids(params, [examples[i] for i in order])
    for k, i in enumerate(order):
        assert np.max(np.abs(shuffled[k].dists - grids[i].dists)) <= 1e-12
