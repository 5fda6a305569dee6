import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import consistency_reference as reference
import project_reference
from probe import weighted_sum
from statetrack import autodiff as ad
from statetrack import training
from statetrack.autodiff import ComputationTape, ContractError, DimensionError, Tensor

RNG = np.random.default_rng(20240817)


def fd_check(build_loss, tensors, tol=1e-6):
    errs = ad.check_gradients(build_loss, tensors)
    worst = max(errs.values())
    assert worst < tol, f"gradient mismatch: {errs}"


# ---------------------------------------------------------------------------
# forward values

def test_sigmoid_tanh_at_zero():
    # wh = 0 and zero pre-activations but the cell candidate's at time 0: every
    # sigmoid gate is 0.5, so c1 = 0.5 * tanh(a); at time 1 the tanh candidate
    # is 0 too, so c2 = 0.5 * c1; and h = 0.5 * tanh(c) throughout
    a = np.array([[[1.0, -2.0], [0.0, 4.0]], [[3.0, 0.5], [-1.0, 2.0]]])  # [direction, cell, h]
    xs = np.zeros((2, 2, 2, 8))  # [direction, time, cell, 4h]
    xs[:, 0, :, 4:6] = a
    out = ad.bilstm(Tensor(xs.reshape(2, 4, 8)), Tensor(np.zeros((2, 2, 8))), 2)
    c1 = 0.5 * np.tanh(a)
    want = np.stack([0.5 * np.tanh(c1), 0.5 * np.tanh(0.5 * c1)], axis=1)
    assert out.values == pytest.approx(want.reshape(8, 2), abs=1e-15)


def test_bilstm_taped_and_untaped_forward_are_bitwise_equal():
    xs = Tensor(RNG.normal(size=(2, 12, 12)))
    whs = Tensor(RNG.normal(size=(2, 3, 12)))
    untaped = ad.bilstm(xs, whs, 4).values
    with ComputationTape() as tape:
        taped = ad.bilstm(xs, whs, 4).values
    assert len(tape.nodes) == 1
    assert np.array_equal(taped, untaped)


def bilstm_results(bilstm, xs, whs, cells, rs):
    """The untaped and taped states of `bilstm` on xs[0] and the gradients of
    (sum(states(xs[0]) * rs[0]) + sum(states(xs[1]) * rs[1])) / 2 taken on one tape:
    both calls share the weights, so the first call's backward adds into wh
    adjoints that already hold the second call's gradient."""
    x = [Tensor(v, requires_grad=True) for v in xs]
    w = Tensor(whs, requires_grad=True)
    untaped = bilstm(x[0], w, cells).values
    with ComputationTape() as tape:
        states = [bilstm(xk, w, cells) for xk in x]
        loss = ad.combine(*(weighted_sum(h, Tensor(r)) for h, r in zip(states, rs)), 0.5)
    tape.backward(loss)
    return [untaped, states[0].values, states[1].values, *(xk.grad for xk in x), *w.grad]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(hst.sampled_from([1, 2]), hst.integers(1, 8), hst.integers(1, 400), hst.integers(1, 4),
       hst.sampled_from([0.1, 1.0, 4.0]), hst.integers(0, 2**32 - 1))
def test_bilstm_matches_the_step_form_bitwise(dirs, steps, cells, hd, spread, seed):
    # the slab form must round every value as the step form did: states,
    # inputs adjoints and both wh adjoints, taped and untaped
    rng = np.random.default_rng(seed)
    xs = rng.normal(scale=spread, size=(2, dirs, steps * cells, 4 * hd))
    whs = rng.normal(scale=spread, size=(dirs, hd, 4 * hd))
    rs = rng.normal(size=(2, dirs * steps * cells, hd))
    got = bilstm_results(ad.bilstm, xs, whs, cells, rs)
    want = bilstm_results(project_reference.stacked_bilstm, xs, whs, cells, rs)
    assert len(got) == len(want) == 5 + dirs
    for k, (g, w) in enumerate(zip(got, want)):
        assert g.shape == w.shape and np.array_equal(g, w), k


def project_results(project, values, frozen, word_ids, rows, flags, rs):
    """The untaped and taped outputs of `project` and the gradients of
    (sum(out_0 * rs[0]) + sum(out_1 * rs[1])) / 2 taken on one tape: both
    calls share the leaves, so the first call's backward adds into adjoints
    that already hold the second call's gradient."""
    embedding, wx, b = (Tensor(v, requires_grad=not (frozen and k == 0))
                        for k, v in enumerate(values))
    untaped = project(embedding, wx, b, word_ids, rows, flags).values
    with ComputationTape() as tape:
        outs = [project(embedding, wx, b, word_ids, rows, flags) for _ in rs]
        loss = ad.combine(*(weighted_sum(out, Tensor(r)) for out, r in zip(outs, rs)), 0.5)
    tape.backward(loss)
    return [untaped, *(out.values for out in outs), embedding.grad, wx.grad, b.grad]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(hst.sampled_from([1, 2]), hst.booleans(), hst.integers(1, 9), hst.integers(1, 40),
       hst.integers(1, 5), hst.integers(1, 4), hst.integers(0, 2**32 - 1))
def test_project_matches_the_per_direction_form_bitwise(dirs, frozen, tokens, reads, dim, hd,
                                                        seed):
    # the stacked backward runs each stage once for every direction; it must
    # round every value as the per-direction loop did: outputs, taped and
    # untaped, and the embedding, input weight and bias adjoints
    rng = np.random.default_rng(seed)
    vocab = 1 + tokens // 2  # tokens repeat vocabulary rows, and reads repeat tokens
    values = (rng.normal(size=(vocab, dim)), rng.normal(size=(dirs, dim + 2, 4 * hd)),
              rng.normal(size=(dirs, 4 * hd)))
    word_ids = rng.integers(0, vocab, size=tokens)
    rows = rng.integers(0, tokens, size=(dirs, reads))
    flags = rng.integers(0, 2, size=(dirs, reads, 2)).astype(float)
    rs = rng.normal(size=(2, dirs, reads, 4 * hd))
    args = (values, frozen, word_ids, rows, flags, rs)
    got = project_results(ad.project, *args)
    want = project_results(project_reference.stacked_project, *args)
    assert (got[3] is None) == (want[3] is None) == frozen
    for k, (g, w) in enumerate(zip(got, want)):
        if g is not None:
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), k


def test_bilstm_backward_twice_accumulates_the_same_gradient():
    # backward rewrites part of the saved activations in place; a second
    # backward on the same tape, into zeroed grads, must still give exactly
    # the first gradient
    xs = Tensor(RNG.normal(size=(2, 15, 12)), requires_grad=True)
    whs = Tensor(RNG.normal(size=(2, 3, 12)), requires_grad=True)
    with ComputationTape() as tape:
        loss = weighted_sum(ad.bilstm(xs, whs, 5), Tensor(RNG.normal(size=(30, 3))))
    tape.backward(loss)
    once = [t.grad.copy() for t in (xs, whs)]
    for t in (xs, whs):
        t.grad[...] = 0.0
    tape.backward(loss)
    for t, g in zip((xs, whs), once):
        assert t.grad.tobytes() == g.tobytes()


def test_bilstm_directions_are_independent():
    # a direction's states depend only on its own inputs and weights
    xs = RNG.normal(size=(2, 6, 8))
    whs = RNG.normal(size=(2, 2, 8))
    both = ad.bilstm(Tensor(xs), Tensor(whs), 3).values
    for k in range(2):
        alone = ad.bilstm(Tensor(xs[k:k + 1]), Tensor(whs[k:k + 1]), 3).values
        assert np.array_equal(both[6 * k:6 * (k + 1)], alone)


# ---------------------------------------------------------------------------
# gradient accumulation

def test_backward_adds_into_the_grad_in_place_and_gives_a_leaf_without_one_a_new_grad():
    w = Tensor(RNG.normal(size=5), requires_grad=True)
    weights = Tensor(np.arange(5.0))
    with ComputationTape() as tape:
        loss = weighted_sum(w, weights)
    tape.backward(loss)
    first = w.grad
    assert np.array_equal(first, np.arange(5.0)) and not np.shares_memory(first, w.values)
    assert weights.grad is None  # a constant takes no gradient
    tape.backward(loss)  # the second gradient is added into the same array
    assert w.grad is first and np.array_equal(first, 2.0 * np.arange(5.0))
    store = np.zeros(7)
    w.grad = store[1:6]  # a grad that views a larger array, as a parameter's does
    tape.backward(loss)
    assert w.grad.base is store and np.array_equal(store, [0.0, *np.arange(5.0), 0.0])


def test_bilstm_rejects_mismatched_shapes():
    x, wh = Tensor(np.zeros((2, 6, 8))), Tensor(np.zeros((2, 2, 8)))
    with pytest.raises(DimensionError, match=r"\[2, 6, 8\]"):
        ad.bilstm(x, Tensor(np.zeros((2, 2, 4))), 2)  # the weights are not [h, 4h]
    with pytest.raises(DimensionError):
        ad.bilstm(x, Tensor(np.zeros((1, 2, 8))), 2)  # two directions of inputs for one weight
    with pytest.raises(DimensionError):
        ad.bilstm(x, Tensor(np.zeros((2, 8))), 2)  # the weights are not stacked
    with pytest.raises(DimensionError):
        ad.bilstm(Tensor(np.zeros((2, 6, 4))), wh, 2)  # not 4h wide
    with pytest.raises(DimensionError):
        ad.bilstm(Tensor(np.zeros((12, 8))), wh, 2)  # directions not stacked
    with pytest.raises(DimensionError):
        ad.bilstm(x, wh, 4)  # 6 rows are not whole steps of 4 cells


def test_softmax_rows_with_mask():
    out = ad._softmax(np.array([[0.0, 0.0, 5.0], [1.0, 2.0, 3.0]]),
                      np.array([[True, True, False], [True, True, True]]))
    assert out[0] == pytest.approx([0.5, 0.5, 0.0], abs=1e-15)
    assert out[0, 2] == 0.0
    assert out[1] == pytest.approx(np.exp([1, 2, 3]) / np.exp([1, 2, 3]).sum(), abs=1e-15)
    # a cell whose every position is masked out is rejected by the op that masks
    states, params, unshuffle, pool, mask = head_inputs()
    mask[1] = False
    with pytest.raises(DimensionError, match="mask"):
        ad.head(states, *params, unshuffle, pool, mask)


def test_nll_rows():
    dist = Tensor([[0.5, 0.25, 0.25], [0.1, 0.1, 0.8]])
    out = ad.mean_nll(dist, [0, 2])
    assert out.item() == pytest.approx((np.log(2.0) - np.log(0.8)) / 2, abs=1e-15)
    with pytest.raises(DimensionError):
        ad.mean_nll(dist, [0, 3])
    with pytest.raises(DimensionError):
        ad.mean_nll(dist, [0])
    with pytest.raises(DimensionError):
        ad.mean_nll(Tensor(np.zeros(3)), 0)  # one distribution per row


def test_mean_nll_of_zero_probability_is_infinite():
    # -log(0) = inf is what aborts training on a collapsed distribution
    out = ad.mean_nll(Tensor([[1.0, 0.0], [0.5, 0.5]]), [1, 0])
    assert out.item() == np.inf


def test_softmax_uniform():
    assert ad._softmax(np.zeros(4)) == pytest.approx([0.25] * 4, abs=1e-15)


def test_softmax_large_logits_no_overflow():
    out = ad._softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_empty_errors():
    # a cell of no positions cannot be attended over
    _, params, *_ = head_inputs()
    with pytest.raises(DimensionError):
        ad.head(Tensor(np.zeros((0, 2))), *params, np.zeros(0, dtype=np.intp),
                np.zeros((3, 2, 0)), np.zeros((3, 0), dtype=bool))


@settings(max_examples=50, deadline=None)
@given(hst.lists(hst.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_softmax_sums_to_one_and_positive(xs):
    out = ad._softmax(np.array(xs))
    assert abs(out.sum() - 1.0) <= 1e-12
    assert np.all(out > 0.0)


# ---------------------------------------------------------------------------
# the fused model ops

def project_inputs(frozen=False):
    """(embedding, wx, b, word_ids, rows, flags) of two directions reading 5
    tokens; word ids and token reads repeat, and padding reads token 0 with
    no flags, as in a plan."""
    embedding = Tensor(RNG.normal(size=(4, 3)), requires_grad=not frozen)
    wx = Tensor(RNG.normal(size=(2, 5, 8)), requires_grad=True)
    b = Tensor(RNG.normal(size=(2, 8)), requires_grad=True)
    word_ids = np.array([2, 0, 3, 2, 1])
    rows = np.array([[0, 1, 2, 4, 4, 0], [2, 1, 0, 3, 4, 0]])
    flags = RNG.integers(0, 2, size=(2, 6, 2)).astype(float)
    flags[:, -1] = 0.0
    return embedding, wx, b, word_ids, rows, flags


def head_inputs(n=3, width=4, hd=2, classes=4):
    """(states, (attn_w, attn_b, dec_w, dec_b), unshuffle, pool, mask) for n
    cells of unequal lengths; cell 1 keeps one position, cell 2 every one."""
    states = Tensor(RNG.normal(size=(2 * n * width, hd)), requires_grad=True)
    params = (Tensor(RNG.normal(size=(2 * hd, 4 * hd)), requires_grad=True),
              Tensor(RNG.normal(), requires_grad=True),
              Tensor(RNG.normal(size=(2 * hd, classes)), requires_grad=True),
              Tensor(RNG.normal(size=classes), requires_grad=True))
    mask = np.arange(width) < np.array([[2], [1], [width]])[:n]
    pool = RNG.uniform(size=(n, 2, width)) * mask[:, None]
    pool[0, 1] = 0.0  # an empty selection pools to the zero vector
    return states, params, RNG.permutation(2 * n * width), pool, mask


def consistency_inputs(pairs=3, primary_rows=6, member_rows=10, classes=4):
    """(primary, members, member_avg, primary_avg, weight) with random
    constants, so that every entry of both cell tensors takes a gradient."""
    return (Tensor(RNG.uniform(size=(primary_rows, classes)), requires_grad=True),
            Tensor(RNG.uniform(size=(member_rows, classes)), requires_grad=True),
            RNG.uniform(size=(pairs, member_rows)), RNG.uniform(size=(pairs, primary_rows)),
            RNG.uniform(size=(pairs, classes)))


def test_project_equals_gather_project_add():
    embedding, wx, b, word_ids, rows, flags = project_inputs()
    out = ad.project(embedding, wx, b, word_ids, rows, flags).values
    assert out.shape == (2, 6, 8)
    for k in range(2):
        x = np.concatenate([embedding.values[word_ids[rows[k]]], flags[k]], axis=1)
        assert out[k] == pytest.approx(x @ wx.values[k] + b.values[k], abs=1e-12)


@pytest.mark.parametrize("frozen", [False, True], ids=["trained", "frozen"])
def test_grad_project(frozen):
    embedding, wx, b, word_ids, rows, flags = project_inputs(frozen)
    r = Tensor(RNG.normal(size=(2, 6, 8)))
    tensors = {"wx": wx, "b": b}
    if not frozen:
        tensors["embedding"] = embedding
    fd_check(lambda: weighted_sum(ad.project(embedding, wx, b, word_ids, rows, flags), r),
             tensors, tol=1e-4)
    assert (embedding.grad is None) == frozen


def test_grad_head():
    # masked positions, unequal cell lengths, a cell of one position, an empty pool
    states, params, unshuffle, pool, mask = head_inputs()
    r = Tensor(RNG.normal(size=(3, 4)))
    tensors = {"states": states, "attn_w": params[0], "attn_b": params[1],
               "dec_w": params[2], "dec_b": params[3]}
    fd_check(lambda: weighted_sum(ad.head(states, *params, unshuffle, pool, mask)[0], r),
             tensors, tol=1e-4)


def test_head_attention_is_masked_and_pools_the_context():
    states, params, unshuffle, pool, mask = head_inputs()
    dists, attention, pooled = ad.head(states, *params, unshuffle, pool, mask)
    assert np.all(attention[~mask] == 0.0) and np.all(attention[mask] > 0.0)
    assert attention.sum(axis=1) == pytest.approx([1.0] * 3, abs=1e-12)
    ctx = states.values[unshuffle].reshape(3, 4, 4)
    assert pooled == pytest.approx(np.einsum("cp,cph->ch", attention, ctx), abs=1e-12)
    assert dists.values.sum(axis=1) == pytest.approx([1.0] * 3, abs=1e-12)


def test_grad_nll():
    dists = Tensor(RNG.uniform(0.1, 1.0, size=(3, 4)), requires_grad=True)
    fd_check(lambda: ad.mean_nll(dists, [2, 0, 2]), {"dists": dists})
    fd_check(lambda: ad.combine(ad.mean_nll(dists, [1, 1, 3]), Tensor(0.0), 0.5),
             {"dists": dists})


def test_grad_consistency():
    primary, members, *constants = consistency_inputs()
    fd_check(lambda: ad.consistency(primary, members, *constants),
             {"primary": primary, "members": members})


def test_grad_combine():
    a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
    r = Tensor(RNG.normal(size=(2, 3)))
    for k in (0.0, 0.3, 1.0):
        fd_check(lambda: weighted_sum(ad.combine(a, b, k), r), {"a": a, "b": b})


def consistency_results(consistency, combine_losses, cells, matrices, lambda_weight):
    """The term con = consistency(primary, members, matrices), the loss
    combine_losses(sup, con) and the gradients of sup, primary and members,
    for cells = (sup, primary, members) values."""
    sup, primary, members = (Tensor(v, requires_grad=True) for v in cells)
    with ComputationTape() as tape:
        con = consistency(primary, members, matrices)
        loss = combine_losses(sup, con, lambda_weight)
    tape.backward(loss)
    return [con.values, loss.values, sup.grad, primary.grad, members.grad]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hst.data())
def test_fused_consistency_matches_the_op_chain_bitwise(data):
    # members of unequal widths, each aligning some of its columns with
    # entities of the primary; the fused ops must round every value as the
    # matmul, add, scale, mul and total chain did: the term, the loss and all
    # gradients.  Sizes are sampled uniformly rather than drawn as integers,
    # which cluster at 1, so that pair counts whose weights are not powers of
    # two come up often
    def draw(n):
        return data.draw(hst.sampled_from(range(1, n + 1)))

    steps, width = draw(4), draw(6)
    blocks = []
    for block_width in data.draw(hst.lists(hst.sampled_from(range(1, 7)), min_size=1,
                                           max_size=4, unique=True)):
        n = draw(min(width, block_width))
        columns = data.draw(hst.permutations(range(block_width)))[:n]
        entities = data.draw(hst.permutations(range(width)))[:n]
        blocks.append((draw(4), block_width, list(zip(columns, entities))))
    lambda_weight = data.draw(hst.one_of(hst.sampled_from([0.0, 1.0]), hst.floats(0.0, 1.0)))
    rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1)))
    member_rows = sum(s * w for s, w, _ in blocks)
    cells = (rng.uniform(0.0, 2.0), rng.dirichlet(np.ones(4), size=steps * width),
             rng.dirichlet(np.ones(4), size=member_rows))
    matrices = training.consistency_matrices(steps, width, blocks)
    got = consistency_results(lambda p, m, mats: ad.consistency(p, m, *mats),
                              ad.combine, cells, matrices, lambda_weight)
    want = consistency_results(reference.consistency_sum, reference.combine_losses,
                               cells, matrices, lambda_weight)
    for k, (g, w) in enumerate(zip(got, want)):
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), k


def test_fused_ops_taped_and_untaped_forwards_are_bitwise_equal():
    embedding, wx, b, word_ids, rows, flags = project_inputs()
    states, params, unshuffle, pool, mask = head_inputs()
    dists, others = (Tensor(RNG.uniform(0.1, 1.0, size=(3, 4))) for _ in range(2))
    cells = consistency_inputs()
    calls = [lambda: ad.project(embedding, wx, b, word_ids, rows, flags).values,
             lambda: ad.head(states, *params, unshuffle, pool, mask)[0].values,
             lambda: ad.head(states, *params, unshuffle, pool, mask)[1],
             lambda: ad.head(states, *params, unshuffle, pool, mask)[2],
             lambda: ad.mean_nll(dists, [0, 3, 1]).values,
             lambda: ad.consistency(*cells).values,
             lambda: ad.combine(dists, others, 0.3).values]
    for call in calls:
        untaped = call()
        with ComputationTape():
            taped = call()
        assert taped.tobytes() == untaped.tobytes()


def test_fused_ops_reject_mismatched_operands():
    embedding, wx, b, word_ids, rows, flags = project_inputs()
    with pytest.raises(DimensionError, match="project"):
        ad.project(embedding, wx, b, word_ids, rows, flags[:, :, :1])  # wx expects 2 flags
    with pytest.raises(DimensionError, match="project"):
        ad.project(embedding, wx, Tensor(b.values[:1]), word_ids, rows, flags)
    with pytest.raises(DimensionError, match="project"):
        ad.project(embedding, wx, Tensor(np.zeros((2, 4))), word_ids, rows, flags)
    with pytest.raises(DimensionError, match="project"):
        ad.project(embedding, Tensor(wx.values[0]), b, word_ids, rows, flags)  # not stacked
    with pytest.raises(DimensionError, match="project"):
        ad.project(embedding, wx, b, word_ids, rows[:1], flags)
    states, params, unshuffle, pool, mask = head_inputs()
    attn_w, attn_b, dec_w, dec_b = params
    with pytest.raises(DimensionError, match="head"):
        ad.head(states, attn_w, attn_b, dec_w, dec_b, unshuffle[1:], pool, mask)
    with pytest.raises(DimensionError, match="head"):
        ad.head(states, Tensor(np.zeros((4, 4))), attn_b, dec_w, dec_b, unshuffle, pool, mask)
    with pytest.raises(DimensionError, match="head"):
        ad.head(states, attn_w, attn_b, dec_w, Tensor(np.zeros(3)), unshuffle, pool, mask)
    with pytest.raises(DimensionError, match="head"):
        ad.head(states, attn_w, attn_b, dec_w, dec_b, unshuffle, pool[:, :1], mask)
    primary, members, member_avg, primary_avg, weight = consistency_inputs()
    for bad in [(primary, members, member_avg[:, 1:], primary_avg, weight),  # a member row short
                (primary, members, member_avg, primary_avg[:2], weight),  # a pair short
                (primary, members, member_avg, primary_avg, weight[:, :3]),  # a class short
                (primary, Tensor(np.zeros((10, 3))), member_avg, primary_avg, weight),
                (Tensor(np.zeros(6)), members, member_avg, primary_avg, weight),
                (primary, members, member_avg, primary_avg, weight[0])]:
        with pytest.raises(DimensionError, match="consistency"):
            ad.consistency(*bad)
    # shapes () and (1,) hold one value each, but they are not the same shape
    for a, b in [(Tensor(2.0), Tensor([3.0])), (Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))]:
        with pytest.raises(DimensionError, match=r"combine: shapes \["):
            ad.combine(a, b, 0.5)


def test_project_rejects_reads_out_of_range():
    embedding, wx, b, word_ids, rows, flags = project_inputs()
    with pytest.raises(IndexError):
        ad.project(embedding, wx, b, word_ids, rows + 5, flags)
    with pytest.raises(IndexError):
        ad.project(embedding, wx, b, word_ids + 4, rows, flags)  # past the 4 vocabulary rows


# ---------------------------------------------------------------------------
# backward contracts

def test_backward_sum_gives_ones():
    w = Tensor(RNG.normal(size=5), requires_grad=True)
    with ComputationTape() as tape:
        loss = weighted_sum(w, Tensor(np.ones(5)))
    tape.backward(loss)
    assert np.array_equal(w.grad, np.ones(5))


def test_backward_dead_branch_gives_zeros():
    a = Tensor(RNG.normal(), requires_grad=True)
    b = Tensor(RNG.normal(), requires_grad=True)
    with ComputationTape() as tape:
        loss = ad.combine(a, b, 1.0)
    tape.backward(loss)
    assert a.grad.shape == b.grad.shape == ()
    assert float(a.grad) == 1.0 and float(b.grad) == 0.0


def test_backward_rejects_nonscalar():
    w = Tensor(np.zeros(3), requires_grad=True)
    with ComputationTape() as tape:
        out = ad.combine(w, Tensor(np.ones(3)), 0.5)
    with pytest.raises(ContractError):
        tape.backward(out)


@pytest.mark.parametrize("source", ["stray", "other-tape"])
def test_backward_rejects_off_tape_loss(source):
    w = Tensor(np.zeros(3), requires_grad=True)
    with ComputationTape() as tape:
        ad.combine(w, Tensor(np.ones(3)), 0.5)
    stray = Tensor(1.0)
    if source == "other-tape":
        with ComputationTape():
            stray = ad.combine(w, Tensor(np.ones(3)), 0.5)
    with pytest.raises(ContractError):
        tape.backward(stray)


def test_backward_accumulates_additively():
    primary, members, *constants = consistency_inputs()
    with ComputationTape() as tape:
        loss = ad.consistency(primary, members, *constants)
    tape.backward(loss)
    once = [primary.grad.copy(), members.grad.copy()]
    tape.backward(loss)
    assert np.array_equal(primary.grad, 2.0 * once[0])
    assert np.array_equal(members.grad, 2.0 * once[1])


def test_forward_is_pure():
    embedding, wx, b, word_ids, rows, flags = project_inputs()
    whs = Tensor(RNG.normal(size=(2, 2, 8)))
    _, params, _, pool, mask = head_inputs(n=2, width=3)

    def forward():
        states = ad.bilstm(ad.project(embedding, wx, b, word_ids, rows, flags), whs, 2)
        return ad.mean_nll(ad.head(states, *params, np.arange(12), pool, mask)[0], [0, 3])

    assert forward().values.tobytes() == forward().values.tobytes()


# ---------------------------------------------------------------------------
# finite-difference checks, one per primitive

def test_grad_tanh_sigmoid():
    # the sigmoid and tanh gates live inside the fused BiLSTM; three time steps
    # in both directions, each with its own recurrent weights, also check the
    # gradient through the recurrent state
    xs = Tensor(RNG.normal(size=(2, 6, 8)), requires_grad=True)
    whs = Tensor(RNG.normal(size=(2, 2, 8)), requires_grad=True)
    r = Tensor(RNG.normal(size=(12, 2)))
    fd_check(lambda: weighted_sum(ad.bilstm(xs, whs, 2), r), {"x": xs, "wh": whs})


def test_grad_mean_total_scale():
    dists = Tensor(RNG.uniform(0.1, 1.0, size=(2, 3)), requires_grad=True)
    fd_check(lambda: ad.combine(ad.mean_nll(dists, [2, 0]), Tensor(0.0), 3.0), {"dists": dists})


def test_grad_softmax_jvp():
    # the head's softmax gradient formula against central differences of the
    # softmax itself, plain and masked
    for shape, mask in [((5,), None),
                        ((3, 4), np.array([[True, True, False, False], [True] * 4,
                                           [False, True, False, True]]))]:
        x, v = Tensor(RNG.normal(size=shape)), RNG.normal(size=shape)
        fd = ad.finite_difference(lambda: float((ad._softmax(x.values, mask) * v).sum()), x)
        jvp = ad._softmax_grad(ad._softmax(x.values, mask), v)
        assert ad.relative_error(jvp, fd) < 1e-6


def test_grad_row_select():
    # the projection reads token rows, and the tokens read vocabulary rows,
    # both with repeats; each row's gradient sums over its repeats
    embedding, wx, b, word_ids, rows, flags = project_inputs()
    assert len(set(word_ids)) < len(word_ids) and len(set(rows[0])) < len(rows[0])
    r = Tensor(RNG.normal(size=(2, 6, 8)))
    fd_check(lambda: weighted_sum(ad.project(embedding, wx, b, word_ids, rows, flags), r),
             {"embedding": embedding})


# ---------------------------------------------------------------------------
# misc op contracts

def test_nll_uniform_is_log4():
    out = ad.mean_nll(Tensor([[0.25, 0.25, 0.25, 0.25]]), [1])
    assert out.item() == pytest.approx(np.log(4.0), abs=1e-15)


def test_no_tape_means_no_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    out = ad.combine(x, Tensor(np.zeros(3)), 2.0)
    assert ad._STATE.current is None
    assert np.array_equal(out.values, [2.0, 2.0, 2.0])
