import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from statetrack import autodiff as ad
from statetrack.autodiff import ComputationTape, ContractError, DimensionError, Tensor

RNG = np.random.default_rng(20240817)


def fd_check(build_loss, tensors, tol=1e-6, eps=1e-5):
    errs = ad.check_gradients(build_loss, tensors, eps=eps)
    worst = max(errs.values())
    assert worst < tol, f"gradient mismatch: {errs}"


# ---------------------------------------------------------------------------
# forward values

def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(a, b)
    assert np.array_equal(out.values, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_1x2_2x1():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.values.shape == (1, 1)
    assert out.values[0, 0] == 11.0


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\[2, 3\].*\[2, 2\]"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_sigmoid_tanh_at_zero():
    # wh = 0 and zero pre-activations but the cell candidate's at time 0: every
    # sigmoid gate is 0.5, so c1 = 0.5 * tanh(a); at time 1 the tanh candidate
    # is 0 too, so c2 = 0.5 * c1; and h = 0.5 * tanh(c) throughout
    a = np.array([[[1.0, -2.0], [0.0, 4.0]], [[3.0, 0.5], [-1.0, 2.0]]])  # [direction, cell, h]
    xs = np.zeros((2, 2, 2, 8))  # [direction, time, cell, 4h]
    xs[:, 0, :, 4:6] = a
    out = ad.bilstm([Tensor(x.reshape(4, 8)) for x in xs], [Tensor(np.zeros((2, 8)))] * 2, 2)
    c1 = 0.5 * np.tanh(a)
    want = np.stack([0.5 * np.tanh(c1), 0.5 * np.tanh(0.5 * c1)], axis=1)
    assert out.values == pytest.approx(want.reshape(8, 2), abs=1e-15)


def test_bilstm_taped_and_untaped_forward_are_bitwise_equal():
    xs = [Tensor(RNG.normal(size=(12, 12))) for _ in range(2)]
    whs = [Tensor(RNG.normal(size=(3, 12))) for _ in range(2)]
    untaped = ad.bilstm(xs, whs, 4).values
    with ComputationTape() as tape:
        taped = ad.bilstm(xs, whs, 4).values
    assert len(tape.nodes) == 1
    assert np.array_equal(taped, untaped)


def test_bilstm_directions_are_independent():
    # a direction's states depend only on its own inputs and weights
    xs = [Tensor(RNG.normal(size=(6, 8))) for _ in range(2)]
    whs = [Tensor(RNG.normal(size=(2, 8))) for _ in range(2)]
    both = ad.bilstm(xs, whs, 3).values
    for k in range(2):
        alone = ad.bilstm([xs[k]], [whs[k]], 3).values
        assert np.array_equal(both[6 * k:6 * (k + 1)], alone)


def test_bilstm_rejects_mismatched_shapes():
    x, wh = Tensor(np.zeros((6, 8))), Tensor(np.zeros((2, 8)))
    with pytest.raises(DimensionError, match=r"\[6, 8\]"):
        ad.bilstm([x, Tensor(np.zeros((4, 8)))], [wh, wh], 2)  # unequal step counts
    with pytest.raises(DimensionError):
        ad.bilstm([x, x], [wh, Tensor(np.zeros((2, 4)))], 2)
    with pytest.raises(DimensionError):
        ad.bilstm([x, x], [wh], 2)
    with pytest.raises(DimensionError):
        ad.bilstm([x], [wh], 4)  # 6 rows are not whole steps of 4 cells


def test_add_rejects_nonbroadcastable():
    with pytest.raises(DimensionError):
        ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
    with pytest.raises(DimensionError):
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))  # a row must match the last axis


def test_softmax_rows_with_mask():
    out = ad.softmax(Tensor([[0.0, 0.0, 5.0], [1.0, 2.0, 3.0]]),
                     mask=[[True, True, False], [True, True, True]])
    assert out.values[0] == pytest.approx([0.5, 0.5, 0.0], abs=1e-15)
    assert out.values[0, 2] == 0.0
    assert out.values[1] == pytest.approx(np.exp([1, 2, 3]) / np.exp([1, 2, 3]).sum(), abs=1e-15)
    with pytest.raises(DimensionError):
        ad.softmax(Tensor(np.zeros((2, 2))), mask=[[True, True], [False, False]])


def test_nll_rows():
    dist = Tensor([[0.5, 0.25, 0.25], [0.1, 0.1, 0.8]])
    out = ad.nll(dist, [0, 2])
    assert out.values == pytest.approx([np.log(2.0), -np.log(0.8)], abs=1e-15)
    with pytest.raises(DimensionError):
        ad.nll(dist, [0, 3])
    with pytest.raises(DimensionError):
        ad.nll(dist, [0])


def test_softmax_uniform():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
    assert out.values == pytest.approx([0.25] * 4, abs=1e-15)


def test_softmax_large_logits_no_overflow():
    out = ad.softmax(Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.values))
    assert out.values[0] == pytest.approx(1.0)
    assert out.values[1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_empty_errors():
    with pytest.raises(DimensionError):
        ad.softmax(Tensor(np.zeros(0)))


@settings(max_examples=50, deadline=None)
@given(hst.lists(hst.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_softmax_sums_to_one_and_positive(xs):
    out = ad.softmax(Tensor(xs))
    assert abs(out.values.sum() - 1.0) <= 1e-12
    assert np.all(out.values > 0.0)


# ---------------------------------------------------------------------------
# backward contracts

def test_backward_sum_gives_ones():
    w = Tensor(RNG.normal(size=5), requires_grad=True)
    with ComputationTape() as tape:
        loss = ad.total(w)
    tape.backward(loss)
    assert np.array_equal(w.grad, np.ones(5))


def test_backward_dead_branch_gives_zeros():
    w = Tensor(RNG.normal(size=4), requires_grad=True)
    with ComputationTape() as tape:
        loss = ad.total(ad.scale(w, 0.0))
    tape.backward(loss)
    assert np.array_equal(w.grad, np.zeros(4))


def test_backward_rejects_nonscalar():
    w = Tensor(np.zeros(3), requires_grad=True)
    with ComputationTape() as tape:
        out = ad.scale(w, 2.0)
    with pytest.raises(ContractError):
        tape.backward(out)


def test_backward_rejects_off_tape_loss():
    w = Tensor(np.zeros(3), requires_grad=True)
    with ComputationTape() as tape:
        ad.scale(w, 2.0)
    stray = Tensor(1.0)
    with pytest.raises(ContractError):
        tape.backward(stray)


def test_backward_accumulates_additively():
    w = Tensor(RNG.normal(size=4), requires_grad=True)
    v = Tensor(RNG.normal(size=4))
    with ComputationTape() as tape:
        loss = ad.total(ad.mul(ad.softmax(w), v))
    tape.backward(loss)
    once = w.grad.copy()
    tape.backward(loss)
    assert np.array_equal(w.grad, 2.0 * once)


def test_forward_is_pure():
    x = Tensor(RNG.normal(size=6))
    a = ad.softmax(ad.mul(x, x)).values
    b = ad.softmax(ad.mul(x, x)).values
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# finite-difference checks, one per primitive

def test_grad_matmul_random():
    a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
    r = Tensor(RNG.normal(size=(3, 2)))
    fd_check(lambda: ad.total(ad.mul(ad.matmul(a, b), r)), {"a": a, "b": b})


def test_grad_add_scalar_broadcast():
    a = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
    s = Tensor(RNG.normal(), requires_grad=True)
    r = Tensor(RNG.normal(size=(2, 2)))
    fd_check(lambda: ad.total(ad.mul(ad.add(a, s), r)), {"a": a, "s": s})


def test_grad_add_row_broadcast():
    a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(RNG.normal(size=4), requires_grad=True)
    r = Tensor(RNG.normal(size=(3, 4)))
    fd_check(lambda: ad.total(ad.mul(ad.add(a, b), r)), {"a": a, "b": b})


def test_grad_mul_exact_and_scalar():
    a = Tensor(RNG.normal(size=5), requires_grad=True)
    b = Tensor(RNG.normal(size=5), requires_grad=True)
    s = Tensor(RNG.normal(), requires_grad=True)
    fd_check(lambda: ad.total(ad.mul(ad.mul(a, b), s)), {"a": a, "b": b, "s": s})


def test_grad_tanh_sigmoid():
    # the sigmoid and tanh gates live inside the fused BiLSTM; three time steps
    # in both directions, each with its own recurrent weights, also check the
    # gradient through the recurrent state
    xs = [Tensor(RNG.normal(size=(6, 8)), requires_grad=True) for _ in range(2)]
    whs = [Tensor(RNG.normal(size=(2, 8)), requires_grad=True) for _ in range(2)]
    r = Tensor(RNG.normal(size=(12, 2)))
    fd_check(lambda: ad.total(ad.mul(ad.bilstm(xs, whs, 2), r)),
             {"x_fwd": xs[0], "x_bwd": xs[1], "wh_fwd": whs[0], "wh_bwd": whs[1]})


def test_grad_softmax_jvp():
    x = Tensor(RNG.normal(size=5), requires_grad=True)
    v = Tensor(RNG.normal(size=5))
    fd_check(lambda: ad.total(ad.mul(ad.softmax(x), v)), {"x": x})
    rows = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    mask = np.array([[True, True, False, False], [True] * 4, [False, True, False, True]])
    w = Tensor(RNG.normal(size=(3, 4)))
    fd_check(lambda: ad.total(ad.mul(ad.softmax(rows, mask), w)), {"rows": rows})


def test_grad_matvec_both_ways():
    # matrix-vector products as matmul with a column, against A and A^T
    a = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
    x = Tensor(RNG.normal(size=(3, 1)), requires_grad=True)
    y = Tensor(RNG.normal(size=(4, 1)), requires_grad=True)
    r3, r4 = Tensor(RNG.normal(size=(3, 1))), Tensor(RNG.normal(size=(4, 1)))
    fd_check(lambda: ad.total(ad.mul(ad.matmul(a, x), r4)), {"a": a, "x": x})
    fd_check(lambda: ad.total(ad.mul(ad.matmul(ad.transpose(a), y), r3)), {"a": a, "y": y})


def test_grad_bmm():
    a = Tensor(RNG.normal(size=(3, 2, 4)), requires_grad=True)
    b = Tensor(RNG.normal(size=(3, 4, 5)), requires_grad=True)
    r = Tensor(RNG.normal(size=(3, 2, 5)))
    fd_check(lambda: ad.total(ad.mul(ad.bmm(a, b), r)), {"a": a, "b": b})


def test_grad_narrow_reshape():
    a = Tensor(RNG.normal(size=(5, 2)), requires_grad=True)
    r = Tensor(RNG.normal(size=(2, 2)))

    def loss():
        part = ad.narrow(ad.narrow(a, 1, 3), 1, 2)
        return ad.total(ad.mul(ad.reshape(ad.reshape(part, (4,)), (2, 2)), r))

    fd_check(loss, {"a": a})


def test_grad_mean_total_scale():
    x = Tensor(RNG.normal(size=7), requires_grad=True)
    fd_check(lambda: ad.mean(ad.scale(x, 3.0)), {"x": x})
    fd_check(lambda: ad.scale(ad.total(x), 0.25), {"x": x})


def test_grad_nll():
    x = Tensor(RNG.normal(size=4), requires_grad=True)
    fd_check(lambda: ad.nll(ad.softmax(x), 2), {"x": x})
    rows = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    fd_check(lambda: ad.mean(ad.nll(ad.softmax(rows), [2, 0, 2])), {"rows": rows})


def test_grad_row_select():
    # a gather may repeat a row; its gradient sums over the repeats
    m = Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
    r = Tensor(RNG.normal(size=(4, 3)))
    fd_check(lambda: ad.total(ad.mul(ad.gather_rows(m, [2, 0, 2, 4]), r)), {"m": m})


# ---------------------------------------------------------------------------
# misc op contracts

def test_add_mixed_scalar_shapes():
    a = Tensor(np.array(2.0), requires_grad=True)      # shape ()
    b = Tensor(np.array([3.0]), requires_grad=True)    # shape (1,)
    with ComputationTape() as tape:
        loss = ad.total(ad.add(a, b))
    tape.backward(loss)
    assert a.grad.shape == () and float(a.grad) == 1.0
    assert b.grad.shape == (1,) and float(b.grad[0]) == 1.0


def test_narrow_bounds_checked():
    with pytest.raises(DimensionError):
        ad.narrow(Tensor(np.zeros(4)), 2, 3)
    with pytest.raises(DimensionError):
        ad.narrow(Tensor(np.zeros((4, 2))), -1, 2)
    with pytest.raises(DimensionError):
        ad.gather_rows(Tensor(np.zeros((4, 2))), [0, 4])


def test_nll_uniform_is_log4():
    out = ad.nll(Tensor([0.25, 0.25, 0.25, 0.25]), 1)
    assert out.item() == pytest.approx(np.log(4.0), abs=1e-15)


def test_no_tape_means_no_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    out = ad.scale(x, 2.0)
    assert ad.active_tape() is None
    assert np.array_equal(out.values, [2.0, 2.0, 2.0])
