"""Tape recording, replay determinism, and reverse-mode gradients."""

import gradcheck
import numpy as np
import pytest
from gradcheck import record_forward, replay
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wflow import numcore as nc


def test_scalar_square_record():
    outs, tape = record_forward(lambda w: nc.square(w), [np.array(3.0)])
    assert outs[0].data == 9.0
    assert sum(1 for n in tape.nodes if n.op == "square") == 1


def test_zero_weight_network():
    w = np.zeros((2, 3))
    x = np.array([[1.0, 2.0]])
    outs, _ = record_forward(
        lambda wt: nc.tsum(nc.tanh(nc.matmul(nc.Tensor(x), wt))), [w])
    assert outs[0].data == 0.0


def test_hand_evaluated_quadratic():
    # mean((W x - b)^2) with W = I2, x = (1, 2), b = 0 is (1 + 4) / 2
    x = np.array([[1.0, 2.0]])
    outs, _ = record_forward(
        lambda wt: nc.tmean(nc.square(nc.affine(nc.Tensor(x), wt, nc.Tensor(np.zeros(2))))),
        [np.eye(2)])
    assert outs[0].data == pytest.approx(2.5)


def test_grad_power_rule():
    _, tape = record_forward(lambda w: nc.square(w), [np.array(3.0)])
    assert nc.grad(tape)[0].data == pytest.approx(6.0)


def test_grad_tanh_at_zero():
    _, tape = record_forward(lambda w: nc.tanh(w), [np.array(0.0)])
    assert nc.grad(tape)[0].data == pytest.approx(1.0)


def test_grad_mean_linear():
    x = np.array([[1.0, 2.0]])
    _, tape = record_forward(
        lambda wt: nc.tmean(nc.matmul(wt, nc.Tensor(x.T))), [np.zeros((1, 2))])
    assert np.allclose(nc.grad(tape)[0].data, [[1.0, 2.0]])


def test_replay_bit_identical():
    rng = np.random.default_rng(0)
    w1, b1 = rng.normal(size=(3, 8)), rng.normal(size=8)
    x = rng.normal(size=(5, 3))

    def program(wt, bt):
        h = nc.tanh(nc.affine(nc.Tensor(x), wt, bt))
        return nc.tmean(nc.square(h))

    outs1, tape = record_forward(program, [w1, b1])
    outs2, _ = record_forward(program, [w1, b1])
    assert np.array_equal(outs1[0].data, outs2[0].data)
    replayed = replay(tape)
    assert np.array_equal(outs1[0].data, replayed[0])
    # replay with perturbed parameters still matches a fresh recording
    w2 = w1 + 0.5
    outs3, _ = record_forward(program, [w2, b1])
    assert np.array_equal(outs3[0].data, replay(tape, [w2, b1])[0])


def test_shape_error_carries_op_index():
    with pytest.raises(nc.ShapeError) as err:
        record_forward(lambda w: nc.matmul(w, nc.Tensor(np.ones((3, 2)))),
                       [np.ones((1, 2))])
    assert err.value.op == "matmul"
    # the parameter leaf is index 0 and the constant operand 1; the op would be 2
    assert err.value.index == 2


def test_nonfinite_output_aborts():
    with pytest.raises(nc.NumericError):
        nc.mul(nc.Tensor(np.array([1e300])), -1e300)  # -inf
    with pytest.raises(nc.NumericError):
        nc.square(nc.Tensor(np.array([1e200])))  # +inf


def test_grad_linearity():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(4, 2))
    x = nc.Tensor(rng.normal(size=(6, 4)))
    a, b = 1.7, -0.4

    def l1(wt):
        return nc.tmean(nc.square(nc.matmul(x, wt)))

    def l2(wt):
        return nc.tmean(nc.tanh(nc.matmul(x, wt)))

    def combined(wt):
        return nc.add(nc.mul(l1(wt), a), nc.mul(l2(wt), b))

    _, t1 = record_forward(l1, [w])
    _, t2 = record_forward(l2, [w])
    _, tc = record_forward(combined, [w])
    expected = a * nc.grad(t1)[0].data + b * nc.grad(t2)[0].data
    assert np.allclose(nc.grad(tc)[0].data, expected, atol=1e-12)


def test_broadcast_add_mul_gradients():
    def loss(wt, ct):
        prod = nc.mul(wt, ct)  # (3, 2) * (2,)
        return nc.tsum(nc.add(prod, 1.0))

    report = gradcheck.check_gradient_fd(loss, [np.ones((3, 2)), np.array([2.0, -1.0])])
    assert report.passed, str(report)


@settings(deadline=None, max_examples=80)
@given(hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3, max_side=3),
       st.sampled_from(["add", "mul"]), st.integers(0, 2**32 - 1))
def test_broadcast_gradients_match_finite_differences(shapes, op, seed):
    # _unbroadcast must sum the output cotangent back to each operand's shape
    (shape_a, shape_b), out_shape = shapes.input_shapes, shapes.result_shape
    rng = np.random.default_rng(seed)
    a, b = np.asarray(rng.normal(size=shape_a)), np.asarray(rng.normal(size=shape_b))
    weights = nc.Tensor(rng.normal(size=out_shape))
    primitive = nc.add if op == "add" else nc.mul

    def loss(at, bt):
        return nc.tsum(nc.mul(primitive(at, bt), weights))

    _, grads = nc.value_and_grad(lambda tape: loss(tape.watch(nc.Tensor(a)),
                                                   tape.watch(nc.Tensor(b))))
    assert [g.shape for g in grads] == [a.shape, b.shape]
    report = gradcheck.check_gradient_fd(loss, [a, b])
    assert report.passed, str(report)


def test_concat_slice_gradients():
    rng = np.random.default_rng(5)

    def loss(at, bt):
        joined = nc.concat([at, bt], axis=1)
        left = nc.slice_(joined, 1, 0, 2)
        return nc.add(nc.tmean(nc.square(left)), nc.tmean(nc.square(joined)))

    report = gradcheck.check_gradient_fd(loss, [rng.normal(size=(4, 2)), rng.normal(size=(4, 3))])
    assert report.passed, str(report)


def test_softplus_sigmoid_gradients():
    rng = np.random.default_rng(6)

    def loss(wt):
        return nc.tmean(nc.softplus(wt))

    report = gradcheck.check_gradient_fd(loss, [rng.normal(size=7) * 3])
    assert report.passed, str(report)


def test_fd_cubic():
    report = gradcheck.check_gradient_fd(lambda w: nc.mul(nc.square(w), w), [np.array(2.0)])
    assert report.passed
    assert report.max_rel_err < 1e-6


def test_fd_constant_passes():
    # zero analytic against zero FD must not divide by zero
    report = gradcheck.check_gradient_fd(lambda w: nc.mul(w, 0.0), [np.array(1.0)])
    assert report.passed


@pytest.mark.parametrize("seed", range(5))
def test_fd_random_mlp(seed):
    rng = np.random.default_rng(seed)
    w1, b1 = rng.normal(size=(3, 4)) * 0.7, rng.normal(size=4) * 0.2
    w2, b2 = rng.normal(size=(4, 2)) * 0.7, rng.normal(size=2) * 0.2
    x = rng.normal(size=(6, 3))

    def loss(w1t, b1t, w2t, b2t):
        h = nc.tanh(nc.affine(nc.Tensor(x), w1t, b1t))
        out = nc.affine(h, w2t, b2t)
        return nc.tmean(nc.square(out))

    report = gradcheck.check_gradient_fd(loss, [w1, b1, w2, b2])
    assert report.passed, str(report)


def test_check_loss_gradient_fd_agrees():
    rng = np.random.default_rng(9)
    w = rng.normal(size=(3, 3))
    x = rng.normal(size=(5, 3))

    def loss_fn():
        tape = nc.Tape()
        with tape:
            wt = tape.watch(nc.Tensor(w))
            out = nc.tmean(nc.square(nc.matmul(nc.Tensor(x), wt)))
        tape.mark_output(out)
        tape.freeze()
        return float(out.data), [g.data for g in nc.grad(tape)]

    report = gradcheck.check_loss_gradient_fd(loss_fn, [w])
    assert report.passed, str(report)


def test_frozen_tape_rejects_new_ops():
    _, tape = record_forward(lambda w: nc.square(w), [np.array(1.0)])
    with pytest.raises(nc.NumericError):
        with tape:
            nc.square(nc.Tensor(np.array(2.0)))
