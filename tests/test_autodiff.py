"""Tensor construction, tape mechanics, operator gradients, and the test-side
grad_check that the gradient gate runs."""

import math

import numpy as np
import pytest

import compnet as cn
from compnet import ShapeError, TapeError, Tensor, Tape, backward
from gradcheck import from_array, grad_check, mul, reduce_sum


# ---------------------------------------------------------------------------
# construction

def test_tensor_data_is_immutable():
    t = from_array([1, 2])
    with pytest.raises(ValueError):
        t.data[0] = 5.0


def test_from_array_copies():
    a = np.array([[1.0, 2.0]])
    t = from_array(a)
    a[0, 0] = 99.0
    assert t.data[0, 0] == 1.0


def test_tensor_adopts_its_array_and_makes_it_read_only():
    a = np.array([[1.0, 2.0]])
    t = Tensor(a)
    assert t.data is a and not a.flags.writeable


# ---------------------------------------------------------------------------
# elementwise ops

def test_mul_example():
    out = mul(from_array([1, 2, 3]), from_array([2, 2, 2]))
    assert np.array_equal(out.data, [2, 4, 6])


def test_elementwise_shape_mismatch():
    a = from_array([1, 2])
    b = from_array([1, 2, 3])
    with pytest.raises(ShapeError):
        mul(a, b)


# ---------------------------------------------------------------------------
# reduce_sum

def test_reduce_sum_examples():
    assert reduce_sum(from_array([1, 2, 3])).item() == 6.0
    assert reduce_sum(from_array(np.zeros((2, 2)))).item() == 0.0


def test_reduce_sum_sequential_accumulation():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=10)
    acc = 0.0
    for v in vals.reshape(-1):
        acc += float(v)
    assert reduce_sum(from_array(vals)).item() == acc


# ---------------------------------------------------------------------------
# backward

def test_grad_of_sum_of_squares():
    tape = Tape()
    x = tape.watch(from_array([1, -2, 3]))
    loss = reduce_sum(mul(x, x))
    grads = backward(loss)
    assert np.array_equal(grads[x.node_id], [2, -4, 6])


def test_grad_of_plain_sum_is_ones():
    tape = Tape()
    x = tape.watch(from_array(np.random.default_rng(2).normal(size=(2, 3))))
    grads = backward(reduce_sum(x))
    assert np.array_equal(grads[x.node_id], np.ones((2, 3)))


def test_backward_returns_plain_arrays_shaped_like_their_nodes():
    tape = Tape()
    x = tape.watch(from_array(np.ones((2, 3, 1, 2))))
    w = tape.watch(from_array(np.ones((6, 4))))
    grads = backward(reduce_sum(cn.dense(x, cn.DenseParams(w, from_array(np.zeros(4))))))
    assert all(type(g) is np.ndarray for g in grads.values())
    assert grads[x.node_id].shape == (2, 3, 1, 2)
    assert grads[w.node_id].shape == (6, 4)


def test_backward_skips_an_entry_the_loss_does_not_reach():
    tape = Tape()
    x = tape.watch(from_array([[1.0, 2.0], [3.0, 4.0]]))
    unused = reduce_sum(x)
    grads = backward(reduce_sum(mul(x, x)))
    assert np.array_equal(grads[x.node_id], [[2.0, 4.0], [6.0, 8.0]])
    assert unused.node_id not in grads


def test_backward_returns_only_the_leaves_the_loss_reaches():
    tape = Tape()
    x = tape.watch(from_array([1.0, 2.0]))
    tape.watch(from_array([3.0, 4.0]))  # a leaf the loss never reaches
    grads = backward(reduce_sum(mul(x, x)))
    assert list(grads) == [x.node_id]  # no untouched leaf, no intermediate node
    assert np.array_equal(grads[x.node_id], [2.0, 4.0])


def test_backward_rejects_non_scalar_loss():
    tape = Tape()
    x = tape.watch(from_array([1.0, 2.0]))
    with pytest.raises(ShapeError):
        backward(mul(x, x))


def test_backward_rejects_untracked_loss():
    x = from_array([1.0, 2.0])
    with pytest.raises(TapeError):
        backward(reduce_sum(x))


def test_ops_reject_tensors_from_different_tapes():
    t1, t2 = Tape(), Tape()
    x = t1.watch(from_array([1.0, 2.0]))
    y = t2.watch(from_array([3.0, 4.0]))
    with pytest.raises(TapeError):
        mul(x, y)


# ---------------------------------------------------------------------------
# grad_check

def test_grad_check_quadratic():
    report = grad_check(lambda x: reduce_sum(mul(x, x)),
                        from_array([1.0, 2.0]), step=1e-5)
    assert report.passed
    assert report.max_rel_err <= 1e-8


def test_grad_check_linear_is_exact_to_rounding():
    report = grad_check(reduce_sum, from_array([0.3, -1.2, 2.5]))
    assert report.passed
    assert report.max_rel_err <= 1e-9


def test_grad_check_leaky_relu_away_from_kink():
    point = from_array([-2.0, -0.5, 0.7, 3.0])  # all |x| > 10 * step
    report = grad_check(lambda x: reduce_sum(cn.leaky_relu(x)), point,
                        step=1e-5, tol=1e-6)
    assert report.passed


def test_grad_check_composite_graph():
    rng = np.random.default_rng(11)
    kernels = from_array(rng.normal(scale=0.5, size=(2, 1, 3, 3)))
    kbias = from_array(rng.normal(scale=0.1, size=(2,)))
    w = from_array(rng.normal(scale=0.5, size=(2 * 3 * 3, 3)))
    b = from_array(rng.normal(scale=0.1, size=(3,)))

    def f(x):
        conv = cn.conv2d(x, cn.ConvParams(kernels, kbias))
        pooled = cn.maxpool2d(conv)
        return reduce_sum(cn.dense(pooled, cn.DenseParams(w, b)))

    point = from_array(rng.normal(size=(2, 1, 8, 8)))
    report = grad_check(f, point, step=1e-5, tol=1e-6)
    assert report.passed, f"max rel err {report.max_rel_err}"


@pytest.mark.parametrize("fn,point,kwargs,error,message", [
    (reduce_sum, [1.0], {"step": 0.0}, cn.ConfigError, "positive step and tol"),
    (reduce_sum, [1.0], {"tol": -1e-6}, cn.ConfigError, "positive step and tol"),
    (lambda x: mul(x, x), [1.0, 2.0], {}, ShapeError, "must return a scalar"),
    (lambda x: reduce_sum(mul(x, x)), [1e200], {}, cn.NumericError, "at the test point"),
    # x*x is 1e308 at the point and overflows at x + step.
    (lambda x: reduce_sum(mul(x, x)), [1e154], {"step": 1e154}, cn.NumericError,
     "at coordinate 0")],
    ids=["zero-step", "negative-tol", "vector-valued", "infinite-at-point",
         "infinite-at-a-bump"])
def test_grad_check_refuses_what_it_cannot_check(fn, point, kwargs, error, message):
    with np.errstate(over="ignore"), pytest.raises(error, match=message):
        grad_check(fn, from_array(point), **kwargs)
