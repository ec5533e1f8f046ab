"""Tensor construction, tape mechanics, operator gradients, and grad_check."""

import math

import numpy as np
import pytest

import compnet as cn
from compnet import (DataError, ShapeError, TapeError, Tensor, Tape, backward,
                     from_array, grad_check, mul, reduce_sum, reshape)


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


# ---------------------------------------------------------------------------
# reshape

def test_reshape_vector_to_matrix():
    t = from_array([1, 2, 3, 4, 5, 6])
    r = reshape(t, [2, 3])
    assert np.array_equal(r.data, [[1, 2, 3], [4, 5, 6]])


def test_reshape_matrix_transposed_layout():
    t = from_array([[1, 2, 3], [4, 5, 6]])
    r = reshape(t, [3, 2])
    assert np.array_equal(r.data, [[1, 2], [3, 4], [5, 6]])


def test_reshape_count_mismatch():
    with pytest.raises(ShapeError):
        reshape(from_array([1, 2, 3, 4]), [3, 2])


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
    assert np.array_equal(grads[x.node_id].data, [2, -4, 6])


def test_grad_of_plain_sum_is_ones():
    tape = Tape()
    x = tape.watch(from_array(np.random.default_rng(2).normal(size=(2, 3))))
    grads = backward(reduce_sum(x))
    assert np.array_equal(grads[x.node_id].data, np.ones((2, 3)))


def test_untouched_leaf_gets_zero_grad():
    tape = Tape()
    x = tape.watch(from_array([1.0, 2.0]))
    y = tape.watch(from_array([3.0, 4.0]))
    grads = backward(reduce_sum(mul(x, x)))
    assert not grads[y.node_id].data.any()


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
        flat = reshape(pooled, [2, 2 * 3 * 3])
        return reduce_sum(cn.dense(flat, cn.DenseParams(w, b)))

    point = from_array(rng.normal(size=(2, 1, 8, 8)))
    report = grad_check(f, point, step=1e-5, tol=1e-6)
    assert report.passed, f"max rel err {report.max_rel_err}"
